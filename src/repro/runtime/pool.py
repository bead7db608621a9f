"""Process-wide persistent executor and the shared dispatch engine.

Every parallel entry point in the stack (``table1 --jobs``, ``flows
--jobs``, Monte-Carlo shards) used to build a fresh
``ProcessPoolExecutor`` per run — and per retry round — so dispatch cost
was dominated by process spawn plus the numpy/repro import in every
worker.  This module hoists all of that into one place:

- :func:`acquire` hands out a lease on a process-wide executor that is
  created once and reused across runs (``runtime.pool.reuse`` counts the
  wins).  A lease over a pool that saw a timeout or a worker death is
  discarded — a broken pool must never be reused — and the next round
  acquires a fresh one, which is exactly the old per-round behavior.
  The scoped :func:`persistent` override gives a dedicated pool per
  round again (the reference side of the dispatch benchmark and the
  pool-mode determinism test); results are bit-identical either way
  because worker count and pool lifetime never feed back into the
  computation.

- :func:`run_dispatch` is the one dispatch loop both
  :mod:`repro.core.batch` and :mod:`repro.analysis.montecarlo` are thin
  clients of.  It preserves the shard-recovery contract those modules
  grew independently: pickle pre-validation stays client-side (before
  any worker spawns), a unit whose worker dies or times out is
  resubmitted a bounded number of times and then run in-process, the
  journal drain harvests completed futures on SIGINT/SIGTERM before
  :class:`~repro.errors.RunInterrupted` propagates, and budget checks
  run at round and fallback boundaries.
"""

from __future__ import annotations

import atexit
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro import telemetry
from repro.resilience import faults
from repro.resilience.budget import Budget
from repro.resilience.journal import RunJournal, ignore_sigint
from repro.telemetry import metrics


# --------------------------------------------------------------------------
# Persistent executor


class _PoolState:
    """The process-wide executor and its generation."""

    __slots__ = ("executor", "max_workers", "generation")

    def __init__(self, executor: Any, max_workers: int, generation: int):
        self.executor = executor
        self.max_workers = max_workers
        self.generation = generation


_STATE: Optional[_PoolState] = None
_GENERATION = 0
_OVERRIDE: List[bool] = []


def persistent_enabled() -> bool:
    """Whether :func:`acquire` reuses the process-wide executor."""
    return _OVERRIDE[-1] if _OVERRIDE else True


@contextmanager
def persistent(flag: bool) -> Iterator[None]:
    """Scoped override of :func:`persistent_enabled` (tests, benchmarks)."""
    _OVERRIDE.append(bool(flag))
    try:
        yield
    finally:
        _OVERRIDE.pop()


@dataclass
class PoolLease:
    """One dispatch round's claim on an executor.

    A lease over the persistent pool leaves it warm on :meth:`release`;
    a dedicated lease (persistence disabled) shuts its pool down, which
    is the old per-round lifecycle.  :meth:`discard` tears the pool down
    in either mode — mandatory after a timeout or worker death.
    """

    executor: Any
    persistent: bool
    state: Optional[_PoolState] = None

    @property
    def generation(self) -> int:
        return self.state.generation if self.state is not None else -1

    def release(self, wait: bool = True) -> None:
        """Return the lease after a clean round."""
        if self.persistent:
            return
        self.executor.shutdown(wait=wait, cancel_futures=True)

    def discard(self, wait: bool) -> None:
        """Tear the pool down (timeout, worker death, or propagating
        error); the next :func:`acquire` starts a fresh generation."""
        global _STATE
        try:
            self.executor.shutdown(wait=wait, cancel_futures=True)
        finally:
            if self.state is not None and _STATE is self.state:
                _STATE = None


def acquire(max_workers: int) -> PoolLease:
    """Lease an executor with at least ``max_workers`` workers.

    Reuses the process-wide pool when persistence is enabled and the
    live pool is big enough; otherwise (first call, pool too small, or
    persistence disabled) creates one.  Workers always ignore SIGINT so
    Ctrl-C — delivered to the whole process group — leaves the pool
    intact for the parent's journal drain.
    """
    global _STATE, _GENERATION
    from concurrent.futures import ProcessPoolExecutor

    if not persistent_enabled():
        return PoolLease(
            executor=ProcessPoolExecutor(
                max_workers=max_workers, initializer=ignore_sigint
            ),
            persistent=False,
        )
    state = _STATE
    if (
        state is not None
        and not getattr(state.executor, "_broken", False)
        and state.max_workers >= max_workers
    ):
        telemetry.count("runtime.pool.reuse")
        return PoolLease(
            executor=state.executor, persistent=True, state=state
        )
    if state is not None:
        _STATE = None
        state.executor.shutdown(wait=True, cancel_futures=True)
    _GENERATION += 1
    executor = ProcessPoolExecutor(
        max_workers=max_workers, initializer=ignore_sigint
    )
    _STATE = _PoolState(executor, max_workers, _GENERATION)
    telemetry.count("runtime.pool.create")
    return PoolLease(executor=executor, persistent=True, state=_STATE)


def shutdown(wait: bool = True) -> None:
    """Shut down the persistent executor (atexit, tests, benchmarks)."""
    global _STATE
    state = _STATE
    _STATE = None
    if state is not None:
        state.executor.shutdown(wait=wait, cancel_futures=True)


def pool_generation() -> int:
    """Generation of the live persistent pool (0 when none exists)."""
    return _STATE.generation if _STATE is not None else 0


atexit.register(shutdown)


# --------------------------------------------------------------------------
# The shared dispatch engine


@dataclass(frozen=True)
class DispatchSites:
    """Per-caller names for the dispatch engine's instrumentation and
    checkpoint sites, so batch and Monte-Carlo keep their established
    budget/journal/fault vocabularies through the shared loop."""

    fault_site: str
    """Fault-injection site fired per submission (``faults.fire``)."""
    budget_round: str
    """Budget checkpoint at the top of every dispatch round."""
    drain_site: str
    """Journal interrupt site after draining in-flight futures."""
    fallback_check: str
    """Journal interrupt site before each in-process fallback unit."""
    budget_fallback: str
    """Budget checkpoint before each in-process fallback unit."""
    unit_kw: str
    """Keyword naming the unit index in fallback budget checks."""
    transport_shutdown_wait: bool = False
    """Drain the pool before raising a transport (result-pickling)
    error — Monte-Carlo's historical behavior; batch fails immediately."""


def run_dispatch(
    client: Any,
    pending: List[int],
    jobs: int,
    unit_timeout: Optional[float],
    max_retries: int,
    budget: Optional[Budget],
    journal: Optional[RunJournal],
    sites: DispatchSites,
) -> None:
    """Run ``pending`` unit indices through the pool with bounded recovery.

    The client owns unit semantics; the engine owns the lifecycle.  A
    client provides::

        submit(executor, i, crash) -> Future
        accept(i, outcome, submit_time)   # harvest one result
        has_result(i) -> bool             # for the journal drain
        begin_attempt(i)                  # attempts ledger
        note_timeout(i, timeout)          # status + telemetry
        note_death(i, error)              # status + telemetry
        transport_exceptions              # tuple caught as fail-fast
        transport_error(i, error) -> Exception
        fallback(i)                       # in-process recovery

    A unit whose worker dies or times out is resubmitted on a fresh pool
    up to ``max_retries`` times and then handed to ``fallback``.
    Whole-dispatch wall time lands in the ``runtime.dispatch.seconds``
    histogram.
    """
    from concurrent.futures import BrokenExecutor
    from concurrent.futures import TimeoutError as FuturesTimeoutError

    tracer = telemetry.current()
    t_start = time.perf_counter()
    rounds_used = 0
    try:
        while pending and rounds_used <= max_retries:
            rounds_used += 1
            if budget is not None:
                budget.check(sites.budget_round, pending=len(pending))
            retry: List[int] = []
            lease = acquire(min(jobs, len(pending)))
            pool = lease.executor
            had_timeout = False
            had_death = False
            futures: Dict[int, Any] = {}
            submit_times: Dict[int, float] = {}
            try:
                broken_at_submit = False
                for i in pending:
                    if broken_at_submit:
                        # The pool broke mid-submission; this unit was
                        # never attempted — carry it to the next round.
                        retry.append(i)
                        continue
                    crash = (
                        faults.fire(sites.fault_site, index=i) is not None
                    )
                    client.begin_attempt(i)
                    if tracer is not None:
                        submit_times[i] = tracer.now()
                    try:
                        futures[i] = client.submit(pool, i, crash)
                    except (BrokenExecutor, OSError) as error:
                        # Only a *warm* pool can break while we are
                        # still submitting: an earlier unit's worker is
                        # already executing and died.  The old per-round
                        # cold pools could never hit this — recover the
                        # same way a harvest-time death does.
                        broken_at_submit = True
                        had_death = True
                        client.note_death(i, error)
                        retry.append(i)
                for i, future in futures.items():
                    if journal is not None and journal.interrupted:
                        # Shutdown signal: drain every submitted unit —
                        # queued ones too, so none is cancelled before
                        # it starts — journal every result, then stop
                        # cleanly.
                        pool.shutdown(wait=True)
                        for j, done in futures.items():
                            if (
                                not client.has_result(j)
                                and done.done()
                                and not done.cancelled()
                                and done.exception() is None
                            ):
                                client.accept(
                                    j, done.result(), submit_times.get(j)
                                )
                        journal.check_interrupt(sites.drain_site)
                    try:
                        outcome = future.result(timeout=unit_timeout)
                        client.accept(i, outcome, submit_times.get(i))
                    except client.transport_exceptions as error:
                        # A result that cannot cross back can never
                        # succeed on a retry: fail fast with context.
                        if sites.transport_shutdown_wait:
                            pool.shutdown(wait=True, cancel_futures=True)
                        raise client.transport_error(i, error) from error
                    except FuturesTimeoutError:
                        had_timeout = True
                        client.note_timeout(i, unit_timeout)
                        retry.append(i)
                    except (BrokenExecutor, OSError, EOFError) as error:
                        had_death = True
                        client.note_death(i, error)
                        retry.append(i)
            except BaseException:
                # A unit-level error propagates to the caller like a
                # serial run's would; don't leave workers running behind
                # it, and never hand a possibly-wedged pool to the next
                # dispatch.
                lease.discard(wait=False)
                raise
            if had_timeout:
                # A timed-out worker may still be running; don't block
                # on it, and don't reuse a pool with a stale unit.
                lease.discard(wait=False)
            elif had_death:
                lease.discard(wait=True)
            else:
                lease.release()
            pending = sorted(retry)
    finally:
        metrics.observe(
            "runtime.dispatch.seconds", time.perf_counter() - t_start
        )

    # Bounded retries exhausted: bring the stragglers home in-process.
    for i in pending:
        if journal is not None:
            journal.check_interrupt(sites.fallback_check)
        if budget is not None:
            budget.check(sites.budget_fallback, **{sites.unit_kw: i})
        client.begin_attempt(i)
        client.fallback(i)
