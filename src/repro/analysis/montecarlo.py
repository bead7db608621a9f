"""Monte-Carlo mismatch analysis.

The paper's sizing tool "permits to undergo statistical analysis to check
the reliability of the synthesized circuit".  We implement the standard
Pelgrom mismatch model: each device draws an independent threshold shift
with ``sigma_VT = A_VT / sqrt(W L)`` and a relative current-factor error
with ``sigma_beta = A_beta / sqrt(W L)``, then the requested measurement is
re-run per sample.

The compiled engine draws **all** samples up front (one vectorized RNG
call whose stream matches the legacy per-device draw order), compiles the
feedback circuit into one :class:`~repro.analysis.stamps.StampProgram`
and solves a chunk of sample rows as one stacked ensemble Newton
(:mod:`repro.analysis.ensemble`) instead of re-cloning and re-stamping
per sample; with ``workers=N`` the pre-drawn sample rows are partitioned
over a process pool.  Because the draws are fixed before any work is
scheduled, results are identical for any worker count.

Pooled dispatch goes through the persistent executor runtime
(:mod:`repro.runtime`), which reuses one pool across calls.  Every shard
ships the testbench, the measure function and its own row slices, and
the worker runs the same chunk function the in-process path runs, so the
pool never changes a single sampled value.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.analysis.engine import COMPILED, resolve_engine
from repro.analysis.metrics import OtaTestbench, feedback_dc_solution
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.resilience.budget import Budget
from repro.resilience.journal import RunJournal
from repro.runtime import pool as runtime_pool
from repro.telemetry import metrics, monitor


@dataclass
class ShardStatus:
    """Fate of one worker-pool shard of pre-drawn samples."""

    index: int
    span: Tuple[int, int]
    """Half-open sample range ``[lo, hi)`` this shard covers."""
    attempts: int = 0
    status: str = "pending"
    """``ok`` | ``resubmitted`` | ``in-process`` | ``failed`` |
    ``journaled`` (restored from a run journal, not re-run)."""
    error: Optional[str] = None
    """Last failure seen (worker death, timeout), even when recovered."""


@dataclass
class MonteCarloResult:
    """Sampled statistic collection."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    n_failed: int = 0
    """Samples lost to unrecoverable shard failures (0 on a clean run)."""
    shards: List[ShardStatus] = field(default_factory=list)
    """Per-shard dispatch record when a process pool was used."""

    def mean(self, key: str) -> float:
        return float(np.mean(self.samples[key]))

    def std(self, key: str) -> float:
        return float(np.std(self.samples[key], ddof=1))

    def worst(self, key: str) -> float:
        """Sample farthest from the mean."""
        values = np.asarray(self.samples[key])
        return float(values[np.argmax(np.abs(values - values.mean()))])

    def summary(self) -> str:
        lines = []
        for key in sorted(self.samples):
            lines.append(
                f"{key}: mean={self.mean(key):.4g} sigma={self.std(key):.4g}"
            )
        return "\n".join(lines)


def apply_mismatch(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """Clone ``circuit`` with Pelgrom-sampled per-device mismatch."""
    clone = circuit.clone(circuit.name + "_mc")
    for mos in clone.mos_devices:
        assert mos.params is not None
        area = mos.w * mos.l
        sigma_vt = mos.params.avt / math.sqrt(area)
        sigma_beta = mos.params.abeta / math.sqrt(area)
        mos.mismatch_vth = float(rng.normal(0.0, sigma_vt))
        mos.mismatch_beta = float(rng.normal(0.0, sigma_beta))
    return clone


def draw_mismatch_samples(
    circuit: Circuit, runs: int, seed: int
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """All Pelgrom samples for ``runs`` trials in one vectorized draw.

    Returns ``(names, vth, beta)`` with the matrices shaped
    ``(runs, n_devices)`` in circuit device order.  The flattened draw
    order (run-major, then device, then vth-before-beta) reproduces the
    stream :func:`apply_mismatch` consumes from the same seed, so the
    pre-drawn path is sample-for-sample identical to the legacy loop.
    """
    devices = circuit.mos_devices
    sigma_vt = np.empty(len(devices))
    sigma_beta = np.empty(len(devices))
    for i, mos in enumerate(devices):
        assert mos.params is not None
        root_area = math.sqrt(mos.w * mos.l)
        sigma_vt[i] = mos.params.avt / root_area
        sigma_beta[i] = mos.params.abeta / root_area
    rng = np.random.default_rng(seed)
    sigma = np.stack([sigma_vt, sigma_beta], axis=1)
    draws = rng.normal(0.0, np.broadcast_to(sigma, (runs,) + sigma.shape))
    return (
        [mos.name for mos in devices],
        draws[:, :, 0],
        draws[:, :, 1],
    )


def _testbench_with_mismatch(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_row: np.ndarray,
    beta_row: np.ndarray,
) -> OtaTestbench:
    """A cloned testbench with one pre-drawn sample row applied."""
    clone = tb.circuit.clone(tb.circuit.name + "_mc")
    for name, d_vth, d_beta in zip(names, vth_row, beta_row):
        mos = clone.mos(name)
        mos.mismatch_vth = float(d_vth)
        mos.mismatch_beta = float(d_beta)
    return OtaTestbench(
        circuit=clone,
        source_pos=tb.source_pos,
        source_neg=tb.source_neg,
        input_neg_net=tb.input_neg_net,
        output_net=tb.output_net,
        supply_sources=tb.supply_sources,
        slew_devices=tb.slew_devices,
    )


class _CompiledOffset:
    """The default offset measurement, compiled once per testbench.

    Holds the feedback-loop :class:`~repro.analysis.stamps.StampProgram`
    plus the permutation that maps pre-drawn sample columns (circuit
    device order) onto program device order.  Compilation is a pure
    function of the testbench, and both measurements are stateless across
    calls (:meth:`EnsembleProgram.from_mismatch
    <repro.analysis.ensemble.EnsembleProgram.from_mismatch>` takes
    explicit rows; ``set_mismatch`` deltas are overwritten per sample),
    so one instance serves every row of a chunk.
    """

    __slots__ = ("names", "program", "out_node", "vcm", "permutation")

    def __init__(self, tb: OtaTestbench, names: Sequence[str]):
        from repro.analysis.stamps import StampProgram

        feedback = tb.circuit.clone(tb.circuit.name + "_fb")
        feedback.remove(tb.source_neg)
        feedback.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
        self.program = StampProgram(feedback)
        self.out_node = self.program.index.node(tb.output_net)
        self.vcm = tb.common_mode_voltage()
        self.names = tuple(names)
        order = {name: i for i, name in enumerate(self.names)}
        self.permutation = np.array(
            [order[name] for name in self.program.mos_names], dtype=np.intp
        )

    def measure(
        self, vth_rows: np.ndarray, beta_rows: np.ndarray
    ) -> List[Dict[str, float]]:
        """Offset samples for a chunk of pre-drawn rows.

        Every row becomes one member of a single batched ``(K, n, n)``
        Newton solve; :meth:`measure_per_sample` is the reference it
        matches sample for sample.
        """
        from repro.analysis.ensemble import EnsembleProgram

        solution = EnsembleProgram.from_mismatch(
            self.program,
            np.asarray(vth_rows)[:, self.permutation],
            np.asarray(beta_rows)[:, self.permutation],
        ).solve()
        # The per-sample loop raises at the first failing sample; match
        # that contract so shard recovery stays unchanged.
        solution.raise_on_failure()
        return [
            {"offset_voltage": float(v[self.out_node]) - self.vcm}
            for v in solution.voltages
        ]

    def measure_per_sample(
        self, vth_rows: np.ndarray, beta_rows: np.ndarray
    ) -> List[Dict[str, float]]:
        """Reference for :meth:`measure`: one scalar DC solve per row."""
        stats: List[Dict[str, float]] = []
        for vth_row, beta_row in zip(vth_rows, beta_rows):
            self.program.set_mismatch(
                vth_row[self.permutation], beta_row[self.permutation]
            )
            voltages, _iterations, _gmin = self.program.solve_voltages()
            stats.append(
                {"offset_voltage": float(voltages[self.out_node]) - self.vcm}
            )
        return stats


def _offset_chunk(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_rows: np.ndarray,
    beta_rows: np.ndarray,
    crash: bool = False,
) -> List[Dict[str, float]]:
    """Default measurement (input offset) for a chunk of sample rows.

    One compiled feedback program (:class:`_CompiledOffset`) is shared
    by the whole chunk.

    Module-level so process-pool workers can pickle it.  ``crash`` is the
    fault-injection hook: the parent's registry decides a shard should die
    and the worker obliges with an unclean exit, so the recovery path sees
    a genuine broken pool.
    """
    if crash:
        os._exit(1)
    return _CompiledOffset(tb, names).measure(vth_rows, beta_rows)


def _measure_chunk(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_rows: np.ndarray,
    beta_rows: np.ndarray,
    measure: Callable[[OtaTestbench], Dict[str, float]],
    crash: bool = False,
) -> List[Dict[str, float]]:
    """Custom measurement for a chunk of pre-drawn sample rows."""
    if crash:
        os._exit(1)
    return [
        dict(measure(_testbench_with_mismatch(tb, names, vth_row, beta_row)))
        for vth_row, beta_row in zip(vth_rows, beta_rows)
    ]


def _run_chunk(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_rows: np.ndarray,
    beta_rows: np.ndarray,
    measure: Optional[Callable[[OtaTestbench], Dict[str, float]]],
    crash: bool = False,
) -> List[Dict[str, float]]:
    """Dispatch one chunk to the right measurement implementation.

    A custom ``measure`` always runs per sample (it takes a whole
    testbench); only the default offset measurement has a stacked form.
    """
    if measure is None:
        return _offset_chunk(tb, names, vth_rows, beta_rows, crash)
    return _measure_chunk(tb, names, vth_rows, beta_rows, measure, crash)


def _run_chunk_traced(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_rows: np.ndarray,
    beta_rows: np.ndarray,
    measure: Optional[Callable[[OtaTestbench], Dict[str, float]]],
    crash: bool,
    shard_index: int,
    lo: int,
    hi: int,
) -> Tuple[List[Dict[str, float]], Dict[str, object]]:
    """Worker-side traced chunk: runs under a local tracer and ships the
    picklable trace payload back with the samples.

    The parent grafts the payload under its ``mc.run`` span with
    :meth:`~repro.telemetry.core.Tracer.absorb`, which is how per-shard
    spans, worker-side solver counters and metrics aggregates (the
    :func:`~repro.telemetry.core.traced_worker` delta) survive the
    process boundary.  Tracing never touches the pre-drawn sample rows,
    so results stay bit-identical with tracing on or off.

    Pool workers and the in-process fallback in :func:`_run_shards` both
    run it, so a shard recovered from a dead worker reports the same
    spans and counters as one that came home through the pool.
    """
    t0 = time.perf_counter()
    with telemetry.traced_worker(
        "mc.shard", index=shard_index, lo=lo, hi=hi
    ) as tracer:
        stats = _run_chunk(tb, names, vth_rows, beta_rows, measure, crash)
        tracer.count("mc.samples_measured", hi - lo)
        metrics.observe("mc.shard.seconds", time.perf_counter() - t0)
    return stats, tracer.trace_payload()


def _shard_key(span: Tuple[int, int]) -> str:
    """Journal key of the shard covering sample rows ``[lo, hi)``."""
    return f"mc.shard.{span[0]}.{span[1]}"


#: Monte-Carlo's site vocabulary for the shared dispatch engine — the
#: budget/journal/fault names shards have always used.
_MC_SITES = runtime_pool.DispatchSites(
    fault_site="mc.worker",
    budget_round="montecarlo.shards",
    drain_site="mc.drain",
    fallback_check="mc.shard-fallback",
    budget_fallback="montecarlo.shard-fallback",
    unit_kw="shard",
    transport_shutdown_wait=True,
)


class _ShardDispatch:
    """Monte-Carlo's unit semantics for :func:`repro.runtime.pool
    .run_dispatch`: how to submit a shard, harvest its result, record a
    failure, and recover in-process.  The engine owns pool lifecycle,
    retry rounds, journal drain and budget checkpoints."""

    transport_exceptions = (pickle.PicklingError, AttributeError, TypeError)

    def __init__(
        self,
        tb: OtaTestbench,
        names: Sequence[str],
        vth: np.ndarray,
        beta: np.ndarray,
        measure,
        spans: Sequence[Tuple[int, int]],
        chunks: List[Optional[List[Dict[str, float]]]],
        statuses: List[ShardStatus],
        journal: Optional[RunJournal],
        max_workers: int,
    ):
        self.tb = tb
        self.names = tuple(names)
        self.vth = vth
        self.beta = beta
        self.measure = measure
        self.spans = spans
        self.chunks = chunks
        self.statuses = statuses
        self.journal = journal
        self.max_workers = max_workers
        self.tracer = telemetry.current()

    def begin_attempt(self, i: int) -> None:
        self.statuses[i].attempts += 1

    def has_result(self, i: int) -> bool:
        return self.chunks[i] is not None

    def submit(self, pool, i: int, crash: bool):
        lo, hi = self.spans[i]
        rows = (self.vth[lo:hi], self.beta[lo:hi])
        if self.tracer is not None:
            return pool.submit(
                _run_chunk_traced, self.tb, self.names, *rows, self.measure,
                crash, i, lo, hi,
            )
        return pool.submit(
            _run_chunk, self.tb, self.names, *rows, self.measure, crash
        )

    def accept(self, i: int, outcome, submit_time: Optional[float]) -> None:
        """Accept one completed shard result (and journal it durably)."""
        seconds = None
        if self.tracer is not None:
            self.chunks[i], payload = outcome
            self.tracer.absorb(payload, t_offset=submit_time)
            if submit_time is not None:
                seconds = self.tracer.now() - submit_time
        else:
            self.chunks[i] = outcome
        self.statuses[i].status = (
            "ok" if self.statuses[i].attempts == 1 else "resubmitted"
        )
        monitor.unit_complete(
            "mc.shard", label=_shard_key(self.spans[i]), seconds=seconds
        )
        if self.journal is not None:
            lo, hi = self.spans[i]
            self.journal.record(
                _shard_key(self.spans[i]), self.chunks[i], lo=lo, hi=hi
            )

    def note_timeout(self, i: int, timeout: Optional[float]) -> None:
        self.statuses[i].error = f"shard timed out after {timeout:g} s"
        telemetry.count("mc.shard_retries")
        telemetry.event("mc.shard_timeout", shard=i, timeout_s=timeout)

    def note_death(self, i: int, error: BaseException) -> None:
        self.statuses[i].error = (
            f"worker died: {error!r} (shard {i} of {len(self.spans)}, "
            f"workers={self.max_workers})"
        )
        telemetry.count("mc.shard_retries")
        telemetry.event("mc.worker_death", shard=i, error=repr(error))

    def transport_error(self, i: int, error: BaseException) -> Exception:
        # A result that cannot cross back (worker-side pickling) can
        # never succeed on a retry.  (Parent-side pickling is
        # pre-validated before dispatch, because a feeder-thread
        # PicklingError wedges the pool beyond recovery on CPython
        # < 3.12.)
        return AnalysisError(
            f"Monte-Carlo shard {i} of {len(self.spans)} "
            f"(workers={self.max_workers}) could not cross the "
            f"process boundary: {error!r}; a custom measure "
            f"function must be module-level (picklable)"
        )

    def fallback(self, i: int) -> None:
        """In-process recovery after bounded retries are exhausted."""
        lo, hi = self.spans[i]
        try:
            if self.tracer is not None:
                # Run the *traced* chunk in-process so a recovered shard
                # reports the same ``mc.shard`` span and counters a pool
                # worker would have shipped home.  ``merge_metrics=False``
                # because the in-process hooks fed the shared registry
                # live; merging the delta again would double it.
                t0 = self.tracer.now()
                with telemetry.span(
                    "mc.shard_fallback", index=i, lo=lo, hi=hi
                ):
                    self.chunks[i], payload = _run_chunk_traced(
                        self.tb, self.names, self.vth[lo:hi],
                        self.beta[lo:hi], self.measure,
                        False, i, lo, hi,
                    )
                    self.tracer.absorb(
                        payload, t_offset=t0, merge_metrics=False
                    )
                monitor.unit_complete(
                    "mc.shard",
                    label=_shard_key(self.spans[i]),
                    seconds=self.tracer.now() - t0,
                )
            else:
                with telemetry.span(
                    "mc.shard_fallback", index=i, lo=lo, hi=hi
                ):
                    self.chunks[i] = _run_chunk(
                        self.tb, self.names, self.vth[lo:hi],
                        self.beta[lo:hi], self.measure,
                    )
                monitor.unit_complete(
                    "mc.shard", label=_shard_key(self.spans[i])
                )
            telemetry.count("mc.shards_in_process")
            self.statuses[i].status = "in-process"
            if self.journal is not None:
                self.journal.record(
                    _shard_key(self.spans[i]), self.chunks[i], lo=lo, hi=hi
                )
        except Exception as error:  # noqa: BLE001 - recorded, not masked
            telemetry.count("mc.shards_failed")
            self.statuses[i].status = "failed"
            self.statuses[i].error = repr(error)


def _run_shards(
    tb: OtaTestbench,
    names: Sequence[str],
    vth: np.ndarray,
    beta: np.ndarray,
    measure: Optional[Callable[[OtaTestbench], Dict[str, float]]],
    spans: Sequence[Tuple[int, int]],
    max_workers: int,
    shard_timeout: Optional[float],
    max_shard_retries: int,
    budget: Optional[Budget],
    journal: Optional[RunJournal] = None,
) -> Tuple[List[Optional[List[Dict[str, float]]]], List[ShardStatus]]:
    """Run every shard through the shared dispatch engine.

    A shard whose worker dies (or times out) is resubmitted on a fresh
    pool up to ``max_shard_retries`` times, then run in-process; only a
    shard that *also* fails in-process is reported as lost.  Because every
    sample row was drawn before any work was scheduled, a recovered shard
    reproduces exactly the values the dead worker would have produced.

    With a ``journal``, shards already recorded by a previous run are
    restored instead of re-run (bit-identical, for the same pre-drawn
    reason), every completed shard is appended durably, and a shutdown
    signal drains in-flight workers into the journal before raising
    :class:`~repro.errors.RunInterrupted`.
    """
    chunks: List[Optional[List[Dict[str, float]]]] = [None] * len(spans)
    statuses = [
        ShardStatus(index=i, span=span) for i, span in enumerate(spans)
    ]
    monitor.declare("mc.shard", len(spans))
    pending = []
    for i, span in enumerate(spans):
        if journal is not None and journal.has(_shard_key(span)):
            chunks[i] = journal.result(_shard_key(span))
            statuses[i].status = "journaled"
            telemetry.count("mc.journaled_shards")
            monitor.unit_complete(
                "mc.shard", label=_shard_key(span), restored=True
            )
        else:
            pending.append(i)
    dispatch = _ShardDispatch(
        tb, names, vth, beta, measure, spans, chunks, statuses,
        journal, max_workers=max_workers,
    )
    runtime_pool.run_dispatch(
        dispatch, pending, max_workers, shard_timeout, max_shard_retries,
        budget, journal, _MC_SITES,
    )
    return chunks, statuses


def run_monte_carlo(
    tb: OtaTestbench,
    runs: int = 50,
    seed: int = 1234,
    measure: Optional[Callable[[OtaTestbench], Dict[str, float]]] = None,
    engine: Optional[str] = None,
    workers: int = 1,
    budget: Optional[Budget] = None,
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 1,
    journal: Optional[RunJournal] = None,
) -> MonteCarloResult:
    """Sample mismatch and collect statistics.

    By default only the input-referred offset is measured per sample (one
    DC solve); pass ``measure`` for a custom (more expensive) extraction
    returning a dict of named statistics.  ``workers > 1`` partitions the
    pre-drawn samples over a process pool (compiled engine only; a custom
    ``measure`` must then be picklable, i.e. a module-level function).
    Results are independent of ``workers`` because every sample is drawn
    before any work is scheduled — and this holds through shard recovery:
    a shard whose worker dies (or exceeds ``shard_timeout`` seconds) is
    resubmitted up to ``max_shard_retries`` times, then run in-process,
    reproducing exactly the rows the dead worker would have produced.  A
    shard that fails even in-process is reported, not raised: the result
    carries the surviving samples plus ``n_failed`` and per-shard
    :class:`ShardStatus` records.  ``budget`` bounds wall-clock time at
    sample/shard boundaries via
    :class:`~repro.errors.BudgetExceededError`.

    On the compiled engine the default offset measurement solves each
    shard of pre-drawn rows as one batched ensemble Newton
    (:meth:`_CompiledOffset.measure`).

    ``journal`` makes the run crash-safe: completed shards are appended
    durably and restored on resume without re-running.  Because every
    sample is pre-drawn from ``seed``, a resumed run's statistics are
    bit-identical to an uninterrupted run's, for any kill point.  (The
    shard partition follows ``workers``, so resuming with a *different*
    worker count re-runs the unmatched spans — still bit-identical, just
    without the skip.)
    """
    if workers < 1:
        raise AnalysisError("workers must be >= 1")
    engine_name = resolve_engine(engine)
    result = MonteCarloResult()

    with telemetry.span(
        "mc.run", runs=runs, workers=workers, engine=engine_name
    ):
        telemetry.count("mc.samples", runs)

        if engine_name != COMPILED:
            if workers != 1:
                raise AnalysisError(
                    "workers > 1 requires the compiled engine"
                )
            # The legacy engine threads one RNG stream through the whole
            # loop, so the run journals as a single unit: all-or-nothing,
            # but still restored bit-identically on resume.
            if journal is not None:
                cached = journal.result_or_none("mc.samples.all")
                if cached is not None:
                    telemetry.count("mc.journaled_shards")
                    result.samples = cached
                    return result
            rng = np.random.default_rng(seed)
            for sample_index in range(runs):
                if journal is not None:
                    journal.check_interrupt("mc.sample")
                if budget is not None:
                    budget.check("montecarlo.sample", sample=sample_index)
                perturbed = apply_mismatch(tb.circuit, rng)
                sample_tb = OtaTestbench(
                    circuit=perturbed,
                    source_pos=tb.source_pos,
                    source_neg=tb.source_neg,
                    input_neg_net=tb.input_neg_net,
                    output_net=tb.output_net,
                    supply_sources=tb.supply_sources,
                    slew_devices=tb.slew_devices,
                )
                if measure is None:
                    _dc, offset = feedback_dc_solution(
                        sample_tb, engine=engine_name
                    )
                    stats = {"offset_voltage": offset}
                else:
                    stats = measure(sample_tb)
                for key, value in stats.items():
                    result.samples.setdefault(key, []).append(float(value))
            if journal is not None:
                journal.record("mc.samples.all", result.samples, runs=runs)
            return result

        names, vth, beta = draw_mismatch_samples(tb.circuit, runs, seed)

        if workers == 1:
            monitor.declare("mc.shard", 1)
            key = _shard_key((0, runs))
            cached = (
                journal.result_or_none(key) if journal is not None else None
            )
            if cached is not None:
                telemetry.count("mc.journaled_shards")
                monitor.unit_complete("mc.shard", label=key, restored=True)
                chunks: List[Optional[List[Dict[str, float]]]] = [cached]
            else:
                if journal is not None:
                    journal.check_interrupt("mc.start")
                if budget is not None:
                    budget.check("montecarlo.start", runs=runs)
                metrics_on = metrics.enabled()
                t0 = time.perf_counter() if metrics_on else 0.0
                with telemetry.span("mc.shard", index=0, lo=0, hi=runs):
                    chunks = [_run_chunk(tb, names, vth, beta, measure)]
                    telemetry.count("mc.samples_measured", runs)
                shard_seconds = (
                    time.perf_counter() - t0 if metrics_on else None
                )
                if metrics_on:
                    metrics.observe("mc.shard.seconds", shard_seconds)
                monitor.unit_complete(
                    "mc.shard", label=key, seconds=shard_seconds
                )
                if journal is not None:
                    journal.record(key, chunks[0], lo=0, hi=runs)
        else:
            try:
                pickle.dumps((tb, measure))
            except Exception as error:
                # Submitting an unpicklable payload would wedge the pool's
                # queue feeder (unrecoverable on CPython < 3.12), so refuse
                # before any worker is spawned.
                raise AnalysisError(
                    f"Monte-Carlo payload cannot cross the process boundary "
                    f"(workers={workers}): {error!r}; a custom measure "
                    f"function must be module-level (picklable)"
                ) from error
            bounds = np.linspace(0, runs, workers + 1).astype(int)
            spans = [
                (int(bounds[i]), int(bounds[i + 1]))
                for i in range(workers)
                if bounds[i + 1] > bounds[i]
            ]
            chunks, statuses = _run_shards(
                tb, names, vth, beta, measure, spans,
                max_workers=len(spans),
                shard_timeout=shard_timeout,
                max_shard_retries=max_shard_retries,
                budget=budget,
                journal=journal,
            )
            result.shards = statuses
            result.n_failed = sum(
                status.span[1] - status.span[0]
                for status, chunk in zip(statuses, chunks)
                if chunk is None
            )

        for chunk in chunks:
            if chunk is None:
                continue  # lost shard; accounted in n_failed
            for stats in chunk:
                for key, value in stats.items():
                    result.samples.setdefault(key, []).append(float(value))
        return result
