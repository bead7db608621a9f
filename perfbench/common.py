"""Shared pieces of the benchmark: paths, hermetic child environments,
seeded spec streams, order statistics and host provenance."""

from __future__ import annotations

import itertools
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / "perfbench" / ".runs"

#: Environment switches that change what the program does; a benchmark
#: child must never inherit them from whoever launched the benchmark.
SCRUBBED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_FAULTS",
    "REPRO_NO_SHM",
    "REPRO_NO_PERSISTENT_POOL",
)

#: The spec lattice of every workload: technology × GBW × load.
TECHNOLOGIES = ("0.35um", "0.6um", "0.8um")
GBW_MHZ = (15.0, 95.0)
CLOAD_PF = (1.0, 6.0)

#: Pool size of every dispatched request (the benchmark host has 2 CPUs;
#: a fixed value keeps numbers comparable across hosts).
WORKERS = 2


def checkout_ok() -> bool:
    """True when the repository sources the benchmark drives are present."""
    return (SRC / "repro" / "__init__.py").is_file()


def scrub_environment(env: Dict[str, str], tmpdir: Path) -> Dict[str, str]:
    """A copy of ``env`` for a benchmark process: program switches removed,
    the checkout's sources importable and temporary files kept in the
    run-scoped directory."""
    clean = {k: v for k, v in env.items() if k not in SCRUBBED_ENV}
    clean["PYTHONPATH"] = str(SRC)
    clean["TMPDIR"] = str(tmpdir)
    return clean


def compile_sources() -> None:
    """Byte-compile the package once so no timed process pays for it
    (an installed package ships compiled; the checkout may not)."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
    )


# -- Seeded inputs -----------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One lattice point, in the CLI's units (MHz, pF)."""

    technology: str
    gbw_mhz: float
    cload_pf: float

    def cli_args(self) -> List[str]:
        return [
            "--technology", self.technology,
            "--gbw", repr(self.gbw_mhz),
            "--cload", repr(self.cload_pf),
        ]


#: Additive constants of the R2 low-discrepancy sequence (the plastic
#: number's reciprocal powers): any prefix covers the GBW × load square
#: evenly.
_R2 = (0.7548776662466927, 0.5698402909980532)


def spec_stream(seed: int) -> Iterator[Spec]:
    """A walk over distinct lattice points.  Each block of three visits
    every technology once, in seeded order; within a technology, GBW and
    load follow the R2 sequence from a seeded starting offset."""
    rng = random.Random(seed)
    offsets = {t: (rng.random(), rng.random()) for t in TECHNOLOGIES}
    steps = dict.fromkeys(TECHNOLOGIES, 0)
    seen = set()
    while True:
        block = list(TECHNOLOGIES)
        rng.shuffle(block)
        for technology in block:
            while True:
                steps[technology] += 1
                i = steps[technology]
                u, v = (
                    (offsets[technology][k] + i * _R2[k]) % 1.0 for k in (0, 1)
                )
                spec = Spec(
                    technology,
                    round(GBW_MHZ[0] + u * (GBW_MHZ[1] - GBW_MHZ[0]), 2),
                    round(CLOAD_PF[0] + v * (CLOAD_PF[1] - CLOAD_PF[0]), 3),
                )
                if spec not in seen:
                    seen.add(spec)
                    break
            yield spec


def corpus(seed: int, label: str, start: int, size: int) -> Iterator[Spec]:
    """Points ``start .. start+size-1`` of the fixed lattice walk
    (``spec_stream(0)``) in an order drawn from ``seed``, then the walk's
    later points in order, so a request never repeats a spec.

    Synthesis cost differs up to 3x between specs (3 to 6 layout calls),
    so a per-seed draw of the few tens of specs one run consumes would set
    the run-to-run spread.  Runs of every seed therefore share one corpus,
    sized to what a run consumes, and the seed decides its order."""
    walk = itertools.islice(spec_stream(0), start, None)
    head = list(itertools.islice(walk, size))
    random.Random(f"{label}-{seed}").shuffle(head)
    yield from head
    yield from walk


def technology(name: str):
    """The process preset named ``name`` (imports the package)."""
    from repro.technology.presets import generic_035, generic_060, generic_080

    return {"0.35um": generic_035, "0.6um": generic_060, "0.8um": generic_080}[
        name
    ]()


def ota_specs(spec: Spec):
    """The :class:`OtaSpecs` the CLI builds for ``spec`` (same arithmetic
    as ``python -m repro synthesize --gbw G --cload C``)."""
    from repro.sizing.specs import OtaSpecs

    vdd = 3.3
    return OtaSpecs(
        vdd=vdd,
        gbw=spec.gbw_mhz * 1e6,
        phase_margin=65.0,
        cload=spec.cload_pf * 1e-12,
        input_cm_range=(0.55 * vdd / 3.3, 1.84 * vdd / 3.3),
        output_range=(0.51 * vdd / 3.3, 2.31 * vdd / 3.3),
    )


# -- Order statistics --------------------------------------------------------


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest order statistic with at least
    ten samples beyond it; with fewer than 21 samples no such statistic
    lies above the median, and the median is returned (percentile 50)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11
    if k < (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * k / (n - 1)


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail and sample count of one request class."""
    if not values:
        return {"n": 0}
    value, percentile = tail(values)
    return {
        "n": len(values),
        "p50_s": statistics.median(values),
        "tail_s": value,
        "tail_percentile": percentile,
    }


# -- Processes and memory ----------------------------------------------------


def timed_process(
    argv: Sequence[str], env: Dict[str, str], cwd: Path, timeout: float = 170.0
) -> Tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; wall seconds from spawn to exit."""
    start = time.perf_counter()
    done = subprocess.run(
        list(argv), env=env, cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )
    return time.perf_counter() - start, done


def time_until_ready(
    argv: Sequence[str], env: Dict[str, str], cwd: Path, timeout: float = 170.0
) -> float:
    """Seconds from spawning ``argv`` until it prints ``ready``; the child
    is then waited for, so no process outlives the measurement."""
    start = time.perf_counter()
    with subprocess.Popen(
        list(argv), env=env, cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    ) as child:
        try:
            for line in child.stdout:
                if line.strip() == "ready":
                    elapsed = time.perf_counter() - start
                    break
            else:
                raise RuntimeError(f"set-up probe {argv!r} never became ready")
            child.stdout.read()
            if child.wait(timeout=timeout) != 0:
                raise RuntimeError(f"set-up probe {argv!r} failed")
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    return elapsed


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and wait
    for it.  Shared-memory transport starts one; left alone, it exits only
    after this process has, so it would outlive the benchmark.  Call it
    after the pool is shut down and every segment is unlinked."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants (Linux), so that a
    grandchild whose parent exited first is re-parented here and
    :func:`reap_children` can wait for it."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_children(timeout: float = 15.0) -> None:
    """Wait until this process has no child left: every process it
    started has been waited for already, so what remains are adopted
    orphans.  Any still running after ``timeout`` seconds is killed."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def peak_rss_mb(include_self: bool, include_children: bool) -> float:
    """Peak resident set size in MiB: this process's, the largest waited-for
    child's, or their sum (a parent plus its biggest pool worker)."""
    total = 0
    if include_self:
        total += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        total += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return total / 1024.0


# -- Host provenance ---------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_seconds(repeat: int = 5) -> float:
    """Median time of a fixed kernel shaped like one AC sweep: a batched
    complex solve of 228 frequencies × 21×21 systems × 16 right-hand
    sides.  Scales host-to-host comparisons of the analysis numbers."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrices = rng.standard_normal((228, 21, 21)) + 1j * rng.standard_normal(
        (228, 21, 21)
    )
    matrices += 21.0 * np.eye(21)
    rhs = np.broadcast_to(
        rng.standard_normal((21, 16)).astype(complex), (228, 21, 16)
    )
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.solve(matrices, rhs)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def provenance() -> Dict[str, object]:
    """Which host, interpreter and libraries produced a record."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "calibration_s": calibration_seconds(),
    }
