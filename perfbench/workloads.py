"""The three closed-loop workloads: one client, each request sent only
after the previous one completed, every input generated from the seed.

* ``cli``   — cold ``python -m repro`` processes (synthesize, first and
  repeated ``table1`` against a run-scoped artifact cache);
* ``sweep`` — one process synthesizing distinct lattice specs;
* ``yield`` — Monte-Carlo plus corner sign-off of a few synthesized
  designs, on the persistent 2-worker pool.

Every workload runs the program's defaults only (incremental stores on,
no speculation, no chord Newton).  Each request's output is checked
outside its timed interval; a request failing any check counts as failed.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench import common
from perfbench.layers import (
    LayerTracer,
    add_counters,
    parse_prometheus_counters,
    per_layer_metrics,
)


@dataclass
class RunResult:
    """What one timed run measured."""

    headline: List[float]
    """Seconds of each headline request (the workload's p50/tail class)."""
    work_done: float
    """Units behind ``throughput_per_s`` (processes, syntheses, samples)."""
    work_seconds: float
    peak_rss_mb: float
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    """One line per failed check, each starting with ``<request index>:``."""
    classes: Dict[str, List[float]] = field(default_factory=dict)
    quality: Dict[str, float] = field(default_factory=dict)
    per_layer: Optional[Dict[str, float]] = None

    @property
    def failed(self) -> int:
        return len({f.split(":", 1)[0] for f in self.failures})


def _layout_quality(outcomes) -> Dict[str, float]:
    """Mean layout calls and the share of syntheses that reached a true
    fixed point (converged, neither soft-accepted nor degraded)."""
    if not outcomes:
        return {"layout_calls_mean": 0.0, "fixed_point_ratio": 0.0}
    fixed = [
        o.converged
        and not o.diagnostics.get("soft_accept")
        and not o.diagnostics.get("degraded")
        for o in outcomes
    ]
    return {
        "layout_calls_mean": statistics.fmean(o.layout_calls for o in outcomes),
        "fixed_point_ratio": sum(fixed) / len(fixed),
    }


def check_synthesis(outcome, specs, technology) -> List[str]:
    """Output checks of one synthesis: predicted GBW and phase margin
    within the verification tolerances and a DRC-clean layout.  Whether
    the loop reached a fixed point is a quality figure
    (``fixed_point_ratio``), not a failure: the program reports a
    non-converged result as such and exits normally."""
    from repro.layout.drc import DrcChecker
    from repro.sizing.verification import VerificationInterface

    problems = []
    report = VerificationInterface().report_from_metrics(
        outcome.sizing.predicted, specs
    )
    if not report.meets_gbw:
        problems.append(f"gbw {outcome.sizing.predicted.gbw:.4g} below spec")
    if not report.meets_phase_margin:
        problems.append(
            f"phase margin {outcome.sizing.predicted.phase_margin_deg:.3f}"
            " below spec"
        )
    if outcome.layout is None or outcome.layout.cell is None:
        problems.append("no layout generated")
    else:
        violations = DrcChecker(technology).check(outcome.layout.cell)
        if violations:
            problems.append(f"{len(violations)} DRC violations")
    return problems


class _Workload:
    """Shared plumbing: technology presets, one synthesis, pool shutdown."""

    def __init__(self, seed: int):
        self.seed = seed
        self.technologies: Dict[str, object] = {}

    def _import(self) -> None:
        # Soft-accept and similar notices are part of the outcome objects
        # the checks read; as warnings they would only flood the output.
        warnings.simplefilter("ignore")
        self.technologies = {
            name: common.technology(name) for name in common.TECHNOLOGIES
        }

    def synthesize(self, spec: common.Spec):
        from repro.core.synthesis import LayoutOrientedSynthesizer
        from repro.sizing.specs import ParasiticMode

        synthesizer = LayoutOrientedSynthesizer(self.technologies[spec.technology])
        outcome = synthesizer.run(
            common.ota_specs(spec), ParasiticMode.FULL, generate=True
        )
        return synthesizer, outcome

    def close(self) -> None:
        if "repro.runtime.pool" in sys.modules:
            sys.modules["repro.runtime.pool"].shutdown(wait=True)
        common.stop_resource_tracker()


def _traced(trace: bool, count: int) -> bool:
    """Traced runs alternate traced and untraced requests (``count`` is
    how many of the same kind came before), so the same run also measures
    the tracing overhead."""
    return trace and count % 2 == 0


@contextmanager
def _counting(on: bool, counters: Dict[str, float]):
    """Activate a telemetry tracer for one request and add its counters,
    including those pool workers ship home, to ``counters``."""
    if not on:
        yield
        return
    from repro import telemetry

    session = telemetry.Tracer()
    with session.activate():
        yield
    add_counters(counters, session.counters)


def _layer_report(
    tracer: Optional[LayerTracer],
    counters: Dict[str, float],
    requests: int,
    traced: List[float],
    untraced: List[float],
    outcomes,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of a traced run; the tracing overhead is the
    median traced request minus the median untraced one."""
    quality = _layout_quality(outcomes)
    overhead = (
        statistics.median(traced) - statistics.median(untraced)
        if traced and untraced
        else 0.0
    )
    attributed = tracer.attributed_s() / sum(traced) if tracer and traced else 0.0
    return per_layer_metrics(
        tracer,
        counters,
        requests,
        {
            **extra,
            "loop.layout_calls_mean": quality["layout_calls_mean"],
            "loop.fixed_point_ratio": quality["fixed_point_ratio"],
            "trace.attributed_ratio": attributed,
            "trace.overhead_s": overhead,
        },
    )


class Sweep(_Workload):
    """Interactive design-space sweep: distinct seeded specs synthesized in
    one process.  Start-up is paid once (in set-up) and nothing is
    dispatched, so the analysis and layout layers do nearly all the work;
    the in-process stores serve only genuine cross-spec reuse."""

    def __init__(self, seed: int, corpus: int = 30):
        super().__init__(seed)
        #: Every run synthesizes the whole corpus (and more specs of the
        #: lattice walk while time remains), so runs of every seed share
        #: their inputs and layout-call quality over the corpus repeats
        #: exactly whatever the host speed.
        self.corpus = corpus

    def setup(self) -> None:
        self._import()
        # One untimed synthesis finishes lazy initialisation (LAPACK,
        # model tables); its spec is never requested again.
        self.synthesize(next(common.spec_stream(0)))
        self.stream = common.corpus(self.seed, "sweep", 1, self.corpus)

    def run(self, seconds: float, trace: bool, extra: Dict[str, float]) -> RunResult:
        from repro.errors import ReproError

        tracer = LayerTracer()
        counters: Dict[str, float] = {}
        times: List[float] = []
        traced_times: List[float] = []
        untraced_times: List[float] = []
        outcomes = []
        failures: List[str] = []
        while sum(times) < seconds or len(times) < self.corpus:
            index = len(times)
            spec = next(self.stream)
            traced = _traced(trace, index)
            outcome = None
            with tracer if traced else nullcontext():
                start = time.perf_counter()
                try:
                    with _counting(traced, counters):
                        _, outcome = self.synthesize(spec)
                except ReproError as error:
                    failures.append(f"{index}: {spec} raised {error!r}")
                elapsed = time.perf_counter() - start
                if outcome is not None:
                    failures.extend(
                        f"{index}: {spec} {problem}"
                        for problem in check_synthesis(
                            outcome,
                            common.ota_specs(spec),
                            self.technologies[spec.technology],
                        )
                    )
            times.append(elapsed)
            (traced_times if traced else untraced_times).append(elapsed)
            if index < self.corpus and outcome is not None:
                outcomes.append(_light(outcome))
        result = RunResult(
            headline=times,
            work_done=len(times),
            work_seconds=sum(times),
            peak_rss_mb=common.peak_rss_mb(True, False),
            attempted=len(times),
            failures=failures,
            classes={"synthesize": times},
            quality=_layout_quality(outcomes),
        )
        if trace:
            result.per_layer = _layer_report(
                tracer, counters, len(traced_times), traced_times,
                untraced_times, outcomes, extra,
            )
        return result


@dataclass
class _Light:
    """The fields of an outcome the quality metrics read (the full outcome
    holds geometry; keeping it would grow memory with run length)."""

    converged: bool
    layout_calls: int
    diagnostics: dict


def _light(outcome) -> _Light:
    return _Light(outcome.converged, outcome.layout_calls, dict(outcome.diagnostics))


@dataclass
class _Design:
    spec: common.Spec
    specs: object
    plan: object
    sizing: object
    testbench: object


class Yield(_Workload):
    """Statistical sign-off: each request runs a 1000-sample Monte-Carlo
    mismatch analysis on 2 pool workers and re-verifies the design at the
    five process corners.  Designs repeat across requests, so resident
    program caches see both reads (repeats) and writes (first use);
    sizing and layout do no work once set-up is over."""

    #: Samples of the untimed warm-up that starts the persistent pool.
    WARM_RUNS = 50

    def __init__(self, seed: int, designs: int = 3, runs: int = 1000, min_requests: int = 36):
        super().__init__(seed)
        self.design_count = designs
        self.runs = runs
        self.min_requests = min_requests

    def setup(self) -> None:
        from repro.analysis import montecarlo
        from repro.sizing.specs import ParasiticMode

        self._import()
        # Fixed designs (the first points of the lattice walk): Monte-Carlo
        # cost differs up to 6x between designs, so a per-seed draw of
        # three designs, not the program, would set the run-to-run spread.
        # The run seed drives the request order and every sample draw.
        stream = common.spec_stream(0)
        self.designs: List[_Design] = []
        self.outcomes = []
        for _ in range(self.design_count):
            spec = next(stream)
            specs = common.ota_specs(spec)
            synthesizer, outcome = self.synthesize(spec)
            problems = check_synthesis(
                outcome, specs, self.technologies[spec.technology]
            )
            if problems:
                raise RuntimeError(f"set-up design {spec} failed: {problems}")
            self.outcomes.append(_light(outcome))
            testbench = synthesizer.plan.build_testbench(
                outcome.sizing, specs, ParasiticMode.FULL, outcome.feedback
            )
            self.designs.append(
                _Design(spec, specs, synthesizer.plan, outcome.sizing, testbench)
            )
        montecarlo.run_monte_carlo(
            self.designs[0].testbench,
            runs=self.WARM_RUNS,
            seed=0,
            workers=common.WORKERS,
        )
        self.requests = random.Random(f"yield-requests-{self.seed}")

    def _request(self, design: _Design, mc_seed: int) -> Tuple[object, dict, float, float]:
        from repro.analysis import montecarlo
        from repro.sizing.verification import VerificationInterface

        start = time.perf_counter()
        statistics_ = montecarlo.run_monte_carlo(
            design.testbench, runs=self.runs, seed=mc_seed, workers=common.WORKERS
        )
        middle = time.perf_counter()
        reports = VerificationInterface().verify_corners(
            design.plan, design.sizing, design.specs
        )
        end = time.perf_counter()
        return statistics_, reports, middle - start, end - start

    def _check(self, index: int, stats, reports) -> List[str]:
        from repro.technology.corners import CORNERS

        problems = []
        if stats.n_failed:
            problems.append(f"{index}: {stats.n_failed} Monte-Carlo samples failed")
        measured = sum(len(v) for v in stats.samples.values())
        if measured != self.runs * len(stats.samples) or not stats.samples:
            problems.append(f"{index}: {measured} samples measured")
        if sorted(reports) != sorted(CORNERS):
            problems.append(f"{index}: corners {sorted(reports)} reported")
        return problems

    def run(self, seconds: float, trace: bool, extra: Dict[str, float]) -> RunResult:
        from repro.analysis import montecarlo
        from repro.errors import ReproError

        tracer = LayerTracer()
        counters: Dict[str, float] = {}
        times: List[float] = []
        mc_times: List[float] = []
        traced_times: List[float] = []
        untraced_times: List[float] = []
        failures: List[str] = []
        replay = None
        order: List[_Design] = []
        uses = {id(design): 0 for design in self.designs}
        # Runs end on a whole block, so every design is signed off equally
        # often.
        while sum(times) < seconds or len(times) < self.min_requests or order:
            index = len(times)
            if not order:
                # Seeded blocks that use every design once keep the mix of
                # designs the same in every run.
                order = list(self.designs)
                self.requests.shuffle(order)
            design = order.pop()
            mc_seed = self.requests.randrange(2**31)
            # Alternate per design: designs differ in cost, so traced and
            # untraced requests must see the same design mix.
            traced = _traced(trace, uses[id(design)])
            uses[id(design)] += 1
            start = time.perf_counter()
            try:
                with tracer if traced else nullcontext(), _counting(traced, counters):
                    stats, reports, mc_s, total_s = self._request(design, mc_seed)
            except ReproError as error:
                failures.append(f"{index}: request raised {error!r}")
                times.append(time.perf_counter() - start)
                continue
            failures.extend(self._check(index, stats, reports))
            times.append(total_s)
            mc_times.append(mc_s)
            (traced_times if traced else untraced_times).append(total_s)
            if replay is None:
                replay = (index, design, mc_seed, stats.samples)
        if replay is not None:
            # Determinism check: one request re-run serially must give
            # bit-identical statistics.
            index, design, mc_seed, samples = replay
            serial = montecarlo.run_monte_carlo(
                design.testbench, runs=self.runs, seed=mc_seed, workers=1
            )
            if serial.n_failed or serial.samples != samples:
                failures.append(f"{index}: workers=1 re-run differs")
        self.close()
        result = RunResult(
            headline=times,
            work_done=self.runs * len(mc_times),
            work_seconds=sum(mc_times) or sum(times),
            peak_rss_mb=common.peak_rss_mb(True, True),
            attempted=len(times),
            failures=failures,
            classes={"request": times, "monte_carlo": mc_times},
        )
        if trace:
            result.per_layer = _layer_report(
                tracer, counters, len(traced_times), traced_times,
                untraced_times, self.outcomes, extra,
            )
        return result


class Cli(_Workload):
    """Cold command-line processes, timed from spawn to exit.  Requests come
    in seeded blocks of four: two ``synthesize`` runs of fresh specs, one
    ``table1 --jobs 2`` of a fresh spec (compute plus artifact write) and
    one ``table1`` repeating an earlier spec (artifact read).  The only
    workload that runs interpreter start-up, batch dispatch and the
    cross-run artifact store on every request."""

    BLOCK = ("synthesize", "synthesize", "table1", "table1_warm")

    def __init__(self, seed: int, run_dir: Path, env: Dict[str, str], blocks: int = 4):
        super().__init__(seed)
        self.run_dir = run_dir
        self.env = env
        #: Every run makes at least this many blocks of requests, which
        #: use up the synthesize and table1 corpora exactly: runs of every
        #: seed share their specs and differ in order.
        self.blocks = blocks

    def _repro(self, *args: str) -> List[str]:
        return [sys.executable, "-m", "repro", *args]

    def setup(self) -> None:
        self.cache_dir = self.run_dir / "artifacts"
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # One start-up reads the interpreter and package into the page
        # cache, as any earlier command of a session would have.
        _, done = common.timed_process(self._repro("--help"), self.env, common.ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"repro --help failed: {done.stderr[-2000:]}")

    def requests(self) -> Iterator[Tuple[str, common.Spec]]:
        rng = random.Random(f"cli-requests-{self.seed}")
        fresh = {
            "synthesize": common.corpus(
                self.seed, "cli-synthesize", 0, 2 * self.blocks
            ),
            "table1": common.corpus(self.seed, "cli-table1", 1000, self.blocks),
        }
        tabled: List[common.Spec] = []
        while True:
            block = list(self.BLOCK)
            rng.shuffle(block)
            if not tabled and block.index("table1_warm") < block.index("table1"):
                first, second = block.index("table1_warm"), block.index("table1")
                block[first], block[second] = block[second], block[first]
            for kind in block:
                if kind == "table1_warm":
                    yield kind, rng.choice(tabled)
                    continue
                spec = next(fresh[kind])
                if kind == "table1":
                    tabled.append(spec)
                yield kind, spec

    def run(self, seconds: float, trace: bool, extra: Dict[str, float]) -> RunResult:
        classes: Dict[str, List[float]] = {k: [] for k in ("synthesize", "table1", "table1_warm")}
        traced_synth: List[float] = []
        untraced_synth: List[float] = []
        counters: Dict[str, float] = {}
        traced_count = 0
        failures: List[str] = []
        synthesized: List[Tuple[int, common.Spec, str]] = []
        first_fingerprints: Dict[common.Spec, List[str]] = {}
        warm_checks: List[Tuple[int, common.Spec, List[str]]] = []
        busy = 0.0
        index = 0
        stream = self.requests()
        # Runs end on a whole block, so the class mix is the same in
        # every run.
        while (
            busy < seconds
            or index < len(self.BLOCK) * self.blocks
            or index % len(self.BLOCK)
        ):
            kind, spec = next(stream)
            traced = _traced(trace, len(classes[kind]))
            metrics_file = self.run_dir / f"metrics-{index}.prom"
            args = ["--metrics", str(metrics_file)] if traced else []
            if kind == "synthesize":
                argv = self._repro("synthesize", *spec.cli_args(), "--fingerprint", *args)
            else:
                argv = self._repro(
                    "table1", *spec.cli_args(), "--jobs", str(common.WORKERS),
                    "--cache-dir", str(self.cache_dir), "--fingerprint", *args,
                )
            elapsed, done = common.timed_process(argv, self.env, common.ROOT)
            busy += elapsed
            classes[kind].append(elapsed)
            if kind == "synthesize":
                (traced_synth if traced else untraced_synth).append(elapsed)
            if traced and metrics_file.exists():
                add_counters(counters, parse_prometheus_counters(metrics_file.read_text()))
                traced_count += 1
            lines = done.stdout.splitlines()
            if done.returncode != 0:
                failures.append(
                    f"{index}: {kind} {spec} exited {done.returncode}: "
                    f"{done.stderr.strip()[-500:]}"
                )
            elif kind == "synthesize":
                printed = [l.split(":", 1)[1].strip() for l in lines if l.startswith("fingerprint:")]
                if not lines or not lines[0].startswith(("converged", "DEGRADED")) or len(printed) != 1:
                    failures.append(f"{index}: synthesize {spec} printed {lines[:2]}")
                else:
                    synthesized.append((index, spec, printed[0]))
            else:
                fingerprints = [l for l in lines if l.startswith("fingerprint ")]
                if len(fingerprints) != 4:
                    failures.append(f"{index}: {kind} {spec} printed {len(fingerprints)} fingerprints")
                elif kind == "table1":
                    first_fingerprints[spec] = fingerprints
                else:
                    warm_checks.append((index, spec, fingerprints))
            index += 1
        peak = common.peak_rss_mb(False, True)

        for op, spec, fingerprints in warm_checks:
            if fingerprints != first_fingerprints.get(spec):
                failures.append(f"{op}: warm table1 {spec} fingerprints differ from the cold run")
        # Replay every synthesized spec in-process (untimed): the library
        # must reproduce the CLI's fingerprint, and that outcome must pass
        # the spec tolerances and DRC.
        self._import()
        outcomes = []
        for op, spec, fingerprint in synthesized:
            _, outcome = self.synthesize(spec)
            outcomes.append(_light(outcome))
            if outcome.fingerprint() != fingerprint:
                failures.append(f"{op}: synthesize {spec} fingerprint differs in-process")
            for problem in check_synthesis(
                outcome, common.ota_specs(spec), self.technologies[spec.technology]
            ):
                failures.append(f"{op}: synthesize {spec} {problem}")
        quality = _layout_quality(outcomes)
        result = RunResult(
            headline=classes["synthesize"],
            work_done=index,
            work_seconds=busy,
            peak_rss_mb=peak,
            attempted=index,
            failures=failures,
            classes=classes,
            quality=quality,
        )
        if trace:
            result.per_layer = _layer_report(
                None, counters, traced_count, traced_synth, untraced_synth,
                outcomes, extra,
            )
        return result


WORKLOADS = ("cli", "sweep", "yield")


def make(name: str, seed: int, run_dir: Path, env: Dict[str, str]):
    if name == "cli":
        return Cli(seed, run_dir, env)
    if name == "sweep":
        return Sweep(seed)
    if name == "yield":
        return Yield(seed)
    raise ValueError(f"unknown workload {name!r}")
