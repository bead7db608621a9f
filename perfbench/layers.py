"""Per-layer tracing from outside the program.

:class:`LayerTracer` installs timing wrappers around each layer's public
functions — on the attribute the *consumer* looks up at call time, since
most call sites bind names with ``from X import f`` — and keeps a stack so
every layer gets its self time (its wall time minus the wrapped calls it
made).  The program's own telemetry counters (``repro.telemetry``) supply
the counts the wrappers cannot see, including the ones pool workers ship
home.  Nothing under ``src/`` is modified; :meth:`LayerTracer.uninstall`
puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: (layer key, module, attribute path) of every wrapped call site.
WRAP_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("sizing", "repro.sizing.plans.folded_cascode", "FoldedCascodePlan.size"),
    ("measure", "repro.sizing.plans.folded_cascode", "measure_ota"),
    ("dc", "repro.analysis.metrics", "feedback_dc_solution"),
    ("dc.solve", "repro.analysis.metrics", "solve_dc"),
    ("ac", "repro.analysis.stamps", "LinearSystem.solve_batch"),
    ("layout.call", "repro.core.synthesis", "generate_ota_layout"),
    ("layout.devices", "repro.layout.ota", "single_device_layout"),
    ("layout.devices", "repro.layout.ota", "differential_pair_layout"),
    ("layout.devices", "repro.layout.ota", "current_mirror_layout"),
    ("layout.placement", "repro.layout.ota", "optimize"),
    ("layout.routing", "repro.layout.routing", "ChannelRouter.route"),
    ("layout.extract", "repro.layout.extraction", "extract_cell"),
    ("layout.drc", "repro.layout.drc", "DrcChecker.check"),
    ("mc", "repro.analysis.montecarlo", "run_monte_carlo"),
    (
        "corners",
        "repro.sizing.verification",
        "VerificationInterface.verify_corners",
    ),
    ("dispatch", "repro.runtime.pool", "run_dispatch"),
)

#: Layers whose time is not part of any timed request (the output check).
UNTIMED_LAYERS = ("layout.drc",)

#: Per-layer metric names and units, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "startup.import_s": "s",
    "startup.help_s": "s",
    "sizing.calls": "count",
    "sizing.self_s": "s",
    "analysis.dc.calls": "count",
    "analysis.dc.s": "s",
    "analysis.newton_iterations": "count",
    "analysis.warm_start.hits": "count",
    "analysis.ac.calls": "count",
    "analysis.ac.s": "s",
    "analysis.ac.solve_flops": "flop",
    "analysis.measure.self_s": "s",
    "analysis.mc.s": "s",
    "analysis.mc.samples": "count",
    "analysis.ensemble.newton_iterations": "count",
    "analysis.ensemble.fallbacks": "count",
    "analysis.corners.s": "s",
    "layout.call.calls": "count",
    "layout.call.self_s": "s",
    "layout.devices.s": "s",
    "layout.placement.s": "s",
    "layout.routing.s": "s",
    "layout.extract.calls": "count",
    "layout.extract.s": "s",
    "layout.extract.reuse_ratio": "ratio",
    "layout.drc.s": "s",
    "runtime.dispatch.calls": "count",
    "runtime.dispatch.s": "s",
    "runtime.pool.create": "count",
    "runtime.pool.reuse": "count",
    "runtime.resident.hit_ratio": "ratio",
    "runtime.shm.bytes": "B",
    "memo.layout_call.hit_ratio": "ratio",
    "memo.estimate.hit_ratio": "ratio",
    "memo.sizing_round.hit_ratio": "ratio",
    "memo.extract.hit_ratio": "ratio",
    "memo.shape.hit_ratio": "ratio",
    "memo.model.hit_ratio": "ratio",
    "runtime.artifact.hit_ratio": "ratio",
    "loop.layout_calls_mean": "count",
    "loop.fixed_point_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_s": "s",
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _ac_flops(args: tuple) -> float:
    """Real floating-point operations of one ``solve_batch`` call: per
    frequency a complex LU (8n³/3) plus forward/back substitution for
    every right-hand-side column (8n² each)."""
    if len(args) < 3:
        return 0.0
    system, frequencies, rhs = args[0], args[1], args[2]
    n = system.size
    freq_count = getattr(frequencies, "size", None) or len(frequencies)
    shape = getattr(rhs, "shape", (n,))
    columns = shape[1] if len(shape) > 1 else 1
    return freq_count * (8.0 * n**3 / 3.0 + 8.0 * n**2 * columns)


class LayerTracer:
    """Wall, self time and call counts per layer, from wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.ac_flops = 0.0
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, bool, object]] = []

    def _wrap(self, layer: str, original):
        tracer = self
        flops = layer == "ac"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = tracer._clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = tracer._clock() - start
                tracer._stack.pop()
                tracer.calls[layer] += 1
                tracer.total_s[layer] += elapsed
                tracer.self_s[layer] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                if flops:
                    tracer.ac_flops += _ac_flops(args)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for layer, module_name, path in WRAP_SITES:
            owner, name = _resolve(module_name, path)
            own = name in vars(owner)
            original = getattr(owner, name)
            self._saved.append((owner, name, own, vars(owner).get(name)))
            setattr(owner, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, own, original = self._saved.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def attributed_s(self) -> float:
        """Time inside any wrapped layer during timed requests."""
        return sum(
            seconds
            for layer, seconds in self.self_s.items()
            if layer not in UNTIMED_LAYERS
        )


# -- Program counters ----------------------------------------------------------


def counter_key(name: str) -> str:
    """The Prometheus-sanitised form of a telemetry counter name, so
    in-process tracer counters and a CLI ``--metrics`` snapshot compare."""
    return re.sub(r"[^a-zA-Z0-9_]", "_", name)


def add_counters(into: Dict[str, float], counters: Mapping[str, float]) -> None:
    for name, value in counters.items():
        key = counter_key(name)
        into[key] = into.get(key, 0.0) + float(value)


def parse_prometheus_counters(text: str, prefix: str = "repro_") -> Dict[str, float]:
    """Counter totals of a ``--metrics`` snapshot, keyed like
    :func:`counter_key`."""
    counters: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith(prefix) and name.endswith("_total"):
            counters[name[len(prefix):-len("_total")]] = float(value)
    return counters


def per_layer_metrics(
    tracer: Optional[LayerTracer],
    counters: Mapping[str, float],
    requests: int,
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Every per-layer metric, as a mean per traced request (counts and
    seconds) or a ratio; ``extra`` supplies the values measured outside
    the wrappers (startup probes, loop quality, tracing overhead)."""
    per = 1.0 / max(requests, 1)
    calls = tracer.calls if tracer else {}
    total = tracer.total_s if tracer else {}
    self_s = tracer.self_s if tracer else {}

    def count(name: str) -> float:
        return counters.get(counter_key(name), 0.0)

    def ratio(hits: float, lookups: float) -> float:
        return hits / lookups if lookups else 0.0

    def hit_ratio(hit: str, miss: str) -> float:
        return ratio(count(hit), count(hit) + count(miss))

    metrics = {
        "sizing.calls": calls.get("sizing", 0) * per,
        "sizing.self_s": self_s.get("sizing", 0.0) * per,
        "analysis.dc.calls": calls.get("dc.solve", 0) * per,
        "analysis.dc.s": (self_s.get("dc", 0.0) + self_s.get("dc.solve", 0.0))
        * per,
        "analysis.newton_iterations": count("solver.newton_iterations") * per,
        "analysis.warm_start.hits": count("dc.warm_start") * per,
        "analysis.ac.calls": calls.get("ac", 0) * per,
        "analysis.ac.s": self_s.get("ac", 0.0) * per,
        "analysis.ac.solve_flops": (tracer.ac_flops if tracer else 0.0) * per,
        "analysis.measure.self_s": self_s.get("measure", 0.0) * per,
        "analysis.mc.s": total.get("mc", 0.0) * per,
        "analysis.mc.samples": count("mc.samples") * per,
        "analysis.ensemble.newton_iterations": count(
            "ensemble.newton_iterations"
        )
        * per,
        "analysis.ensemble.fallbacks": count("ensemble.fallbacks") * per,
        "analysis.corners.s": total.get("corners", 0.0) * per,
        "layout.call.calls": calls.get("layout.call", 0) * per,
        "layout.call.self_s": self_s.get("layout.call", 0.0) * per,
        "layout.devices.s": self_s.get("layout.devices", 0.0) * per,
        "layout.placement.s": self_s.get("layout.placement", 0.0) * per,
        "layout.routing.s": self_s.get("layout.routing", 0.0) * per,
        "layout.extract.calls": calls.get("layout.extract", 0) * per,
        "layout.extract.s": self_s.get("layout.extract", 0.0) * per,
        "layout.extract.reuse_ratio": ratio(
            count("layout.incremental.reuse"), calls.get("layout.extract", 0)
        ),
        "layout.drc.s": total.get("layout.drc", 0.0) * per,
        "runtime.dispatch.calls": calls.get("dispatch", 0) * per,
        "runtime.dispatch.s": total.get("dispatch", 0.0) * per,
        "runtime.pool.create": count("runtime.pool.create") * per,
        "runtime.pool.reuse": count("runtime.pool.reuse") * per,
        "runtime.resident.hit_ratio": hit_ratio(
            "runtime.resident.hit", "runtime.resident.miss"
        ),
        "runtime.shm.bytes": count("runtime.shm.bytes") * per,
        "memo.layout_call.hit_ratio": hit_ratio(
            "layout.incremental.call_reuse", "layout.incremental.call_build"
        ),
        "memo.estimate.hit_ratio": hit_ratio(
            "layout.cache.hit", "layout.cache.miss"
        ),
        "memo.sizing_round.hit_ratio": hit_ratio(
            "sizing.cache.hit", "sizing.cache.miss"
        ),
        "memo.extract.hit_ratio": hit_ratio(
            "layout.incremental.reuse", "layout.incremental.dirty"
        ),
        "memo.shape.hit_ratio": hit_ratio(
            "layout.shape_cache.hit", "layout.shape_cache.miss"
        ),
        "memo.model.hit_ratio": hit_ratio(
            "model_cache.hits", "model_cache.misses"
        ),
        "runtime.artifact.hit_ratio": hit_ratio(
            "runtime.artifact.hit", "runtime.artifact.miss"
        ),
    }
    metrics.update(extra)
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: float(metrics[name]) for name in PER_LAYER_UNITS}
