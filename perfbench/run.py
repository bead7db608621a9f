#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` is a separate run that wraps each layer's public functions
and reads the program's telemetry counters for the per-layer metrics.
Human-readable tables and a ``record:`` line (host provenance, per-class
timings) come first; the last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, workloads  # noqa: E402

#: End-to-end metrics and their units; every workload reports all of them.
END_TO_END_UNITS = {
    "request_p50_s": "s",
    "request_tail_s": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Cold start-up processes per traced run, for the startup.* metrics.
STARTUP_PROBES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of repro."
    )
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed request time to accumulate; every run "
                             "also completes its workload's corpus")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _startup_probes(env) -> dict:
    """Cold ``import repro`` and ``repro --help`` processes (median)."""
    probes = {
        "startup.import_s": [sys.executable, "-c", "import repro"],
        "startup.help_s": [sys.executable, "-m", "repro", "--help"],
    }
    out = {}
    for name, argv in probes.items():
        samples = []
        for _ in range(STARTUP_PROBES):
            elapsed, done = common.timed_process(argv, env, common.ROOT)
            if done.returncode != 0:
                raise RuntimeError(f"{argv!r} failed: {done.stderr[-2000:]}")
            samples.append(elapsed)
        out[name] = statistics.median(samples)
    return out


def _end_to_end(result, setup_s: float) -> dict:
    p50 = statistics.median(result.headline)
    tail_s, _ = common.tail(result.headline)
    return {
        "request_p50_s": p50,
        "request_tail_s": tail_s,
        "throughput_per_s": result.work_done / result.work_seconds,
        "setup_s": setup_s,
        "peak_rss_mb": result.peak_rss_mb,
    }


def _named_table(workload: str, result, metrics: dict) -> list:
    """Rows ``(name, value, unit, note)`` under the workload-prefixed names
    the design documents use."""
    rows = []

    def timing(name, values):
        summary = common.timing_summary(values)
        if summary["n"]:
            rows.append((f"{name}_p50_s", summary["p50_s"], "s", f"n={summary['n']}"))
        return summary

    if workload == "cli":
        summary = timing("cli.synthesize", result.classes["synthesize"])
        rows.append(("cli.synthesize_tail_s", summary["tail_s"], "s",
                     f"p{summary['tail_percentile']:.0f} of n={summary['n']}"))
        timing("cli.table1", result.classes["table1"])
        timing("cli.table1_warm", result.classes["table1_warm"])
        rows.append(("cli.requests_per_s", metrics["throughput_per_s"], "1/s", "all classes"))
    elif workload == "sweep":
        rows.append(("sweep.synth_per_s", metrics["throughput_per_s"], "1/s", ""))
        summary = timing("sweep.synth", result.headline)
        rows.append(("sweep.synth_tail_s", summary["tail_s"], "s",
                     f"p{summary['tail_percentile']:.0f} of n={summary['n']}"))
        rows.append(("sweep.layout_calls_mean", result.quality["layout_calls_mean"], "count", "exact"))
        rows.append(("sweep.fixed_point_ratio", result.quality["fixed_point_ratio"], "ratio", "exact"))
    else:
        rows.append(("yield.mc_samples_per_s", metrics["throughput_per_s"], "1/s", ""))
        summary = timing("yield.request", result.headline)
        rows.append(("yield.request_tail_s", summary["tail_s"], "s",
                     f"p{summary['tail_percentile']:.0f} of n={summary['n']}"))
    rows.append((f"{workload}.setup_s", metrics["setup_s"], "s", f"median of {SETUP_PROBES}"))
    rows.append((f"{workload}.peak_rss_mb", metrics["peak_rss_mb"], "MB", ""))
    return rows


def _run(args, run_dir: Path, env) -> int:
    workload = workloads.make(args.workload, args.seed, run_dir, env)
    try:
        if args.setup_probe:
            workload.setup()
            print("ready", flush=True)
            return 0
        common.compile_sources()
        probe = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0",
        ]
        setup_s = statistics.median(
            common.time_until_ready(probe, env, common.ROOT)
            for _ in range(SETUP_PROBES)
        )
        extra = _startup_probes(env) if args.trace else {}
        workload.setup()
        result = workload.run(args.seconds, bool(args.trace), extra)
    finally:
        workload.close()

    end_to_end = _end_to_end(result, setup_s)
    if args.trace:
        from perfbench.layers import PER_LAYER_UNITS

        reported = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in result.per_layer.items()
        }
    else:
        reported = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  ops_attempted {result.attempted}  ops_failed {result.failed}")
    if args.trace:
        print("  (a traced run: the timings below include tracing overhead)")
    for name, value, unit, note in _named_table(args.workload, result, end_to_end):
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
    if args.trace:
        print("per-layer (mean per traced request; ratios over the run):")
        for name, entry in reported.items():
            print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for failure in result.failures:
        print(f"FAILED {failure}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": common.provenance(),
        "classes": {
            name: common.timing_summary(values)
            for name, values in result.classes.items()
        },
        "quality": result.quality,
        "end_to_end": end_to_end,
        "failures": result.failures,
        "per_layer": result.per_layer,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": reported,
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.checkout_ok():
        print(
            f"perfbench: no program sources at {common.SRC / 'repro'}; run "
            "from the root of a full repository checkout",
            file=sys.stderr,
        )
        return 2
    common.RUNS_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=common.RUNS_DIR
    ))
    env = common.scrub_environment(os.environ, run_dir)
    # This process runs the in-process workloads and spawns the pool
    # workers: it gets the same hermetic environment as every child.
    for name in common.SCRUBBED_ENV:
        os.environ.pop(name, None)
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    sys.path.insert(0, str(common.SRC))
    # No process the benchmark starts may outlive it: orphaned
    # grandchildren are adopted and waited for, and SIGTERM unwinds
    # through the same clean-up as any other exit.
    common.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _run(args, run_dir, env)
    finally:
        common.reap_children()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
