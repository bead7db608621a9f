"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import common, layers, workloads  # noqa: E402
from perfbench.run import END_TO_END_UNITS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXTRA = {"startup.import_s": 0.1, "startup.help_s": 0.1}


@pytest.fixture(autouse=True)
def cold_stores():
    """Each benchmark run is a fresh process; tests share one, so start
    every test with the program's process-wide stores empty."""
    from repro.layout import incremental

    incremental.clear()


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == END_TO_END_UNITS
    assert _declared("per_layer") == layers.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tail_needs_ten_samples_beyond_it():
    assert common.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)
    values = list(range(1, 41))
    value, percentile = common.tail(values)
    assert value == 30 and sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * 29 / 39)


def test_spec_stream_is_seeded_distinct_and_balanced():
    first = [s for _, s in zip(range(60), common.spec_stream(5))]
    again = [s for _, s in zip(range(60), common.spec_stream(5))]
    other = [s for _, s in zip(range(60), common.spec_stream(6))]
    assert first == again and first != other
    assert len(set(first)) == len(first)
    for block in range(0, 60, 3):
        assert {s.technology for s in first[block:block + 3]} == set(
            common.TECHNOLOGIES
        )


def test_wrappers_restore_the_original_functions():
    def originals():
        out = []
        for _, module, path in layers.WRAP_SITES:
            owner, name = layers._resolve(module, path)
            out.append((owner, name, name in vars(owner), vars(owner).get(name)))
        return out

    before = originals()
    tracer = layers.LayerTracer()
    with tracer:
        for owner, name, _, original in before:
            assert getattr(owner, name).__wrapped__ is not None
            assert vars(owner).get(name) is not original
    assert originals() == before


def test_fingerprints_identical_with_tracing_on_and_off():
    from repro.layout import incremental

    sweep = workloads.Sweep(seed=3)
    sweep._import()
    spec = next(common.spec_stream(3))
    _, plain = sweep.synthesize(spec)
    incremental.clear()
    tracer = layers.LayerTracer()
    with tracer:
        _, traced = sweep.synthesize(spec)
    assert tracer.calls["sizing"] >= 1 and tracer.calls["layout.call"] >= 1
    assert traced.fingerprint() == plain.fingerprint()


def _check_result(result, trace):
    assert result.failures == []
    assert result.attempted >= 1 and result.headline
    assert result.work_done > 0 and result.work_seconds > 0
    if trace:
        assert list(result.per_layer) == list(layers.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True])
def test_sweep_tiny(trace):
    sweep = workloads.Sweep(seed=1, corpus=2)
    sweep.setup()
    try:
        result = sweep.run(0.0, trace, EXTRA)
    finally:
        sweep.close()
    _check_result(result, trace)
    assert result.attempted == 2
    if trace:
        assert result.per_layer["sizing.calls"] >= 1
        assert result.per_layer["trace.attributed_ratio"] > 0.9


def test_yield_tiny():
    run = workloads.Yield(seed=1, designs=2, runs=40, min_requests=1)
    run.setup()
    try:
        result = run.run(0.0, True, EXTRA)
    finally:
        run.close()
    _check_result(result, True)
    assert result.attempted == 2
    assert result.per_layer["analysis.mc.samples"] == 40
    assert result.per_layer["sizing.calls"] == 0


def _run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [False, True])
def test_cli_tiny(tmp_path, trace):
    env = common.scrub_environment(dict(os.environ), tmp_path)
    run = workloads.Cli(seed=2, run_dir=tmp_path, env=env, blocks=1)
    run.setup()
    try:
        result = run.run(0.0, trace, EXTRA)
    finally:
        run.close()
    _check_result(result, trace)
    assert result.attempted == 4
    assert len(result.classes["table1_warm"]) == 1
    if trace:
        assert result.per_layer["runtime.artifact.hit_ratio"] > 0


def test_prints_the_declared_end_to_end_metrics():
    done = _run_benchmark(
        ROOT, "--workload", "yield", "--seed", "2", "--seconds", "0",
        "--trace", "0",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 36
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(
        "end_to_end"
    )
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".runs", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run_benchmark(
        tmp_path, "--workload", "sweep", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert done.stdout == ""
