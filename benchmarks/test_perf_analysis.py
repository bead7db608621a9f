"""Analysis-engine benchmark-regression harness.

Times the three analysis workloads the synthesis loop leans on — a
feedback DC solve, a 200-point AC sweep and a 50-run Monte-Carlo offset
analysis — under both the legacy per-element engine and the compiled-stamp
engine, plus the end-to-end Table-1 case-4 synthesis.  The per-engine
``pytest-benchmark`` entries track absolute regressions; the final test
writes the machine-readable before/after record ``BENCH_analysis.json``
at the repository root (the same record ``python -m repro bench``
produces) and asserts the headline speedups hold.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.analysis.ac import ac_sweep
from repro.analysis.dcop import solve_dc
from repro.analysis.engine import COMPILED, LEGACY, use_engine
from repro.analysis.montecarlo import (
    _CompiledOffset,
    draw_mismatch_samples,
    run_monte_carlo,
)
from repro.perf import (
    BENCH_FILENAME,
    default_testbench,
    run_benchmarks,
    run_runtime_benchmarks,
    write_bench,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

ENGINES = (LEGACY, COMPILED)


@pytest.fixture(scope="module")
def bench_tb():
    return default_testbench()


@pytest.fixture(scope="module")
def feedback_circuit(bench_tb):
    feedback = bench_tb.circuit.clone("bench_fb")
    feedback.remove(bench_tb.source_neg)
    feedback.add_vsource(
        "_fb", bench_tb.input_neg_net, bench_tb.output_net, dc=0.0
    )
    return feedback


@pytest.fixture(scope="module")
def feedback_dc(feedback_circuit):
    return solve_dc(feedback_circuit)


@pytest.mark.parametrize("engine", ENGINES)
def test_benchmark_dc_solve(benchmark, feedback_circuit, engine):
    """One nonlinear DC operating-point solve of the feedback OTA."""
    with use_engine(engine):
        solution = benchmark.pedantic(
            solve_dc, args=(feedback_circuit,),
            rounds=3, iterations=1, warmup_rounds=1,
        )
    assert solution.gmin == 0.0


@pytest.mark.parametrize("engine", ENGINES)
def test_benchmark_ac_sweep_200(
    benchmark, bench_tb, feedback_circuit, feedback_dc, engine
):
    """A 200-point logarithmic AC sweep at the shared operating point."""
    frequencies = np.logspace(0.0, 9.0, 200)
    drive = {bench_tb.source_pos: 0.5, "_fb": 0.0}
    with use_engine(engine):
        solution = benchmark.pedantic(
            ac_sweep, args=(feedback_circuit, feedback_dc, frequencies, drive),
            rounds=3, iterations=1, warmup_rounds=1,
        )
    assert solution.frequencies.size == 200


@pytest.mark.parametrize("engine", ENGINES)
def test_benchmark_monte_carlo_50(benchmark, bench_tb, engine):
    """50 Pelgrom-mismatch offset samples (one DC solve per sample)."""
    with use_engine(engine):
        result = benchmark.pedantic(
            run_monte_carlo, args=(bench_tb,),
            kwargs={"runs": 50, "seed": 1234},
            rounds=1, iterations=1, warmup_rounds=0,
        )
    assert len(result.samples["offset_voltage"]) == 50


def _per_sample_200(tb):
    names, vth, beta = draw_mismatch_samples(tb.circuit, 200, 1234)
    return _CompiledOffset(tb, names).measure_per_sample(vth, beta)


def _stacked_200(tb):
    return run_monte_carlo(tb, runs=200, seed=1234).samples["offset_voltage"]


@pytest.mark.parametrize("mode", ("per-sample", "stacked"))
def test_benchmark_monte_carlo_200_ensemble(benchmark, bench_tb, mode):
    """200 offset samples, per-sample loop vs one stacked (K, n, n) solve."""
    run = _per_sample_200 if mode == "per-sample" else _stacked_200
    samples = benchmark.pedantic(
        run, args=(bench_tb,), rounds=1, iterations=1, warmup_rounds=0
    )
    assert len(samples) == 200


def test_write_bench_record():
    """Run the engine comparison and persist ``BENCH_analysis.json``.

    The speedup floors are deliberately loose (the acceptance numbers are
    far higher on an idle machine) so the harness flags real regressions
    without being flaky under load.
    """
    results = run_benchmarks(repeat=3, include_synthesis=True)
    results.update(run_runtime_benchmarks(repeat=3))
    write_bench(results, str(REPO_ROOT / BENCH_FILENAME))
    assert results["dc_solve"]["speedup"] > 1.0
    assert results["ac_sweep_200"]["speedup"] > 1.0
    assert results["monte_carlo_50"]["speedup"] > 1.0
    assert results["synthesize_case4"]["speedup"] > 1.5
    # Acceptance floor is 3x on an idle machine; 2x absorbs CI noise.
    assert results["monte_carlo_200_ensemble"]["speedup"] > 2.0
    # Executor-runtime floors (acceptance: 2x dispatch, 3x warm on an
    # idle machine; loosened here so the harness is not flaky under
    # CI load).
    assert results["mc_dispatch_overhead"]["speedup"] > 1.5
    assert results["table1_warm_vs_cold"]["speedup"] > 2.0
