"""Layout-path benchmark-regression harness.

Times geometric extraction and DRC of the generated case-4 OTA cell
under both geometry engines (scalar vs vectorized extraction, all-pairs
vs grid-indexed DRC), plus the parallel Table-1 batch driver on hosts
with enough cores.  The final test merges the layout entries into the
machine-readable ``BENCH_analysis.json`` record next to the analysis
numbers and asserts the headline speedups hold (floors deliberately
loose so the harness flags real regressions without being flaky under
load — the acceptance numbers are far higher on an idle machine).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.layout.drc import DrcChecker
from repro.layout.engine import (
    ALLPAIRS,
    GRID,
    SCALAR,
    VECTOR,
    drc_engine,
    extraction_engine,
)
from repro.layout.extraction import extract_cell
from repro.perf import (
    BENCH_FILENAME,
    hand_ota_layout,
    load_bench,
    run_layout_benchmarks,
    write_bench,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

EXTRACTION_ENGINES = (SCALAR, VECTOR)
DRC_ENGINES = (ALLPAIRS, GRID)


@pytest.fixture(scope="module")
def ota_cell(tech):
    return hand_ota_layout(tech).cell


@pytest.mark.parametrize("engine", EXTRACTION_ENGINES)
def test_benchmark_extract_ota_cell(benchmark, ota_cell, tech, engine):
    """Full geometric extraction of the generated OTA cell."""
    with extraction_engine.use(engine):
        extracted = benchmark.pedantic(
            extract_cell, args=(ota_cell, tech),
            rounds=3, iterations=1, warmup_rounds=1,
        )
    assert extracted.net_wire_cap


@pytest.mark.parametrize("engine", DRC_ENGINES)
def test_benchmark_drc_ota_cell(benchmark, ota_cell, tech, engine):
    """Full design-rule check of the generated OTA cell."""
    checker = DrcChecker(tech)
    with drc_engine.use(engine):
        violations = benchmark.pedantic(
            checker.check, args=(ota_cell,),
            rounds=3, iterations=1, warmup_rounds=1,
        )
    assert violations == []


def test_write_layout_bench_record():
    """Merge the layout entries into ``BENCH_analysis.json`` and assert
    the vectorized/grid paths beat the scalar references."""
    jobs = 4 if len(os.sched_getaffinity(0)) >= 4 else 0
    results = run_layout_benchmarks(repeat=3, batch_jobs=jobs)
    record_path = REPO_ROOT / BENCH_FILENAME
    merged = dict(load_bench(record_path)) if record_path.exists() else {}
    merged.update(results)
    write_bench(merged, str(record_path))
    assert results["layout_extract"]["speedup"] > 1.5
    assert results["layout_drc"]["speedup"] > 1.5
    if jobs:
        # Serial vs --jobs 4 Table-1 batch: only asserted where the host
        # actually has the cores to parallelize onto.
        assert results[f"table1_batch_jobs{jobs}"]["speedup"] > 1.2
