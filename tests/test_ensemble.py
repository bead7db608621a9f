"""Stacked-ensemble solves vs the per-sample reference.

The stacked Monte-Carlo path must be a pure performance transform:
sample-for-sample equal results (rtol 1e-9; in practice bitwise),
per-member failure isolation, and worker-count independence.  These tests
pin the design rules documented in :mod:`repro.analysis.ensemble`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ensemble import EnsembleProgram
from repro.analysis.montecarlo import (
    _CompiledOffset,
    draw_mismatch_samples,
    run_monte_carlo,
)
from repro.analysis.stamps import StampProgram
from repro.errors import ConvergenceError
from repro.perf import default_testbench, two_stage_testbench

RTOL = 1e-9

TESTBENCHES = {
    "folded_cascode": default_testbench,
    "two_stage": two_stage_testbench,
}


@pytest.fixture(scope="module", params=sorted(TESTBENCHES))
def tb(request):
    return TESTBENCHES[request.param]()


@pytest.fixture(scope="module")
def feedback(tb):
    circuit = tb.circuit.clone("ensemble_fb")
    circuit.remove(tb.source_neg)
    circuit.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    return circuit


class TestMonteCarloParity:
    def test_stacked_matches_per_sample(self, tb):
        names, vth, beta = draw_mismatch_samples(tb.circuit, 40, 99)
        offset = _CompiledOffset(tb, names)
        stacked = offset.measure(vth, beta)
        reference = offset.measure_per_sample(vth, beta)
        assert len(stacked) == len(reference) == 40
        for got, ref in zip(stacked, reference):
            assert set(got) == set(ref)
            for key, value in ref.items():
                np.testing.assert_allclose(
                    got[key], value, rtol=RTOL, atol=1e-12
                )
        result = run_monte_carlo(tb, runs=40, seed=99)
        assert result.samples == {
            "offset_voltage": [row["offset_voltage"] for row in stacked]
        }

    def test_stacked_statistics_identical_for_any_worker_count(self, tb):
        serial = run_monte_carlo(tb, runs=12, seed=77, workers=1)
        pooled = run_monte_carlo(tb, runs=12, seed=77, workers=4)
        assert serial.samples == pooled.samples
        assert pooled.n_failed == 0


class TestMemberMasking:
    def test_member_rows_independent_of_batch(self, feedback):
        """A member's trajectory must not depend on who shares its batch."""
        program = StampProgram(feedback)
        n = program._n_mos
        rng = np.random.default_rng(5)
        vth = rng.normal(scale=2e-3, size=(3, n))
        beta = rng.normal(scale=5e-3, size=(3, n))
        small = EnsembleProgram.from_mismatch(program, vth, beta).solve()
        assert small.converged.all()

        # Append a pathological fourth member; the first three rows must
        # come out bitwise identical whatever happens to the new one.
        vth4 = np.vstack([vth, np.full((1, n), 50.0)])
        beta4 = np.vstack([beta, np.full((1, n), -0.99)])
        big = EnsembleProgram.from_mismatch(program, vth4, beta4).solve()
        assert np.array_equal(big.voltages[:3], small.voltages)
        np.testing.assert_array_equal(big.converged[:3], small.converged)
        np.testing.assert_array_equal(big.iterations[:3], small.iterations)

    def test_diverging_member_reported_not_poisoning(self, feedback):
        """A member that genuinely fails DC is isolated: the others
        converge to their per-sample values and the failure carries the
        per-sample ConvergenceError/report."""
        program = StampProgram(feedback)
        n = program._n_mos
        rng = np.random.default_rng(11)
        vth = rng.normal(scale=2e-3, size=(4, n))
        beta = rng.normal(scale=5e-3, size=(4, n))
        # Member 2 is unsolvable (NaN threshold shifts poison the model
        # evaluation on every rung, batched and scalar alike).
        vth[2] = np.nan
        solution = EnsembleProgram.from_mismatch(program, vth, beta).solve()
        assert not solution.converged[2]
        assert solution.converged[[0, 1, 3]].all()
        assert 2 in solution.errors
        report = solution.reports[2]
        assert not report.converged
        assert report.rungs
        for k in (0, 1, 3):
            program.set_mismatch(vth[k], beta[k])
            program._swap_cache = None
            voltages, _, _ = program.solve_voltages()
            np.testing.assert_allclose(
                solution.voltages[k], voltages, rtol=RTOL, atol=1e-12
            )
        program.set_mismatch(vth[2], beta[2])
        program._swap_cache = None
        with pytest.raises(ConvergenceError) as excinfo:
            program.solve_voltages()
        assert str(solution.errors[2]) == str(excinfo.value)
        with pytest.raises(ConvergenceError):
            solution.raise_on_failure()

    def test_singular_batch_demotes_members_not_the_ensemble(
        self, feedback, monkeypatch
    ):
        """LAPACK raises one LinAlgError for the whole (K, n, n) stack
        even when a single member is singular: the batched solve must
        re-solve member-by-member, demote only the genuinely singular
        member to the scalar fallback ladder, and still converge every
        member to its per-sample value."""
        from repro import telemetry

        program = StampProgram(feedback)
        n = program._n_mos
        rng = np.random.default_rng(5)
        vth = rng.normal(scale=2e-3, size=(3, n))
        beta = rng.normal(scale=5e-3, size=(3, n))
        reference = EnsembleProgram.from_mismatch(program, vth, beta).solve()
        assert reference.converged.all()

        real_solve = np.linalg.solve
        state = {"batched_failed": False, "member_failed": False}

        def flaky_solve(a, b):
            if np.asarray(a).ndim == 3:
                state["batched_failed"] = True
                raise np.linalg.LinAlgError("singular stacked batch")
            if state["batched_failed"] and not state["member_failed"]:
                # First per-member re-solve: exactly one singular member.
                state["member_failed"] = True
                raise np.linalg.LinAlgError("singular member")
            return real_solve(a, b)

        tracer = telemetry.Tracer()
        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        with tracer.activate():
            solution = EnsembleProgram.from_mismatch(
                program, vth, beta
            ).solve()
        assert state["member_failed"]
        assert solution.converged.all()
        np.testing.assert_allclose(
            solution.voltages, reference.voltages, rtol=RTOL, atol=1e-12
        )
        assert tracer.counters["ensemble.singular_batches"] >= 1
        assert tracer.counters["ensemble.singular_members"] == 1

