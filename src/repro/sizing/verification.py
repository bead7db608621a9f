"""Verification-by-simulation interface.

"A verification interface has also been developed which controls a
verification-by-simulation process.  It also permits to undergo
statistical analysis to check the reliability of the synthesized circuit"
(paper section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.metrics import OtaMetrics, measure_ota
from repro.analysis.montecarlo import MonteCarloResult, run_monte_carlo
from repro.circuit.testbench import OtaTestbench
from repro.errors import AnalysisError, ConvergenceError
from repro.sizing.specs import OtaSpecs


@dataclass
class VerificationReport:
    """Nominal + statistical verification outcome.

    ``metrics`` is None when the circuit could not even be measured (e.g.
    a corner starves the bias so badly the amplifier has no gain) — which
    also counts as a failed verification.
    """

    metrics: Optional[OtaMetrics]
    meets_gbw: bool
    meets_phase_margin: bool
    all_saturated: bool
    statistics: Optional[MonteCarloResult] = None
    failure_reason: Optional[str] = None

    @property
    def passed(self) -> bool:
        return (
            self.metrics is not None
            and self.meets_gbw
            and self.meets_phase_margin
            and self.all_saturated
        )

    def failures(self) -> Dict[str, bool]:
        return {
            "gbw": self.meets_gbw,
            "phase_margin": self.meets_phase_margin,
            "saturation": self.all_saturated,
        }


class VerificationInterface:
    """Runs simulation-based verification on a synthesized testbench."""

    def __init__(self, gbw_tolerance: float = 0.03, pm_tolerance: float = 1.0):
        self.gbw_tolerance = gbw_tolerance
        self.pm_tolerance = pm_tolerance

    def verify(
        self,
        testbench: OtaTestbench,
        specs: OtaSpecs,
        statistical_runs: int = 0,
        seed: int = 1234,
    ) -> VerificationReport:
        """Measure the circuit and compare against the specifications.

        With ``statistical_runs > 0`` a Monte-Carlo mismatch analysis
        (offset statistics) is included.
        """
        metrics = measure_ota(testbench)
        statistics = None
        if statistical_runs > 0:
            statistics = run_monte_carlo(
                testbench, runs=statistical_runs, seed=seed
            )
        return self.report_from_metrics(metrics, specs, statistics)

    def report_from_metrics(
        self,
        metrics: OtaMetrics,
        specs: OtaSpecs,
        statistics: Optional[MonteCarloResult] = None,
    ) -> VerificationReport:
        """Spec comparison on already-measured metrics (the tolerances
        :meth:`verify` applies)."""
        meets_gbw = metrics.gbw >= specs.gbw * (1.0 - self.gbw_tolerance)
        meets_pm = (
            metrics.phase_margin_deg >= specs.phase_margin - self.pm_tolerance
        )
        return VerificationReport(
            metrics=metrics,
            meets_gbw=meets_gbw,
            meets_phase_margin=meets_pm,
            all_saturated=metrics.all_saturated(),
            statistics=statistics,
        )

    def verify_corners(
        self,
        plan,
        result,
        specs: OtaSpecs,
        corners: Optional[Dict[str, object]] = None,
    ) -> Dict[str, VerificationReport]:
        """Re-verify a sizing result across process corners.

        ``plan`` must expose ``build_testbench``; each corner technology
        replaces the devices while the sizes and biases stay fixed — the
        deterministic worst-case companion to the Monte-Carlo analysis.
        Every corner is measured by :meth:`verify`; a corner that cannot
        be measured reports its ``failure_reason``.
        """
        from repro.technology.corners import all_corners

        if corners is None:
            corners = all_corners(plan.technology)
        reports: Dict[str, VerificationReport] = {}
        for name, technology in corners.items():
            corner_plan = type(plan)(technology, plan.model_level)
            bench = corner_plan.build_testbench(result, specs)
            try:
                reports[name] = self.verify(bench, specs)
            except (AnalysisError, ConvergenceError) as error:
                reports[name] = VerificationReport(
                    metrics=None,
                    meets_gbw=False,
                    meets_phase_margin=False,
                    all_saturated=False,
                    failure_reason=str(error),
                )
        return reports
