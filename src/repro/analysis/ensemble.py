"""Stacked-ensemble Newton solves over a compiled stamp program.

Monte-Carlo re-solves the *same* small MNA system once per mismatch
sample.  The circuit is compiled once
(:class:`~repro.analysis.stamps.StampProgram`); this module batches the
sample rows themselves.  K members share one program: residuals become
``(K, n)``, Jacobians ``(K, n, n)``, and every Newton iteration performs
**one** stacked ``np.linalg.solve`` plus one batched device-model
evaluation for the whole ensemble.

Design rules (pinned by ``tests/test_ensemble.py``):

* **Parity** — member arithmetic is elementwise per row, the stacked
  linear solve runs LAPACK per matrix, and the linear-part residual is
  accumulated with a fixed-order ``einsum`` (never a batch-size-dependent
  GEMM kernel), so a member's trajectory is independent of which other
  members share its batch.  ``solve()`` mirrors the scalar
  :class:`~repro.resilience.policy.DirectNewton` rung stage for stage,
  keeping the stacked path sample-for-sample equal to the per-sample
  reference at rtol 1e-9 — and shard partitioning bit-identical.
* **Masking** — a member that converges freezes (its row stops being
  updated); stragglers keep iterating.  A member that exhausts the fast
  batched rung falls back *individually* to the full scalar escalation
  ladder (:data:`~repro.resilience.policy.COMPILED_POLICY`), so one
  divergent sample cannot poison its batch and failures carry the same
  structured :class:`~repro.resilience.policy.ConvergenceReport` (and
  raise the same :class:`~repro.errors.ConvergenceError`) as before.

The per-sample reference is
:meth:`repro.analysis.montecarlo._CompiledOffset.measure_per_sample`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.analysis.mna import NodeIndex
from repro.errors import AnalysisError, ConvergenceError
from repro.resilience import faults
from repro.resilience.policy import (
    COMPILED_POLICY,
    ConvergenceReport,
)

__all__ = ["EnsembleProgram", "EnsembleSolution"]


@dataclass
class EnsembleSolution:
    """Per-member outcome of one stacked ensemble solve."""

    voltages: np.ndarray
    """``(K, size)`` solution vectors (rows of failed members hold the
    last iterate of their scalar-ladder fallback)."""
    converged: np.ndarray
    """``(K,)`` bool."""
    iterations: np.ndarray
    """``(K,)`` Newton iterations spent per member (fallback included)."""
    residual_norms: np.ndarray
    """``(K,)`` last max-abs KCL residual evaluated per member."""
    gmin: np.ndarray
    """``(K,)`` achieved gmin per member (0.0 for a fully relaxed solve)."""
    index: NodeIndex
    reports: Dict[int, ConvergenceReport] = field(default_factory=dict)
    """Structured escalation record per member."""
    errors: Dict[int, ConvergenceError] = field(default_factory=dict)
    """The exact error a per-sample solve would have raised, per failed
    member."""

    @property
    def members(self) -> int:
        return int(self.voltages.shape[0])

    def raise_on_failure(self) -> None:
        """Raise the first failed member's :class:`ConvergenceError`
        (what the per-sample loop would have raised at that sample)."""
        if self.errors:
            raise self.errors[min(self.errors)]


class EnsembleProgram:
    """K mismatch rows solved simultaneously over one stamp program."""

    def __init__(self, program, vth: np.ndarray, beta: np.ndarray):
        self.program = program
        self.index = program.index
        vth = np.asarray(vth, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if vth.ndim != 2 or vth.shape != beta.shape:
            raise AnalysisError(
                "ensemble mismatch stacks must be (members, n_mos) arrays"
            )
        if vth.shape[1] != program._n_mos:
            raise AnalysisError(
                f"ensemble mismatch stacks must have one column per MOS "
                f"({program._n_mos}), got {vth.shape[1]}"
            )
        self.members = int(vth.shape[0])
        self._vth = vth
        self._beta = beta
        self._kidx = np.arange(self.members)[:, None]
        self._swap_cache: Optional[Tuple[np.ndarray, ...]] = None

    @classmethod
    def from_mismatch(
        cls, program, vth_rows: np.ndarray, beta_rows: np.ndarray
    ) -> "EnsembleProgram":
        """Members = pre-drawn Pelgrom mismatch rows on a shared program.

        Rows follow ``program.mos_names`` order (the caller applies its
        name permutation first, exactly as with ``set_mismatch``).
        """
        return cls(program, vth_rows, beta_rows)

    # -- Assembly --------------------------------------------------------------

    def residual_and_jacobian(
        self,
        voltages: np.ndarray,
        gmin: float,
        source_scale: float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked residuals ``(K, size)`` and Jacobians ``(K, size, size)``.

        Mirrors :meth:`StampProgram.residual_and_jacobian` row for row;
        every operation is elementwise per member (the linear part uses a
        fixed-order einsum), so a row's values do not depend on the batch
        size — the property that keeps shard partitioning bit-identical.
        """
        program = self.program
        size = program.size
        pad = size + 1
        K = self.members
        v_pad = np.zeros((K, pad))
        v_pad[:, :size] = voltages

        jacobian = np.empty((K, pad, pad))
        jacobian[:] = program._a_pad
        # einsum (optimize=False) accumulates j in fixed order per (k, i):
        # deliberately *not* a GEMM, whose blocking may depend on K.
        residual = np.einsum("ij,kj->ki", program._a_pad, v_pad)
        residual -= source_scale * program._source_vector

        if program._n_mos:
            vd = v_pad[:, program._mos_d]
            vg = v_pad[:, program._mos_g]
            vs = v_pad[:, program._mos_s]
            vb = v_pad[:, program._mos_b]
            sign = program._mos_sign
            swapped = sign * (vd - vs) < 0.0
            vd_f = np.where(swapped, vs, vd)
            vs_f = np.where(swapped, vd, vs)
            vgs = sign * (vg - vs_f) - self._vth
            vds = sign * (vd_f - vs_f)
            vsb = sign * (vs_f - vb)

            current = np.empty((K, program._n_mos))
            gm = np.empty((K, program._n_mos))
            gds = np.empty((K, program._n_mos))
            gmb = np.empty((K, program._n_mos))
            for model, members in program._groups:
                ids, gms, gdss, gmbs, _regions = model.evaluate_batch(
                    program._mos_w[members],
                    program._mos_l[members],
                    vgs[:, members],
                    vds[:, members],
                    vsb[:, members],
                )
                current[:, members] = ids
                gm[:, members] = gms
                gds[:, members] = gdss
                gmb[:, members] = gmbs
            if faults.active():
                fault = faults.fire("model.eval")
                if fault is not None:
                    if fault.action == "nan":
                        current.fill(np.nan)
                    else:
                        raise fault.exception()
            beta_scale = 1.0 + self._beta
            current *= beta_scale
            gm *= beta_scale
            gds *= beta_scale
            gmb *= beta_scale
            i_ds = sign * current

            cache = self._swap_cache
            if cache is None or not np.array_equal(cache[0], swapped):
                drain = np.where(swapped, program._mos_s, program._mos_d)
                source = np.where(swapped, program._mos_d, program._mos_s)
                gate = np.broadcast_to(program._mos_g, drain.shape)
                bulk = np.broadcast_to(program._mos_b, drain.shape)
                rows = np.concatenate(
                    (drain, drain, drain, drain,
                     source, source, source, source),
                    axis=1,
                )
                cols = np.concatenate(
                    (drain, gate, source, bulk) * 2, axis=1
                )
                cache = (swapped.copy(), drain, source, rows, cols)
                self._swap_cache = cache
            _swapped, drain, source, rows, cols = cache
            np.add.at(residual, (self._kidx, drain), i_ds)
            np.add.at(residual, (self._kidx, source), -i_ds)

            minus_sum = -(gm + gds + gmb)
            vals = np.concatenate(
                (gds, gm, minus_sum, gmb, -gds, -gm, -minus_sum, -gmb),
                axis=1,
            )
            np.add.at(jacobian, (self._kidx, rows, cols), vals)

        nodes = program.node_count
        residual[:, :nodes] += gmin * v_pad[:, :nodes]
        diag = np.arange(nodes)
        jacobian[:, diag, diag] += gmin

        return residual[:, :size], jacobian[:, :size, :size]

    # -- Masked batched Newton -------------------------------------------------

    def _newton_masked(
        self,
        voltages: np.ndarray,
        running: np.ndarray,
        gmin: float,
        source_scale: float = 1.0,
        max_iterations: int = 200,
        abs_tolerance: float = 1e-10,
        step_limit: float = 0.6,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Damped Newton on the ``running`` members, updating in place.

        Per-member control flow mirrors :meth:`StampProgram.newton`
        exactly (same damping, same two-part convergence test, same
        treatment of linear-solve failure); converged members freeze.
        Returns ``(converged, iterations, residual_norms)`` arrays (full
        K length; entries meaningful for members that started running).
        """
        K = self.members
        converged = np.zeros(K, dtype=bool)
        iterations = np.zeros(K, dtype=np.intp)
        norms = np.full(K, np.inf)
        alive = running.copy()
        for iteration in range(1, max_iterations + 1):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            residual, jacobian = self.residual_and_jacobian(
                voltages, gmin, source_scale
            )
            r = residual[idx]
            batch_norms = np.max(np.abs(r), axis=1)
            norms[idx] = batch_norms
            iterations[idx] = iteration
            # A member gone non-finite can never pass the convergence
            # test; drop it to the scalar fallback instead of burning
            # the whole iteration cap on NaNs.
            finite = np.isfinite(batch_norms)
            if not finite.all():
                alive[idx[~finite]] = False
                idx = idx[finite]
                r = r[finite]
                if idx.size == 0:
                    continue
            try:
                if faults.active():
                    faults.maybe_raise("solve.linear")
                # The explicit trailing RHS axis keeps NumPy >= 2
                # treating r as a stack of vectors (never a broadcast
                # matrix).
                delta = np.linalg.solve(jacobian[idx], -r[..., None])[..., 0]
            except Exception:
                # Stacked solve failed — LAPACK raises one LinAlgError
                # for the whole (K, n, n) batch even when a single
                # member is singular (or a fault was injected).  Re-solve
                # member-by-member to isolate the offenders: healthy
                # members keep their Newton step, and only the genuinely
                # singular ones demote to the scalar fallback ladder.
                telemetry.count("ensemble.singular_batches")
                delta = np.empty_like(r)
                for row, k in enumerate(idx):
                    try:
                        delta[row] = np.linalg.solve(
                            jacobian[k], -residual[k]
                        )
                    except np.linalg.LinAlgError:
                        telemetry.count("ensemble.singular_members")
                        delta[row] = np.nan
            usable = np.isfinite(delta).all(axis=1)
            if not usable.all():
                alive[idx[~usable]] = False
                idx = idx[usable]
                delta = delta[usable]
                r = r[usable]
                if idx.size == 0:
                    continue
            batch_norms = np.max(np.abs(r), axis=1)
            max_step = (
                np.max(np.abs(delta), axis=1)
                if delta.shape[1]
                else np.zeros(idx.size)
            )
            over = max_step > step_limit
            if over.any():
                delta[over] *= (step_limit / max_step[over])[:, None]
            voltages[idx] += delta
            done = (
                (batch_norms < abs_tolerance) & (max_step < 1e-9)
            ) | ((max_step < 1e-12) & (batch_norms < 1e-6))
            if done.any():
                converged[idx[done]] = True
                alive[idx[done]] = False
        return converged, iterations, norms

    # -- Scalar fallback -------------------------------------------------------

    def _scalar_solve(
        self, k: int, max_iterations: int
    ) -> Tuple[
        Optional[np.ndarray],
        ConvergenceReport,
        Optional[ConvergenceError],
    ]:
        """Run the full scalar escalation ladder for member ``k``.

        This reproduces exactly what the per-sample path does for the
        member's parameter vector — including the same
        :class:`ConvergenceError` when the ladder is exhausted.
        """
        telemetry.count("ensemble.fallbacks")
        backend = self.program
        saved = (backend._mos_mvth, backend._mos_mbeta)
        backend.set_mismatch(self._vth[k], self._beta[k])
        try:
            voltages, report = COMPILED_POLICY.run(
                backend, max_iterations=max_iterations
            )
            return voltages, report, None
        except ConvergenceError as error:
            return error.report.final_voltages, error.report, error
        finally:
            backend._mos_mvth, backend._mos_mbeta = saved
            backend._swap_cache = None

    # -- The ladder ------------------------------------------------------------

    def solve(self, max_iterations: int = 200) -> EnsembleSolution:
        """Solve every member; returns an :class:`EnsembleSolution`.

        The fast path mirrors the scalar
        :class:`~repro.resilience.policy.DirectNewton` rung (two stages,
        gmin 1e-12 then 0, 50-iteration caps) batched over all members;
        members it cannot converge fall back individually to the full
        scalar ladder.
        """
        program = self.program
        size = program.size
        K = self.members
        telemetry.count("ensemble.solves")
        telemetry.count("ensemble.members", K)

        voltages = np.empty((K, size))
        voltages[:] = program.initial_guess()
        converged = np.zeros(K, dtype=bool)
        iterations = np.zeros(K, dtype=np.intp)
        norms = np.full(K, np.inf)
        gmins = np.zeros(K)
        reports: Dict[int, ConvergenceReport] = {}
        errors: Dict[int, ConvergenceError] = {}

        stages: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
        alive = np.ones(K, dtype=bool)
        for stage_gmin in (1e-12, 0.0):
            conv_s, iter_s, norm_s = self._newton_masked(
                voltages, alive, stage_gmin,
                max_iterations=min(max_iterations, 50),
            )
            stages.append((f"gmin={stage_gmin:g}", conv_s, iter_s, norm_s))
            alive = alive & conv_s
        direct = np.nonzero(alive)[0]
        converged[direct] = True
        for k in direct:
            report = ConvergenceReport(circuit=program.circuit_name)
            total = 0
            for stage, conv_s, iter_s, norm_s in stages:
                report.add(
                    "direct-newton", stage, bool(conv_s[k]),
                    int(iter_s[k]), float(norm_s[k]),
                )
                total += int(iter_s[k])
            report.converged = True
            report.strategy = "direct-newton"
            report.achieved_gmin = 0.0
            reports[int(k)] = report
            iterations[k] = total
            norms[k] = stages[-1][3][k]
        for k in np.nonzero(~converged)[0]:
            v, report, error = self._scalar_solve(int(k), max_iterations)
            reports[int(k)] = report
            iterations[k] = report.iterations
            if report.rungs:
                norms[k] = report.rungs[-1].residual_norm
            if error is None:
                voltages[k] = v
                converged[k] = True
                gmins[k] = report.achieved_gmin
            else:
                errors[int(k)] = error
                if v is not None:
                    voltages[k] = v

        telemetry.count("ensemble.newton_iterations", int(iterations.sum()))
        return EnsembleSolution(
            voltages=voltages,
            converged=converged,
            iterations=iterations,
            residual_norms=norms,
            gmin=gmins,
            index=self.index,
            reports=reports,
            errors=errors,
        )
