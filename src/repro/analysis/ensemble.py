"""Stacked-ensemble Newton solves over a compiled stamp program.

The synthesis flow keeps re-solving the *same* small MNA system with
slightly perturbed device parameters: Monte-Carlo mismatch samples,
process-corner replicas, warm-started sizing rounds.  PR 1 compiled the
circuit once (:class:`~repro.analysis.stamps.StampProgram`); this module
batches the parameter vectors themselves.  K members share one program:
residuals become ``(K, n)``, Jacobians ``(K, n, n)``, and every Newton
iteration performs **one** stacked ``np.linalg.solve`` plus one batched
device-model evaluation for the whole ensemble.

Design rules (pinned by ``tests/test_ensemble.py``):

* **Parity** — member arithmetic is elementwise per row, the stacked
  linear solve runs LAPACK per matrix, and the linear-part residual is
  accumulated with a fixed-order ``einsum`` (never a batch-size-dependent
  GEMM kernel), so a member's trajectory is independent of which other
  members share its batch.  The default ``solve()`` mirrors the scalar
  :class:`~repro.resilience.policy.DirectNewton` rung stage for stage,
  keeping the stacked path sample-for-sample equal to the per-sample
  golden path at rtol 1e-9 — and shard partitioning bit-identical.
* **Masking** — a member that converges freezes (its row stops being
  updated); stragglers keep iterating.  A member that exhausts the fast
  batched rung falls back *individually* to the full scalar escalation
  ladder (:data:`~repro.resilience.policy.COMPILED_POLICY`), so one
  divergent sample cannot poison its batch and failures carry the same
  structured :class:`~repro.resilience.policy.ConvergenceReport` (and
  raise the same :class:`~repro.errors.ConvergenceError`) as before.
* **Warm-start chaining** — ``solve(chain=True)`` seeds the batch from
  its predecessor: member 0 starts from the previous ``solve()`` call's
  converged solution (round r+1 seeds from round r) and members 1..K-1
  start from member 0's fresh solution (the batched collapse of
  "member k seeds from member k-1" — true serial chaining would undo the
  stacking).  Chaining trades bitwise parity for fewer iterations, so
  the Monte-Carlo consumer keeps the default parity mode.

The per-sample path remains the golden reference behind
:data:`repro.analysis.engine.ensemble_engine` (``"per-sample"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.analysis.engine import PERSAMPLE, STACKED, ensemble_engine
from repro.analysis.mna import NodeIndex
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Mos,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError
from repro.resilience import faults
from repro.resilience.policy import (
    COMPILED_POLICY,
    ConvergenceReport,
)

__all__ = [
    "EnsembleProgram",
    "EnsembleSolution",
    "EnsembleMeasurement",
    "measure_ota_ensemble",
    "ensemble_engine",
    "STACKED",
    "PERSAMPLE",
]


class _StackedParams:
    """Duck-typed ``MosParams`` whose fields carry a leading ensemble axis.

    ``evaluate_batch`` is purely elementwise, so ``(K, n)`` parameter
    arrays broadcast against ``(K, n)`` bias arrays exactly like the
    per-device ``(n,)`` view the compiled engine already uses — one model
    call evaluates every device of every member.
    """

    def __init__(self, member_devices: Sequence[Sequence[Mos]]):
        first = member_devices[0]
        self.name = "+".join(sorted({m.params.name for m in first}))
        # Polarity is structural: it must not vary across members.
        self.sign = np.array([m.params.sign for m in first])
        for devices in member_devices[1:]:
            if any(
                m.params.sign != s for m, s in zip(devices, self.sign)
            ):
                raise AnalysisError(
                    "ensemble members must agree on device polarity"
                )

        def stack(attr: str) -> np.ndarray:
            return np.array(
                [
                    [getattr(m.params, attr) for m in devices]
                    for devices in member_devices
                ]
            )

        self.vto = stack("vto")
        self.gamma = stack("gamma")
        self.phi = stack("phi")
        self.kp = stack("kp")
        self.lambda_l = stack("lambda_l")


def _stacked_level1(proto, member_devices: Sequence[Sequence[Mos]]):
    """A level-1 model evaluating all members' devices in one batch."""
    merged = object.__new__(type(proto))
    merged.params = _StackedParams(member_devices)
    merged.temperature = proto.temperature
    merged.vt = proto.vt
    return merged


def _element_signature(element) -> tuple:
    """Structural identity of one element (values that stamp the shared
    linear part must match across members; MOS parameters may differ)."""
    if isinstance(element, Resistor):
        return ("R", element.name, element.a, element.b, element.value)
    if isinstance(element, Capacitor):
        return ("C", element.name, element.a, element.b, element.value)
    if isinstance(element, VoltageSource):
        return ("V", element.name, element.pos, element.neg, element.dc)
    if isinstance(element, CurrentSource):
        return ("I", element.name, element.pos, element.neg, element.dc)
    if isinstance(element, Mos):
        return ("M", element.name, element.d, element.g, element.s, element.b)
    return (type(element).__name__, element.name)


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

    def warm_seed(self) -> Optional[np.ndarray]:
        """A converged member's voltages, for seeding a later ensemble."""
        hits = np.nonzero(self.converged)[0]
        if hits.size == 0:
            return None
        return self.voltages[hits[0]].copy()


class EnsembleProgram:
    """K parameter vectors solved simultaneously over one stamp program.

    Built either from per-member mismatch rows on a shared program
    (:meth:`from_mismatch` — the Monte-Carlo case) or from K structurally
    identical circuit variants whose device parameters differ
    (:meth:`from_variants` — the process-corner case).
    """

    def __init__(
        self,
        program,
        vth: np.ndarray,
        beta: np.ndarray,
        w: Optional[np.ndarray] = None,
        length: Optional[np.ndarray] = None,
        groups: Optional[List[Tuple[object, slice]]] = None,
        member_circuits: Optional[List[Circuit]] = None,
    ):
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
        self._w = program._mos_w if w is None else np.asarray(w, dtype=float)
        self._l = (
            program._mos_l if length is None
            else np.asarray(length, dtype=float)
        )
        self._groups = program._groups if groups is None else groups
        self._circuits = member_circuits
        self._kidx = np.arange(self.members)[:, None]
        self._swap_cache: Optional[Tuple[np.ndarray, ...]] = None
        self._warm: Optional[np.ndarray] = None

    # -- Constructors ----------------------------------------------------------

    @classmethod
    def from_mismatch(
        cls, program, vth_rows: np.ndarray, beta_rows: np.ndarray
    ) -> "EnsembleProgram":
        """Members = pre-drawn Pelgrom mismatch rows on a shared program.

        Rows follow ``program.mos_names`` order (the caller applies its
        name permutation first, exactly as with ``set_mismatch``).
        """
        return cls(program, vth_rows, beta_rows)

    @classmethod
    def from_variants(
        cls, circuits: Sequence[Circuit], index: Optional[NodeIndex] = None
    ) -> "EnsembleProgram":
        """Members = structurally identical circuits (process corners).

        Every circuit must stamp the same linear part (same elements,
        nets and R/V/I values); only MOS parameters, geometry and
        mismatch may differ.  All devices must use level-1 models at one
        temperature so the parameter stacks broadcast through a single
        merged model — anything else raises :class:`AnalysisError` and
        the caller falls back to the per-member path.
        """
        from repro.analysis.dcop import model_for
        from repro.analysis.stamps import StampProgram
        from repro.mos.level1 import Level1Model

        circuits = list(circuits)
        if not circuits:
            raise AnalysisError("ensemble needs at least one member circuit")
        base = StampProgram(circuits[0], index)
        signature = [_element_signature(e) for e in circuits[0]]
        for circuit in circuits[1:]:
            circuit.validate()
            if [_element_signature(e) for e in circuit] != signature:
                raise AnalysisError(
                    "ensemble member circuits must be structurally "
                    "identical (same elements, nets and linear values)"
                )
        member_devices: List[List[Mos]] = [
            [circuit.mos(name) for name in base.mos_names]
            for circuit in circuits
        ]
        models = {
            id(model_for(m)): model_for(m)
            for devices in member_devices
            for m in devices
        }
        if not all(type(m) is Level1Model for m in models.values()):
            raise AnalysisError(
                "ensemble variants need level-1 models throughout"
            )
        temperatures = {m.temperature for m in models.values()}
        if len(temperatures) != 1:
            raise AnalysisError(
                "ensemble variants must share one model temperature"
            )
        proto = next(iter(models.values()))
        n = len(base.mos_names)
        stacked_model = _stacked_level1(proto, member_devices)
        return cls(
            base,
            vth=np.array(
                [[m.mismatch_vth for m in devices]
                 for devices in member_devices]
            ),
            beta=np.array(
                [[m.mismatch_beta for m in devices]
                 for devices in member_devices]
            ),
            w=np.array(
                [[m.w for m in devices] for devices in member_devices]
            ),
            length=np.array(
                [[m.l for m in devices] for devices in member_devices]
            ),
            groups=[(stacked_model, slice(0, n))],
            member_circuits=circuits,
        )

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
            for model, members in self._groups:
                ids, gms, gdss, gmbs, _regions = model.evaluate_batch(
                    self._w[..., members],
                    self._l[..., members],
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
        if self._circuits is not None:
            from repro.analysis.stamps import StampProgram

            backend = StampProgram(self._circuits[k])
        else:
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
            if self._circuits is None:
                backend._mos_mvth, backend._mos_mbeta = saved
                backend._swap_cache = None

    # -- The ladder ------------------------------------------------------------

    def solve(
        self,
        seed: Optional[np.ndarray] = None,
        chain: bool = False,
        max_iterations: int = 200,
    ) -> EnsembleSolution:
        """Solve every member; returns an :class:`EnsembleSolution`.

        The fast path mirrors the scalar
        :class:`~repro.resilience.policy.DirectNewton` rung (two stages,
        gmin 1e-12 then 0, 50-iteration caps) batched over all members;
        members it cannot converge fall back individually to the full
        scalar ladder.  ``seed`` overrides the standard initial guess
        (``(size,)`` shared or ``(K, size)`` per member); with
        ``chain=True`` member 0 additionally seeds from the previous
        ``solve()`` call on this program, and members 1..K-1 from member
        0's converged solution.
        """
        program = self.program
        size = program.size
        K = self.members
        telemetry.count("ensemble.solves")
        telemetry.count("ensemble.members", K)

        voltages = np.empty((K, size))
        if seed is None:
            voltages[:] = program.initial_guess()
        else:
            voltages[:] = np.asarray(seed, dtype=float)
        converged = np.zeros(K, dtype=bool)
        iterations = np.zeros(K, dtype=np.intp)
        norms = np.full(K, np.inf)
        gmins = np.zeros(K)
        reports: Dict[int, ConvergenceReport] = {}
        errors: Dict[int, ConvergenceError] = {}

        def run_ladder(subset: np.ndarray) -> None:
            if subset.size == 0:
                return
            running = np.zeros(K, dtype=bool)
            running[subset] = True
            stages: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
            alive = running.copy()
            for stage_gmin in (1e-12, 0.0):
                conv_s, iter_s, norm_s = self._newton_masked(
                    voltages, alive, stage_gmin,
                    max_iterations=min(max_iterations, 50),
                )
                stages.append(
                    (f"gmin={stage_gmin:g}", conv_s, iter_s, norm_s)
                )
                alive = alive & conv_s
            direct = np.nonzero(alive)[0]
            converged[direct] = True
            gmins[direct] = 0.0
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
            fallback = subset[~converged[subset]]
            for k in fallback:
                v, report, error = self._scalar_solve(
                    int(k), max_iterations
                )
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

        if chain and K > 1:
            if self._warm is not None and self._warm.shape == (size,):
                voltages[0] = self._warm
                telemetry.count("ensemble.chained")
            run_ladder(np.array([0]))
            if converged[0]:
                voltages[1:] = voltages[0]
                telemetry.count("ensemble.chained", K - 1)
            run_ladder(np.arange(1, K))
        else:
            if chain and self._warm is not None and self._warm.shape == (
                size,
            ):
                voltages[:] = self._warm
                telemetry.count("ensemble.chained", K)
            run_ladder(np.arange(K))

        telemetry.count("ensemble.newton_iterations", int(iterations.sum()))
        solution = EnsembleSolution(
            voltages=voltages,
            converged=converged,
            iterations=iterations,
            residual_norms=norms,
            gmin=gmins,
            index=self.index,
            reports=reports,
            errors=errors,
        )
        if chain:
            warm = solution.warm_seed()
            if warm is not None:
                self._warm = warm
        return solution


# -- Ensemble measurement (process corners) ---------------------------------------


@dataclass
class EnsembleMeasurement:
    """One member's Table-1 measurement, or why it failed."""

    metrics: Optional[object]
    error: Optional[str] = None


def _measure_single(tb, f_start, f_stop, points_per_decade):
    from repro.analysis.metrics import measure_ota

    try:
        return EnsembleMeasurement(
            metrics=measure_ota(tb, f_start, f_stop, points_per_decade)
        )
    except (AnalysisError, ConvergenceError) as error:
        return EnsembleMeasurement(metrics=None, error=str(error))


def measure_ota_ensemble(
    benches,
    f_start: float = 1.0,
    f_stop: float = 3.0e9,
    points_per_decade: int = 24,
    engine: Optional[str] = None,
) -> List[EnsembleMeasurement]:
    """Table-1 measurement of K structurally identical testbenches.

    The stacked path shares one compiled program: one batched feedback DC
    solve biases every member, then all members' small-signal questions
    (drives, impedance probe, noise injections) are answered by a single
    ``(K, F, n, n)`` solve.  The per-member ``measure_ota`` loop remains
    the golden reference (``engine="per-sample"``), and is also the
    automatic fallback when the members are not stackable (different
    structure, non-level-1 models).
    """
    benches = list(benches)
    if not benches:
        return []
    if ensemble_engine.resolve(engine) == PERSAMPLE:
        return [
            _measure_single(tb, f_start, f_stop, points_per_decade)
            for tb in benches
        ]

    from repro.analysis.ac import logspace_frequencies
    from repro.analysis.dcop import _package_solution
    from repro.analysis.metrics import _metrics_from_sweeps
    from repro.analysis.noise import NoiseAnalysis
    from repro.analysis.stamps import LinearSystem, solve_stacked_systems
    from repro.analysis.transfer import TransferFunction

    feedbacks = []
    for tb in benches:
        clone = tb.circuit.clone(tb.circuit.name + "_fb")
        clone.remove(tb.source_neg)
        clone.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
        feedbacks.append(clone)
    try:
        ensemble = EnsembleProgram.from_variants(feedbacks)
    except AnalysisError:
        return [
            _measure_single(tb, f_start, f_stop, points_per_decade)
            for tb in benches
        ]

    with telemetry.span(
        "analysis.measure_ensemble",
        members=len(benches),
        circuit=benches[0].circuit.name,
    ):
        solution = ensemble.solve()
        frequencies = logspace_frequencies(f_start, f_stop, points_per_decade)
        results: List[Optional[EnsembleMeasurement]] = [None] * len(benches)
        ac_members: List[tuple] = []
        index_ol = NodeIndex(benches[0].circuit)
        for k, tb in enumerate(benches):
            if not solution.converged[k]:
                error = solution.errors.get(k)
                results[k] = EnsembleMeasurement(
                    metrics=None,
                    error=str(error) if error is not None
                    else "ensemble member did not converge",
                )
                continue
            dc = _package_solution(
                feedbacks[k],
                ensemble.index,
                solution.voltages[k],
                int(solution.iterations[k]),
                float(solution.gmin[k]),
                report=solution.reports.get(k),
            )
            offset = dc.voltage(tb.output_net) - tb.common_mode_voltage()
            try:
                system = LinearSystem(tb.circuit, dc, index=index_ol)
                out_node = index_ol.node(tb.output_net)
                if out_node < 0:
                    raise AnalysisError(
                        "OTA output cannot be the ground net"
                    )
                diff_drive = {tb.source_pos: 0.5, tb.source_neg: -0.5}
                cm_drive = {tb.source_pos: 1.0, tb.source_neg: 1.0}
                silence = {
                    name: 0.0
                    for name in (
                        s.name for s in tb.circuit
                        if isinstance(s, VoltageSource)
                    )
                    if name not in (tb.source_pos, tb.source_neg)
                }
                supply_drive = {
                    **{name: 0.0 for name in silence},
                    tb.source_pos: 0.0,
                    tb.source_neg: 0.0,
                }
                for supply in tb.supply_sources:
                    supply_drive[supply] = 1.0
                noise_analysis = NoiseAnalysis(
                    tb.circuit, dc, tb.output_net,
                    {**silence, **diff_drive},
                    engine="compiled", system=system,
                )
                zout_column = system.injection_columns(
                    [(-1, out_node)]
                )[:, 0]
                columns = np.concatenate(
                    [
                        np.stack(
                            [
                                system.rhs({**silence, **diff_drive}),
                                system.rhs({**silence, **cm_drive}),
                                system.rhs(supply_drive),
                                zout_column,
                            ],
                            axis=1,
                        ),
                        noise_analysis.rhs_columns,
                    ],
                    axis=1,
                )
            except (AnalysisError, ConvergenceError) as error:
                results[k] = EnsembleMeasurement(
                    metrics=None, error=str(error)
                )
                continue
            ac_members.append(
                (k, dc, offset, noise_analysis, columns, system)
            )

        if ac_members:
            systems = [entry[5] for entry in ac_members]
            rhs_stack = np.stack([entry[4] for entry in ac_members])
            solved = solve_stacked_systems(systems, frequencies, rhs_stack)
            for row, (k, dc, offset, noise_analysis, _cols, _sys) in (
                enumerate(ac_members)
            ):
                tb = benches[k]
                out_node = index_ol.node(tb.output_net)
                transfers = solved[row][:, out_node, :]
                dm = TransferFunction(
                    frequencies.copy(), transfers[:, 0].copy()
                )
                cm = TransferFunction(
                    frequencies.copy(), transfers[:, 1].copy()
                )
                ps = TransferFunction(
                    frequencies.copy(), transfers[:, 2].copy()
                )
                output_resistance = float(abs(transfers[0, 3]))
                try:
                    noise = noise_analysis.result_from_output_transfers(
                        frequencies, transfers[:, 4:]
                    )
                    metrics = _metrics_from_sweeps(
                        tb, dc, offset, dm, cm, ps,
                        output_resistance, noise,
                    )
                    results[k] = EnsembleMeasurement(metrics=metrics)
                except (AnalysisError, ConvergenceError) as error:
                    results[k] = EnsembleMeasurement(
                        metrics=None, error=str(error)
                    )
        return [
            entry if entry is not None
            else EnsembleMeasurement(metrics=None, error="not measured")
            for entry in results
        ]
