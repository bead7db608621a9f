"""Small-signal AC analysis.

The circuit is linearised at a previously computed DC solution: each MOS
contributes its gm/gmb controlled sources, its output conductance and its
five operating-point capacitances, stamped at the *effective* (orientation-
resolved) terminals recorded by the DC solver.  The complex system
``(G + j 2 pi f C) x = b`` is then solved per frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.analysis.dcop import DcSolution
from repro.analysis.engine import COMPILED, resolve_engine
from repro.analysis.mna import (
    NodeIndex,
    solve_linear,
    stamp_conductance,
    stamp_vccs,
    stamp_voltage_source,
)
from repro.analysis.transfer import TransferFunction
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Mos,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError


def build_ac_matrices(
    circuit: Circuit, dc: DcSolution, index: Optional[NodeIndex] = None
) -> Tuple[np.ndarray, np.ndarray, NodeIndex]:
    """Real conductance and capacitance matrices ``(G, C, index)``.

    Voltage sources are stamped with zero value; drive amplitudes enter via
    the right-hand side built separately (:func:`build_ac_rhs`).
    """
    if index is None:
        index = NodeIndex(circuit)
    size = index.size
    conductance = np.zeros((size, size))
    capacitance = np.zeros((size, size))
    dummy_rhs = np.zeros(size)

    for element in circuit:
        if isinstance(element, Resistor):
            stamp_conductance(
                conductance,
                index.node(element.a),
                index.node(element.b),
                1.0 / element.value,
            )
        elif isinstance(element, Capacitor):
            stamp_conductance(
                capacitance,
                index.node(element.a),
                index.node(element.b),
                element.value,
            )
        elif isinstance(element, VoltageSource):
            stamp_voltage_source(
                conductance,
                dummy_rhs,
                index.node(element.pos),
                index.node(element.neg),
                index.branch(element.name),
                0.0,
            )
        elif isinstance(element, CurrentSource):
            continue  # open in small-signal unless driven (handled in RHS)
        elif isinstance(element, Mos):
            try:
                solution = dc.devices[element.name]
            except KeyError:
                raise AnalysisError(
                    f"DC solution has no device {element.name!r}; "
                    "AC analysis needs a matching operating point"
                ) from None
            op = solution.op
            drain = index.node(solution.eff_drain)
            source = index.node(solution.eff_source)
            gate = index.node(element.g)
            bulk = index.node(element.b)
            stamp_conductance(conductance, drain, source, op.gds)
            stamp_vccs(conductance, drain, source, gate, source, op.gm)
            stamp_vccs(conductance, drain, source, bulk, source, op.gmb)
            stamp_conductance(capacitance, gate, source, op.cgs)
            stamp_conductance(capacitance, gate, drain, op.cgd)
            stamp_conductance(capacitance, gate, bulk, op.cgb)
            stamp_conductance(capacitance, drain, bulk, op.cdb)
            stamp_conductance(capacitance, source, bulk, op.csb)
        else:  # pragma: no cover - future element types
            raise NotImplementedError(f"AC stamp for {type(element).__name__}")

    return conductance, capacitance, index


def build_ac_rhs(
    circuit: Circuit,
    index: NodeIndex,
    overrides: Optional[Dict[str, complex]] = None,
) -> np.ndarray:
    """AC excitation vector from each source's ``ac`` field.

    ``overrides`` maps source names to amplitudes, replacing the stored
    values (used for common-mode vs differential drives without mutating
    the circuit).
    """
    rhs = np.zeros(index.size, dtype=complex)
    overrides = overrides or {}
    for element in circuit:
        if isinstance(element, VoltageSource):
            amplitude = overrides.get(element.name, element.ac)
            rhs[index.branch(element.name)] += amplitude
        elif isinstance(element, CurrentSource):
            amplitude = overrides.get(element.name, element.ac)
            if amplitude:
                pos = index.node(element.pos)
                neg = index.node(element.neg)
                if pos >= 0:
                    rhs[pos] -= amplitude
                if neg >= 0:
                    rhs[neg] += amplitude
    return rhs


@dataclass
class AcSolution:
    """Node voltages over a frequency sweep."""

    frequencies: np.ndarray
    index: NodeIndex
    solutions: np.ndarray
    """Complex array of shape (n_frequencies, system_size)."""

    def voltage(self, net: str) -> np.ndarray:
        """Complex voltage of ``net`` across the sweep."""
        node = self.index.node(net)
        if node < 0:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self.solutions[:, node]

    def transfer(self, net: str) -> TransferFunction:
        """Transfer function from the (unit) drive to ``net``."""
        return TransferFunction(self.frequencies.copy(), self.voltage(net).copy())


def ac_sweep(
    circuit: Circuit,
    dc: DcSolution,
    frequencies: Iterable[float],
    overrides: Optional[Dict[str, complex]] = None,
    engine: Optional[str] = None,
) -> AcSolution:
    """Solve the linearised circuit across ``frequencies``.

    The compiled engine stacks ``(G + j 2 pi f C)`` for every frequency
    into one tensor and performs a single broadcasted solve; the legacy
    engine factorizes per frequency.
    """
    freq_array = np.asarray(list(frequencies), dtype=float)
    if freq_array.size == 0:
        raise AnalysisError("ac_sweep needs at least one frequency")
    if np.any(freq_array <= 0.0):
        raise AnalysisError("AC frequencies must be positive")
    if resolve_engine(engine) == COMPILED:
        from repro.analysis.stamps import LinearSystem

        system = LinearSystem(circuit, dc)
        solutions = system.solve_batch(freq_array, system.rhs(overrides))
        return AcSolution(
            frequencies=freq_array,
            index=system.index,
            solutions=solutions[:, :, 0],
        )
    conductance, capacitance, index = build_ac_matrices(circuit, dc)
    rhs = build_ac_rhs(circuit, index, overrides)
    solutions = np.zeros((freq_array.size, index.size), dtype=complex)
    for i, frequency in enumerate(freq_array):
        omega = 2.0 * np.pi * frequency
        matrix = conductance + 1j * omega * capacitance
        solutions[i] = solve_linear(matrix, rhs)
    return AcSolution(frequencies=freq_array, index=index, solutions=solutions)


def transfer_function(
    circuit: Circuit,
    dc: DcSolution,
    output_net: str,
    frequencies: Iterable[float],
    overrides: Optional[Dict[str, complex]] = None,
    engine: Optional[str] = None,
) -> TransferFunction:
    """Convenience wrapper: sweep and return the transfer to one net."""
    return ac_sweep(circuit, dc, frequencies, overrides, engine).transfer(
        output_net
    )


def output_impedance(
    circuit: Circuit,
    dc: DcSolution,
    output_net: str,
    frequencies: Iterable[float],
    injection_name: str = "_zout_probe",
    engine: Optional[str] = None,
) -> TransferFunction:
    """Impedance seen into ``output_net`` with all drives silenced.

    A unit AC current is injected into the node; every stored ``ac``
    amplitude is overridden to zero.
    """
    if injection_name in circuit:
        raise AnalysisError(
            f"injection source name {injection_name!r} collides with an "
            "existing element; pass a unique injection_name"
        )
    probe_circuit = circuit.clone()
    probe_circuit.add_isource(injection_name, "0", output_net, dc=0.0, ac=1.0)
    overrides = {
        e.name: 0.0
        for e in probe_circuit
        if isinstance(e, (VoltageSource, CurrentSource))
        and e.name != injection_name
    }
    return transfer_function(
        probe_circuit, dc, output_net, frequencies, overrides, engine
    )


def logspace_frequencies(
    start: float, stop: float, points_per_decade: int = 20
) -> np.ndarray:
    """Logarithmic frequency grid, inclusive of both endpoints."""
    if start <= 0.0 or stop <= start:
        raise AnalysisError("need 0 < start < stop for a log sweep")
    decades = np.log10(stop / start)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(start), np.log10(stop), count)
