"""OTA performance measurement.

:func:`measure_ota` reproduces, on our simulator, the measurement set the
paper reports in Table 1 for each sizing case: DC gain, GBW, phase margin,
slew rate, CMRR, offset voltage, output resistance, input noise (integrated,
thermal density, flicker density) and power dissipation.

The DC operating point is established in a unity-feedback configuration
(output tied to the inverting input), which both defines the bias point of a
high-gain open-loop amplifier robustly and yields the input-referred offset
directly; the AC analyses then run open-loop at that operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.ac import (
    ac_sweep,
    logspace_frequencies,
    output_impedance,
)
from repro import telemetry
from repro.analysis.dcop import DcSolution, solve_dc
from repro.analysis.engine import COMPILED, resolve_engine
from repro.analysis.noise import NoiseAnalysis
from repro.analysis.transfer import TransferFunction
from repro.circuit.net import canonical
from repro.circuit.elements import VoltageSource
from repro.circuit.testbench import OtaTestbench
from repro.errors import AnalysisError
from repro.units import db


@dataclass
class OtaMetrics:
    """Measured OTA performance (the rows of the paper's Table 1)."""

    dc_gain_db: float
    gbw: float
    phase_margin_deg: float
    slew_rate: float
    cmrr_db: float
    offset_voltage: float
    output_resistance: float
    input_noise_rms: float
    thermal_noise_density: float
    flicker_noise_density: float
    power: float
    psrr_db: float = 0.0
    """Supply rejection: differential gain over supply-to-output gain."""
    gain_margin_db: Optional[float] = None
    output_capacitance: float = 0.0
    device_regions: Dict[str, str] = field(default_factory=dict)
    saturation_margins: Dict[str, float] = field(default_factory=dict)

    def all_saturated(self, exclude: Tuple[str, ...] = ()) -> bool:
        """True when every (non-excluded) device is saturated."""
        return all(
            region == "saturation"
            for name, region in self.device_regions.items()
            if name not in exclude
        )


def feedback_dc_solution(
    tb: OtaTestbench, engine: Optional[str] = None
) -> Tuple[DcSolution, float]:
    """DC solve in unity feedback; returns (solution, offset voltage).

    The inverting-input source is replaced by a 0 V source from the output,
    forcing ``v(inn) = v(out)``; with the non-inverting input at the common
    mode, the converged output sits at ``vcm + offset``.
    """
    clone = tb.circuit.clone(tb.circuit.name + "_fb")
    clone.remove(tb.source_neg)
    clone.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    solution = solve_dc(clone, engine=engine)
    offset = solution.voltage(tb.output_net) - tb.common_mode_voltage()
    return solution, offset


def output_node_capacitance(tb: OtaTestbench, dc: DcSolution) -> float:
    """Total capacitance loading the output node, F.

    Sums explicit capacitors plus the linearised device capacitances whose
    one terminal is the output — the denominator of the slew-rate estimate.
    """
    out = canonical(tb.output_net)
    total = 0.0
    for capacitor in tb.circuit.capacitors:
        if out in (canonical(capacitor.a), canonical(capacitor.b)):
            total += capacitor.value
    for name, device in dc.devices.items():
        element = device.element
        op = device.op
        drain = canonical(device.eff_drain)
        source = canonical(device.eff_source)
        gate = canonical(element.g)
        bulk = canonical(element.b)
        if drain == out:
            total += op.cdb
            if gate != out:
                total += op.cgd
        if source == out:
            total += op.csb
            if gate != out:
                total += op.cgs
        if gate == out:
            total += op.cgs + op.cgd + op.cgb
    return total


def measure_ota(
    tb: OtaTestbench,
    f_start: float = 1.0,
    f_stop: float = 3.0e9,
    points_per_decade: int = 24,
    engine: Optional[str] = None,
) -> OtaMetrics:
    """Run the full Table-1 measurement suite on an OTA testbench.

    With the compiled engine the circuit is linearised once into a shared
    :class:`~repro.analysis.stamps.LinearSystem`; the differential,
    common-mode and supply sweeps plus the impedance probe become four
    right-hand-side columns of a single batched solve, and the noise
    analysis reuses the same system.
    """
    engine_name = resolve_engine(engine)
    with telemetry.span(
        "analysis.measure", circuit=tb.circuit.name, engine=engine_name
    ):
        return _measure_ota(tb, f_start, f_stop, points_per_decade, engine_name)


def _measure_ota(
    tb: OtaTestbench,
    f_start: float,
    f_stop: float,
    points_per_decade: int,
    engine_name: str,
) -> OtaMetrics:
    dc, offset = feedback_dc_solution(tb, engine=engine_name)

    frequencies = logspace_frequencies(f_start, f_stop, points_per_decade)
    diff_drive = {tb.source_pos: 0.5, tb.source_neg: -0.5}
    cm_drive = {tb.source_pos: 1.0, tb.source_neg: 1.0}
    silence = {
        name: 0.0
        for name in (s.name for s in tb.circuit if isinstance(s, VoltageSource))
        if name not in (tb.source_pos, tb.source_neg)
    }
    supply_drive = {
        **{name: 0.0 for name in silence},
        tb.source_pos: 0.0,
        tb.source_neg: 0.0,
    }
    for supply in tb.supply_sources:
        supply_drive[supply] = 1.0

    if engine_name == COMPILED:
        import numpy as np

        from repro.analysis.stamps import LinearSystem

        system = LinearSystem(tb.circuit, dc)
        out_node = system.index.node(tb.output_net)
        if out_node < 0:
            raise AnalysisError("OTA output cannot be the ground net")
        noise_analysis = NoiseAnalysis(
            tb.circuit,
            dc,
            tb.output_net,
            {**silence, **diff_drive},
            engine=engine_name,
            system=system,
        )
        # A current probe stamps nothing into G/C, so the impedance column
        # is a unit injection into the output on the very same system; the
        # noise injections ride along too, so the whole measurement suite
        # is one factorisation of the stacked (F, n, n) tensor.
        zout_column = system.injection_columns([(-1, out_node)])[:, 0]
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
        solved = system.solve_batch(frequencies, columns)
        transfers = solved[:, out_node, :]
        dm = TransferFunction(frequencies.copy(), transfers[:, 0].copy())
        cm = TransferFunction(frequencies.copy(), transfers[:, 1].copy())
        ps = TransferFunction(frequencies.copy(), transfers[:, 2].copy())
        output_resistance = float(abs(transfers[0, 3]))
        noise = noise_analysis.result_from_output_transfers(
            frequencies, transfers[:, 4:]
        )
    else:
        dm = ac_sweep(
            tb.circuit, dc, frequencies, {**silence, **diff_drive},
            engine=engine_name,
        ).transfer(tb.output_net)
        cm = ac_sweep(
            tb.circuit, dc, frequencies, {**silence, **cm_drive},
            engine=engine_name,
        ).transfer(tb.output_net)
        ps = ac_sweep(
            tb.circuit, dc, frequencies, supply_drive, engine=engine_name
        ).transfer(tb.output_net)
        zout = output_impedance(
            tb.circuit, dc, tb.output_net, [f_start], engine=engine_name
        )
        output_resistance = float(zout.magnitude[0])
        noise = NoiseAnalysis(
            tb.circuit, dc, tb.output_net, {**silence, **diff_drive},
            engine=engine_name,
        ).run(frequencies)

    return _metrics_from_sweeps(
        tb, dc, offset, dm, cm, ps, output_resistance, noise
    )


def _metrics_from_sweeps(
    tb: OtaTestbench,
    dc: DcSolution,
    offset: float,
    dm: TransferFunction,
    cm: TransferFunction,
    ps: TransferFunction,
    output_resistance: float,
    noise,
) -> OtaMetrics:
    """Fold the raw sweeps of either engine into :class:`OtaMetrics`."""
    gbw = dm.unity_gain_frequency()
    if gbw is None:
        raise AnalysisError(
            "differential gain never crosses unity; widen the sweep"
        )
    phase_margin = dm.phase_margin()
    if phase_margin is None:
        raise AnalysisError("no phase margin: unity crossing not found")

    cmrr = dm.magnitude[0] / max(cm.magnitude[0], 1e-30)
    psrr = dm.magnitude[0] / max(ps.magnitude[0], 1e-30)

    # Noise ------------------------------------------------------------------
    input_noise_rms = noise.integrated_input_noise(f_low=1.0, f_high=gbw)
    thermal_density = noise.input_density(max(gbw / 3.0, 1e5))
    flicker_density = noise.input_density(1.0e3)

    # Slew rate ---------------------------------------------------------------
    out_capacitance = output_node_capacitance(tb, dc)
    if tb.slew_devices:
        limit = min(abs(dc.devices[name].op.id) for name in tb.slew_devices)
    else:
        limit = 0.0
    slew_rate = limit / out_capacitance if out_capacitance > 0.0 else math.inf

    # DC bookkeeping ------------------------------------------------------------
    power = dc.total_supply_power()
    regions = {name: dev.op.region.value for name, dev in dc.devices.items()}
    margins = {
        name: dev.op.vds - dev.op.vdsat for name, dev in dc.devices.items()
    }

    return OtaMetrics(
        dc_gain_db=dm.dc_gain_db,
        gbw=gbw,
        phase_margin_deg=phase_margin,
        slew_rate=slew_rate,
        cmrr_db=db(cmrr),
        offset_voltage=offset,
        output_resistance=output_resistance,
        input_noise_rms=input_noise_rms,
        thermal_noise_density=thermal_density,
        flicker_noise_density=flicker_density,
        power=power,
        psrr_db=db(psrr),
        gain_margin_db=dm.gain_margin_db(),
        output_capacitance=out_capacitance,
        device_regions=regions,
        saturation_margins=margins,
    )
