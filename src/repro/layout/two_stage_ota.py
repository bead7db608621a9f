"""Two-stage Miller OTA layout generator.

Demonstrates the paper's extensibility claim on the layout side: the
second topology's generator is written *in* the CAIRO-style DSL
(:mod:`repro.layout.cairo`) rather than hand-assembled like the
folded-cascode one — declaring modules, rows and net currents is all it
takes to give a new topology both of the paper's modes (parasitic
calculation and generation).

Floorplan (bottom to top): NMOS tail/sink row, input pair, PMOS mirror and
output device, Miller capacitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import LayoutError
from repro.layout import incremental
from repro.layout.cairo import CairoProgram
from repro.layout.cell import Cell
from repro.layout.folding import choose_fold_count
from repro.layout.parasitics import ParasiticReport
from repro.technology.process import Technology
from repro.units import UM

TWO_STAGE_DEVICES = ("m1", "m2", "m3", "m4", "m5", "m6", "m7")


@dataclass
class TwoStageLayoutRequest:
    """Inputs to the two-stage layout generator."""

    technology: Technology
    sizes: Mapping[str, Tuple[float, float]]
    currents: Mapping[str, float]
    cc: float
    """Miller capacitance to draw, F."""
    aspect: Optional[float] = 1.0
    prefer_even_folds: bool = True


@dataclass
class TwoStageLayoutResult:
    """Output of one layout call (same shape as the OTA generator's)."""

    report: ParasiticReport
    fold_config: Dict[str, int]
    cell: Optional[Cell] = None
    mode: str = "estimate"


def _program(request: TwoStageLayoutRequest) -> Tuple[CairoProgram, Dict[str, int]]:
    tech = request.technology
    sizes = request.sizes
    currents = dict(request.currents)
    missing = [d for d in TWO_STAGE_DEVICES if d not in sizes]
    if missing:
        raise LayoutError(f"missing sizes for devices: {missing}")

    target_finger = 12.0 * UM

    def folds(device: str) -> int:
        width = sizes[device][0]
        nf = choose_fold_count(
            width, target_finger, prefer_even=request.prefer_even_folds
        )
        return max(nf, 1)

    fold_config = {device: folds(device) for device in TWO_STAGE_DEVICES}
    # Matched groups share a fold count.
    fold_config["m2"] = fold_config["m1"]
    fold_config["m4"] = fold_config["m3"]

    program = CairoProgram(tech, "two_stage_ota")
    program.device(
        "m5", "n", sizes["m5"][0], sizes["m5"][1],
        nets=("tail", "vbn", "0", "0"),
        nf=fold_config["m5"], current=currents.get("m5", 0.0),
    )
    program.device(
        "m7", "n", sizes["m7"][0], sizes["m7"][1],
        nets=("vout", "vbn", "0", "0"),
        nf=fold_config["m7"], current=currents.get("m7", 0.0),
    )
    program.pair(
        "pair", "n", sizes["m1"][0], sizes["m1"][1],
        nf=max(fold_config["m1"], 2),
        names=("m1", "m2"), drains=("d1", "d2"), gates=("inn", "inp"),
        source="tail", bulk="0",
        current_per_side=currents.get("m1", 0.0),
    )
    program.mirror(
        "mirror", "p",
        ratios={"m3": max(fold_config["m3"], 2), "m4": max(fold_config["m4"], 2)},
        unit_width=sizes["m3"][0] / max(fold_config["m3"], 2),
        l=sizes["m3"][1],
        drains={"m3": "d1", "m4": "d2"}, gate="d1", source="vdd!",
        bulk="vdd!",
        currents={"m3": currents.get("m3", 0.0), "m4": currents.get("m4", 0.0)},
    )
    program.device(
        "m6", "p", sizes["m6"][0], sizes["m6"][1],
        nets=("vout", "d2", "vdd!", "vdd!"),
        nf=fold_config["m6"], current=currents.get("m6", 0.0),
    )
    # Miller capacitor: top plate on the quiet first-stage node, bottom
    # plate (with its substrate parasitic) on the driven output.
    program.capacitor("cc", request.cc, net_top="d2", net_bottom="vout")

    program.row("m5", "m7")
    program.row("pair")
    program.row("mirror", "m6")
    program.row("cc")

    i_out = abs(currents.get("m6", 0.0))
    i_tail = abs(currents.get("m5", 0.0))
    program.net_current("vdd!", i_out + i_tail)
    program.net_current("0", i_out + i_tail)
    program.net_current("vout", i_out)
    program.net_current("tail", i_tail)
    program.net_current("d1", abs(currents.get("m3", 0.0)))
    program.net_current("d2", abs(currents.get("m4", 0.0)))
    program.shape(aspect=request.aspect)

    # Adjust matched fold bookkeeping for the pair/mirror minimums.
    fold_config["m1"] = fold_config["m2"] = max(fold_config["m1"], 2)
    fold_config["m3"] = fold_config["m4"] = max(fold_config["m3"], 2)
    return program, fold_config


def _build(request: TwoStageLayoutRequest) -> TwoStageLayoutResult:
    """The full build: program, drawn cell and parasitic report."""
    program, fold_config = _program(request)
    cell, report = program.generate()
    # Requested widths for the width-error bookkeeping.
    for device, info in report.devices.items():
        if device in request.sizes:
            info.requested_width = request.sizes[device][0]
    return TwoStageLayoutResult(
        report=report, fold_config=fold_config, cell=cell, mode="generate"
    )


def generate_two_stage_layout(
    request: TwoStageLayoutRequest, mode: str = "estimate"
) -> TwoStageLayoutResult:
    """Run the two-stage generator in either of the paper's modes.

    Like the folded-cascode generator, both modes assemble the same
    geometry internally, so a call whose request equals the previous
    call's — the converged round's ``generate`` pass — is handed that
    build instead of rebuilding
    (:func:`repro.layout.incremental.layout_call`).
    """
    return incremental.layout_call(request, mode, _build)
