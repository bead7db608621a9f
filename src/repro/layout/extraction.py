"""Geometric extraction of a generated layout.

Plays the role the commercial extractor (Cadence) plays in the paper: an
*independent* measurement of the drawn geometry used to produce the
"values between brackets" of Table 1.  It never consults the estimator's
bookkeeping — everything is recomputed from the flattened shapes:

* **interconnect capacitance** per net from every poly/metal shape (area +
  perimeter fringe), with gate poly over active excluded (that is channel
  capacitance, owned by the device model);
* **coupling capacitance** between same-layer shapes of different nets
  within a proximity window;
* **diffusion junctions** re-derived from active/poly crossings: strips
  between gates, nets resolved from the contacts above them, then
  distributed to the circuit's devices in proportion to their widths;
* **well junctions** from n-well shapes.

The resulting annotated circuit is what the simulator measures for the
bracketed columns.

Two engines implement the geometric passes (see
:mod:`repro.layout.engine`): the default ``"vector"`` engine flattens
each layer into one ``(N, 4)`` coordinate array with nets encoded as int
codes and runs the wire-cap, poly-over-active, coupling-window and
junction-strip passes as array arithmetic; the original per-shape
``"scalar"`` code is kept verbatim below as the golden reference.  Both
produce canonically ordered reports (coupling keyed by sorted net pairs,
all dicts in sorted key order) so downstream annotation is deterministic
regardless of shape iteration order.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.circuit.elements import Mos
from repro.circuit.net import canonical
from repro.circuit.netlist import Circuit
from repro.layout.cell import Cell, Shape
from repro.layout.engine import SCALAR, extraction_engine
from repro.layout.geometry import Rect, interval_pairs
from repro.layout.layers import Layer, metal_name
from repro.mos.junction import DiffusionGeometry
from repro.technology.process import Technology


@dataclass
class ExtractedParasitics:
    """Raw geometric extraction results."""

    net_wire_cap: Dict[str, float] = field(default_factory=dict)
    coupling: Dict[Tuple[str, str], float] = field(default_factory=dict)
    diffusion: Dict[Tuple[str, str], Tuple[float, float]] = field(
        default_factory=dict
    )
    """(net, polarity) -> (area, perimeter) of source/drain diffusion."""
    well: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    """net -> (area, perimeter) of n-well."""

    def total_wire_cap(self) -> float:
        return sum(self.net_wire_cap.values())


def _wire_capacitance(
    tech: Technology, shapes: List[Shape], actives: List[Rect]
) -> Dict[str, float]:
    """Ground capacitance per net over all interconnect shapes."""
    result: Dict[str, float] = defaultdict(float)
    for shape in shapes:
        if shape.net is None:
            continue
        metal = tech.metal(metal_name(shape.layer))
        area = shape.rect.area
        if shape.layer is Layer.POLY:
            # Gate poly over active is channel, not wire.
            for active in actives:
                overlap = shape.rect.intersection(active)
                if overlap is not None:
                    area -= overlap.area
            if area <= 0.0:
                continue
        result[shape.net] += (
            metal.area_cap * area + metal.fringe_cap * shape.rect.perimeter
        )
    return dict(result)


def _coupling(
    tech: Technology, shapes: List[Shape], window_factor: float = 3.0
) -> Dict[Tuple[str, str], float]:
    """Same-layer lateral coupling between different nets."""
    result: Dict[Tuple[str, str], float] = defaultdict(float)
    by_layer: Dict[Layer, List[Shape]] = defaultdict(list)
    for shape in shapes:
        if shape.net is not None:
            by_layer[shape.layer].append(shape)
    for layer, members in by_layer.items():
        metal = tech.metal(metal_name(layer))
        window = window_factor * metal.min_spacing
        members = sorted(members, key=lambda s: s.rect.x0)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if b.rect.x0 > a.rect.x1 + window:
                    break
                if a.net == b.net:
                    continue
                run_x = a.rect.parallel_run_x(b.rect)
                run_y = a.rect.parallel_run_y(b.rect)
                if run_x > 0.0 and run_y > 0.0:
                    continue  # overlapping different nets: not lateral
                if run_x > 0.0:
                    spacing = max(b.rect.y0 - a.rect.y1, a.rect.y0 - b.rect.y1)
                    run = run_x
                elif run_y > 0.0:
                    spacing = max(b.rect.x0 - a.rect.x1, a.rect.x0 - b.rect.x1)
                    run = run_y
                else:
                    continue
                if spacing <= 0.0 or spacing > window:
                    continue
                key = tuple(sorted((a.net, b.net)))
                result[key] += metal.coupling_capacitance(run, spacing)
    return dict(result)


def _diffusion_strips(
    tech: Technology, shapes: List[Shape]
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Re-derive diffusion strips from active/poly/contact geometry."""
    actives = [s.rect for s in shapes if s.layer is Layer.ACTIVE]
    polys = [s for s in shapes if s.layer is Layer.POLY]
    contacts = [s for s in shapes if s.layer is Layer.CONTACT and s.net]
    nimplants = [s.rect for s in shapes if s.layer is Layer.NIMPLANT]

    result: Dict[Tuple[str, str], Tuple[float, float]] = defaultdict(
        lambda: (0.0, 0.0)
    )
    for active in actives:
        polarity = "n" if any(r.contains(active) for r in nimplants) else "p"
        # Gates: poly fully crossing the active vertically.
        gates = []
        for poly in polys:
            overlap = poly.rect.intersection(active)
            if overlap is None:
                continue
            if poly.rect.y0 <= active.y0 and poly.rect.y1 >= active.y1:
                gates.append((overlap.x0, overlap.x1))
        gates.sort()
        # Strips between consecutive gates (and the two ends).
        boundaries = [active.x0]
        for x0, x1 in gates:
            boundaries.extend((x0, x1))
        boundaries.append(active.x1)
        for i in range(0, len(boundaries), 2):
            x0, x1 = boundaries[i], boundaries[i + 1]
            if x1 - x0 <= 0.0:
                continue
            strip = Rect(x0, active.y0, x1, active.y1)
            net = _strip_net(strip, contacts)
            if net is None:
                continue
            area = strip.area
            perimeter = 2.0 * strip.width
            if abs(strip.x0 - active.x0) < 1e-12:
                perimeter += strip.height
            if abs(strip.x1 - active.x1) < 1e-12:
                perimeter += strip.height
            key = (net, polarity)
            total_area, total_perimeter = result[key]
            result[key] = (total_area + area, total_perimeter + perimeter)
    return dict(result)


def _strip_net(strip: Rect, contacts: List[Shape]) -> Optional[str]:
    for contact in contacts:
        if strip.intersects(contact.rect):
            return contact.net
    return None


def _wells(shapes: List[Shape]) -> Dict[str, Tuple[float, float]]:
    result: Dict[str, Tuple[float, float]] = defaultdict(lambda: (0.0, 0.0))
    for shape in shapes:
        if shape.layer is Layer.NWELL and shape.net is not None:
            area, perimeter = result[shape.net]
            result[shape.net] = (
                area + shape.rect.area,
                perimeter + shape.rect.perimeter,
            )
    return dict(result)


# -- Vectorized engine --------------------------------------------------------
#
# Same passes as the scalar reference above, restated as array arithmetic:
# one (N, 4) float array of (x0, y0, x1, y1) rows per layer, nets encoded
# as int codes in sorted-name order (so min/max of a code pair *is* the
# sorted net-name pair).  Candidate coupling pairs come from the shared
# sorted-sweep in :func:`repro.layout.geometry.interval_pairs`; every
# candidate is re-tested with the exact scalar predicate, so the two
# engines agree on the pair/strip *sets* exactly and on the accumulated
# float totals to within summation-order noise (rtol 1e-12 in the golden
# tests).


def _net_codes(shapes: List[Shape]) -> Tuple[List[str], Dict[str, int]]:
    """Net names in sorted order plus the name -> int code table."""
    names = sorted({s.net for s in shapes})
    return names, {net: index for index, net in enumerate(names)}


def _group_by_layer(shapes: List[Shape]) -> Dict[Layer, List[Shape]]:
    by_layer: Dict[Layer, List[Shape]] = defaultdict(list)
    for shape in shapes:
        by_layer[shape.layer].append(shape)
    return by_layer


def _layer_arrays(
    members: List[Shape], codes: Dict[str, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten one layer's shapes into coordinate rows + net codes."""
    coords = np.empty((len(members), 4))
    net_codes = np.empty(len(members), dtype=np.intp)
    for i, shape in enumerate(members):
        rect = shape.rect
        coords[i, 0] = rect.x0
        coords[i, 1] = rect.y0
        coords[i, 2] = rect.x1
        coords[i, 3] = rect.y1
        net_codes[i] = codes[shape.net]
    return coords, net_codes


def _rect_array(rects: List[Rect]) -> Optional[np.ndarray]:
    if not rects:
        return None
    return np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects])


class ExtractionWorkspace:
    """Shared numpy buffers for one cell's extraction passes.

    The wire-cap and coupling passes used to rebuild identical
    ``(N, 4)`` coordinate arrays for every layer on every call, and the
    diffusion pass its own rect arrays — per synthesis round, for clean
    and dirty layers alike.  The workspace builds each array once and
    hands the *same* buffers to every pass; it is keyed by the cell's
    subtree version stamp (the layer-content version the flatten/bbox
    memos already use), so an unchanged cell re-extracted under a
    different engine or window also reuses its buffers, while any
    geometry change invalidates them.

    The buffers are read-only by convention: every consumer indexes or
    reduces them, none writes.
    """

    def __init__(self, shapes: List[Shape], interconnect: List[Shape]):
        self.shapes = shapes
        self.interconnect = interconnect
        self.names, self.codes = _net_codes(interconnect)
        self.by_layer = _group_by_layer(interconnect)
        self._layer_cache: Dict[Layer, Tuple[np.ndarray, np.ndarray]] = {}
        self._sorted_cache: Dict[Layer, Tuple[np.ndarray, np.ndarray]] = {}
        self.actives = [s.rect for s in shapes if s.layer is Layer.ACTIVE]
        self._rects: Dict[str, Optional[np.ndarray]] = {}
        self.contacts = [
            s for s in shapes if s.layer is Layer.CONTACT and s.net
        ]

    def layer_arrays(self, layer: Layer) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinate rows + net codes for one interconnect layer."""
        found = self._layer_cache.get(layer)
        if found is None:
            found = _layer_arrays(self.by_layer[layer], self.codes)
            self._layer_cache[layer] = found
        return found

    def sorted_layer_arrays(
        self, layer: Layer
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The same arrays stably ordered by x0 (the coupling sweep)."""
        found = self._sorted_cache.get(layer)
        if found is None:
            coords, net_codes = self.layer_arrays(layer)
            order = np.argsort(coords[:, 0], kind="stable")
            found = (coords[order], net_codes[order])
            self._sorted_cache[layer] = found
        return found

    def rect_arrays(self, kind: str) -> Optional[np.ndarray]:
        """Rect array of one geometry class used by the diffusion pass."""
        if kind not in self._rects:
            if kind == "active":
                rects = self.actives
            elif kind == "poly":
                rects = [
                    s.rect for s in self.shapes if s.layer is Layer.POLY
                ]
            elif kind == "contact":
                rects = [s.rect for s in self.contacts]
            elif kind == "nimplant":
                rects = [
                    s.rect for s in self.shapes if s.layer is Layer.NIMPLANT
                ]
            else:  # pragma: no cover - internal misuse
                raise KeyError(kind)
            self._rects[kind] = _rect_array(rects)
        return self._rects[kind]


#: cell -> (subtree stamp, workspace); weak keys so dropped cells free
#: their buffers with them.
_workspaces: "weakref.WeakKeyDictionary[Cell, Tuple[object, ExtractionWorkspace]]" = (
    weakref.WeakKeyDictionary()
)


def _workspace_for(
    cell: Cell, shapes: List[Shape], interconnect: List[Shape]
) -> ExtractionWorkspace:
    stamp = cell._stamp()
    cached = _workspaces.get(cell)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    workspace = ExtractionWorkspace(shapes, interconnect)
    _workspaces[cell] = (stamp, workspace)
    return workspace


def _wire_capacitance_vec(
    tech: Technology,
    shapes: List[Shape],
    actives: List[Rect],
    ws: Optional[ExtractionWorkspace] = None,
) -> Dict[str, float]:
    """Array form of :func:`_wire_capacitance` (inputs pre-filtered to
    netted interconnect shapes)."""
    if not shapes:
        return {}
    if ws is not None:
        names, codes = ws.names, ws.codes
        active_arr = ws.rect_arrays("active")
        groups = ws.by_layer
    else:
        names, codes = _net_codes(shapes)
        active_arr = _rect_array(actives)
        groups = _group_by_layer(shapes)
    totals = np.zeros(len(names))
    touched = np.zeros(len(names), dtype=bool)
    for layer, members in groups.items():
        metal = tech.metal(metal_name(layer))
        if ws is not None:
            coords, net_codes = ws.layer_arrays(layer)
        else:
            coords, net_codes = _layer_arrays(members, codes)
        width = coords[:, 2] - coords[:, 0]
        height = coords[:, 3] - coords[:, 1]
        area = width * height
        if layer is Layer.POLY and active_arr is not None:
            # Gate poly over active is channel, not wire: subtract every
            # strict overlap, and drop shapes left with no wire area
            # (their fringe term goes with them, as in the scalar code).
            ox = np.minimum(coords[:, 2, None], active_arr[None, :, 2]) - np.maximum(
                coords[:, 0, None], active_arr[None, :, 0]
            )
            oy = np.minimum(coords[:, 3, None], active_arr[None, :, 3]) - np.maximum(
                coords[:, 1, None], active_arr[None, :, 1]
            )
            covered = np.where((ox > 0.0) & (oy > 0.0), ox * oy, 0.0)
            area = area - covered.sum(axis=1)
            keep = area > 0.0
            if not keep.all():
                area = area[keep]
                width = width[keep]
                height = height[keep]
                net_codes = net_codes[keep]
        values = metal.area_cap * area + metal.fringe_cap * (
            2.0 * (width + height)
        )
        np.add.at(totals, net_codes, values)
        touched[net_codes] = True
    return {names[i]: float(totals[i]) for i in np.flatnonzero(touched)}


def _coupling_vec(
    tech: Technology,
    shapes: List[Shape],
    window_factor: float = 3.0,
    ws: Optional[ExtractionWorkspace] = None,
) -> Dict[Tuple[str, str], float]:
    """Array form of :func:`_coupling` via the shared interval sweep."""
    result: Dict[Tuple[str, str], float] = {}
    if not shapes:
        return result
    if ws is not None:
        names = ws.names
        groups = ws.by_layer
    else:
        names, codes = _net_codes(shapes)
        groups = _group_by_layer(shapes)
    n_names = len(names)
    for layer, members in groups.items():
        metal = tech.metal(metal_name(layer))
        window = window_factor * metal.min_spacing
        if ws is not None:
            coords, net_codes = ws.sorted_layer_arrays(layer)
        else:
            coords, net_codes = _layer_arrays(members, codes)
            order = np.argsort(coords[:, 0], kind="stable")
            coords = coords[order]
            net_codes = net_codes[order]
        ii, jj = interval_pairs(coords[:, 0], coords[:, 2], window)
        if ii.size == 0:
            continue
        a = coords[ii]
        b = coords[jj]
        run_x = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
        run_y = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
        # Lateral only: overlapping different nets (both runs positive)
        # are excluded, exactly as in the scalar predicate.
        lateral_x = (run_x > 0.0) & ~(run_y > 0.0)
        lateral_y = (run_y > 0.0) & ~(run_x > 0.0)
        spacing = np.where(
            lateral_x,
            np.maximum(b[:, 1] - a[:, 3], a[:, 1] - b[:, 3]),
            np.maximum(b[:, 0] - a[:, 2], a[:, 0] - b[:, 2]),
        )
        run = np.where(lateral_x, run_x, run_y)
        ca = net_codes[ii]
        cb = net_codes[jj]
        mask = (
            (ca != cb)
            & (lateral_x | lateral_y)
            & (spacing > 0.0)
            & (spacing <= window)
        )
        if not mask.any():
            continue
        values = metal.coupling_cap * run[mask] * (
            metal.min_spacing / spacing[mask]
        )
        lo = np.minimum(ca[mask], cb[mask])
        hi = np.maximum(ca[mask], cb[mask])
        pair_ids = lo * n_names + hi
        unique_ids, inverse = np.unique(pair_ids, return_inverse=True)
        sums = np.bincount(inverse, weights=values)
        for pair_id, value in zip(unique_ids.tolist(), sums.tolist()):
            # Codes are in sorted-name order, so (lo, hi) is the sorted pair.
            key = (names[pair_id // n_names], names[pair_id % n_names])
            result[key] = result.get(key, 0.0) + value
    return result


def _diffusion_strips_vec(
    tech: Technology,
    shapes: List[Shape],
    ws: Optional[ExtractionWorkspace] = None,
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Array form of :func:`_diffusion_strips`.

    The per-active strip walk stays a Python loop (actives are few); the
    hot inner scans — gate finding over all polys and net resolution over
    all contacts — run as array tests.
    """
    if ws is not None:
        actives = ws.actives
        poly_arr = ws.rect_arrays("poly")
        contact_arr = ws.rect_arrays("contact")
        contact_nets = [s.net for s in ws.contacts]
        nimp_arr = ws.rect_arrays("nimplant")
    else:
        actives = [s.rect for s in shapes if s.layer is Layer.ACTIVE]
        polys = [s.rect for s in shapes if s.layer is Layer.POLY]
        contacts = [s for s in shapes if s.layer is Layer.CONTACT and s.net]
        nimplants = [s.rect for s in shapes if s.layer is Layer.NIMPLANT]

        poly_arr = _rect_array(polys)
        contact_arr = _rect_array([s.rect for s in contacts])
        contact_nets = [s.net for s in contacts]
        nimp_arr = _rect_array(nimplants)

    result: Dict[Tuple[str, str], Tuple[float, float]] = defaultdict(
        lambda: (0.0, 0.0)
    )
    for active in actives:
        if nimp_arr is not None and bool(
            np.any(
                (nimp_arr[:, 0] <= active.x0)
                & (nimp_arr[:, 1] <= active.y0)
                & (nimp_arr[:, 2] >= active.x1)
                & (nimp_arr[:, 3] >= active.y1)
            )
        ):
            polarity = "n"
        else:
            polarity = "p"
        gates: List[Tuple[float, float]] = []
        if poly_arr is not None:
            gx0 = np.maximum(poly_arr[:, 0], active.x0)
            gx1 = np.minimum(poly_arr[:, 2], active.x1)
            crossing = (
                (gx1 > gx0)
                & (np.minimum(poly_arr[:, 3], active.y1)
                   > np.maximum(poly_arr[:, 1], active.y0))
                & (poly_arr[:, 1] <= active.y0)
                & (poly_arr[:, 3] >= active.y1)
            )
            for index in np.flatnonzero(crossing):
                gates.append((float(gx0[index]), float(gx1[index])))
        gates.sort()
        boundaries = [active.x0]
        for x0, x1 in gates:
            boundaries.extend((x0, x1))
        boundaries.append(active.x1)
        for i in range(0, len(boundaries), 2):
            x0, x1 = boundaries[i], boundaries[i + 1]
            if x1 - x0 <= 0.0:
                continue
            net = None
            if contact_arr is not None:
                hits = (
                    (contact_arr[:, 0] < x1)
                    & (x0 < contact_arr[:, 2])
                    & (contact_arr[:, 1] < active.y1)
                    & (active.y0 < contact_arr[:, 3])
                )
                first = int(np.argmax(hits))
                if hits[first]:
                    net = contact_nets[first]
            if net is None:
                continue
            width = x1 - x0
            height = active.y1 - active.y0
            area = width * height
            perimeter = 2.0 * width
            if abs(x0 - active.x0) < 1e-12:
                perimeter += height
            if abs(x1 - active.x1) < 1e-12:
                perimeter += height
            key = (net, polarity)
            total_area, total_perimeter = result[key]
            result[key] = (total_area + area, total_perimeter + perimeter)
    return dict(result)


def extract_cell(
    cell: Cell, tech: Technology, engine: Optional[str] = None
) -> ExtractedParasitics:
    """Full geometric extraction of a (hierarchical) cell.

    ``engine`` selects ``"vector"`` (default) or ``"scalar"``; ``None``
    resolves through :data:`repro.layout.engine.extraction_engine`.  Both
    engines return canonically ordered reports: coupling keys are sorted
    net tuples and every result dict is in sorted key order, so the
    annotation (and everything solved from it) is independent of shape
    iteration order.
    """
    engine = extraction_engine.resolve(engine)
    shapes = list(cell.flattened())
    actives = [s.rect for s in shapes if s.layer is Layer.ACTIVE]
    interconnect = [
        s
        for s in shapes
        if s.layer in (Layer.POLY, Layer.METAL1, Layer.METAL2) and s.net
    ]
    with telemetry.span(
        "layout.extract", cell=cell.name, engine=engine, shapes=len(shapes)
    ):
        telemetry.count("layout.extract")
        if engine == SCALAR:
            wire = _wire_capacitance(tech, interconnect, actives)
            coupling = _coupling(tech, interconnect)
            diffusion = _diffusion_strips(tech, shapes)
        else:
            ws = _workspace_for(cell, shapes, interconnect)
            wire = _wire_capacitance_vec(tech, interconnect, actives, ws)
            coupling = _coupling_vec(tech, interconnect, ws=ws)
            diffusion = _diffusion_strips_vec(tech, shapes, ws)
        return ExtractedParasitics(
            net_wire_cap=dict(sorted(wire.items())),
            coupling=dict(sorted(coupling.items())),
            diffusion=dict(sorted(diffusion.items())),
            well=dict(sorted(_wells(shapes).items())),
        )


def annotate_circuit(
    circuit: Circuit,
    extracted: ExtractedParasitics,
    tech: Technology,
    supply_nets: Tuple[str, ...] = ("vdd!", "0"),
    net_alias: Optional[Dict[str, str]] = None,
) -> Circuit:
    """Back-annotate extraction onto a schematic.

    Returns a clone of ``circuit`` with

    * parasitic capacitors for wire, coupling and well capacitance
      (supply-to-supply capacitors are dropped — they do not affect the
      small-signal behaviour and only slow the solver);
    * per-device junction geometry distributed from the per-net diffusion
      totals in proportion to device widths.

    ``net_alias`` maps layout net names to schematic net names when they
    differ.
    """
    alias = net_alias or {}

    def to_circuit_net(net: str) -> str:
        return alias.get(net, net)

    annotated = circuit.clone(circuit.name + "_extracted")
    annotated.strip_parasitics()

    for net, value in extracted.net_wire_cap.items():
        circuit_net = to_circuit_net(net)
        if canonical(circuit_net) == "0":
            continue
        annotated.attach_parasitic_cap(circuit_net, "0", value)

    for (net_a, net_b), value in extracted.coupling.items():
        a, b = to_circuit_net(net_a), to_circuit_net(net_b)
        if canonical(a) == canonical(b):
            continue
        annotated.attach_parasitic_cap(a, b, value)

    for net, (area, perimeter) in extracted.well.items():
        circuit_net = to_circuit_net(net)
        if circuit_net in supply_nets or canonical(circuit_net) == "0":
            continue
        annotated.attach_parasitic_cap(
            circuit_net, "0", tech.well.capacitance(area, perimeter)
        )

    _distribute_diffusion(annotated, extracted, alias)
    return annotated


def _distribute_diffusion(
    circuit: Circuit,
    extracted: ExtractedParasitics,
    alias: Dict[str, str],
) -> None:
    """Assign per-net diffusion totals to device terminals by width."""

    def to_circuit_net(net: str) -> str:
        return alias.get(net, net)

    # (net, polarity) -> [(device, terminal, width)]
    claims: Dict[Tuple[str, str], List[Tuple[Mos, str]]] = defaultdict(list)
    for mos in circuit.mos_devices:
        assert mos.params is not None
        claims[(canonical(mos.d), mos.polarity)].append((mos, "d"))
        claims[(canonical(mos.s), mos.polarity)].append((mos, "s"))

    assignments: Dict[str, Dict[str, Tuple[float, float]]] = defaultdict(dict)
    for (net, polarity), (area, perimeter) in extracted.diffusion.items():
        key = (canonical(to_circuit_net(net)), polarity)
        claimants = claims.get(key, [])
        total_width = sum(mos.w for mos, _terminal in claimants)
        if not claimants or total_width <= 0.0:
            continue
        for mos, terminal in claimants:
            weight = mos.w / total_width
            assignments[mos.name][terminal] = (area * weight, perimeter * weight)

    for mos in circuit.mos_devices:
        terminals = assignments.get(mos.name)
        if not terminals:
            continue
        ad, pd = terminals.get("d", (0.0, 0.0))
        as_, ps = terminals.get("s", (0.0, 0.0))
        mos.geometry = DiffusionGeometry(ad=ad, pd=pd, as_=as_, ps=ps)
