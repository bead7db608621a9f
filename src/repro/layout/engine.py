"""Layout fast-path engine selection.

The geometric side of the flow selects its engines with the same
:class:`~repro.analysis.engine.EngineSwitch` the analysis engines use.
The layout path has two independently selectable switches:

* **extraction** — ``"vector"`` runs the array-based extractor
  (flat numpy coordinate arrays per layer, net ids as int codes);
  ``"scalar"`` runs the original per-shape reference implementation,
  kept as the golden oracle for equivalence tests and benchmarks.
* **drc** — ``"grid"`` resolves pair checks through the shared
  :class:`~repro.layout.geometry.GridIndex`; ``"allpairs"`` keeps the
  original sorted-sweep scan as the reference.

``None`` (the default everywhere) resolves to the process-wide default,
so a single ``use(...)`` context flips a whole flow — this is how
``python -m repro bench`` measures before/after on identical code paths.
The generate-pass hand-off (:mod:`repro.layout.incremental`) holds a
build with the extraction engine that made it, so flipping that switch
between two equal layout requests forces a rebuild.
"""

from __future__ import annotations

from repro.analysis.engine import EngineSwitch

VECTOR = "vector"
SCALAR = "scalar"
GRID = "grid"
ALLPAIRS = "allpairs"

extraction_engine = EngineSwitch("extraction", VECTOR, (VECTOR, SCALAR))
drc_engine = EngineSwitch("drc", GRID, (GRID, ALLPAIRS))
