"""Differential reuse caches for the incremental synthesis path.

The synthesis loop (paper Figure 1b) re-runs two pure computations
with largely repeated inputs:

* **per-module extraction** — every layout call extracts each placed
  module cell; across rounds (and across the final ``generate`` pass,
  which rebuilds the converged round's geometry) most module cells are
  content-identical;
* **whole layout calls** — a converged round's ``generate`` pass
  rebuilds the layout its last ``estimate`` call already built.

Both are memoized here in process-wide LRU stores keyed on full
content (geometry digests, technology fingerprints, canonicalized
request fields, engine-switch settings).  A hit returns the stored
result of a computation with bit-identical inputs, so the incremental
path is *exact*: flipping :data:`repro.layout.engine.incremental_engine`
changes wall-clock, never output bits.  Fault-injection runs
(:mod:`repro.resilience.faults`) bypass every store — injected failures
must reach the real computation.

Counters (:mod:`repro.telemetry`):

* ``layout.incremental.reuse`` / ``layout.incremental.dirty`` — one per
  module-cell extraction served from / inserted into the store;
* ``layout.incremental.call_reuse`` / ``layout.incremental.call_build``
  — same, at whole-layout-call granularity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import telemetry
from repro.layout.engine import FROM_SCRATCH, incremental_engine
from repro.resilience import faults


class LruStore:
    """A bounded mapping with least-recently-used eviction.

    Plain ``OrderedDict`` discipline: ``get`` refreshes recency, ``put``
    evicts the oldest entry past ``capacity``.  Iteration order is
    therefore deterministic for a deterministic call sequence, which
    keeps cache *behaviour* (not just cache contents) reproducible.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop entries and reset counters (a fresh-store baseline)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: Per-module extraction contributions:
#: (cell content key, technology fingerprint, extraction engine)
#: -> ExtractedParasitics.  Module cells are a few hundred shapes, so
#: the value footprint is tiny; the capacity covers every module of
#: several concurrent topologies across many rounds.
_extraction_store = LruStore(capacity=512)

#: Whole layout calls: request digest -> result object (report, fold
#: config, placements and the drawn top cell).  Entries hold full cell
#: geometry, so the capacity stays small.
_layout_store = LruStore(capacity=32)


def enabled() -> bool:
    """True when incremental reuse is on and no fault plan is armed.

    Fault-injection runs must reach the real computations — a cache hit
    would swallow the very failure the test armed — so an active fault
    plan disables every store regardless of the engine switch.
    """
    if incremental_engine.default() == FROM_SCRATCH:
        return False
    return not faults.active()


def clear() -> None:
    """Drop every process-wide store (tests, benchmarks)."""
    _extraction_store.clear()
    _layout_store.clear()


def stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counters per store (observability, tests)."""
    out = {}
    for name, store in (
        ("extraction", _extraction_store),
        ("layout", _layout_store),
    ):
        out[name] = {
            "entries": len(store),
            "hits": store.hits,
            "misses": store.misses,
            "evictions": store.evictions,
        }
    return out


# -- Per-module extraction ---------------------------------------------------


def extraction_key(cell, tech, engine: str) -> Optional[Tuple]:
    """Store key for one module cell's extraction, or None to bypass."""
    if not enabled():
        return None
    return (cell.content_key(), tech.fingerprint(), engine)


def lookup_extraction(key: Optional[Tuple]) -> Optional[Any]:
    if key is None:
        return None
    found = _extraction_store.get(key)
    if found is not None:
        telemetry.count("layout.incremental.reuse")
    return found


def store_extraction(key: Optional[Tuple], extracted: Any) -> None:
    if key is None:
        return
    telemetry.count("layout.incremental.dirty")
    _extraction_store.put(key, extracted)


# -- Whole layout calls ------------------------------------------------------


def layout_key(*parts: Any) -> Optional[str]:
    """Content digest over a layout request's canonicalized fields.

    Callers pass every field the generator reads (sorted size/current
    items, technology fingerprint, shape knobs) plus the active
    extraction engine — extraction results ride inside the report, so a
    different engine must key differently.  Returns None when reuse is
    off.
    """
    if not enabled():
        return None
    from repro.layout.engine import extraction_engine
    from repro.runtime.artifacts import content_key

    return content_key(
        "layout-call", extraction_engine.default(), *parts
    )


def lookup_layout(key: Optional[str]) -> Optional[Any]:
    if key is None:
        return None
    found = _layout_store.get(key)
    if found is not None:
        telemetry.count("layout.incremental.call_reuse")
    return found


def store_layout(key: Optional[str], result: Any) -> None:
    if key is None:
        return
    telemetry.count("layout.incremental.call_build")
    _layout_store.put(key, result)

