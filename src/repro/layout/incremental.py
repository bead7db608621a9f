"""The generate-pass hand-off between consecutive layout calls.

The synthesis loop (paper Figure 1b) calls the layout tool in parasitic
calculation mode until the report stops changing, then once in
generation mode on the converged sizing.  Both modes run the same full
build (the parasitic pass needs the placed-and-routed geometry anyway),
so that final call repeats the build the last estimate call just made.

This module keeps that one build.  A layout call whose request ``==``
the previous call's request (dataclass equality, under the same
extraction engine) returns the previous build, projected to the asked
mode, instead of rebuilding; any other request rebuilds and takes the
slot.  A hand-off returns the object an identical build produced, so it
changes wall-clock, never output bits.

Both generators run every call through :func:`layout_call`, which
records the trace shape of one logical layout call:

* a ``layout.call`` span (``cached=True`` on a hand-off) and a
  ``layout.calls.{estimate,generate}`` counter per call;
* ``layout.incremental.call_reuse`` / ``layout.incremental.call_build``
  per hand-off / build;
* a ``layout.call.seconds`` metrics observation per build.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Optional, Tuple, TypeVar

from repro import telemetry
from repro.errors import LayoutError
from repro.layout.engine import extraction_engine
from repro.telemetry import metrics

Result = TypeVar("Result")

#: (request snapshot, extraction engine, full build) of the last built
#: layout call, or None.
_previous: Optional[Tuple[Any, str, Any]] = None


def clear() -> None:
    """Drop the held build (tests, benchmarks, each CLI invocation)."""
    global _previous
    _previous = None


def _project(result: Result, mode: str) -> Result:
    """The per-mode view of one fully built layout result."""
    return replace(
        result, cell=result.cell if mode == "generate" else None, mode=mode
    )


def layout_call(
    request: Any, mode: str, build: Callable[[Any], Result]
) -> Result:
    """One logical layout call: hand off or ``build(request)``.

    ``build`` returns the full result (drawn cell included); the caller
    gets it projected to ``mode``.  The held request is a snapshot with
    copied ``sizes`` / ``currents`` mappings, so a caller that edits its
    mappings in place after the call cannot alias the slot.
    """
    global _previous
    if mode not in ("estimate", "generate"):
        raise LayoutError(f"mode must be 'estimate' or 'generate', got {mode!r}")
    engine = extraction_engine.default()
    held = _previous
    if held is not None and held[1] == engine and held[0] == request:
        # Still a logical layout call — only the rebuild is skipped.
        with telemetry.span(
            "layout.call", mode=mode, aspect=request.aspect, cached=True
        ):
            telemetry.count(f"layout.calls.{mode}")
            telemetry.count("layout.incremental.call_reuse")
        return _project(held[2], mode)
    metrics_on = metrics.enabled()
    t0 = time.perf_counter() if metrics_on else 0.0
    with telemetry.span("layout.call", mode=mode, aspect=request.aspect):
        telemetry.count(f"layout.calls.{mode}")
        telemetry.count("layout.incremental.call_build")
        result = build(request)
    if metrics_on:
        metrics.observe("layout.call.seconds", time.perf_counter() - t0)
    snapshot = replace(
        request, sizes=dict(request.sizes), currents=dict(request.currents)
    )
    _previous = (snapshot, engine, result)
    return _project(result, mode)
