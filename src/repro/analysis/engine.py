"""Analysis engine selection.

Every analysis entry point (:func:`~repro.analysis.dcop.solve_dc`,
:func:`~repro.analysis.ac.ac_sweep`, :class:`~repro.analysis.noise.NoiseAnalysis`,
:func:`~repro.analysis.metrics.measure_ota`) accepts an ``engine`` argument:

* ``"compiled"`` — the vectorized compiled-stamp engine
  (:mod:`repro.analysis.stamps`): one walk over the circuit produces a
  stamp program of flat numpy index/value arrays, Newton iterations update
  the system with scatter-adds and batched model evaluation, and AC sweeps
  solve all frequencies as one stacked tensor;
* ``"legacy"`` — the original per-element, per-frequency reference
  implementation, kept as the golden oracle for equivalence tests and as
  the "before" side of the benchmark harness.

``None`` (the default everywhere) resolves to the process-wide default set
here, so a single :func:`use_engine` context flips a whole flow — this is
how ``python -m repro bench`` measures before/after on identical code paths.
:func:`default_engine`, :func:`set_default_engine`, :func:`resolve_engine`
and :func:`use_engine` are the bound methods of :data:`analysis_engine`.

Monte-Carlo offset samples on the compiled engine always solve as one
stacked ensemble (:mod:`repro.analysis.ensemble`); there is no switch for
that.  Its per-sample reference is a method tests and the benchmark call
by name.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

COMPILED = "compiled"
LEGACY = "legacy"


class EngineSwitch:
    """One process-wide engine knob with scoped override support.

    Every engine selection in the package — the analysis engine here and
    the extraction / DRC switches of
    :mod:`repro.layout.engine` — is an instance of this class.
    """

    __slots__ = ("label", "options", "_current")

    def __init__(self, label: str, default: str, options: Tuple[str, ...]):
        self.label = label
        self.options = options
        self._current = self._validated(default)

    def _validated(self, name: str) -> str:
        if name not in self.options:
            raise ValueError(
                f"unknown {self.label} engine {name!r}; "
                f"expected one of {self.options}"
            )
        return name

    def default(self) -> str:
        """The engine used when callers pass ``engine=None``."""
        return self._current

    def set_default(self, name: str) -> None:
        self._current = self._validated(name)

    def resolve(self, engine: Optional[str]) -> str:
        """Resolve an ``engine`` argument to a concrete engine name."""
        if engine is None:
            return self._current
        return self._validated(engine)

    @contextmanager
    def use(self, name: str) -> Iterator[str]:
        """Temporarily switch the default (benchmarks, golden tests)."""
        previous = self._current
        self._current = self._validated(name)
        try:
            yield self._current
        finally:
            self._current = previous


#: The compiled/legacy selection every analysis entry point resolves.
analysis_engine = EngineSwitch("analysis", COMPILED, (COMPILED, LEGACY))

default_engine = analysis_engine.default
set_default_engine = analysis_engine.set_default
resolve_engine = analysis_engine.resolve
use_engine = analysis_engine.use
