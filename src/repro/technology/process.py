"""Process description: MOS parameters, wells, contacts, full technology.

The same :class:`MosParams` objects parameterise both the circuit simulator
(:mod:`repro.analysis`) and the sizing tool (:mod:`repro.sizing`).  Using one
shared model in both tools is one of the paper's accuracy arguments
(section 4: "Accuracy with respect to simulation is greatly improved by
using the same transistor models implemented in the latter").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import TechnologyError
from repro.technology.metals import MetalLayer
from repro.technology.rules import DesignRules
from repro.units import EPSILON_SIO2


@dataclass(frozen=True)
class MosParams:
    """SPICE-style MOS parameters for one device polarity.

    The sign convention follows SPICE: for PMOS, ``vto`` is negative and the
    model code works with source-referred magnitudes.  All units SI.
    """

    name: str
    polarity: str
    """'n' or 'p'."""
    vto: float
    """Zero-bias threshold voltage, V (negative for PMOS)."""
    u0: float
    """Low-field mobility, m^2/(V s)."""
    tox: float
    """Gate oxide thickness, m."""
    gamma: float
    """Body-effect coefficient, V^0.5."""
    phi: float
    """Surface potential 2*phi_F, V."""
    lambda_l: float
    """Channel-length-modulation coefficient-length product, m/V.

    The effective CLM parameter is ``lambda = lambda_l / L`` so longer
    devices show proportionally higher output resistance.
    """
    theta: float
    """Vertical-field mobility-degradation coefficient, 1/V (level 3)."""
    vmax: float
    """Saturation velocity, m/s (level 3; 0 disables velocity saturation)."""
    # Junction (diffusion) capacitances -------------------------------------
    cj: float
    """Zero-bias bottom junction capacitance, F/m^2."""
    cjsw: float
    """Zero-bias sidewall junction capacitance, F/m."""
    mj: float
    """Bottom grading coefficient."""
    mjsw: float
    """Sidewall grading coefficient."""
    pb: float
    """Junction built-in potential, V."""
    # Overlap capacitances ----------------------------------------------------
    cgso: float
    """Gate-source overlap capacitance, F/m of gate width."""
    cgdo: float
    """Gate-drain overlap capacitance, F/m of gate width."""
    cgbo: float
    """Gate-bulk overlap capacitance, F/m of gate length."""
    # Noise --------------------------------------------------------------------
    kf: float
    """Flicker-noise coefficient (SPICE KF)."""
    af: float
    """Flicker-noise current exponent (SPICE AF)."""
    # Parasitic resistance ------------------------------------------------------
    rsh_diff: float
    """Diffusion sheet resistance, ohm/square."""
    # Mismatch (Pelgrom) ---------------------------------------------------------
    avt: float = 10e-9
    """Threshold mismatch coefficient A_VT, V*m (sigma_VT = avt/sqrt(WL))."""
    abeta: float = 0.02e-6
    """Current-factor mismatch coefficient A_beta, m."""

    def __deepcopy__(self, memo: object) -> "MosParams":
        # Frozen (immutable), so cloned circuits can share one instance;
        # this keeps Circuit.clone() cheap and lets the model cache hit
        # across clones (it keys by parameter value).
        return self

    @property
    def cox(self) -> float:
        """Gate capacitance per area, F/m^2."""
        return EPSILON_SIO2 / self.tox

    @property
    def kp(self) -> float:
        """Transconductance parameter u0*Cox, A/V^2."""
        return self.u0 * self.cox

    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS: maps device voltages to NMOS-like ones."""
        return 1.0 if self.polarity == "n" else -1.0

    def validate(self) -> None:
        if self.polarity not in ("n", "p"):
            raise TechnologyError(
                f"MOS polarity must be 'n' or 'p', got {self.polarity!r}"
            )
        if self.polarity == "n" and self.vto <= 0.0:
            raise TechnologyError("NMOS vto must be positive")
        if self.polarity == "p" and self.vto >= 0.0:
            raise TechnologyError("PMOS vto must be negative")
        for attr in ("u0", "tox", "gamma", "phi", "lambda_l", "pb"):
            if getattr(self, attr) <= 0.0:
                raise TechnologyError(f"{self.name}: {attr} must be positive")
        for attr in ("cj", "cjsw", "cgso", "cgdo", "cgbo", "kf", "theta"):
            if getattr(self, attr) < 0.0:
                raise TechnologyError(f"{self.name}: {attr} must be non-negative")
        if not 0.0 < self.mj < 1.0 or not 0.0 < self.mjsw < 1.0:
            raise TechnologyError(f"{self.name}: grading coefficients must be in (0,1)")


@dataclass(frozen=True)
class WellParams:
    """N-well junction data, used for floating-well parasitics.

    When a PMOS device sits in a non-grounded well (e.g. a well tied to the
    source of a cascode), the well-to-substrate junction loads that net; the
    layout tool reports exact well sizes so the sizer can account for it
    (section 2: "Exact well sizes so that floating well capacitance can be
    calculated").
    """

    cj_area: float
    """Well-substrate bottom capacitance, F/m^2."""
    cj_perimeter: float
    """Well-substrate sidewall capacitance, F/m."""
    pb: float
    """Built-in potential, V."""
    mj: float
    """Grading coefficient."""

    def capacitance(self, area: float, perimeter: float, bias: float = 0.0) -> float:
        """Well junction capacitance at reverse ``bias`` volts."""
        factor = (1.0 + max(bias, 0.0) / self.pb) ** (-self.mj)
        return (self.cj_area * area + self.cj_perimeter * perimeter) * factor


@dataclass(frozen=True)
class ContactRule:
    """Electrical limits of a single contact/via cut."""

    max_current: float
    """Maximum DC current per cut, A."""
    resistance: float
    """Resistance per cut, ohm."""

    def cuts_for_current(self, current: float) -> int:
        """Number of cuts needed to carry ``current`` amperes reliably."""
        import math

        if self.max_current <= 0.0:
            raise TechnologyError("contact max_current must be positive")
        return max(1, math.ceil(abs(current) / self.max_current))


@dataclass(frozen=True)
class Technology:
    """Complete technology description used across the library."""

    name: str
    feature_size: float
    """Minimum drawn gate length, m."""
    nmos: MosParams
    pmos: MosParams
    rules: DesignRules
    metals: Dict[str, MetalLayer]
    poly: MetalLayer
    """Poly treated as a (resistive) routing layer for gate connections."""
    contact: ContactRule
    via: ContactRule
    well: WellParams
    supply_nominal: float = 3.3
    temperature: float = 300.15
    cap_density: float = 0.9e-3
    """Poly1-poly2 plate capacitance, F/m^2 (double-poly capacitors)."""
    default_ldif: float = field(default=0.0)
    """Default source/drain diffusion extension assumed *before* the first
    layout call, m.  If zero, derived from the design rules as ~3x the
    contacted strip width — deliberately conservative, since without
    layout information the sizer must budget for straps, bends and tap
    clearances around the diffusion (the over-estimation the paper's
    case 2 illustrates)."""

    def __post_init__(self) -> None:
        if self.default_ldif == 0.0:
            object.__setattr__(
                self, "default_ldif", 2.8 * self.rules.contacted_diffusion_width
            )

    def validate(self) -> None:
        """Check internal consistency; raise :class:`TechnologyError`."""
        if self.feature_size <= 0.0:
            raise TechnologyError("feature size must be positive")
        self.nmos.validate()
        self.pmos.validate()
        if self.nmos.polarity != "n" or self.pmos.polarity != "p":
            raise TechnologyError("nmos/pmos polarity fields are swapped")
        self.rules.validate()
        if abs(self.rules.poly_min_width - self.feature_size) > 1e-12:
            raise TechnologyError(
                "rules.poly_min_width must equal the technology feature size"
            )
        if not self.metals:
            raise TechnologyError("technology needs at least one metal layer")
        for layer in self.metals.values():
            layer.validate()
        self.poly.validate()
        if self.supply_nominal <= self.nmos.vto - self.pmos.vto:
            raise TechnologyError("nominal supply leaves no headroom")

    def fingerprint(self) -> str:
        """Stable content hash of the whole technology description.

        Two Technology objects with identical content share a
        fingerprint regardless of object identity — this is the "tech
        hash" component of artifact-store keys.  Computed once
        and cached on the instance (frozen dataclasses still own a
        ``__dict__``).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        import hashlib
        from dataclasses import fields as dataclass_fields, is_dataclass

        def tokens(value):
            if is_dataclass(value) and not isinstance(value, type):
                for field_info in dataclass_fields(value):
                    yield field_info.name
                    yield from tokens(getattr(value, field_info.name))
            elif isinstance(value, dict):
                for key in sorted(value):
                    yield str(key)
                    yield from tokens(value[key])
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from tokens(item)
            else:
                yield repr(value)

        digest = hashlib.sha256(
            "\x1f".join(tokens(self)).encode()
        ).hexdigest()[:16]
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def device(self, polarity: str) -> MosParams:
        """Return the MOS parameter set for ``'n'`` or ``'p'``."""
        if polarity == "n":
            return self.nmos
        if polarity == "p":
            return self.pmos
        raise TechnologyError(f"unknown device polarity {polarity!r}")

    def metal(self, name: str) -> MetalLayer:
        """Return a routing layer by name (``'metal1'``, ``'poly'``, ...)."""
        if name == "poly":
            return self.poly
        try:
            return self.metals[name]
        except KeyError:
            raise TechnologyError(
                f"technology {self.name!r} has no metal layer {name!r}"
            ) from None
