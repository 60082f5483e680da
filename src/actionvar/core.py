"""Parameter bundles, unit conventions and the shared error taxonomy.

The whole library works in an arbitrary but coherent unit system fixed by
four numbers: mass m, spring constant k, speed of light c and the quantum
of action hbar.  Every physical result depends only on two dimensionless
groups derived from them: the relativistic energy ratio eps = E/(m c^2)
and the level-spacing ratio hbar*omega0/(m c^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "ActionVarError",
    "NonPositiveParameter",
    "NonPositiveEnergy",
    "EpsilonOutOfRange",
    "ParameterOutOfRange",
    "InvalidExpansionPoint",
    "OrderInsufficient",
    "RecurrenceSingular",
    "BracketNotFound",
    "NotMonotonic",
    "RootNotConverged",
    "NoClassicalRegion",
    "QuadratureNotConverged",
    "DerivativeNotFinite",
    "EnergyDriftExceeded",
    "NoPeriodFound",
    "BasisNotConverged",
    "EigensolverStalled",
    "UnknownForm",
    "ConfigInvalid",
    "IoFailure",
    "WeakRegimeWarning",
    "ActionResult",
    "SpectrumEntry",
    "SchemeTag",
    "OscillatorParams",
    "EnergyPoint",
    "make_params",
    "energy_point",
    "natural_params",
    "EPSILON_HARD_LIMIT",
    "EPSILON_SOFT_LIMIT",
]

# Weakly relativistic expansions need eps < 1/2 (the extra branch points
# reach the real axis at eps = 1/2); above 0.1 the first-order truncation
# error is no longer comfortably small.
EPSILON_HARD_LIMIT = 0.5
EPSILON_SOFT_LIMIT = 0.1


class ActionVarError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveParameter(ActionVarError):
    pass


class NonPositiveEnergy(ActionVarError):
    pass


class EpsilonOutOfRange(ActionVarError):
    pass


class ParameterOutOfRange(ActionVarError):
    pass


class InvalidExpansionPoint(ActionVarError):
    pass


class OrderInsufficient(ActionVarError):
    pass


class RecurrenceSingular(ActionVarError):
    pass


class BracketNotFound(ActionVarError):
    pass


class NotMonotonic(ActionVarError):
    pass


class RootNotConverged(ActionVarError):
    pass


class NoClassicalRegion(ActionVarError):
    pass


class QuadratureNotConverged(ActionVarError):
    pass


class DerivativeNotFinite(ActionVarError):
    pass


class EnergyDriftExceeded(ActionVarError):
    pass


class NoPeriodFound(ActionVarError):
    pass


class BasisNotConverged(ActionVarError):
    pass


class EigensolverStalled(ActionVarError):
    pass


class UnknownForm(ActionVarError):
    pass


class ConfigInvalid(ActionVarError):
    pass


class IoFailure(ActionVarError):
    pass


class WeakRegimeWarning(UserWarning):
    """Requested point lies outside the trust region of a series result."""


class SchemeTag(Enum):
    """Identifies which calculation scheme produced a result."""

    CLASSICAL_SHO = "classical-sho"
    CLASSICAL_WR_PDX = "classical-wr-pdx"
    CLASSICAL_WR_XDP = "classical-wr-xdp"
    CLASSICAL_FULLREL_PDX = "classical-fullrel-pdx"
    CLASSICAL_FULLREL_XDP = "classical-fullrel-xdp"
    QUANTUM_SHO_PDX = "quantum-sho-pdx"
    QUANTUM_SHO_XDP = "quantum-sho-xdp"
    QUANTUM_WR_PDX = "quantum-wr-pdx"
    QUANTUM_WR_XDP = "quantum-wr-xdp"
    QUANTUM_AHO_PDX = "quantum-aho-pdx"
    JWKB_WR = "jwkb-wr"
    RAYLEIGH_SCHRODINGER = "rayleigh-schrodinger"


@dataclass(frozen=True)
class OscillatorParams:
    """Immutable bundle (m, k, c, hbar) fixing the unit system.

    hbar = 0 is legal and expresses the classical limit, so classical and
    quantum code can share one parameter type.
    """

    m: float
    k: float
    c: float
    hbar: float
    omega0: float = field(init=False)

    def __post_init__(self) -> None:
        for name, value in (("m", self.m), ("k", self.k), ("c", self.c)):
            if not math.isfinite(value) or value <= 0:
                raise NonPositiveParameter(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(self.hbar) or self.hbar < 0:
            raise NonPositiveParameter(f"hbar must be finite and >= 0, got {self.hbar}")
        object.__setattr__(self, "omega0", math.sqrt(self.k / self.m))

    @property
    def rest_energy(self) -> float:
        """m c^2."""
        return self.m * self.c**2

    @property
    def level_ratio(self) -> float:
        """hbar*omega0 / (m c^2), the quantum level-spacing parameter."""
        return self.hbar * self.omega0 / self.rest_energy


@dataclass(frozen=True)
class EnergyPoint:
    """Mechanical energy above rest energy, with its dimensionless ratio.

    epsilon = e_tilde / (m c^2) exactly; weak_warn flags points beyond the
    soft trust limit of the first-order relativistic expansions.
    """

    e_tilde: float
    epsilon: float
    weak_warn: bool


@dataclass(frozen=True)
class ActionResult:
    """Value of an action variable J(E) with its provenance."""

    j_value: float
    scheme: SchemeTag
    order_epsilon: int
    e_point: EnergyPoint


@dataclass(frozen=True)
class SpectrumEntry:
    """One quantum level: energy and its shift from (n + 1/2) hbar omega0."""

    n: int
    energy: float
    scheme: SchemeTag
    correction: float


def make_params(m: float, k: float, c: float, hbar: float) -> OscillatorParams:
    """Validate and bundle oscillator parameters; omega0 is precomputed."""
    return OscillatorParams(m=m, k=k, c=c, hbar=hbar)


def natural_params(c: float = 10.0, hbar: float = 1.0) -> OscillatorParams:
    """Natural units m = k = 1 with a user-chosen speed of light."""
    return make_params(1.0, 1.0, c, hbar)


def energy_point(params: OscillatorParams, e_tilde: float) -> EnergyPoint:
    """Attach epsilon = e_tilde/(m c^2) to a mechanical energy."""
    if not math.isfinite(e_tilde) or e_tilde <= 0:
        raise NonPositiveEnergy(f"e_tilde must be finite and > 0, got {e_tilde}")
    eps = e_tilde / params.rest_energy
    return EnergyPoint(e_tilde=e_tilde, epsilon=eps, weak_warn=eps > EPSILON_SOFT_LIMIT)


def require_weak_regime(ep: EnergyPoint, where: str) -> None:
    """Enforce eps < 1/2 for weak-relativistic series; warn above 0.1."""
    import warnings

    if ep.epsilon >= EPSILON_HARD_LIMIT:
        raise EpsilonOutOfRange(
            f"{where}: eps = {ep.epsilon:.6g} >= {EPSILON_HARD_LIMIT}; "
            "the weak-relativistic branch points reach the real axis"
        )
    if ep.epsilon > EPSILON_SOFT_LIMIT:
        warnings.warn(
            f"{where}: eps = {ep.epsilon:.6g} > {EPSILON_SOFT_LIMIT}; "
            "first-order-in-eps results are rough here",
            WeakRegimeWarning,
            stacklevel=3,
        )
