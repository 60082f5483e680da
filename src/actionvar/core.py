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
    "ParameterOutOfRange",
    "OrderInsufficient",
    "NotConverged",
    "BasisNotConverged",
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
    """Base class for all errors raised by this package.

    Each subclass names one remedy open to the caller.
    """


class ParameterOutOfRange(ActionVarError):
    """The input, a function passed in included, is outside what the routine handles."""


class OrderInsufficient(ActionVarError):
    """A series cannot give a trusted value at this order."""


class NotConverged(ActionVarError):
    """An iterative routine used its whole budget without converging."""


class BasisNotConverged(NotConverged):
    """Diagonalization found no basis size that certifies the levels."""


class ConfigInvalid(ActionVarError):
    """A command-line setting, config file or environment value is malformed."""


class IoFailure(ActionVarError):
    """A file could not be read or written."""


class WeakRegimeWarning(UserWarning):
    """Requested point lies outside the trust region of a series result."""


class SchemeTag(Enum):
    """Contour form of the fully relativistic series; action_fullrel reads it."""

    CLASSICAL_FULLREL_PDX = "classical-fullrel-pdx"
    CLASSICAL_FULLREL_XDP = "classical-fullrel-xdp"


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
    rest_energy: float = field(init=False)  # m c^2

    def __post_init__(self) -> None:
        for name, value in (("m", self.m), ("k", self.k), ("c", self.c)):
            if not math.isfinite(value) or value <= 0:
                raise ParameterOutOfRange(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(self.hbar) or self.hbar < 0:
            raise ParameterOutOfRange(f"hbar must be finite and >= 0, got {self.hbar}")
        try:
            rest_energy = self.m * self.c**2
        except OverflowError:  # c**2 alone overflows
            rest_energy = math.inf
        if rest_energy == math.inf:
            raise ParameterOutOfRange(f"m c^2 overflows at m = {self.m}, c = {self.c}")
        if rest_energy == 0:
            raise ParameterOutOfRange(f"m c^2 underflows to 0 at m = {self.m}, c = {self.c}")
        omega0 = math.sqrt(self.k / self.m)
        if omega0 == math.inf:
            raise ParameterOutOfRange(f"omega0 overflows at m = {self.m}, k = {self.k}")
        if omega0 == 0:
            raise ParameterOutOfRange(f"omega0 underflows to 0 at m = {self.m}, k = {self.k}")
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "rest_energy", rest_energy)

    @property
    def level_ratio(self) -> float:
        """hbar*omega0 / (m c^2), the quantum level-spacing parameter."""
        return self.hbar * self.omega0 / self.rest_energy


@dataclass(frozen=True)
class EnergyPoint:
    """Mechanical energy above rest energy, with its dimensionless ratio.

    epsilon = e_tilde / (m c^2) exactly; e_tilde must be finite and > 0.
    """

    e_tilde: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.e_tilde < math.inf:
            raise ParameterOutOfRange(f"e_tilde must be finite and > 0, got {self.e_tilde}")


@dataclass(frozen=True)
class ActionResult:
    """Value of an action variable J(E)."""

    j_value: float


@dataclass(frozen=True)
class SpectrumEntry:
    """One quantum level: energy and its shift from (n + 1/2) hbar omega0."""

    energy: float
    correction: float


def make_params(m: float, k: float, c: float, hbar: float) -> OscillatorParams:
    """Validate and bundle oscillator parameters; omega0 is precomputed."""
    return OscillatorParams(m=m, k=k, c=c, hbar=hbar)


def natural_params(c: float = 10.0, hbar: float = 1.0) -> OscillatorParams:
    """Natural units m = k = 1 with a user-chosen speed of light."""
    return make_params(1.0, 1.0, c, hbar)


def energy_point(params: OscillatorParams, e_tilde: float) -> EnergyPoint:
    """Attach epsilon = e_tilde/(m c^2) to a mechanical energy."""
    return EnergyPoint(e_tilde=e_tilde, epsilon=e_tilde / params.rest_energy)


def require_weak_regime(ep: EnergyPoint, where: str) -> None:
    """Enforce eps < 1/2 for weak-relativistic series; warn above 0.1."""
    import warnings

    if ep.epsilon >= EPSILON_HARD_LIMIT:
        raise ParameterOutOfRange(
            f"{where}: eps = {ep.epsilon!r} >= {EPSILON_HARD_LIMIT}; "
            "the weak-relativistic branch points reach the real axis"
        )
    if ep.epsilon > EPSILON_SOFT_LIMIT:
        warnings.warn(
            f"{where}: eps = {ep.epsilon!r} > {EPSILON_SOFT_LIMIT}; "
            "first-order-in-eps results are rough here",
            WeakRegimeWarning,
            stacklevel=3,
        )
