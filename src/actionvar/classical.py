"""Classical action variables and frequencies for the oscillator family.

Each regime exposes the action J(E) in one or both of its two contour
forms: the coordinate form (1/2pi) closed-integral p dx and the momentum
form -(1/2pi) closed-integral x dp.  Both are evaluated from closed-form
series; an independent quadrature path lives here too because it shares
the turning-point machinery, while trajectory oracles live in oracles.

Sign convention: contour orientations are fixed once so that every action
comes out positive and reduces to e/omega0 in the non-relativistic limit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    ActionResult,
    DerivativeNotFinite,
    EnergyPoint,
    NonPositiveEnergy,
    NoClassicalRegion,
    OrderInsufficient,
    OscillatorParams,
    ParameterOutOfRange,
    QuadratureNotConverged,
    SchemeTag,
    UnknownForm,
    energy_point,
    require_weak_regime,
)
from .laurent import DEFAULT_EXTRA_ORDERS, LaurentSeries, binomial_sqrt
from .oracles import HamiltonianKind, HamiltonianSpec

__all__ = [
    "TurningPoints",
    "ActionResult",
    "turning_points_wr",
    "turning_momenta_wr",
    "action_sho",
    "action_wr_pdx",
    "action_wr_xdp",
    "action_wr_xdp_first_order",
    "action_wr_residue",
    "wr_momentum_series",
    "action_fullrel",
    "action_quadrature",
    "frequency_from_action",
    "frequency_wr_closed",
]


@dataclass(frozen=True)
class TurningPoints:
    """Branch points of the momentum function in one complex plane.

    The physical pair is real and symmetric about the origin; the
    unphysical pair bounds the annulus on which the series expansions
    converge.  domain says which plane the values live in.
    """

    physical: tuple[float, float]
    unphysical: tuple[complex, complex]
    domain: str  # "coordinate-plane" | "momentum-plane"
    first_order_p2: float | None = None


def turning_points_wr(params: OscillatorParams, ep: EnergyPoint) -> TurningPoints:
    """Coordinate-plane turning points of the weakly relativistic orbit.

    x2 = sqrt(2 e/k) is the physical turning point; the extra pair sits at
    x4 = x2 sqrt(1 - 1/(2 eps)), purely imaginary for eps < 1/2.
    """
    require_weak_regime(ep, "turning_points_wr")
    x2 = math.sqrt(2.0 * ep.e_tilde / params.k)
    x4 = x2 * cmath.sqrt(1.0 - 1.0 / (2.0 * ep.epsilon))
    return TurningPoints(physical=(-x2, x2), unphysical=(-x4, x4), domain="coordinate-plane")


def turning_momenta_wr(params: OscillatorParams, ep: EnergyPoint) -> TurningPoints:
    """Momentum-plane branch points of the weakly relativistic orbit.

    p2 = sqrt(2) m c [1 - (1 - 2 eps)^(1/2)]^(1/2) exactly; the outer pair
    carries the conjugate radical, p4 = sqrt(2) m c [1 + (1-2 eps)^(1/2)]^(1/2),
    so that |p4| > p2 and the annulus p2 < |p| < p4 exists.  The
    first-order form sqrt(2 m e)(1 + eps/4) is reported alongside.
    """
    require_weak_regime(ep, "turning_momenta_wr")
    mc = params.m * params.c
    q = math.sqrt(1.0 - 2.0 * ep.epsilon)
    p2 = math.sqrt(2.0) * mc * math.sqrt(1.0 - q)
    p4 = math.sqrt(2.0) * mc * math.sqrt(1.0 + q)
    first = math.sqrt(2.0 * params.m * ep.e_tilde) * (1.0 + ep.epsilon / 4.0)
    return TurningPoints(
        physical=(-p2, p2),
        unphysical=(complex(-p4), complex(p4)),
        domain="momentum-plane",
        first_order_p2=first,
    )


def action_sho(params: OscillatorParams, e: float) -> ActionResult:
    """Non-relativistic harmonic action J = e / omega0."""
    ep = energy_point(params, e)
    return ActionResult(
        j_value=e / params.omega0,
        scheme=SchemeTag.CLASSICAL_SHO,
        order_epsilon=0,
        e_point=ep,
    )


def action_wr_pdx(params: OscillatorParams, ep: EnergyPoint) -> ActionResult:
    """Weakly relativistic action, coordinate form, to first order in eps.

    J = (e/omega0) (1 + 3 eps / 16).
    """
    require_weak_regime(ep, "action_wr_pdx")
    j = (ep.e_tilde / params.omega0) * (1.0 + 3.0 * ep.epsilon / 16.0)
    return ActionResult(
        j_value=j, scheme=SchemeTag.CLASSICAL_WR_PDX, order_epsilon=1, e_point=ep
    )


# Coefficients c_j of sqrt(1 - u) = sum_j c_j u^j; the momentum-form series
# coefficients below are g_0 = 1, g_l = -2 c_{l+1} c_l.
def _sqrt_binomials(n: int) -> list[float]:
    c = [1.0]
    for j in range(1, n + 1):
        c.append(c[-1] * (j - 1.5) / j)
    return c


def action_wr_xdp(
    params: OscillatorParams, ep: EnergyPoint, n_terms: int = 4
) -> ActionResult:
    """Weakly relativistic action, momentum form.

    J = (e/omega0) [2/(1+q)]^(1/2) [1 - rho/8 - rho^2/64 - ...] with
    q = sqrt(1 - 2 eps) and rho = (p2/p4)^2 = (1-q)/(1+q).  The prefactor
    is exact; the bracket is summed to n_terms terms.
    """
    require_weak_regime(ep, "action_wr_xdp")
    if n_terms < 1:
        raise ParameterOutOfRange(f"n_terms must be >= 1, got {n_terms}")
    q = math.sqrt(1.0 - 2.0 * ep.epsilon)
    rho = (1.0 - q) / (1.0 + q)
    c = _sqrt_binomials(n_terms)
    bracket = 1.0
    rho_pow = 1.0
    for l in range(1, n_terms):
        rho_pow *= rho
        bracket += -2.0 * c[l + 1] * c[l] * rho_pow
    prefactor = math.sqrt(2.0 / (1.0 + q))
    j = (ep.e_tilde / params.omega0) * prefactor * bracket
    return ActionResult(
        j_value=j,
        scheme=SchemeTag.CLASSICAL_WR_XDP,
        order_epsilon=n_terms - 1,
        e_point=ep,
    )


def action_wr_xdp_first_order(params: OscillatorParams, ep: EnergyPoint) -> ActionResult:
    """Momentum-form weakly relativistic action truncated at order eps.

    To this order the momentum form collapses onto the coordinate form,
    (e/omega0)(1 + 3 eps / 16); comparison tables print this truncation so
    all first-order schemes are shown at the same order.
    """
    return replace(action_wr_pdx(params, ep), scheme=SchemeTag.CLASSICAL_WR_XDP)


def wr_momentum_series(
    params: OscillatorParams, ep: EnergyPoint, order: int = DEFAULT_EXTRA_ORDERS
) -> LaurentSeries:
    """Laurent expansion about x = infinity of the weakly relativistic momentum.

    To first order in 1/c^2 the momentum factors as
    p = sqrt(mk) i x (1 - s)^(1/2) [1 + k (x2^2 - x^2) / (8 m c^2)],
    with s = (x2/x)^2; the product is a genuine integer-power Laurent
    series suitable for residue evaluation.
    """
    require_weak_regime(ep, "wr_momentum_series")
    m, k, c = params.m, params.k, params.c
    x2sq = 2.0 * ep.e_tilde / k
    s = LaurentSeries.term(-2, x2sq)
    base = binomial_sqrt(s, order)
    corr = LaurentSeries({0: 1.0 + k * x2sq / (8.0 * m * c * c), 2: -k / (8.0 * m * c * c)})
    return (base * corr).shifted(1).scaled(1j * math.sqrt(m * k))


def action_wr_residue(params: OscillatorParams, ep: EnergyPoint) -> ActionResult:
    """Weakly relativistic coordinate-form action via the residue at infinity.

    Independent of action_wr_pdx's closed form: the momentum series is
    built term by term and its x^(-1) coefficient read off.  Only the
    x^-2 and x^-4 terms of sqrt(1 - s) reach that coefficient, so order 2
    suffices.  Orientation is fixed so the non-relativistic limit returns
    +e/omega0.
    """
    series = wr_momentum_series(params, ep, 2)
    j = (1j * series.residue()).real
    return ActionResult(
        j_value=j, scheme=SchemeTag.CLASSICAL_WR_PDX, order_epsilon=1, e_point=ep
    )


# Tabulated series for the fully relativistic action.  Row "pdx" is in
# powers of s = eps/(2+eps); row "xdp" in powers of eps; both carry the
# common prefactor sqrt(1 + eps/2).
_FULLREL_PDX_COEFFS = (1.0, -1.0 / 8.0, -1.0 / 64.0)
_FULLREL_XDP_COEFFS = (1.0, -1.0 / 16.0, 7.0 / 256.0, 1.0 / 128.0)


def action_fullrel(
    params: OscillatorParams,
    ep: EnergyPoint,
    form: SchemeTag = SchemeTag.CLASSICAL_FULLREL_PDX,
    n_terms: int | None = None,
) -> ActionResult:
    """Fully relativistic action from the tabulated series.

    form selects the coordinate (pdx) or momentum (xdp) expansion; both
    equal (e/omega0) sqrt(1 + eps/2) times their bracketed series.
    """
    if ep.epsilon > 1.0:
        raise ParameterOutOfRange(
            f"eps = {ep.epsilon:.6g} > 1; tabulated series not trusted there"
        )
    if form is SchemeTag.CLASSICAL_FULLREL_PDX:
        coeffs = _FULLREL_PDX_COEFFS
        u = ep.epsilon / (2.0 + ep.epsilon)
    elif form is SchemeTag.CLASSICAL_FULLREL_XDP:
        coeffs = _FULLREL_XDP_COEFFS
        u = ep.epsilon
    else:
        raise UnknownForm(f"form must be a fully relativistic scheme, got {form}")
    if n_terms is None:
        n_terms = len(coeffs)
    if not 1 <= n_terms <= len(coeffs):
        raise OrderInsufficient(
            f"n_terms = {n_terms} outside the tabulated range 1..{len(coeffs)}"
        )
    bracket = 0.0
    for l in range(n_terms):
        bracket += coeffs[l] * u**l
    j = (ep.e_tilde / params.omega0) * math.sqrt(1.0 + ep.epsilon / 2.0) * bracket
    return ActionResult(j_value=j, scheme=form, order_epsilon=n_terms - 1, e_point=ep)


@functools.lru_cache(maxsize=None)
def _gauss_legendre_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin(theta), cos(theta) and the weights of Gauss-Legendre on [-pi/2, pi/2].

    Built once per node count and shared between calls, so the arrays are
    read-only.
    """
    theta, weights = np.polynomial.legendre.leggauss(nodes)
    theta = theta * (math.pi / 2.0)
    arrays = (np.sin(theta), np.cos(theta), weights * (math.pi / 2.0))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def action_quadrature(hamiltonian: HamiltonianSpec, e: float) -> float:
    """Direct numerical action (1/pi) integral of p dx between turning points.

    The substitution x = x2 sin(theta) removes the square-root endpoint
    behaviour, after which Gauss-Legendre converges exponentially; node
    count doubles until two successive values agree to 1e-11 relative.
    """
    if e <= 0:
        raise NoClassicalRegion(f"energy must exceed the potential minimum 0, got {e}")
    x2 = hamiltonian.turning_point(e)

    def value(nodes: int) -> float:
        sin, cos, weights = _gauss_legendre_nodes(nodes)
        integrand = hamiltonian.momentum(x2 * sin, e) * x2 * cos
        # (1/pi) * integral over [-x2, x2], i.e. over theta in [-pi/2, pi/2]
        return float(np.dot(weights, integrand)) / math.pi

    nodes = 32
    prev = value(nodes)
    while nodes <= 2**14:
        nodes *= 2
        cur = value(nodes)
        if abs(cur - prev) <= 1e-11 * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"no 1e-11 agreement up to {2**14} Gauss-Legendre nodes"
    )


def frequency_from_action(j_of_e: Callable[[float], float], e: float) -> float:
    """Angular frequency omega = (dJ/dE)^(-1) by central differencing.

    One Richardson pass on the central difference keeps the derivative
    error near h^4 without extra assumptions about j_of_e.
    """
    h = max(1e-6 * abs(e), 1e-9)

    def central(step: float) -> float:
        return (j_of_e(e + step) - j_of_e(e - step)) / (2.0 * step)

    d = (4.0 * central(h / 2.0) - central(h)) / 3.0
    if not math.isfinite(d) or d == 0.0:
        raise DerivativeNotFinite(f"dJ/dE = {d} at e = {e}")
    return 1.0 / d


def frequency_wr_closed(params: OscillatorParams, ep: EnergyPoint) -> float:
    """Closed-form weakly relativistic frequency omega0 / (1 + 3 eps / 8)."""
    require_weak_regime(ep, "frequency_wr_closed")
    return params.omega0 / (1.0 + 3.0 * ep.epsilon / 8.0)
