"""Classical action variables and frequencies for the oscillator family.

Each regime exposes the action J(E) in one or both of its two contour
forms: the coordinate form (1/2pi) closed-integral p dx and the momentum
form -(1/2pi) closed-integral x dp.  Both are evaluated from closed-form
series.  The independent quadrature path lives here too; it reads the
orbit from oracles.HamiltonianSpec, and trajectory oracles live there.

Sign convention: contour orientations are fixed once so that every action
comes out positive and reduces to e/omega0 in the non-relativistic limit.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import (
    ActionResult,
    EnergyPoint,
    NotConverged,
    OrderInsufficient,
    OscillatorParams,
    ParameterOutOfRange,
    SchemeTag,
    energy_point,
    require_weak_regime,
)
from .laurent import DEFAULT_EXTRA_ORDERS, LaurentSeries, binomial_sqrt, sqrt_coefficients
from .oracles import HamiltonianSpec

__all__ = [
    "action_sho",
    "action_wr_pdx",
    "action_wr_xdp",
    "action_wr_residue",
    "wr_momentum_series",
    "action_fullrel",
    "action_quadrature",
    "frequency_from_action",
    "frequency_wr_closed",
]


def action_sho(params: OscillatorParams, e: float) -> ActionResult:
    """Non-relativistic harmonic action J = e / omega0."""
    energy_point(params, e)
    return ActionResult(e / params.omega0)


def action_wr_pdx(params: OscillatorParams, ep: EnergyPoint) -> ActionResult:
    """Weakly relativistic action, coordinate form, to first order in eps.

    J = (e/omega0) (1 + 3 eps / 16).
    """
    require_weak_regime(ep, "action_wr_pdx")
    return ActionResult((ep.e_tilde / params.omega0) * (1.0 + 3.0 * ep.epsilon / 16.0))


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
    # Bracket term l is -2 c_{l+1} c_l rho^l, c_j the sqrt(1 - u) coefficients.
    c = sqrt_coefficients(n_terms)
    bracket = 1.0
    rho_pow = 1.0
    for l in range(1, n_terms):
        rho_pow *= rho
        bracket += -2.0 * c[l + 1] * c[l] * rho_pow
    prefactor = math.sqrt(2.0 / (1.0 + q))
    return ActionResult((ep.e_tilde / params.omega0) * prefactor * bracket)


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
    return ActionResult((1j * series.residue()).real)


# Tabulated series for the fully relativistic action.  Row "pdx" is in
# powers of s = eps/(2+eps); row "xdp" in powers of eps; both carry the
# common prefactor sqrt(1 + eps/2).  Row "xdp" is the expansion of
# (2/pi) int_0^pi cos^2(theta) sqrt(1 + (eps/2) cos^2(theta)) dtheta
# divided by that prefactor.
_FULLREL_PDX_COEFFS = (1.0, -1.0 / 8.0, -1.0 / 64.0)
_FULLREL_XDP_COEFFS = (1.0, -1.0 / 16.0, 7.0 / 256.0, -101.0 / 8192.0)


def action_fullrel(
    params: OscillatorParams,
    ep: EnergyPoint,
    form: SchemeTag = SchemeTag.CLASSICAL_FULLREL_PDX,
    n_terms: int | None = None,
) -> ActionResult:
    """Fully relativistic action from the tabulated series.

    form, SchemeTag.CLASSICAL_FULLREL_PDX or SchemeTag.CLASSICAL_FULLREL_XDP,
    selects the coordinate (pdx) or momentum (xdp) expansion; both equal
    (e/omega0) sqrt(1 + eps/2) times their bracketed series.
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
        raise ParameterOutOfRange(f"form must be a fully relativistic scheme, got {form}")
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
    return ActionResult(j)


def action_quadrature(hamiltonian: HamiltonianSpec, e: float) -> float:
    """Direct numerical action (1/pi) integral of p dx between turning points.

    The substitution x = x2 sin(theta) turns the integrand into
    p(x2 sin theta) x2 cos theta, a smooth, even, pi-periodic function of
    theta, on which the midpoint rule converges exponentially (Trefethen
    & Weideman, SIAM Rev. 56, 385 (2014)).  J is the mean of the integrand
    at the n midpoints of the quarter period [0, pi/2], summed by
    math.fsum; n doubles from 16 until two successive values agree to
    1e-11 relative, up to n = 2^15.  Each node costs about 0.5 us (2-vCPU
    x86 VM): a call on eps <= 0.4 stops at 32 nodes, 48 evaluated, in
    about 25 us.  WEAK_REL near eps = 1/2 needs more: eps = 0.4999999
    stops at 2^14, 32,752 evaluated, in about 20 ms, and a call that
    reaches the cap evaluates 65,520 nodes in about 40 ms.
    """
    x2 = hamiltonian.turning_point(e)
    momentum = hamiltonian.orbit_momentum(e)
    sin, cos = math.sin, math.cos

    def value(nodes: int) -> float:
        h = math.pi / (2 * nodes)
        thetas = [(j + 0.5) * h for j in range(nodes)]
        return math.fsum([momentum(x2 * sin(t)) * x2 * cos(t) for t in thetas]) / nodes

    nodes = 16
    prev = value(nodes)
    while nodes <= 2**14:
        nodes *= 2
        cur = value(nodes)
        if abs(cur - prev) <= 1e-11 * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise NotConverged(f"no 1e-11 agreement up to {2**14} midpoint nodes")


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
        raise ParameterOutOfRange(f"dJ/dE = {d} at e = {e}")
    return 1.0 / d


def frequency_wr_closed(params: OscillatorParams, ep: EnergyPoint) -> float:
    """Closed-form weakly relativistic frequency omega0 / (1 + 3 eps / 8)."""
    require_weak_regime(ep, "frequency_wr_closed")
    return params.omega0 / (1.0 + 3.0 * ep.epsilon / 8.0)
