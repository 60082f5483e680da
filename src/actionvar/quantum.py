"""Quantum action variables from Riccati-recurrence Laurent coefficients.

The quantum momentum function p(x, E) solves a Riccati equation whose
Laurent coefficients follow from a two-term recurrence.  The quantum
action is then a residue read off the series, and spectra come from
inverting J(E) = n hbar.  Covered regimes: simple harmonic, weakly
relativistic (both contour forms), and quartic anharmonic.

Closed-form surface functions evaluate the published first-order series
exactly as stated; each has a companion derivation path that rebuilds the
same quantity from the recurrence so the two can be compared in tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import (
    ActionResult,
    EnergyPoint,
    NonPositiveEnergy,
    OrderInsufficient,
    OscillatorParams,
    ParameterOutOfRange,
    RecurrenceSingular,
    SchemeTag,
    SpectrumEntry,
    WeakRegimeWarning,
    energy_point,
    require_weak_regime,
)
from .laurent import DEFAULT_EXTRA_ORDERS, LaurentSeries
from .rootfind import bracketed_root, expand_bracket

__all__ = [
    "RiccatiSolution",
    "SpectrumEntry",
    "riccati_pdx",
    "riccati_xdp",
    "quantum_action_sho",
    "wr_correction_pdx",
    "wr_correction_derived",
    "quantum_action_wr_pdx",
    "quantum_action_wr_pdx_derived",
    "quantum_action_wr_xdp",
    "invert_action",
    "eigenvalues_wr_pdx",
    "eigenvalues_wr_xdp",
    "aho_coeffs",
    "aho_coeffs_derived",
    "quantum_action_aho",
    "quantum_action_aho_residue",
    "eigenvalues_aho",
]


@dataclass(frozen=True)
class RiccatiSolution:
    """Laurent-series solution of a quantum momentum-function equation.

    coefficients holds the series (in x for pdx, in p for xdp);
    residual_norm is the relative magnitude of the worst violated
    coefficient when the series is substituted back into its defining
    equation.
    """

    coefficients: LaurentSeries
    form: str  # "pdx" | "xdp"
    residual_norm: float


def _riccati_series(
    lead_sq: float, lead_sign: complex, rhs_const: complex, hbar_term: float, order: int
) -> list[complex]:
    """Shared recurrence for both Riccati forms.

    Solves sign_h * i*hbar * ds/dv + s^2 = rhs_const + lead_sq * v^2 for
    s = sum_{j>=1} b_j v^(3-2j); hbar_term is sign_h * hbar.  lead_sq is
    the (negative) square of the leading coefficient; lead_sign picks the
    branch satisfying the classical boundary condition.
    """
    b1 = lead_sign * 1j * math.sqrt(abs(lead_sq))
    if b1 == 0:
        raise RecurrenceSingular("leading coefficient vanished")
    b = [0j, b1]  # 1-indexed
    for n in range(3, order + 2):
        acc = rhs_const if n == 3 else 0j
        for i in range(2, n - 1):
            j = n - i
            if j >= 2:
                acc -= b[i] * b[j]
        acc += 1j * hbar_term * (3 - 2 * (n - 2)) * b[n - 2]
        b.append(acc / (2.0 * b1))
    return b


def _series_from_coeffs(b: list[complex], order: int) -> LaurentSeries:
    coeffs = {3 - 2 * j: b[j] for j in range(1, order + 1)}
    return LaurentSeries(coeffs, trunc_low=3 - 2 * order)


def _residual_norm(
    s: LaurentSeries, hbar_term: float, rhs: LaurentSeries
) -> float:
    square = s * s
    eq = s.derivative().scaled(-1j * hbar_term) + square - rhs
    scale = max(rhs.max_abs(), square.max_abs(), 1e-300)
    return eq.max_abs() / scale


def riccati_pdx(params: OscillatorParams, e: float, order: int = 8) -> RiccatiSolution:
    """Quantum momentum function p(x, E) for the harmonic potential.

    Solves -i hbar dp/dx + p^2 = 2m(E - k x^2 / 2) with the series
    p = sum b_j x^(3-2j); b1 = +i sqrt(mk) fixes the physical branch and
    b2 = -i sqrt(m/k) E + i hbar / 2.
    """
    if e <= 0:
        raise NonPositiveEnergy(f"e must be > 0, got {e}")
    if order < 2:
        raise OrderInsufficient(f"order must be >= 2, got {order}")
    m, k, hbar = params.m, params.k, params.hbar
    b = _riccati_series(-m * k, +1, 2.0 * m * e, hbar, order)
    series = _series_from_coeffs(b, order)
    rhs = LaurentSeries({2: -m * k, 0: 2.0 * m * e})
    return RiccatiSolution(
        coefficients=series,
        form="pdx",
        residual_norm=_residual_norm(series, hbar, rhs),
    )


def riccati_xdp(params: OscillatorParams, e: float, order: int = 8) -> RiccatiSolution:
    """Quantum orbit function x(p, E) for the harmonic potential.

    Solves i hbar dx/dp + x^2 = (2/k)(E - p^2 / 2m) with the series
    x = sum b'_j p^(3-2j); b'1 = -i / sqrt(mk) and
    b'2 = -i (hbar/2 - E/omega0).
    """
    if e <= 0:
        raise NonPositiveEnergy(f"e must be > 0, got {e}")
    if order < 2:
        raise OrderInsufficient(f"order must be >= 2, got {order}")
    m, k, hbar = params.m, params.k, params.hbar
    b = _riccati_series(-1.0 / (m * k), -1, 2.0 * e / k, -hbar, order)
    series = _series_from_coeffs(b, order)
    rhs = LaurentSeries({2: -1.0 / (m * k), 0: 2.0 * e / k})
    return RiccatiSolution(
        coefficients=series,
        form="xdp",
        residual_norm=_residual_norm(series, -hbar, rhs),
    )


def quantum_action_sho(
    params: OscillatorParams, e: float, form: str = "pdx"
) -> ActionResult:
    """Quantum harmonic action J = E/omega0 - hbar/2, from either contour form.

    The value is the residue of the series solution: the x^(-1)
    coefficient b2 (pdx) or the p^(-1) coefficient b'2 (xdp), with the
    contour orientations fixed so both forms agree.
    """
    ep = energy_point(params, e)
    if form == "pdx":
        res = riccati_pdx(params, e, order=3).coefficients.residue()
        j = (1j * res).real
        scheme = SchemeTag.QUANTUM_SHO_PDX
    elif form == "xdp":
        res = riccati_xdp(params, e, order=3).coefficients.residue()
        j = (-1j * res).real
        scheme = SchemeTag.QUANTUM_SHO_XDP
    else:
        raise ParameterOutOfRange(f"form must be 'pdx' or 'xdp', got {form!r}")
    return ActionResult(j_value=j, scheme=scheme, order_epsilon=0, e_point=ep)


# -- weakly relativistic, coordinate form -------------------------------------


def _solve_correction_layer(
    p0: LaurentSeries, rhs: LaurentSeries, hbar: float, n_coeffs: int
) -> list[complex]:
    """First-order correction P1 with -i hbar P1' + 2 P0 P1 = rhs.

    P1 = sum_{l>=0} u_l x^(3-2l); matching the x^(4-2l) coefficient gives
    a forward recurrence in l.  Returns [u_0, ..., u_{n_coeffs-1}]; a
    coefficient of rhs or P0 below its trusted bound raises
    OrderInsufficient.
    """
    b1 = p0.coefficient(1)
    if b1 == 0:
        raise RecurrenceSingular("correction layer needs a nonzero leading coefficient")
    u: list[complex] = []
    for l in range(n_coeffs):
        acc = rhs.coefficient(4 - 2 * l)
        for j in range(2, l + 2):
            acc -= 2.0 * p0.coefficient(3 - 2 * j) * u[l + 1 - j]
        if l >= 1:
            acc += 1j * hbar * (3 - 2 * (l - 1)) * u[l - 1]
        u.append(acc / (2.0 * b1))
    return u


def _wr_correction_rhs(p0: LaurentSeries, params: OscillatorParams, e: float) -> LaurentSeries:
    """Source term driving the first-order relativistic correction layer.

    Splitting p = P0 + eps P1 in the relativistic momentum-function
    equation and collecting the eps^1 terms leaves
    P0^4/(4 m E) minus hbar/(m E) times the quantum remainder built from
    P0's first three derivatives.
    """
    m, hbar = params.m, params.hbar
    d1 = p0.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    p2 = p0 * p0
    quartic = (p2 * p2).scaled(1.0 / (4.0 * m * e))
    bracket = (
        (p2 * d1).scaled(1.5j)
        + (d1 * d1).scaled(0.75 * hbar)
        + (p0 * d2).scaled(hbar)
        + d3.scaled(-0.25j * hbar * hbar)
    )
    return quartic - bracket.scaled(hbar / (m * e))


def _wr_correction_layer(
    params: OscillatorParams, ep: EnergyPoint, n_coeffs: int = 3
) -> tuple[LaurentSeries, list[complex]]:
    order = n_coeffs + DEFAULT_EXTRA_ORDERS
    p0 = riccati_pdx(params, ep.e_tilde, order=order).coefficients
    rhs = _wr_correction_rhs(p0, params, ep.e_tilde)
    return p0, _solve_correction_layer(p0, rhs, params.hbar, n_coeffs)


def _aho_correction_layer(
    params: OscillatorParams, e: float
) -> tuple[LaurentSeries, list[complex]]:
    """P0 and u_0..u_2 of the delta^1 correction layer, driven by -2 m x^4."""
    p0 = riccati_pdx(params, e, order=3 + DEFAULT_EXTRA_ORDERS).coefficients
    rhs = LaurentSeries.term(4, -2.0 * params.m)
    return p0, _solve_correction_layer(p0, rhs, params.hbar, 3)


def wr_correction_pdx(params: OscillatorParams, ep: EnergyPoint) -> tuple[float, float]:
    """Modifier coefficients (B0, B1) of the relativistic momentum ansatz.

    The first-order factor multiplying the harmonic series is
    1 + (eps/4)[B0 - B1 (x/x2)^2] with B0 = 1 and
    B1 = 1 + 7 hbar omega0 / (4 e).  wr_correction_derived rebuilds the
    pair from the correction-layer recurrence (with the two values in the
    opposite slots).
    """
    require_weak_regime(ep, "wr_correction_pdx")
    if ep.e_tilde <= 0:
        raise NonPositiveEnergy(f"e_tilde must be > 0, got {ep.e_tilde}")
    return 1.0, 1.0 + 7.0 * params.hbar * params.omega0 / (4.0 * ep.e_tilde)


def wr_correction_derived(
    params: OscillatorParams, ep: EnergyPoint
) -> tuple[float, float]:
    """(B0, B1) extracted from the correction-layer recurrence.

    The ansatz factor is 1 + (eps/4)[B0 - B1 (x/x2)^2], so the recurrence
    coefficients u_0, u_1 determine B1 and B0 respectively:
    u_0 = -b1 B1 / (4 x2^2) and u_1 = b1 B0 / 4 - b2 B1 / (4 x2^2).
    The derived assignment comes out with the two closed-form values in
    the opposite slots; tests document this.
    """
    require_weak_regime(ep, "wr_correction_derived")
    p0, u = _wr_correction_layer(params, ep, n_coeffs=2)
    x2sq = 2.0 * ep.e_tilde / params.k
    b1c = p0.coefficient(1)
    b2c = p0.coefficient(-1)
    big_b1 = -4.0 * x2sq * u[0] / b1c
    big_b0 = (4.0 * u[1] + b2c * big_b1 / x2sq) / b1c
    return _real(big_b0), _real(big_b1)


def _real(z: complex, tol: float = 1e-9) -> float:
    if abs(z.imag) > tol * max(abs(z.real), 1.0):
        raise RecurrenceSingular(f"expected a real value, got {z}")
    return z.real


def quantum_action_wr_pdx(params: OscillatorParams, ep: EnergyPoint) -> ActionResult:
    """Weakly relativistic quantum action, coordinate form, closed series.

    J = (e/omega0)[1 + eps(3/16 + (7/16) y - (17/64) y^2)] - hbar/2 with
    y = hbar omega0 / e.
    """
    require_weak_regime(ep, "quantum_action_wr_pdx")
    y = params.hbar * params.omega0 / ep.e_tilde
    bracket = 3.0 / 16.0 + (7.0 / 16.0) * y - (17.0 / 64.0) * y * y
    j = (ep.e_tilde / params.omega0) * (1.0 + ep.epsilon * bracket) - params.hbar / 2.0
    return ActionResult(
        j_value=j, scheme=SchemeTag.QUANTUM_WR_PDX, order_epsilon=1, e_point=ep
    )


def quantum_action_wr_pdx_derived(
    params: OscillatorParams, ep: EnergyPoint
) -> ActionResult:
    """Weakly relativistic quantum action assembled directly from residues.

    The x^(-1) coefficient of P0 + eps P1 is b2 + eps u_2, with u_2 taken
    from the correction-layer recurrence rather than the closed series.
    """
    require_weak_regime(ep, "quantum_action_wr_pdx_derived")
    p0, u = _wr_correction_layer(params, ep, n_coeffs=3)
    res = p0.coefficient(-1) + ep.epsilon * u[2]
    j = _real(1j * res)
    return ActionResult(
        j_value=j, scheme=SchemeTag.QUANTUM_WR_PDX, order_epsilon=1, e_point=ep
    )


# -- weakly relativistic, momentum form ---------------------------------------


def quantum_action_wr_xdp(params: OscillatorParams, ep: EnergyPoint) -> ActionResult:
    """Weakly relativistic quantum action, momentum form.

    J = e/omega0 - hbar/2 + (3 hbar/64)[1 + 4 e^2/(hbar omega0)^2] r with
    r = hbar omega0 / m c^2, evaluated in the hbar-safe form
    e/omega0 - hbar/2 + (3/(64 m c^2))(hbar^2 omega0 + 4 e^2/omega0).  It
    equals the quartic-anharmonic action under delta -> -k^2/(8 m c^2).
    """
    r = params.level_ratio
    if r > 0.1:
        warnings.warn(
            f"quantum_action_wr_xdp: hbar omega0/mc^2 = {r:.6g} > 0.1; "
            "first-order result is rough here",
            WeakRegimeWarning,
            stacklevel=2,
        )
    e, w0, hbar = ep.e_tilde, params.omega0, params.hbar
    j = e / w0 - hbar / 2.0 + (3.0 / (64.0 * params.rest_energy)) * (
        hbar * hbar * w0 + 4.0 * e * e / w0
    )
    return ActionResult(
        j_value=j, scheme=SchemeTag.QUANTUM_WR_XDP, order_epsilon=1, e_point=ep
    )


# -- spectra ------------------------------------------------------------------


def invert_action(j_of_e, n: int, params: OscillatorParams) -> float:
    """Energy solving J(E) = n hbar by bracketed root finding.

    The bracket starts at [0.5, 1.5] times the harmonic estimate
    (n + 1/2) hbar omega0 and expands geometrically if needed.
    """
    if n < 0:
        raise ParameterOutOfRange(f"n must be >= 0, got {n}")
    hbar = params.hbar
    target = n * hbar

    def f(e: float) -> float:
        return j_of_e(e) - target

    e0 = (n + 0.5) * hbar * params.omega0
    lo, hi = expand_bracket(f, 0.5 * e0, 1.5 * e0)
    if lo == hi:
        return lo
    return bracketed_root(f, lo, hi, f_tol=1e-12 * max(hbar, 1e-30), require_increasing=True)


def _flag_large_correction(correction: float, n: int, params: OscillatorParams, where: str) -> None:
    base = (n + 0.5) * params.hbar * params.omega0
    if base > 0 and abs(correction) > 0.2 * base:
        warnings.warn(
            f"{where}: first-order correction is {abs(correction) / base:.1%} of the "
            f"level at n = {n}; outside the expansion's trust region",
            WeakRegimeWarning,
            stacklevel=3,
        )


def eigenvalues_wr_pdx(params: OscillatorParams, n: int) -> SpectrumEntry:
    """Closed-form level of the coordinate-form relativistic spectrum.

    e_n = [(n + 1/2) - (3/16){(n + 5/3)^2 - 25/9} r] hbar omega0 with
    r = hbar omega0 / m c^2.
    """
    if n < 0:
        raise ParameterOutOfRange(f"n must be >= 0, got {n}")
    hw = params.hbar * params.omega0
    r = params.level_ratio
    correction = -(3.0 / 16.0) * ((n + 5.0 / 3.0) ** 2 - 25.0 / 9.0) * r * hw
    _flag_large_correction(correction, n, params, "eigenvalues_wr_pdx")
    return SpectrumEntry(
        n=n,
        energy=(n + 0.5) * hw + correction,
        scheme=SchemeTag.QUANTUM_WR_PDX,
        correction=correction,
    )


def eigenvalues_wr_xdp(params: OscillatorParams, n: int) -> SpectrumEntry:
    """Closed-form level of the momentum-form relativistic spectrum.

    e_n = [(n + 1/2) - (3/16) r {(n + 1/2)^2 + 4}] hbar omega0.
    """
    if n < 0:
        raise ParameterOutOfRange(f"n must be >= 0, got {n}")
    hw = params.hbar * params.omega0
    r = params.level_ratio
    correction = -(3.0 / 16.0) * r * ((n + 0.5) ** 2 + 4.0) * hw
    _flag_large_correction(correction, n, params, "eigenvalues_wr_xdp")
    return SpectrumEntry(
        n=n,
        energy=(n + 0.5) * hw + correction,
        scheme=SchemeTag.QUANTUM_WR_XDP,
        correction=correction,
    )


# -- quartic anharmonic oscillator --------------------------------------------


def _aho_smallness_check(params: OscillatorParams, e: float, delta: float) -> None:
    x2sq = 2.0 * e / params.k
    if abs(delta) * x2sq**2 > 0.2 * 0.5 * params.k * x2sq:
        warnings.warn(
            f"quartic term is not small inside the orbit: |delta| x2^4 = "
            f"{abs(delta) * x2sq**2:.3g} vs k x2^2/2 = {0.5 * params.k * x2sq:.3g}",
            WeakRegimeWarning,
            stacklevel=3,
        )


def aho_coeffs(
    params: OscillatorParams, e: float, delta: float
) -> tuple[float, float, float, float]:
    """Closed-form modifier coefficients (D0, D1, D2, lambda) of the
    quartic correction factor 1 + (delta/k) x^2 sum_l D_l (x2/x)^(2l).

    D0 = 1, D1 = 1 + lam, D2 = 1 - (3/2) lam + 2 lam^2 with
    lam = hbar omega0 / (4 e).
    """
    if e <= 0:
        raise NonPositiveEnergy(f"e must be > 0, got {e}")
    _aho_smallness_check(params, e, delta)
    lam = params.hbar * params.omega0 / (4.0 * e)
    return 1.0, 1.0 + lam, 1.0 - 1.5 * lam + 2.0 * lam * lam, lam


def aho_coeffs_derived(
    params: OscillatorParams, e: float, delta: float
) -> tuple[float, float, float, float]:
    """(D0, D1, D2, lambda) re-derived from the correction-layer recurrence.

    The delta^1 layer satisfies -i hbar P1' + 2 P0 P1 = -2 m x^4; its
    coefficients u_l determine the D_l through
    u_l = (1/k) sum_{j + l' = l + 1} b_j D_l' t^l' with t = x2^2.
    """
    if e <= 0:
        raise NonPositiveEnergy(f"e must be > 0, got {e}")
    p0, u = _aho_correction_layer(params, e)
    k = params.k
    t = 2.0 * e / k
    b1, b2, b3 = (p0.coefficient(1), p0.coefficient(-1), p0.coefficient(-3))
    d0 = k * u[0] / b1
    d1 = (k * u[1] - b2 * d0) / (b1 * t)
    d2 = (k * u[2] - b3 * d0 - b2 * d1 * t) / (b1 * t * t)
    lam = params.hbar * params.omega0 / (4.0 * e)
    return _real(d0), _real(d1), _real(d2), lam


def quantum_action_aho(params: OscillatorParams, e: float, delta: float) -> ActionResult:
    """Quartic-anharmonic quantum action to first order in delta.

    J = e/omega0 - hbar/2 - (3 delta / 32 m^2 omega0^3)(4 hbar^2 +
    16 e^2/omega0^2), the hbar-safe rewriting of the lambda form.
    """
    if e <= 0:
        raise NonPositiveEnergy(f"e must be > 0, got {e}")
    _aho_smallness_check(params, e, delta)
    ep = energy_point(params, e)
    m, w0, hbar = params.m, params.omega0, params.hbar
    j = (
        e / w0
        - hbar / 2.0
        - (3.0 * delta / (32.0 * m * m * w0**3)) * (4.0 * hbar * hbar + 16.0 * e * e / (w0 * w0))
    )
    return ActionResult(
        j_value=j, scheme=SchemeTag.QUANTUM_AHO_PDX, order_epsilon=1, e_point=ep
    )


def quantum_action_aho_residue(
    params: OscillatorParams, e: float, delta: float
) -> ActionResult:
    """Anharmonic action assembled from the x^(-1) residue b2 + delta u_2."""
    if e <= 0:
        raise NonPositiveEnergy(f"e must be > 0, got {e}")
    ep = energy_point(params, e)
    p0, u = _aho_correction_layer(params, e)
    j = _real(1j * (p0.coefficient(-1) + delta * u[2]))
    return ActionResult(
        j_value=j, scheme=SchemeTag.QUANTUM_AHO_PDX, order_epsilon=1, e_point=ep
    )


def eigenvalues_aho(params: OscillatorParams, delta: float, n: int) -> SpectrumEntry:
    """Closed-form quartic-anharmonic level to first order in delta.

    E_n = hbar omega0 [A + (3/2)(delta/k^2) hbar omega0 A^2] with
    A = n + 1/2 + (3/8)(delta/k^2) hbar omega0.
    """
    if n < 0:
        raise ParameterOutOfRange(f"n must be >= 0, got {n}")
    hw = params.hbar * params.omega0
    g = (delta / params.k**2) * hw
    a = n + 0.5 + (3.0 / 8.0) * g
    energy = hw * (a + 1.5 * g * a * a)
    correction = energy - (n + 0.5) * hw
    if hw > 0 and abs(correction) > 0.5 * hw:
        warnings.warn(
            f"eigenvalues_aho: first-order shift {correction:.3g} exceeds half a level "
            f"spacing at n = {n}",
            WeakRegimeWarning,
            stacklevel=2,
        )
    return SpectrumEntry(
        n=n, energy=energy, scheme=SchemeTag.QUANTUM_AHO_PDX, correction=correction
    )
