"""Truncated Laurent series about x = infinity over complex coefficients.

A series stores a finite map {power: coefficient}.  It is exact above its
lowest trusted power trunc_low: powers below trunc_low are *unknown*, not
zero, and trunc_low = None means the series is exact.  A coefficient is
dropped only when it is exactly zero or lies below trunc_low, never
because it is small.  Every operation propagates trunc_low, so a
coefficient read from a series, the residue included, is either provably
correct or refused with OrderInsufficient.

Residue convention: for a counterclockwise origin-centred circle,
(1/2pi) * contour integral of s dx = i * s.residue(), where s.residue()
is the coefficient of the power -1.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .core import OrderInsufficient, ParameterOutOfRange

__all__ = [
    "LaurentSeries",
    "binomial_sqrt",
    "sqrt_coefficients",
    "DEFAULT_EXTRA_ORDERS",
]

# Default resolution: keep 8 powers beyond the residue term, enough to see
# next-order behaviour in derived checks.
DEFAULT_EXTRA_ORDERS = 8


def _tighter(a: int | None, b: int | None) -> int | None:
    """The tighter of two lower trust bounds; None means exact."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _kept(terms: Iterable[tuple[int, complex]], trunc_low: int | None) -> dict[int, complex]:
    """The terms a series stores: those not exactly zero and not below trunc_low."""
    if trunc_low is None:
        return {p: c for p, c in terms if c != 0}
    return {p: c for p, c in terms if c != 0 and p >= trunc_low}


class LaurentSeries:
    """Immutable finite Laurent series with a trusted lower bound."""

    __slots__ = ("_coeffs", "trunc_low")

    def __init__(
        self, coeffs: Mapping[int, complex] | None = None, trunc_low: int | None = None
    ) -> None:
        self._coeffs = _kept(
            ((int(p), complex(c)) for p, c in (coeffs or {}).items()), trunc_low
        )
        self.trunc_low = trunc_low

    # -- construction helpers -------------------------------------------------

    @classmethod
    def term(cls, power: int, coeff: complex) -> "LaurentSeries":
        return cls({power: coeff})

    @classmethod
    def _of(cls, coeffs: dict[int, complex], trunc_low: int | None) -> "LaurentSeries":
        """The result of one of the class's own operations.

        Its powers are already ints and its coefficients already complex,
        so it skips the conversions of __init__ and keeps its filter.
        """
        s = cls.__new__(cls)
        s._coeffs = _kept(coeffs.items(), trunc_low)
        s.trunc_low = trunc_low
        return s

    # -- basic queries --------------------------------------------------------

    @property
    def coefficients(self) -> dict[int, complex]:
        return dict(self._coeffs)

    def coefficient(self, power: int) -> complex:
        """Coefficient of x**power; refuses a power below the trusted bound."""
        if self.trunc_low is not None and power < self.trunc_low:
            raise OrderInsufficient(
                f"power {power} lies below the trusted bound x^{self.trunc_low}"
            )
        return self._coeffs.get(power, 0.0 + 0.0j)

    @property
    def max_power(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    def max_abs(self) -> float:
        return max((abs(c) for c in self._coeffs.values()), default=0.0)

    def __repr__(self) -> str:
        body = " + ".join(
            f"({self._coeffs[p]:.6g})x^{p}" for p in sorted(self._coeffs, reverse=True)
        )
        trust = "exact" if self.trunc_low is None else f"trusted down to x^{self.trunc_low}"
        return f"LaurentSeries({body or '0'}, {trust})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, 0.0) + c
        return LaurentSeries._of(out, _tighter(self.trunc_low, other.trunc_low))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, 0.0) - c
        return LaurentSeries._of(out, _tighter(self.trunc_low, other.trunc_low))

    def scaled(self, factor: complex) -> "LaurentSeries":
        return LaurentSeries._of(
            {p: factor * c for p, c in self._coeffs.items()}, self.trunc_low
        )

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return _mul_series(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def shifted(self, powers: int) -> "LaurentSeries":
        """Multiply by x**powers."""
        return LaurentSeries._of(
            {p + powers: c for p, c in self._coeffs.items()},
            None if self.trunc_low is None else self.trunc_low + powers,
        )

    def derivative(self) -> "LaurentSeries":
        """Termwise power-rule derivative; the trusted bound shifts down."""
        out = {p - 1: p * c for p, c in self._coeffs.items() if p != 0}
        return LaurentSeries._of(out, None if self.trunc_low is None else self.trunc_low - 1)

    def truncated(self, low: int | None = None) -> "LaurentSeries":
        """Raise the trusted lower bound to low (never lowers it)."""
        return LaurentSeries._of(self._coeffs, _tighter(self.trunc_low, low))

    def residue(self) -> complex:
        """Coefficient of the power -1."""
        return self.coefficient(-1)


def _top_power(s: LaurentSeries) -> int:
    """Highest power s may hold: its top stored power, else the top of its
    unknown terms, trunc_low - 1; an exact zero counts as 0."""
    if s._coeffs:
        return max(s._coeffs)
    return 0 if s.trunc_low is None else s.trunc_low - 1


def _mul_series(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    # Unknown terms below one factor's bound multiply the top power of the
    # other, contaminating every power below the bound computed here.
    lo = None
    if a.trunc_low is not None:
        lo = a.trunc_low + _top_power(b)
    if b.trunc_low is not None:
        lo = _tighter(lo, b.trunc_low + _top_power(a))

    # Only pairs landing at or above lo are formed.  Each kept power sums
    # its pairs in the order of a's powers, as a full double loop would.
    floor = -math.inf if lo is None else lo
    out: dict[int, complex] = {}
    b_items = b._coeffs.items()
    for pa, ca in a._coeffs.items():
        need = floor - pa
        for pb, cb in b_items:
            if pb >= need:
                p = pa + pb
                out[p] = out.get(p, 0.0) + ca * cb
    return LaurentSeries._of(out, lo)


def sqrt_coefficients(order: int) -> list[float]:
    """Coefficients c_0..c_order of sqrt(1 - u) = sum_j c_j u^j.

    c_j = binom(1/2, j) (-1)^j by c_j = c_(j-1) (j - 3/2) / j, exact
    dyadic rationals while their numerators fit a double.
    """
    c = [1.0]
    for j in range(1, order + 1):
        c.append(c[-1] * (j - 1.5) / j)
    return c


def binomial_sqrt(u: LaurentSeries, order: int) -> LaurentSeries:
    """sqrt(1 - u) as sum_j binom(1/2, j) (-u)**j, j = 0..order.

    u must vanish at x = infinity: every stored power strictly negative.
    The omitted tail u**(order+1) sets the trusted bound of the result.
    """
    if order < 0:
        raise OrderInsufficient(f"order must be >= 0, got {order}")
    top = u.max_power
    if top is not None and top >= 0:
        raise ParameterOutOfRange(
            f"u has a term in x^{top}; sqrt(1-u) about infinity needs u -> 0"
        )

    one = LaurentSeries.term(0, 1.0)
    result = one
    u_pow = one
    for coeff in sqrt_coefficients(order)[1:]:
        u_pow = u_pow * u
        result = result + u_pow.scaled(coeff)

    if top is None:
        return result
    # Tail bound from the first omitted power of u.
    return result.truncated((order + 1) * top + 1)
