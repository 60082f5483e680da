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

from typing import Mapping

from .core import InvalidExpansionPoint, OrderInsufficient

__all__ = [
    "LaurentSeries",
    "binomial_sqrt",
    "binomial_series",
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


class LaurentSeries:
    """Immutable finite Laurent series with a trusted lower bound."""

    __slots__ = ("_coeffs", "trunc_low")

    def __init__(
        self, coeffs: Mapping[int, complex] | None = None, trunc_low: int | None = None
    ) -> None:
        self._coeffs = {
            int(p): complex(c)
            for p, c in (coeffs or {}).items()
            if c != 0 and (trunc_low is None or p >= trunc_low)
        }
        self.trunc_low = trunc_low

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentSeries":
        return cls({})

    @classmethod
    def term(cls, power: int, coeff: complex) -> "LaurentSeries":
        return cls({power: coeff})

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

    def __getitem__(self, power: int) -> complex:
        return self.coefficient(power)

    @property
    def max_power(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

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
        return LaurentSeries(out, _tighter(self.trunc_low, other.trunc_low))

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({p: -c for p, c in self._coeffs.items()}, self.trunc_low)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scaled(self, factor: complex) -> "LaurentSeries":
        return LaurentSeries(
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
        return LaurentSeries(
            {p + powers: c for p, c in self._coeffs.items()},
            None if self.trunc_low is None else self.trunc_low + powers,
        )

    def derivative(self) -> "LaurentSeries":
        """Termwise power-rule derivative; the trusted bound shifts down."""
        out = {p - 1: p * c for p, c in self._coeffs.items() if p != 0}
        return LaurentSeries(out, None if self.trunc_low is None else self.trunc_low - 1)

    def truncated(self, low: int | None = None) -> "LaurentSeries":
        """Raise the trusted lower bound to low (never lowers it)."""
        return LaurentSeries(self._coeffs, _tighter(self.trunc_low, low))

    def residue(self) -> complex:
        """Coefficient of the power -1."""
        return self.coefficient(-1)


def _mul_series(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    out: dict[int, complex] = {}
    for pa, ca in a._coeffs.items():
        for pb, cb in b._coeffs.items():
            p = pa + pb
            out[p] = out.get(p, 0.0) + ca * cb

    # Unknown terms below one factor's bound multiply the top stored power
    # of the other, contaminating every power below the bound computed here.
    lo = None
    if a.trunc_low is not None:
        lo = _tighter(lo, a.trunc_low + (b.max_power or 0))
    if b.trunc_low is not None:
        lo = _tighter(lo, b.trunc_low + (a.max_power or 0))
    return LaurentSeries(out, lo)


def binomial_series(u: LaurentSeries, alpha: float, order: int) -> LaurentSeries:
    """(1 - u)**alpha as sum_j binom(alpha, j) (-u)**j, j = 0..order.

    u must vanish at x = infinity: every stored power strictly negative.
    The omitted tail u**(order+1) sets the trusted bound of the result.
    """
    if order < 0:
        raise OrderInsufficient(f"order must be >= 0, got {order}")
    top = u.max_power
    if top is not None and top >= 0:
        raise InvalidExpansionPoint(
            f"u has a term in x^{top}; (1-u)^alpha about infinity needs u -> 0"
        )

    one = LaurentSeries.term(0, 1.0)
    result = one
    u_pow = one
    coeff = 1.0  # binom(alpha, j) * (-1)^j
    for j in range(1, order + 1):
        coeff *= -(alpha - (j - 1)) / j
        u_pow = u_pow * u
        result = result + u_pow.scaled(coeff)

    if top is None:
        return result
    # Tail bound from the first omitted power of u.
    return result.truncated((order + 1) * top + 1)


def binomial_sqrt(u: LaurentSeries, order: int) -> LaurentSeries:
    """sqrt(1 - u) expanded to the given order in u."""
    return binomial_series(u, 0.5, order)
