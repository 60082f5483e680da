"""Truncated Laurent series arithmetic over complex coefficients.

A series stores a finite map {power: coefficient}.  Powers outside the
trusted window [trunc_low, trunc_high] are *unknown*, not zero; a bound of
None means the series is exact on that side.  Every operation propagates
the trusted window, so a residue read from a series is either provably
correct or refused with OrderInsufficient.

Residue convention: for a counterclockwise origin-centred circle,
(1/2pi) * contour integral of s dx = i * s.residue(), where s.residue()
is the coefficient of the power -1.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

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

ZERO_TOL = 1e-12


def _lo_key(v):
    return -math.inf if v is None else v


def _hi_key(v):
    return math.inf if v is None else v


class LaurentSeries:
    """Immutable finite Laurent series with explicit truncation bookkeeping."""

    __slots__ = ("_coeffs", "trunc_low", "trunc_high")

    def __init__(
        self,
        coeffs: Mapping[int, complex] | None = None,
        trunc_low: int | None = None,
        trunc_high: int | None = None,
    ) -> None:
        cleaned: dict[int, complex] = {}
        if coeffs:
            scale = max((abs(c) for c in coeffs.values()), default=0.0)
            tol = ZERO_TOL * scale
            for p, c in coeffs.items():
                if abs(c) > tol:
                    if trunc_low is not None and p < trunc_low:
                        continue
                    if trunc_high is not None and p > trunc_high:
                        continue
                    cleaned[int(p)] = complex(c)
        self._coeffs = cleaned
        self.trunc_low = trunc_low
        self.trunc_high = trunc_high

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
        return self._coeffs.get(power, 0.0 + 0.0j)

    def __getitem__(self, power: int) -> complex:
        return self.coefficient(power)

    def powers(self) -> Iterator[int]:
        return iter(sorted(self._coeffs))

    @property
    def min_power(self) -> int | None:
        return min(self._coeffs) if self._coeffs else None

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
        window = f"[{self.trunc_low},{self.trunc_high}]"
        return f"LaurentSeries({body or '0'}, trusted {window})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, 0.0) + c
        lo = max(_lo_key(self.trunc_low), _lo_key(other.trunc_low))
        hi = min(_hi_key(self.trunc_high), _hi_key(other.trunc_high))
        return LaurentSeries(
            out,
            None if lo == -math.inf else int(lo),
            None if hi == math.inf else int(hi),
        )

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(
            {p: -c for p, c in self._coeffs.items()}, self.trunc_low, self.trunc_high
        )

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scaled(self, factor: complex) -> "LaurentSeries":
        return LaurentSeries(
            {p: factor * c for p, c in self._coeffs.items()},
            self.trunc_low,
            self.trunc_high,
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
            None if self.trunc_high is None else self.trunc_high + powers,
        )

    def derivative(self) -> "LaurentSeries":
        """Termwise power-rule derivative; the trusted window shifts down."""
        out = {p - 1: p * c for p, c in self._coeffs.items() if p != 0}
        return LaurentSeries(
            out,
            None if self.trunc_low is None else self.trunc_low - 1,
            None if self.trunc_high is None else self.trunc_high - 1,
        )

    def truncated(self, low: int | None = None, high: int | None = None) -> "LaurentSeries":
        """Restrict the trusted window (never widens it)."""
        lo = max(_lo_key(self.trunc_low), _lo_key(low))
        hi = min(_hi_key(self.trunc_high), _hi_key(high))
        return LaurentSeries(
            self._coeffs,
            None if lo == -math.inf else int(lo),
            None if hi == math.inf else int(hi),
        )

    def residue(self) -> complex:
        """Coefficient of the power -1; refuses if -1 is outside the window."""
        if (self.trunc_low is not None and self.trunc_low > -1) or (
            self.trunc_high is not None and self.trunc_high < -1
        ):
            raise OrderInsufficient(
                f"power -1 lies outside the trusted window "
                f"[{self.trunc_low}, {self.trunc_high}]"
            )
        return self.coefficient(-1)


def _mul_series(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    out: dict[int, complex] = {}
    for pa, ca in a._coeffs.items():
        for pb, cb in b._coeffs.items():
            p = pa + pb
            out[p] = out.get(p, 0.0) + ca * cb

    # Unknown terms of one factor (below/above its window) multiply the
    # stored extremes of the other, contaminating powers outside the bound
    # computed here.
    def eff_hi(s: LaurentSeries) -> float:
        if s.trunc_high is not None:
            return s.trunc_high
        return s.max_power if s._coeffs else 0

    def eff_lo(s: LaurentSeries) -> float:
        if s.trunc_low is not None:
            return s.trunc_low
        return s.min_power if s._coeffs else 0

    lo = -math.inf
    if a.trunc_low is not None:
        lo = max(lo, a.trunc_low + eff_hi(b))
    if b.trunc_low is not None:
        lo = max(lo, b.trunc_low + eff_hi(a))
    hi = math.inf
    if a.trunc_high is not None:
        hi = min(hi, a.trunc_high + eff_lo(b))
    if b.trunc_high is not None:
        hi = min(hi, b.trunc_high + eff_lo(a))
    return LaurentSeries(
        out,
        None if lo == -math.inf else int(lo),
        None if hi == math.inf else int(hi),
    )


def binomial_series(u: LaurentSeries, alpha: float, order: int) -> LaurentSeries:
    """(1 - u)**alpha as sum_j binom(alpha, j) (-u)**j, j = 0..order.

    u must vanish at the expansion point: all its powers strictly positive
    or all strictly negative, and no constant term.  The omitted tail
    u**(order+1) sets the trusted window of the result.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    tol = ZERO_TOL * max(u.max_abs(), 1.0)
    if abs(u.coefficient(0)) > tol:
        raise InvalidExpansionPoint("u has a constant term; (1-u)^alpha expansion needs u -> 0")
    powers = [p for p in u._coeffs]
    if powers and min(powers) < 0 < max(powers):
        raise InvalidExpansionPoint(
            "u mixes growing and vanishing powers; no single expansion point"
        )

    one = LaurentSeries.term(0, 1.0)
    result = one
    u_pow = one
    coeff = 1.0  # binom(alpha, j) * (-1)^j
    for j in range(1, order + 1):
        coeff *= -(alpha - (j - 1)) / j
        u_pow = u_pow * u
        result = result + u_pow.scaled(coeff)

    # Tail bound from the first omitted power of u.
    lo = result.trunc_low
    hi = result.trunc_high
    if powers:
        if max(powers) < 0:
            tail_top = (order + 1) * max(powers)
            lo = max(_lo_key(lo), tail_top + 1)
            lo = int(lo)
        else:
            tail_bottom = (order + 1) * min(powers)
            hi = min(_hi_key(hi), tail_bottom - 1)
            hi = int(hi)
    return LaurentSeries(result._coeffs, lo, hi)


def binomial_sqrt(u: LaurentSeries, order: int) -> LaurentSeries:
    """sqrt(1 - u) expanded to the given order in u."""
    return binomial_series(u, 0.5, order)
