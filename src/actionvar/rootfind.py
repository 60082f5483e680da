"""Scalar root finding for smooth monotone functions.

Secant (regula falsi) steps kept inside the current bracket, with
bisection whenever a step would leave it.  Regula falsi can stall on one
endpoint of a strongly curved function, so a root that has not converged
after max_iter iterations raises NotConverged instead of being
returned.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import NotConverged, ParameterOutOfRange

__all__ = ["bracketed_root", "expand_bracket"]


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    max_expansions: int = 60,
) -> tuple[float, float]:
    """Grow [lo, hi] geometrically until f changes sign across it."""
    flo, fhi = f(lo), f(hi)
    for _ in range(max_expansions):
        if flo == 0.0:
            return lo, lo
        if fhi == 0.0:
            return hi, hi
        if flo * fhi < 0:
            return lo, hi
        width = hi - lo
        lo = max(lo - width, lo * 0.5) if lo > 0 else lo - width
        hi = hi + width
        flo, fhi = f(lo), f(hi)
    raise ParameterOutOfRange(f"no sign change found in expanded bracket around [{lo}, {hi}]")


def bracketed_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_tol: float,
    x_tol: float = 0.0,
    max_iter: int = 200,
    require_increasing: bool = False,
) -> float:
    """Root of f in [lo, hi] with |f(root)| <= f_tol.

    With require_increasing, raises ParameterOutOfRange if f(lo) > f(hi).
    Raises NotConverged if neither tolerance is met after max_iter
    iterations.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if require_increasing and flo > fhi:
        raise ParameterOutOfRange("function decreases across the bracket")
    if flo * fhi > 0:
        raise ParameterOutOfRange(f"f({lo}) = {flo:.6g} and f({hi}) = {fhi:.6g} have equal sign")

    a, fa, b, fb = lo, flo, hi, fhi
    x, fx = a, fa
    for _ in range(max_iter):
        # secant proposal, clipped to the bracket interior
        if fb != fa:
            x = b - fb * (b - a) / (fb - fa)
        if not (a < x < b):
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) <= f_tol or (b - a) <= x_tol:
            return x
        if fa * fx < 0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if b - a <= max(abs(x), 1.0) * 4.0 * math.ulp(1.0):
            return x
    raise NotConverged(
        f"no root within f_tol = {f_tol:.3g} after {max_iter} iterations on "
        f"[{lo}, {hi}]: last iterate x = {x:.17g} has f = {fx:.6g}"
    )
