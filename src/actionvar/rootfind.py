"""Scalar root finding for smooth increasing functions.

The bracket grows geometrically until f changes sign across it; then
secant (regula falsi) steps are kept inside the current bracket, with
bisection whenever a step would leave it.  Regula falsi can stall on one
endpoint of a strongly curved function, so a root that has not converged
after MAX_ITER iterations raises NotConverged instead of being returned.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import NotConverged, ParameterOutOfRange

__all__ = ["increasing_root"]

MAX_EXPANSIONS = 60
MAX_ITER = 200


def increasing_root(f: Callable[[float], float], lo: float, hi: float, f_tol: float) -> float:
    """Root of the increasing function f near [lo, hi] with |f(root)| <= f_tol.

    Raises ParameterOutOfRange if no sign change turns up within
    MAX_EXPANSIONS expansions or if f decreases across the bracket, and
    NotConverged if the tolerance is not met after MAX_ITER iterations.
    """
    flo, fhi = f(lo), f(hi)
    for _ in range(MAX_EXPANSIONS):
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi < 0:
            break
        width = hi - lo
        lo = max(lo - width, lo * 0.5) if lo > 0 else lo - width
        hi = hi + width
        flo, fhi = f(lo), f(hi)
    else:
        raise ParameterOutOfRange(f"no sign change found in expanded bracket around [{lo}, {hi}]")
    if flo > fhi:
        raise ParameterOutOfRange("function decreases across the bracket")

    a, fa, b, fb = lo, flo, hi, fhi
    x, fx = a, fa
    for _ in range(MAX_ITER):
        # secant proposal, clipped to the bracket interior
        if fb != fa:
            x = b - fb * (b - a) / (fb - fa)
        if not (a < x < b):
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) <= f_tol:
            return x
        if fa * fx < 0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if b - a <= max(abs(x), 1.0) * 4.0 * math.ulp(1.0):
            return x
    raise NotConverged(
        f"no root within f_tol = {f_tol:.3g} after {MAX_ITER} iterations on "
        f"[{lo}, {hi}]: last iterate x = {x:.17g} has f = {fx:.6g}"
    )
