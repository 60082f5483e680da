"""Scalar root finding for smooth increasing functions.

The search starts at the caller's guess with one Newton step on the
caller's slope, then takes secant steps through the two latest points
until f changes sign.  A step too short to change f in floats is taken
and the next one grown, by 2, 4, 16, 256, ... times, so ten such steps
cross 300 decades.  Inside the bracket that sign change gives, it
takes Illinois steps (Dowell & Jarratt, BIT 11, 168 (1971)): regula falsi
whose retained end has its value halved whenever the same end is kept
twice running, so a strongly curved function cannot stall the bracket on
one end.  A root that has not converged after MAX_ITER bracketed steps
raises NotConverged instead of being returned.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import NotConverged, ParameterOutOfRange

__all__ = ["increasing_root"]

MAX_EXPANSIONS = 60
MAX_ITER = 200


def _finite(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if not math.isfinite(fx):
        raise ParameterOutOfRange(f"function is not finite at x = {x!r}: f = {fx}")
    return fx


def increasing_root(
    f: Callable[[float], float], guess: float, slope: float, f_tol: float
) -> float:
    """Root of the increasing function f near guess with |f(root)| <= f_tol.

    slope estimates f' at guess and sets the first (Newton) step.  A step
    left from a positive point stops at half that point, so a positive
    domain is never left.

    Raises ParameterOutOfRange if slope is not finite and positive, if f is
    not finite at a trial point, if f decreases between two trial points,
    or if no sign change turns up within MAX_EXPANSIONS steps; NotConverged
    if the tolerance is not met after MAX_ITER bracketed steps.
    """
    if not (math.isfinite(slope) and slope > 0):
        raise ParameterOutOfRange(f"slope must be finite and > 0, got {slope}")
    x, fx = guess, _finite(f, guess)
    if abs(fx) <= f_tol:
        return x
    step = -fx / slope
    grow = 2.0
    for _ in range(MAX_EXPANSIONS):
        x_new = x + step
        if x > 0:
            x_new = max(x_new, 0.5 * x)
        if x_new == x:
            x_new = math.nextafter(x, -math.copysign(math.inf, fx))
        if not math.isfinite(x_new):
            break
        f_new = _finite(f, x_new)
        if abs(f_new) <= f_tol:
            return x_new
        if f_new == fx:
            # f did not move in floats: the step is too short to measure a slope
            step = (x_new - x) * grow
            grow *= grow
            x = x_new
            continue
        slope = (f_new - fx) / (x_new - x)
        if not slope > 0:
            raise ParameterOutOfRange(
                f"function decreases between x = {x!r} and x = {x_new!r}"
            )
        if (f_new > 0) != (fx > 0):
            return _illinois(f, *sorted([(x, fx), (x_new, f_new)]), f_tol)
        x, fx = x_new, f_new
        step = -fx / slope
        grow = 2.0
    raise ParameterOutOfRange(
        f"no sign change found from {guess!r}: the search stopped at x = {x!r}, f = {fx:.6g}"
    )


def _illinois(
    f: Callable[[float], float], lo: tuple[float, float], hi: tuple[float, float], f_tol: float
) -> float:
    """Root in the bracket lo = (a, f(a) < 0), hi = (b, f(b) > 0)."""
    (a, fa), (b, fb) = lo, hi
    kept = 0  # -1 or +1 when the last step kept a or b
    for _ in range(MAX_ITER):
        x = b - fb * (b - a) / (fb - fa)
        if not (a < x < b):
            x = 0.5 * (a + b)
        fx = _finite(f, x)
        if abs(fx) <= f_tol:
            return x
        if fx < 0:
            a, fa = x, fx
            if kept == +1:
                fb *= 0.5
            kept = +1
        else:
            b, fb = x, fx
            if kept == -1:
                fa *= 0.5
            kept = -1
        if b - a <= max(abs(x), 1.0) * 4.0 * math.ulp(1.0):
            return x
    raise NotConverged(
        f"no root within f_tol = {f_tol:.3g} after {MAX_ITER} iterations on "
        f"[{lo[0]}, {hi[0]}]: last iterate x = {x:.17g} has f = {fx:.6g}"
    )
