"""Independent brute-force references for the formula paths.

Three oracle families live here: RK4 trajectory integration for classical
periods, ladder-basis diagonalization for quantum spectra, and closed-form
perturbation theory.  None of them share code with the residue-based
calculations they validate.  The orbit (turning point, momentum, Hamilton's
equations) is plain float arithmetic on math; only the ladder basis builds
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .core import (
    EPSILON_HARD_LIMIT,
    BasisNotConverged,
    NotConverged,
    OscillatorParams,
    ParameterOutOfRange,
    SpectrumEntry,
)

__all__ = [
    "HamiltonianKind",
    "HamiltonianSpec",
    "rk4_period",
    "diagonalize",
    "jacobi_eigenvalues",
    "rs_shift_p4",
    "jwkb_levels_wr",
]

# numpy is imported only by the ladder-basis functions, which build arrays,
# so that importing this module and every classical path run without it.
if TYPE_CHECKING:
    import numpy as np


class HamiltonianKind(Enum):
    SHO = "sho"
    WEAK_REL = "weak-rel"
    FULL_REL = "full-rel"
    QUARTIC_AHO = "quartic-aho"


@dataclass(frozen=True)
class HamiltonianSpec:
    """A concrete Hamiltonian the oracles can integrate or diagonalize.

    kind selects the kinetic/potential content:
      SHO         H = p^2/2m + k x^2/2
      WEAK_REL    H = p^2/2m - p^4/8m^3c^2 + k x^2/2
      FULL_REL    H = sqrt(p^2 c^2 + m^2 c^4) + k x^2/2   (energy above rest)
      QUARTIC_AHO H = p^2/2m + k x^2/2 + delta x^4
    delta is meaningful only for QUARTIC_AHO, and must be finite.
    """

    kind: HamiltonianKind
    params: OscillatorParams
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta):
            raise ParameterOutOfRange(f"delta must be finite, got {self.delta}")
        if self.delta != 0.0 and self.kind is not HamiltonianKind.QUARTIC_AHO:
            raise ParameterOutOfRange("delta is only meaningful for the quartic oscillator")

    def potential(self, x: float) -> float:
        v = 0.5 * self.params.k * x * x
        if self.delta:  # x**4 overflows past x ~ 1e77, so it is formed only when it counts
            v += self.delta * x**4
        return v

    def energy(self, x: float, p: float) -> float:
        """Mechanical energy above rest at the phase-space point (x, p)."""
        m, c = self.params.m, self.params.c
        if self.kind is HamiltonianKind.FULL_REL:
            # sqrt(p^2 c^2 + m^2 c^4) - m c^2 = p^2 / (m (1 + sqrt(1 + (p/mc)^2))),
            # without cancellation and finite for any c
            kinetic = p * (p / (m * (1.0 + math.hypot(1.0, p / (m * c)))))
        elif self.kind is HamiltonianKind.WEAK_REL:
            # p^2/2m - p^4/8m^3c^2 with no p^4, which overflows past p ~ 1e77
            q = p / (m * c)
            kinetic = p * p / (2 * m) * (1.0 - 0.25 * q * q)
        else:
            kinetic = p * p / (2 * m)
        return kinetic + self.potential(x)

    def flow(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """Hamilton's equations as the pair (velocity(p), force(x)).

        H is separable, so dx/dt = dH/dp depends on p alone and
        dp/dt = -dH/dx on x alone; each closure binds its constants once.
        """
        m, c, k = self.params.m, self.params.c, self.params.k
        if self.kind is HamiltonianKind.FULL_REL:
            # p / (m sqrt(1 + (p/mc)^2)), finite for any c
            mc = m * c
            velocity = lambda p: p / (m * math.hypot(1.0, p / mc))
        elif self.kind is HamiltonianKind.WEAK_REL:
            quartic = 2 * m**3 * c * c
            velocity = lambda p: p / m - p * p * p / quartic
        else:
            velocity = lambda p: p / m
        minus_k = -k
        if self.kind is HamiltonianKind.QUARTIC_AHO:
            cubic = 4 * self.delta
            force = lambda x: minus_k * x - cubic * x * x * x
        else:
            force = lambda x: minus_k * x
        return velocity, force

    def turning_point(self, e_tilde: float) -> float:
        """Positive turning point x2 with V(x2) = e_tilde; WEAK_REL needs e_tilde < m c^2/2."""
        if not 0.0 < e_tilde < math.inf:
            raise ParameterOutOfRange(f"e_tilde must be finite and > 0, got {e_tilde}")
        weak_rel = self.kind is HamiltonianKind.WEAK_REL
        if weak_rel and e_tilde >= EPSILON_HARD_LIMIT * self.params.rest_energy:
            raise ParameterOutOfRange(
                f"e_tilde = {e_tilde} >= m c^2 / 2: the weak-relativistic orbit does not close"
            )
        k = self.params.k
        if self.kind is HamiltonianKind.QUARTIC_AHO:
            disc = k * k / 4 + 4 * self.delta * e_tilde
            if disc < 0:
                raise ParameterOutOfRange(
                    f"no turning point: delta = {self.delta} turns the potential over "
                    f"below e_tilde = {e_tilde}"
                )
            # root continuous in delta -> 0, written cancellation-free
            x2sq = 2 * e_tilde / (k / 2 + math.sqrt(disc))
            return math.sqrt(x2sq)
        return math.sqrt(2 * e_tilde / k)

    def orbit_momentum(self, e_tilde: float) -> Callable[[float], float]:
        """Classical momentum magnitude p(x) on the orbit of energy e_tilde.

        The returned function maps a float x to a float p, with the orbit's
        constants bound once for a loop over many x, like
        action_quadrature's 65,520 nodes at its cap.  An x outside the
        orbit by more than the rounding tolerance 1e-12 max(e_tilde, 1) is
        refused, and one within it gets p = 0.
        """
        m, c = self.params.m, self.params.c
        half_k, delta = 0.5 * self.params.k, self.delta
        outside = -1e-12 * max(e_tilde, 1.0)
        if self.kind is HamiltonianKind.FULL_REL:
            # sqrt(2 m w + (w/c)^2), finite for any c
            two_m = 2 * m
            of_w = lambda w: math.hypot(math.sqrt(two_m * w), w / c)
        elif self.kind is HamiltonianKind.WEAK_REL:
            # smaller root of p^4 - 4m^2c^2 p^2 + 8m^3c^2 w = 0
            four_m, rest = 4 * m, m * c * c

            def of_w(w: float) -> float:
                q = 1.0 - 2 * w / rest
                if q < 0:
                    raise ParameterOutOfRange(
                        f"weak-relativistic momentum undefined: e - V = {w} exceeds m c^2 / 2"
                    )
                return math.sqrt(four_m * w / (1 + math.sqrt(q)))

        else:
            two_m = 2 * m
            of_w = lambda w: math.sqrt(two_m * w)

        def of_x(x: float) -> float:
            # potential(x), inlined: a call per node costs more than its arithmetic
            v = half_k * x * x
            if delta:
                v += delta * x**4
            w = e_tilde - v
            if w <= 0.0:
                if w <= outside:
                    raise ParameterOutOfRange(
                        f"x = {x} is outside the orbit at e_tilde = {e_tilde}"
                    )
                w = 0.0
            return of_w(w)

        return of_x


# -- trajectory oracle --------------------------------------------------------


def _hermite_crossing(
    t0: float, dt: float, p0: float, p1: float, d0: float, d1: float
) -> float:
    """Zero of the cubic Hermite interpolant of p on [t0, t0+dt].

    Assumes p0 < 0 <= p1 (an up-crossing somewhere inside the step).
    """

    def h(s: float) -> float:
        s2, s3 = s * s, s * s * s
        return (
            (2 * s3 - 3 * s2 + 1) * p0
            + (s3 - 2 * s2 + s) * dt * d0
            + (-2 * s3 + 3 * s2) * p1
            + (s3 - s2) * dt * d1
        )

    a, b = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (a + b)
        if h(mid) < 0:
            a = mid
        else:
            b = mid
    return t0 + 0.5 * (a + b) * dt


# steps per rk4_period attempt: t_max (8 harmonic periods) at the default dt
# after its 6 halvings; a half orbit normally takes a sixteenth of that
_MAX_STEPS = 8 * 2000 * 2**6


def rk4_period(spec: HamiltonianSpec, e_tilde: float, dt: float | None = None) -> float:
    """Orbital period by direct integration of Hamilton's equations.

    Starts at the turning point (x2, 0), where p(t) crosses zero downwards
    exactly at t = 0, and integrates half an orbit, to the first
    up-crossing of p at the opposite turning point; that crossing is
    refined by inverse cubic Hermite interpolation and the period is
    twice its time.  For any H even in p, the time-reversal map
    (x, p, t) -> (x, -p, -t) carries the outbound half of the orbit onto
    the return half, so the two halves take equal times; V need not be
    even in x (Hairer, Lubich & Wanner, Geometric Numerical Integration,
    2nd ed. (2006), section V.1).  Runs with relative energy drift above
    1e-9 are rejected and retried with a halved step, up to 6 times.  dt
    must be finite and positive, and no attempt may integrate for more
    than 1,024,000 steps, the number the default dt reaches after 6
    halvings.
    """
    t0_guess = 2 * math.pi / spec.params.omega0
    t_max = 8.0 * t0_guess
    min_dt = t_max / _MAX_STEPS
    if dt is None:
        dt = t0_guess / 2000.0
    if not 0.0 < dt < math.inf:
        raise ParameterOutOfRange(f"dt must be finite and > 0, got {dt}")
    if dt < min_dt:
        raise ParameterOutOfRange(
            f"dt = {dt:.3g} needs more than {_MAX_STEPS} steps to reach t = {t_max:.4g}"
        )
    x2 = spec.turning_point(e_tilde)

    velocity, force = spec.flow()
    for halvings in range(7):
        x, p = x2, 0.0
        t = 0.0
        half = 0.5 * dt
        # f is dp/dt at the start of the step, which is both RK4's k1p and
        # the start slope of the Hermite refinement; each step's end force
        # becomes the next step's f
        f = force(x)
        while t < t_max:
            k1x = velocity(p)
            k2x = velocity(p + half * f)
            k2p = force(x + half * k1x)
            k3x = velocity(p + half * k2p)
            k3p = force(x + half * k2x)
            k4x = velocity(p + dt * k3p)
            k4p = force(x + dt * k3x)
            xn = x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6
            pn = p + dt * (f + 2 * k2p + 2 * k3p + k4p) / 6
            f_next = force(xn)
            if p < 0.0 <= pn:
                break
            x, p, t, f = xn, pn, t + dt, f_next
        else:
            raise NotConverged(f"no momentum up-crossing after t = 0 within t = {t_max:.4g}")
        drift = abs(spec.energy(xn, pn) - e_tilde) / e_tilde
        if drift <= 1e-9:
            return 2.0 * _hermite_crossing(t, dt, p, pn, f, f_next)
        if halvings == 6 or 0.5 * dt < min_dt:
            break
        dt *= 0.5
    raise NotConverged(
        f"relative energy drift {drift:.3g} > 1e-9 at dt = {dt:.3g} after {halvings} "
        f"step halvings, the most that 6 halvings and {_MAX_STEPS} steps allow"
    )


# -- spectral oracle ----------------------------------------------------------


def _hamiltonian_matrix(spec: HamiltonianSpec, n: int) -> np.ndarray:
    """H / hbar omega0 in the lowest n harmonic-oscillator states |j>, band by band.

    H / hbar omega0 is j + 1/2 on the diagonal plus a q^4 / s^2, with q = p,
    s = m hbar omega0 / 2 and a = -(hbar omega0 / m c^2) / 32 for WEAK_REL
    and q = x, s = hbar / 2 m omega0 and a = (delta / k)(hbar omega0 / k) / 4
    for QUARTIC_AHO, so no power of m, c, k or hbar omega0 that could
    underflow is formed.  Ladder algebra gives q^4 three bands and their
    mirror images,
      <j|q^4|j>   = s^2 (6j^2 + 6j + 3),
      <j+2|q^4|j> = +-s^2 (4j + 6) sqrt((j+1)(j+2)), minus for q = p,
      <j+4|q^4|j> = s^2 sqrt((j+1)(j+2)(j+3)(j+4)),
    so every entry is exact: the matrix is H projected onto those states.
    """
    import numpy as np

    if spec.kind is HamiltonianKind.FULL_REL:
        raise ParameterOutOfRange(
            "the square-root kinetic operator has no finite ladder-band representation"
        )
    params = spec.params
    if spec.kind is HamiltonianKind.WEAK_REL:
        a, sign = -params.level_ratio / 32, -1.0
    elif spec.kind is HamiltonianKind.QUARTIC_AHO:
        a, sign = spec.delta / params.k * (params.hbar * params.omega0 / params.k) / 4, 1.0
    else:
        a, sign = 0.0, 1.0
    j = np.arange(n, dtype=float)
    h = np.diag(j + 0.5 + a * (6 * j * j + 6 * j + 3))
    j2, j4 = j[:-2], j[:-4]
    band2 = sign * a * (4 * j2 + 6) * np.sqrt((j2 + 1) * (j2 + 2))
    band4 = a * np.sqrt((j4 + 1) * (j4 + 2) * (j4 + 3) * (j4 + 4))
    i = np.arange(n)
    h[i[2:], i[:-2]] = h[i[:-2], i[2:]] = band2
    h[i[4:], i[:-4]] = h[i[:-4], i[4:]] = band4
    return h


_MAX_SWEEPS = 60


def jacobi_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by threshold cyclic Jacobi.

    Sweeps rotate away each off-diagonal pair in turn until the
    off-diagonal Frobenius norm drops below 1e-12 times the diagonal scale.
    diagonalize does not call it: it is the independent reference that the
    parity-block solver is tested against.
    """
    import numpy as np

    a = np.array(mat, dtype=float, copy=True)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    scale = max(1.0, float(np.abs(np.diag(a)).max()))
    target = 1e-12 * scale
    skip = target / n
    for _sweep in range(_MAX_SWEEPS):
        off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
        if off <= target:
            return np.sort(np.diag(a).copy())
        for p in range(n - 1):
            row = a[p, p + 1 :]
            hot = np.nonzero(np.abs(row) > skip)[0]
            for q0 in hot:
                q = p + 1 + int(q0)
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                cth = 1.0 / math.sqrt(t * t + 1.0)
                sth = t * cth
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = cth * rp - sth * rq
                a[q, :] = sth * rp + cth * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = cth * cp - sth * cq
                a[:, q] = sth * cp + cth * cq
                a[p, q] = a[q, p] = 0.0
    raise NotConverged(
        f"off-diagonal norm {off:.3g} still above {target:.3g} after {_MAX_SWEEPS} sweeps"
    )


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of Q^T A Q, tridiagonal, for a real symmetric A.

    Householder reflections (Golub & Van Loan, Matrix Computations, 4th ed.
    (2013), section 8.3.1).  A column whose entries stop short of the last
    row, as in a banded A, reflects only over its nonzero part.
    """
    import numpy as np

    a = np.array(a, dtype=float, copy=True)
    m = a.shape[0]
    off = np.zeros(m - 1)
    for j in range(m - 1):
        x = a[j + 1 :, j]
        nonzero = x.nonzero()[0]
        r = int(nonzero[-1]) + 1 if nonzero.size else 0
        if r <= 1:  # already tridiagonal in this column
            off[j] = x[0]
            continue
        v = x[:r].copy()
        # sqrt(v . v) is numpy.linalg.norm's own formula for a real vector;
        # where the squares underflow, v is scaled by an exact 2^600 first
        vv, unscale = v.dot(v), 1.0
        if vv < 2.0**-1022:
            v *= 2.0**600
            vv, unscale = v.dot(v), 2.0**-600
        alpha = -math.copysign(math.sqrt(vv), v[0])
        v[0] -= alpha
        v /= math.sqrt(v.dot(v))
        # A <- H A H with H = I - 2 v v^T is A - v w^T - w v^T,
        # where p = A v and w = 2 (p - (v . p) v)
        sub = a[j + 1 :, j + 1 :]
        w = sub[:, :r] @ v
        w[:r] -= (v @ w[:r]) * v
        w *= 2.0
        sub[:r, :] -= v[:, None] * w
        sub[:, :r] -= w[:, None] * v
        off[j] = alpha * unscale
    return np.diag(a).copy(), off


def _sturm(diag: np.ndarray, off: np.ndarray) -> tuple[Callable, Callable]:
    """Sturm count and level generator of a symmetric tridiagonal matrix.

    count(x) is the number of negative pivots of T - x I = L D L^T, the
    number of eigenvalues below x (Barth, Martin & Wilkinson, Numer. Math.
    9, 386 (1967)).  levels(k) yields the lowest k eigenvalues, ascending,
    each bisected on the count from the Gershgorin interval until the
    midpoint meets an endpoint.  Every count also tightens the upper bounds
    of the later levels, and each level starts from the lower end of the
    one before.
    """
    import numpy as np

    m = len(diag)
    radius = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    gl = float(np.min(diag - radius))
    gu = float(np.max(diag + radius))
    e2 = (off * off).tolist()
    max_e2 = max(e2, default=0.0)
    # LAPACK's pivmin: a zero pivot becomes -pivmin, which no e_i^2 / pivmin overflows
    pivmin = max(1.0, max_e2) * 2.0**-1022
    pad = 2.1 * (m * math.ulp(1.0) * max(abs(gl), abs(gu)) + 2.0 * pivmin)
    gl, gu = gl - pad, gu + pad
    if not (math.isfinite(gl) and math.isfinite(gu) and math.isfinite(max_e2)):
        raise NotConverged(
            f"eigensolve overflowed: the tridiagonal form of a {m}-state block is not finite"
        )
    rows = list(zip(diag.tolist(), [0.0] + e2))

    def count_below(x: float) -> int:
        count, q = 0, 1.0
        for d, b2 in rows:
            q = (d - x) - b2 / q
            if q <= 0.0:
                count += 1
                if q == 0.0:
                    q = -pivmin
        return count

    def levels(k: int):
        k = min(k, m)
        upper = [gu] * k
        lo = gl
        for j in range(k):
            hi = upper[j]
            while True:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                count = count_below(mid)
                if count > j:
                    hi = mid
                    for i in range(j + 1, min(count, k)):
                        upper[i] = mid
                else:
                    lo = mid
            yield mid

    return count_below, levels


def _lowest_eigenvalues(h: np.ndarray, n_levels: int, blocks: list | None = None) -> np.ndarray:
    """Lowest n_levels eigenvalues of a _hamiltonian_matrix, ascending.

    Every kind _hamiltonian_matrix accepts is even in x and in p, so H
    couples |n> only to |n +- 2> and |n +- 4>: the even states and the odd
    states form two blocks that never couple.  Each block is brought to
    tridiagonal form, and the two blocks' levels are bisected in ascending
    order and merged until n_levels are found, so at most n_levels + 1 are
    bisected, and none for n_levels = 0.  A list passed as blocks receives,
    for each block, its Sturm count, its level generator and its levels
    among those returned.
    """
    import heapq
    from itertools import islice, repeat

    import numpy as np

    sturms = [_sturm(*_tridiagonalize(block)) for block in (h[0::2, 0::2], h[1::2, 1::2])]
    tagged = [zip(levels(n_levels), repeat(b)) for b, (_, levels) in enumerate(sturms)]
    lowest = list(islice(heapq.merge(*tagged), n_levels))
    if blocks is not None:
        blocks += [(*s, [v for v, owner in lowest if owner == b]) for b, s in enumerate(sturms)]
    return np.array([v for v, _ in lowest])


def diagonalize(
    spec: HamiltonianSpec,
    basis_size: int,
    n_levels: int,
    certify: bool = True,
    max_basis: int = 1024,
) -> np.ndarray:
    """Lowest eigenvalues of spec in the harmonic-oscillator eigenbasis.

    Convergence is certified by doubling the basis, at most to max_basis,
    until every requested level moves by less than 1e-10 relative; the
    certified values are returned.  A parity block is the leading block of
    the same block at a larger basis, so by Cauchy interlacing (Parlett,
    The Symmetric Eigenvalue Problem (1998), section 10.1) its j-th level
    only falls as the basis grows.  One Sturm count on the smaller basis
    thus certifies each level lambda_j of the larger one: its block there
    holds at least j + 1 levels below lambda_j + 1e-10 |lambda_j|.  Only a
    refusal bisects the smaller basis, to state how far the levels moved.
    The levels are solved in units of hbar omega0 and scaled back on return.
    """
    import heapq
    from itertools import islice

    import numpy as np

    if n_levels < 1:
        raise ParameterOutOfRange(f"n_levels must be >= 1, got {n_levels}")
    if basis_size < 4 * n_levels:
        raise ParameterOutOfRange(
            f"basis_size = {basis_size} < 4 * n_levels = {4 * n_levels}"
        )
    if certify and basis_size >= max_basis:
        raise BasisNotConverged(
            f"basis_size = {basis_size} leaves no doubling below max_basis = {max_basis} "
            "to certify convergence"
        )
    hw = spec.params.hbar * spec.params.omega0
    # _sturm refuses a matrix whose entries or their squares overflow, so
    # numpy's overflow and invalid-value warnings on the way say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        if not certify:
            return hw * _lowest_eigenvalues(_hamiltonian_matrix(spec, basis_size), n_levels)
        size, bigger = basis_size, []
        _lowest_eigenvalues(_hamiltonian_matrix(spec, size), 0, bigger)  # counts, no levels
        while size < max_basis:
            smaller, bigger = bigger, []
            size = min(2 * size, max_basis)
            vals = _lowest_eigenvalues(_hamiltonian_matrix(spec, size), n_levels, bigger)
            if all(
                count(v + 1e-10 * max(abs(v), 1e-300)) > j
                for (count, _, _), (_, _, found) in zip(smaller, bigger)
                for j, v in enumerate(found)
            ):
                return hw * vals
        before = islice(heapq.merge(*(levels(n_levels) for _, levels, _ in smaller)), n_levels)
        move = np.max(np.abs(vals - list(before)) / np.maximum(np.abs(vals), 1e-300))
    raise BasisNotConverged(
        f"eigenvalues still moving by {move:.3g} relative at basis {size}"
    )


# -- perturbation-theory oracles ----------------------------------------------


def rs_shift_p4(params: OscillatorParams, n: int) -> float:
    """First-order level shift of the p^4 perturbation.

    Closed form -(3/16) hbar omega0 [(n+1/2)^2 + 1/4] (hbar omega0 / m c^2),
    the value of -<n|p^4|n> / 8 m^3 c^2.  Tests check it against the
    WEAK_REL Hamiltonian matrix's diagonal less (n + 1/2) hbar omega0.
    """
    if n < 0:
        raise ParameterOutOfRange(f"n must be >= 0, got {n}")
    hw = params.hbar * params.omega0
    return -(3.0 / 16.0) * hw * ((n + 0.5) ** 2 + 0.25) * params.level_ratio


def jwkb_levels_wr(params: OscillatorParams, n: int) -> SpectrumEntry:
    """Semiclassical level from discretizing the weak-relativistic action.

    Solves (e/omega0) [1 + 3 eps / 16] = (n + 1/2) hbar for e, where
    eps = e / m c^2.  With e0 = (n + 1/2) hbar omega0 and
    s = sqrt(1 + (3/4) e0 / m c^2), the root of this quadratic is
    e = 2 e0 / (1 + s), and the correction e - e0 is formed without
    cancellation as -(3/4) e0^2 / (m c^2 (1 + s)^2).
    """
    if n < 0:
        raise ParameterOutOfRange(f"n must be >= 0, got {n}")
    mc2 = params.rest_energy
    e0 = (n + 0.5) * params.hbar * params.omega0
    s = math.sqrt(1.0 + 0.75 * e0 / mc2)
    return SpectrumEntry(2.0 * e0 / (1.0 + s), -0.75 * e0 * e0 / (mc2 * (1.0 + s) ** 2))
