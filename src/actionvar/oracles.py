"""Independent brute-force references for the formula paths.

Three oracle families live here: RK4 trajectory integration for classical
periods, ladder-basis diagonalization for quantum spectra, and closed-form
perturbation theory.  None of them share code with the residue-based
calculations they validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import (
    BasisNotConverged,
    EigensolverStalled,
    EnergyDriftExceeded,
    NoClassicalRegion,
    NonPositiveEnergy,
    NoPeriodFound,
    OscillatorParams,
    ParameterOutOfRange,
    SchemeTag,
    SpectrumEntry,
    UnknownForm,
)
from .rootfind import bracketed_root, expand_bracket

__all__ = [
    "HamiltonianKind",
    "HamiltonianSpec",
    "rk4_period",
    "diagonalize",
    "jacobi_eigenvalues",
    "ladder_matrix",
    "rs_shift_p4",
    "p4_expectation",
    "jwkb_levels_wr",
]


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
    delta is meaningful only for QUARTIC_AHO.
    """

    kind: HamiltonianKind
    params: OscillatorParams
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.delta != 0.0 and self.kind is not HamiltonianKind.QUARTIC_AHO:
            raise ParameterOutOfRange("delta is only meaningful for the quartic oscillator")

    def potential(self, x: float) -> float:
        v = 0.5 * self.params.k * x * x
        if self.kind is HamiltonianKind.QUARTIC_AHO:
            v += self.delta * x**4
        return v

    def energy(self, x: float, p: float) -> float:
        """Mechanical energy above rest at the phase-space point (x, p)."""
        m, c = self.params.m, self.params.c
        if self.kind is HamiltonianKind.FULL_REL:
            # sqrt(p^2 c^2 + m^2 c^4) - m c^2 without cancellation
            pc2 = (p * c) ** 2
            kinetic = pc2 / (math.sqrt(pc2 + (m * c * c) ** 2) + m * c * c)
        elif self.kind is HamiltonianKind.WEAK_REL:
            kinetic = p * p / (2 * m) - p**4 / (8 * m**3 * c * c)
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
            rest_sq = (m * c * c) ** 2
            velocity = lambda p: p * c * c / math.sqrt(p * p * c * c + rest_sq)
        elif self.kind is HamiltonianKind.WEAK_REL:
            quartic = 2 * m**3 * c * c
            velocity = lambda p: p / m - p**3 / quartic
        else:
            velocity = lambda p: p / m
        minus_k = -k
        if self.kind is HamiltonianKind.QUARTIC_AHO:
            cubic = 4 * self.delta
            force = lambda x: minus_k * x - cubic * x**3
        else:
            force = lambda x: minus_k * x
        return velocity, force

    def turning_point(self, e_tilde: float) -> float:
        """Positive turning point x2 with V(x2) = e_tilde."""
        if e_tilde <= 0:
            raise NonPositiveEnergy(f"e_tilde must be > 0, got {e_tilde}")
        k = self.params.k
        if self.kind is HamiltonianKind.QUARTIC_AHO:
            disc = k * k / 4 + 4 * self.delta * e_tilde
            if disc < 0:
                raise NoClassicalRegion(
                    f"no turning point: delta = {self.delta} turns the potential over "
                    f"below e_tilde = {e_tilde}"
                )
            # root continuous in delta -> 0, written cancellation-free
            x2sq = 2 * e_tilde / (k / 2 + math.sqrt(disc))
            return math.sqrt(x2sq)
        return math.sqrt(2 * e_tilde / k)

    def momentum(self, x: float | np.ndarray, e_tilde: float) -> float | np.ndarray:
        """Classical momentum magnitude at x on the orbit of energy e_tilde.

        x may be a float or an array; a float gives a float and an array
        an array of the same shape.
        """
        m, c = self.params.m, self.params.c
        x = np.asarray(x, dtype=float)
        w = e_tilde - self.potential(x)
        outside = w <= -1e-12 * max(e_tilde, 1.0)
        if outside.any():
            raise NoClassicalRegion(
                f"x = {x[outside].flat[0]} is outside the orbit at e_tilde = {e_tilde}"
            )
        w = np.maximum(w, 0.0)
        if self.kind is HamiltonianKind.FULL_REL:
            p = np.sqrt(w * (w + 2 * m * c * c)) / c
        elif self.kind is HamiltonianKind.WEAK_REL:
            # smaller root of p^4 - 4m^2c^2 p^2 + 8m^3c^2 w = 0
            q = 1.0 - 2 * w / (m * c * c)
            if (q < 0).any():
                raise NoClassicalRegion(
                    "weak-relativistic momentum undefined: e - V = "
                    f"{w[q < 0].flat[0]} exceeds m c^2 / 2"
                )
            p = np.sqrt(4 * m * w / (1 + np.sqrt(q)))
        else:
            p = np.sqrt(2 * m * w)
        return p if p.ndim else float(p)


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


def rk4_period(spec: HamiltonianSpec, e_tilde: float, dt: float | None = None) -> float:
    """Orbital period by direct integration of Hamilton's equations.

    Starts at the turning point (x2, 0); the period is the gap between the
    first two zero-up-crossings of p(t), each refined by inverse cubic
    Hermite interpolation.  Runs with relative energy drift above 1e-9 are
    rejected and retried with a halved step, up to 6 times.
    """
    t0_guess = 2 * math.pi / spec.params.omega0
    if dt is None:
        dt = t0_guess / 2000.0
    x2 = spec.turning_point(e_tilde)

    velocity, force = spec.flow()
    for _attempt in range(7):
        crossings: list[float] = []
        x, p = x2, 0.0
        t = 0.0
        t_max = 8.0 * t0_guess
        half = 0.5 * dt
        # f is dp/dt at the start of the step, which is both RK4's k1p and
        # the start slope of the Hermite refinement; each step's end force
        # becomes the next step's f
        f = force(x)
        while t < t_max and len(crossings) < 2:
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
                crossings.append(_hermite_crossing(t, dt, p, pn, f, f_next))
            x, p, t, f = xn, pn, t + dt, f_next
        if len(crossings) < 2:
            raise NoPeriodFound(
                f"fewer than two momentum up-crossings within t = {t_max:.4g}"
            )
        drift = abs(spec.energy(x, p) - e_tilde) / e_tilde
        if drift <= 1e-9:
            period = crossings[1] - crossings[0]
            return period
        dt *= 0.5
    raise EnergyDriftExceeded(
        f"relative energy drift {drift:.3g} > 1e-9 even after 6 step halvings"
    )


# -- spectral oracle ----------------------------------------------------------


def ladder_matrix(n: int) -> np.ndarray:
    """Lowering-operator matrix a with a[i, i+1] = sqrt(i+1)."""
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    return a


def _hamiltonian_matrix(spec: HamiltonianSpec, n: int) -> np.ndarray:
    params = spec.params
    m, k, c, hbar, w0 = params.m, params.k, params.c, params.hbar, params.omega0
    a = ladder_matrix(n)
    ad = a.T
    num = ad @ a + a @ ad
    sq = a @ a + ad @ ad
    x2 = (hbar / (2 * m * w0)) * (num + sq)
    p2 = (m * hbar * w0 / 2) * (num - sq)
    h = p2 / (2 * m) + 0.5 * k * x2
    if spec.kind is HamiltonianKind.WEAK_REL:
        h = h - (p2 @ p2) / (8 * m**3 * c * c)
    elif spec.kind is HamiltonianKind.QUARTIC_AHO:
        h = h + spec.delta * (x2 @ x2)
    elif spec.kind is HamiltonianKind.FULL_REL:
        raise UnknownForm(
            "the square-root kinetic operator has no finite ladder-band representation"
        )
    return h


def jacobi_eigenvalues(
    mat: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60
) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by threshold cyclic Jacobi.

    Sweeps rotate away each off-diagonal pair in turn until the
    off-diagonal Frobenius norm drops below tol times the diagonal scale.
    """
    a = np.array(mat, dtype=float, copy=True)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    scale = max(1.0, float(np.abs(np.diag(a)).max()))
    target = tol * scale
    skip = target / n
    for _sweep in range(max_sweeps):
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
    raise EigensolverStalled(
        f"off-diagonal norm {off:.3g} still above {target:.3g} after {max_sweeps} sweeps"
    )


def diagonalize(
    spec: HamiltonianSpec,
    basis_size: int,
    n_levels: int | None = None,
    certify: bool = True,
    max_basis: int = 1024,
) -> np.ndarray:
    """Lowest eigenvalues of spec in the harmonic-oscillator eigenbasis.

    Convergence is certified by doubling the basis until the requested
    levels move by less than 1e-10 relative; the certified values are
    returned.
    """
    if n_levels is None:
        n_levels = max(1, basis_size // 4)
    if basis_size < 4 * n_levels:
        raise ParameterOutOfRange(
            f"basis_size = {basis_size} < 4 * n_levels = {4 * n_levels}"
        )
    if certify and basis_size >= max_basis:
        raise BasisNotConverged(
            f"basis_size = {basis_size} leaves no doubling below max_basis = {max_basis} "
            "to certify convergence"
        )
    vals = jacobi_eigenvalues(_hamiltonian_matrix(spec, basis_size))[:n_levels]
    if not certify:
        return vals
    size = basis_size
    while size < max_basis:
        size *= 2
        bigger = jacobi_eigenvalues(_hamiltonian_matrix(spec, size))[:n_levels]
        move = np.max(np.abs(bigger - vals) / np.maximum(np.abs(bigger), 1e-300))
        vals = bigger
        if move < 1e-10:
            return vals
    raise BasisNotConverged(
        f"eigenvalues still moving by {move:.3g} relative at basis {size}"
    )


# -- perturbation-theory oracles ----------------------------------------------


def p4_expectation(params: OscillatorParams, n: int) -> float:
    """<n| p^4 |n> from ladder algebra: 3 (m hbar omega0 / 2)^2 (2n^2+2n+1)."""
    size = n + 3
    a = ladder_matrix(size)
    ad = a.T
    p2 = (params.m * params.hbar * params.omega0 / 2) * (ad @ a + a @ ad - a @ a - ad @ ad)
    p4 = p2 @ p2
    return float(p4[n, n])


def rs_shift_p4(params: OscillatorParams, n: int) -> float:
    """First-order level shift of the p^4 perturbation.

    Closed form -(3/16) hbar omega0 [(n+1/2)^2 + 1/4] (hbar omega0 / m c^2),
    the value of -<n|p^4|n> / 8 m^3 c^2; p4_expectation computes that
    expectation value from ladder algebra as the reference for tests.
    """
    if n < 0:
        raise ParameterOutOfRange(f"n must be >= 0, got {n}")
    hw = params.hbar * params.omega0
    return -(3.0 / 16.0) * hw * ((n + 0.5) ** 2 + 0.25) * params.level_ratio


def jwkb_levels_wr(params: OscillatorParams, n: int) -> SpectrumEntry:
    """Semiclassical level from discretizing the weak-relativistic action.

    Solves (e/omega0) [1 + 3 eps / 16] = (n + 1/2) hbar for e, where
    eps = e / m c^2.
    """
    if n < 0:
        raise ParameterOutOfRange(f"n must be >= 0, got {n}")
    hbar, w0 = params.hbar, params.omega0
    mc2 = params.rest_energy
    target = (n + 0.5) * hbar

    def f(e: float) -> float:
        return (e / w0) * (1.0 + 3.0 * e / (16.0 * mc2)) - target

    e0 = (n + 0.5) * hbar * w0
    lo, hi = expand_bracket(f, 0.5 * e0, 1.5 * e0)
    energy = bracketed_root(f, lo, hi, f_tol=1e-14 * max(target, 1.0))
    return SpectrumEntry(
        n=n, energy=energy, scheme=SchemeTag.JWKB_WR, correction=energy - e0
    )
