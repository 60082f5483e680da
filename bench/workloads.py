"""The three seeded closed-loop workloads and their reference checks.

Inputs come from a fixed low-discrepancy (R_d) design: every prefix of the
request stream covers the input ranges evenly, and every seed sees the same
mix of cheap and deep requests.  The seed only places each point within
the central eighth of its design cell, so the same seed gives the same
requests and another seed different ones.  A seed-dependent mix would not
do: a few spectral requests in a hundred cost seconds, and which of them
land in a run would swing the tail latency between seeds.
No two requests share an input (sharing share 0), as in one-command-per-
process CLI use.

The timed ranges are those on which every call succeeds and every value
checks out (see README, "Input ranges"): a timed run has no failures, so
two runs of the same code agree on what was attempted and what failed.
`FULL_RANGES` holds the wider ranges of the workload definitions, on which
today's library refuses or returns wrong values; `defects.py` counts those
failures in an untimed sweep.

Each workload calls the library directly, as the CLI subcommands do; the
CLI itself hard-codes max_basis=1024, which makes one failing spectral
request cost minutes.  Every value is checked against a reference
computed here from its closed form, never by the library function under
test.  All quantum inputs use hbar = omega0 = 1, so energies are in units
of hbar omega0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from actionvar.classical import (
    action_fullrel,
    action_quadrature,
    action_wr_pdx,
    action_wr_residue,
    action_wr_xdp,
    frequency_from_action,
    frequency_wr_closed,
)
from actionvar.core import SchemeTag, energy_point, make_params, natural_params
from actionvar.oracles import (
    HamiltonianKind,
    HamiltonianSpec,
    diagonalize,
    jwkb_levels_wr,
    rk4_period,
    rs_shift_p4,
)
from actionvar.quantum import (
    aho_coeffs_derived,
    eigenvalues_aho,
    eigenvalues_wr_pdx,
    eigenvalues_wr_xdp,
    invert_action,
    quantum_action_aho_residue,
    quantum_action_sho,
    quantum_action_wr_pdx_derived,
    quantum_action_wr_xdp,
    wr_correction_derived,
)

from checks import Request, rel_tol


class QuasiRandom:
    """Seeded points in [0, 1)^d from a fixed low-discrepancy design.

    Point i lies in the cell of width 1/CELLS that holds the i-th point of
    the R_d sequence frac(1/2 + (i + 1) alpha), which is the same for every
    seed; the seed only places it within the central JITTER of that cell.
    So every seed sees the same mix, no two seeds see the same inputs, few
    requests change sides of a cost or failure threshold between seeds, and
    no point comes within (1 - JITTER) / (2 CELLS) of either end of a range.
    """

    CELLS = 64
    JITTER = 0.125

    def __init__(self, seed: int, dims: int) -> None:
        phi = 2.0  # root of x^(d+1) = x + 1, the generalised golden ratio
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self.alphas = [phi ** -(j + 1) for j in range(dims)]
        self.gammas = [(a * math.sqrt(2.0)) % 1.0 for a in self.alphas]
        rng = random.Random(seed)
        self.offsets = [rng.random() for _ in range(dims)]

    def point(self, i: int) -> list[float]:
        k = i + 1
        return [
            (math.floor(self.CELLS * ((0.5 + k * a) % 1.0)) + 0.5
             + self.JITTER * (((o + k * g) % 1.0) - 0.5)) / self.CELLS
            for a, g, o in zip(self.alphas, self.gammas, self.offsets)
        ]


def _value(result):
    return None if result is None else result.j_value


def _energy(entry):
    return None if entry is None else entry.energy


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# -- spectral -------------------------------------------------------------------

# Rayleigh-Schroedinger coefficients of H = p^2/2 + x^2/2 + g x^4 in units of
# hbar omega0 (Bender & Wu, Phys. Rev. 184, 1231 (1969)).  The p^4 term of the
# weak-relativistic H has the same series with g = -ratio/8, because the
# harmonic oscillator is symmetric under x -> p.
def _pt1(n: int) -> float:
    return 0.75 * (2 * n * n + 2 * n + 1)


def _pt2(n: int) -> float:
    return -(34 * n**3 + 51 * n * n + 59 * n + 21) / 8.0


def _pt3(n: int) -> float:
    return (375 * n**4 + 750 * n**3 + 1416 * n * n + 1041 * n + 333) / 16.0


def _diag_start(nmax: int) -> int:
    """The CLI's starting basis: 32, doubled until it holds 4 (nmax + 1) states."""
    basis = 32
    while basis < 4 * (nmax + 1):
        basis *= 2
    return basis


@dataclass(frozen=True)
class SpectralInput:
    kind: HamiltonianKind  # WEAK_REL or QUARTIC_AHO
    strength: float  # hbar omega0 / m c^2, or delta
    nmax: int


class Spectral:
    """Closed-form levels of one Hamiltonian, then one certified diagonalization.

    The strength ranges are log-uniform.  The Hamiltonians unbounded below
    (the -p^4 term of WEAK_REL, QUARTIC_AHO with delta < 0) are drawn only
    up to the strength that diagonalize certifies within max_basis for
    every nmax <= 20; the full ranges are (1e-4, 5e-2) and (1e-5, 1e-2).
    """

    name = "spectral"
    dims = 4
    max_basis = 256
    warmup = SpectralInput(HamiltonianKind.WEAK_REL, 1e-3, 3)

    def __init__(self, ratio=(1e-4, 5e-3), delta_pos=(1e-5, 1e-2), delta_neg=(1e-5, 2e-4)):
        self.ratio, self.delta_pos, self.delta_neg = ratio, delta_pos, delta_neg

    def draw(self, u: list[float]) -> SpectralInput:
        # nmax from the centre of its design cell, so the seed cannot move a
        # request across a basis-doubling threshold (nmax 7/8, 15/16)
        centre = (math.floor(u[2] * QuasiRandom.CELLS) + 0.5) / QuasiRandom.CELLS
        nmax = int(21 * centre**6)  # low-skewed over 0..20
        if u[0] < 0.5:
            return SpectralInput(HamiltonianKind.WEAK_REL, _log_uniform(u[1], *self.ratio), nmax)
        if u[3] < 0.5:
            return SpectralInput(HamiltonianKind.QUARTIC_AHO, _log_uniform(u[1], *self.delta_pos), nmax)
        return SpectralInput(HamiltonianKind.QUARTIC_AHO, -_log_uniform(u[1], *self.delta_neg), nmax)

    def run(self, inp: SpectralInput, tracer) -> Request:
        req = Request(tracer)
        levels = range(inp.nmax + 1)
        if inp.kind is HamiltonianKind.WEAK_REL:
            ratio = inp.strength
            params = make_params(1.0, 1.0, 1.0 / math.sqrt(ratio), 1.0)
            spec = HamiltonianSpec(inp.kind, params)
            g = -ratio / 8.0
            a = 3.0 * ratio / 16.0
            for n in levels:
                first = n + 0.5 + g * _pt1(n)
                tol = rel_tol(1e-12, n + 0.5)
                pdx = req.call("eigenvalues_wr_pdx", "quantum.closed_levels", eigenvalues_wr_pdx, params, n)
                # the paper's coordinate-form ansatz differs from first-order
                # RS by (3/16) ratio ((7/3) n - 1/2), the momentum form by
                # (45/64) ratio (README "Known limitations")
                req.expect("eigenvalues_wr_pdx", _energy(pdx), first - a * (7.0 * n / 3.0 - 0.5), tol)
                xdp = req.call("eigenvalues_wr_xdp", "quantum.closed_levels", eigenvalues_wr_xdp, params, n)
                req.expect("eigenvalues_wr_xdp", _energy(xdp), first - 45.0 * ratio / 64.0, tol)
                jwkb = req.call("jwkb_levels_wr", "oracles.jwkb_levels_wr", jwkb_levels_wr, params, n)
                # positive root of e (1 + a e) = n + 1/2, cancellation-free
                root = 2.0 * (n + 0.5) / (1.0 + math.sqrt(1.0 + 4.0 * a * (n + 0.5)))
                req.expect("jwkb_levels_wr", _energy(jwkb), root, tol)
                shift = req.call("rs_shift_p4", "oracles.rs_shift_p4", rs_shift_p4, params, n)
                req.expect("rs_shift_p4", shift, g * _pt1(n), rel_tol(1e-12, g * _pt1(n), 0.0))
        else:
            delta = g = inp.strength
            params = natural_params()
            spec = HamiltonianSpec(inp.kind, params, delta=delta)
            for n in levels:
                aho = req.call("eigenvalues_aho", "quantum.closed_levels", eigenvalues_aho, params, delta, n)
                tol = 2.0 * abs(g * g * _pt2(n)) + rel_tol(1e-12, n + 0.5)
                req.expect("eigenvalues_aho", _energy(aho), n + 0.5 + g * _pt1(n), tol)
        eigs = req.call(
            "diagonalize",
            "oracles.diagonalize",
            diagonalize,
            spec,
            _diag_start(inp.nmax),
            inp.nmax + 1,
            True,
            self.max_basis,
        )
        if eigs is not None:
            # second order, with twice the third-order term as allowance; a
            # spurious eigenvalue of the unbounded -p^4 or -x^4 term lands far
            # outside it
            for n in levels:
                ref = n + 0.5 + g * _pt1(n) + g * g * _pt2(n)
                tol = 2.0 * abs(g**3 * _pt3(n)) + rel_tol(1e-9, n + 0.5)
                req.expect("diagonalize", float(eigs[n]), ref, tol)
        return req


# -- classical ------------------------------------------------------------------


class Classical:
    """The table1 row and the freq row of the CLI for one eps.

    eps is uniform over (0.025, 0.405) by default, the part of the CLI's
    range [0, 1/2) on which every series meets its check.
    """

    name = "classical"
    dims = 1
    warmup = 0.05
    params = natural_params(c=10.0)  # the CLI's default units

    def __init__(self, eps=(0.025, 0.405)) -> None:
        self.eps = eps

    def draw(self, u: list[float]) -> float:
        lo, hi = self.eps
        return lo + (hi - lo) * u[0]

    def run(self, eps: float, tracer) -> Request:
        req = Request(tracer)
        p = self.params
        e = eps * p.rest_energy
        ep = energy_point(p, e)
        unit = e / p.omega0
        full = HamiltonianSpec(HamiltonianKind.FULL_REL, p)
        weak = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
        quad = "classical.action_quadrature"
        closed = "classical.closed_forms"

        j_full = req.call("action_quadrature", quad, action_quadrature, full, e)
        j_weak = req.call("action_quadrature", quad, action_quadrature, weak, e)
        fr_pdx = _value(
            req.call("action_fullrel_pdx", closed, action_fullrel, p, ep, SchemeTag.CLASSICAL_FULLREL_PDX)
        )
        fr_xdp = _value(
            req.call("action_fullrel_xdp", closed, action_fullrel, p, ep, SchemeTag.CLASSICAL_FULLREL_XDP)
        )
        wr_pdx = _value(req.call("action_wr_pdx", closed, action_wr_pdx, p, ep))
        wr_xdp = _value(req.call("action_wr_xdp", closed, action_wr_xdp, p, ep))
        wr_res = _value(
            req.call("action_wr_residue", "classical.action_wr_residue", action_wr_residue, p, ep)
        )
        # each series against quadrature within its omitted term (order-one
        # coefficient, as criteria 2 and 3), above quadrature's 1e-11 precision
        floor = 1e-10 * unit
        if j_full is not None:
            s = eps / (2.0 + eps)
            req.expect("action_fullrel_pdx", fr_pdx, j_full, s**3 * unit + floor)
            req.expect("action_fullrel_xdp", fr_xdp, j_full, eps**4 * unit + floor)
        if j_weak is not None:
            req.expect("action_wr_pdx", wr_pdx, j_weak, eps**2 * unit + floor)
            req.expect("action_wr_xdp", wr_xdp, j_weak, eps**4 * unit + floor)
            req.expect("action_wr_residue", wr_res, j_weak, eps**2 * unit + floor)

        def j_of_e(energy: float) -> float:
            return tracer.call(quad, action_quadrature, weak, energy)

        w_closed = req.call("frequency_wr_closed", closed, frequency_wr_closed, p, ep)
        w_djde = req.call(
            "frequency_from_action", "classical.frequency_from_action", frequency_from_action, j_of_e, e
        )
        period = req.call("rk4_period", "oracles.rk4_period", rk4_period, weak, e)
        if period is not None:
            w_rk4 = 2.0 * math.pi / period
            # both oracles are exact for the weak-relativistic H
            req.expect("frequency_from_action", w_djde, w_rk4, 1e-8 * w_rk4)
            req.expect("frequency_wr_closed", w_closed, w_rk4, eps**2 * w_rk4)
        return req


# -- residue --------------------------------------------------------------------


def _wr_pdx_derived_j(params, e: float) -> float:
    return quantum_action_wr_pdx_derived(params, energy_point(params, e)).j_value


@dataclass(frozen=True)
class ResidueInput:
    energy: float  # in hbar omega0
    delta: float
    n: int


class Residue:
    """Residue-derived quantum actions at one energy, then one action inversion.

    E is log-uniform over (0.5, 4.5) hbar omega0 by default, below the
    energy (~4.8) where the Laurent cut-off starts to drop terms; the full
    range is (0.5, 100).
    """

    name = "residue"
    dims = 2
    warmup = ResidueInput(2.0, 1e-4, 2)
    params = natural_params(c=100.0)  # ratio hbar omega0 / m c^2 = 1e-4

    def __init__(self, energy=(0.5, 4.5)) -> None:
        self.energy = energy

    def draw(self, u: list[float]) -> ResidueInput:
        e = _log_uniform(u[0], *self.energy)
        delta = 1e-4 if u[1] < 0.5 else -1e-4
        return ResidueInput(e, delta, round(e - 0.5))

    def run(self, inp: ResidueInput, tracer) -> Request:
        req = Request(tracer)
        p = self.params
        e, delta = inp.energy, inp.delta
        r = p.level_ratio
        ep = energy_point(p, e)
        tol = rel_tol(1e-12, e)
        # first-order Rayleigh-Schroedinger action of the p^4 term
        j_rs = e - 0.5 + (3.0 / 16.0) * r * (e * e + 0.25)

        for form in ("pdx", "xdp"):
            sho = req.call("quantum_action_sho", "quantum.riccati", quantum_action_sho, p, e, form)
            req.expect("quantum_action_sho", _value(sho), e - 0.5, tol)
        derived = "quantum.derived"
        wrd = req.call("quantum_action_wr_pdx_derived", derived, quantum_action_wr_pdx_derived, p, ep)
        req.expect("quantum_action_wr_pdx_derived", _value(wrd), j_rs, tol)
        ahor = req.call("quantum_action_aho_residue", derived, quantum_action_aho_residue, p, e, delta)
        j_aho = e - 0.5 - (3.0 * delta / 32.0) * (4.0 + 16.0 * e * e)
        req.expect("quantum_action_aho_residue", _value(ahor), j_aho, tol)
        pair = req.call("wr_correction_derived", derived, wr_correction_derived, p, ep)
        if pair is not None:
            # the derived pair holds the closed values in swapped slots
            for got, want in zip(sorted(pair), sorted((1.0, 1.0 + 7.0 / (4.0 * e)))):
                req.expect("wr_correction_derived", got, want, rel_tol(1e-10, want))
        coeffs = req.call("aho_coeffs_derived", derived, aho_coeffs_derived, p, e, delta)
        if coeffs is not None:
            lam = 1.0 / (4.0 * e)
            for got, want in zip(coeffs, (1.0, 1.0 + lam, 1.0 - 1.5 * lam + 2.0 * lam * lam, lam)):
                req.expect("aho_coeffs_derived", got, want, rel_tol(1e-10, want))
        wrx = req.call("quantum_action_wr_xdp", "quantum.quantum_action_wr_xdp", quantum_action_wr_xdp, p, ep)
        req.expect("quantum_action_wr_xdp", _value(wrx), j_rs, tol)
        awr = req.call("action_wr_residue", "classical.action_wr_residue", action_wr_residue, p, ep)
        req.expect("action_wr_residue", _value(awr), e * (1.0 + 3.0 * ep.epsilon / 16.0), tol)

        def j_of_e(energy: float) -> float:
            return tracer.call(derived, _wr_pdx_derived_j, p, energy)

        level = req.call("invert_action", "rootfind.invert_action", invert_action, j_of_e, inp.n, p)
        # root of the RS action a E^2 + E - c = 0, cancellation-free
        a, c = 3.0 * r / 16.0, inp.n + 0.5 - 3.0 * r / 64.0
        root = 2.0 * c / (1.0 + math.sqrt(1.0 + 4.0 * a * c))
        req.expect("invert_action", level, root, rel_tol(1e-10, root))
        return req


WORKLOADS = {w.name: w for w in (Spectral(), Classical(), Residue())}

# The ranges of the workload definitions, beyond those the timed runs use.
FULL_RANGES = {
    "spectral": Spectral(ratio=(1e-4, 5e-2), delta_neg=(1e-5, 1e-2)),
    "classical": Classical(eps=(0.0, 0.5)),
    "residue": Residue(energy=(0.5, 100.0)),
}
