"""Acceptance gate: one pass/fail line per criterion at its stated tolerance.

Each test prints a single CRITERION line before asserting, so the verdicts
survive in the captured output of failing tests.  Criterion 6 holds the
diagonalization oracle against perturbation theory through second order.
Criterion 9 probes the printed coordinate-form spectrum, whose level
spacings carry a constant offset of (7/16) x ratio beyond the first-order
law; that check fails at its stated tolerance by design and the line
reports the measured offset.
"""

import math
import warnings

import numpy as np
import pytest

from actionvar import cli
from actionvar.classical import action_quadrature, action_wr_pdx
from actionvar.core import (
    WeakRegimeWarning,
    energy_point,
    make_params,
    natural_params,
)
from actionvar.oracles import (
    HamiltonianKind,
    HamiltonianSpec,
    diagonalize,
    rk4_period,
    rs_shift_p4,
)
from actionvar.quantum import (
    aho_coeffs,
    aho_coeffs_derived,
    eigenvalues_aho,
    eigenvalues_wr_pdx,
    eigenvalues_wr_xdp,
    invert_action,
    quantum_action_aho,
    quantum_action_sho,
    quantum_action_wr_pdx,
    quantum_action_wr_xdp,
    riccati_pdx,
)


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {verdict} -- {detail}")


def quartic_second_order_shift(g: float, n: int) -> float:
    """Second-order shift of level n of p^2/2 + x^2/2 + g x^4 (m = k = hbar = 1).

    Bender & Wu, Phys. Rev. 184, 1231 (1969).
    """
    return -(g * g * (34.0 * n**3 + 51.0 * n**2 + 59.0 * n + 21.0) / 8.0)


def test_criterion_1_frequency_shift():
    p = natural_params(c=10.0)
    spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)

    def shift_dev(eps: float) -> float:
        omega = 2.0 * math.pi / rk4_period(spec, eps * p.rest_energy)
        return abs((p.omega0 / omega - 1.0) / eps - 3.0 / 8.0)

    dev0 = shift_dev(0.01)
    eps_list = [0.02, 0.04, 0.08]
    devs = [shift_dev(e) for e in eps_list]
    slope = float(np.polyfit(np.log(eps_list), np.log(devs), 1)[0])
    ok = dev0 <= 0.02 and abs(slope - 1.0) <= 0.2
    report(1, ok, f"shift dev {dev0:.2e} (<= 0.02), scaling slope {slope:.3f} (1.0 +/- 0.2)")
    assert dev0 <= 0.02
    assert slope == pytest.approx(1.0, abs=0.2)


def test_criterion_2_classical_action_vs_quadrature():
    p = natural_params(c=10.0)
    spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
    eps_list = [0.01, 0.02, 0.05, 0.1]
    rels = []
    for eps in eps_list:
        e = eps * p.rest_energy
        j_formula = action_wr_pdx(p, energy_point(p, e)).j_value
        j_oracle = action_quadrature(spec, e)
        rels.append(abs(j_formula - j_oracle) / j_oracle)
    slope = float(np.polyfit(np.log(eps_list), np.log(rels), 1)[0])
    ok = all(r <= eps**2 for r, eps in zip(rels, eps_list)) and abs(slope - 2.0) <= 0.1
    report(2, ok, f"max rel diff {max(rels):.2e}, eps-scaling slope {slope:.3f} (2.0 +/- 0.1)")
    for r, eps in zip(rels, eps_list):
        assert r <= eps**2
    assert slope == pytest.approx(2.0, abs=0.1)


def test_criterion_3_classical_table_columns():
    p = natural_params(c=10.0)
    eps = 0.1
    e = eps * p.rest_energy
    ep = energy_point(p, e)
    unit = e / p.omega0
    # the four columns table1 prints, from the scheme table that drives it
    schemes = cli._ORACLES[HamiltonianKind.FULL_REL].schemes
    columns = list(schemes)
    assert columns == ["fullrel_pdx", "fullrel_xdp", "weakrel_pdx", "weakrel_xdp"]
    vals = [schemes[name].fn(p, ep).j_value / unit for name in columns]
    weak_pdx, weak_xdp = vals[2:]
    spread = max(vals) - min(vals)
    printed = {f"{weak_pdx:.6f}", f"{weak_xdp:.6f}"}
    ok = spread <= 5e-4 and printed == {"1.018750"}
    report(3, ok, f"pairwise spread {spread:.2e} (<= 5e-4), weak-rel columns {sorted(printed)}")
    assert spread <= 5e-4
    assert printed == {"1.018750"}


def test_criterion_4_sho_spectrum_round_trip():
    p = natural_params()
    worst = 0.0
    for form in ("pdx", "xdp"):
        j = lambda e: quantum_action_sho(p, e, form).j_value
        for n in range(21):
            e_n = invert_action(j, n, p)
            worst = max(worst, abs(e_n - (n + 0.5)) / (n + 0.5))
    ok = worst <= 1e-12
    report(4, ok, f"worst relative level error {worst:.2e} (<= 1e-12), both forms, n <= 20")
    assert worst <= 1e-12


def test_criterion_5_perturbation_identity():
    p = natural_params(c=10.0)
    r = p.level_ratio
    worst = 0.0
    for n in range(51):
        closed = -(3.0 / 16.0) * ((n + 0.5) ** 2 + 0.25) * r
        worst = max(worst, abs(rs_shift_p4(p, n) - closed) / abs(closed))
    ok = worst <= 1e-12
    report(5, ok, f"worst relative mismatch {worst:.2e} (<= 1e-12) for n <= 50")
    assert worst <= 1e-12


def test_criterion_6_diagonalization_concordance():
    ratio = 1e-3
    p = natural_params(c=math.sqrt(1.0 / ratio))
    spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
    eigs = diagonalize(spec, 256, n_levels=11)
    oracle_shift = [eigs[n] - (n + 0.5) for n in range(11)]
    # The Fourier swap x <-> p leaves p^2/2 + x^2/2 unchanged, so -ratio p^4/8
    # has the spectrum of g x^4 with g = -ratio/8.
    g = -p.level_ratio / 8.0
    dev_rs2 = max(
        abs(oracle_shift[n] - (rs_shift_p4(p, n) + quartic_second_order_shift(g, n)))
        for n in range(11)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakRegimeWarning)
        dev_pdx = max(
            abs(eigenvalues_wr_pdx(p, n).correction - oracle_shift[n]) for n in range(11)
        )
        dev_xdp = max(
            abs(eigenvalues_wr_xdp(p, n).correction - oracle_shift[n]) for n in range(11)
        )
    ok = dev_rs2 <= 2e-6 and dev_pdx <= 5e-3 and dev_xdp <= 5e-3
    report(
        6,
        ok,
        f"second-order perturbation vs oracle {dev_rs2:.2e} (<= 2e-6), coordinate form "
        f"{dev_pdx:.2e} and momentum form {dev_xdp:.2e} (<= 5e-3)",
    )
    assert dev_pdx <= 5e-3
    assert dev_xdp <= 5e-3
    assert dev_rs2 <= 2e-6


def test_criterion_7_anharmonic_spectrum():
    p = natural_params()
    delta = 1e-4
    spec = HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, p, delta=delta)
    eigs = diagonalize(spec, 64, n_levels=6)
    g = delta  # delta / k^2 in these units
    worst_ratio = 0.0
    for n in range(6):
        est2 = abs(quartic_second_order_shift(g, n))
        gap = abs(eigenvalues_aho(p, delta, n).energy - eigs[n])
        worst_ratio = max(worst_ratio, gap / (5.0 * est2))
    coeff_dev = 0.0
    for e in (0.5, 1.0, 2.5):
        closed = np.array(aho_coeffs(p, e, delta))
        derived = np.array(aho_coeffs_derived(p, e, delta))
        coeff_dev = max(coeff_dev, float(np.max(np.abs(closed - derived))))
    ok = worst_ratio <= 1.0 and coeff_dev <= 1e-10
    report(
        7,
        ok,
        f"max |formula - oracle| / (5 x second-order estimate) = {worst_ratio:.3f} "
        f"(<= 1), coefficient re-derivation dev {coeff_dev:.2e} (<= 1e-10)",
    )
    assert worst_ratio <= 1.0
    assert coeff_dev <= 1e-10


def test_criterion_8_limit_invariants():
    # hbar sweep: quantum series coefficients approach the classical ones
    # linearly in hbar
    e = 1.0
    classical = riccati_pdx(make_params(1, 1, 10, 1e-30), e, order=6).coefficients
    hbars = [2.0**-k for k in range(4, 12)]
    gaps = []
    for h in hbars:
        s = riccati_pdx(make_params(1, 1, 10, h), e, order=6).coefficients
        gaps.append(
            max(abs(s.coefficient(pw) - classical.coefficient(pw)) for pw in (-1, -3, -5))
        )
    hbar_slope = float(np.polyfit(np.log(hbars), np.log(gaps), 1)[0])

    # eps sweep: the weak-relativistic quantum action approaches
    # e/omega0 - hbar/2 linearly in eps
    eps_list = [0.01, 0.005, 0.0025, 0.00125]
    devs = []
    for eps in eps_list:
        p = natural_params(c=math.sqrt(1.5 / eps))
        ep = energy_point(p, 1.5)
        devs.append(abs(quantum_action_wr_xdp(p, ep).j_value - 1.0))
    eps_slope = float(np.polyfit(np.log(eps_list), np.log(devs), 1)[0])

    # round trips across schemes
    p = natural_params(c=10.0)
    delta = 1e-4
    schemes = [
        lambda en: quantum_action_sho(p, en, "pdx").j_value,
        lambda en: quantum_action_sho(p, en, "xdp").j_value,
        lambda en: quantum_action_wr_pdx(p, energy_point(p, en)).j_value,
        lambda en: quantum_action_wr_xdp(p, energy_point(p, en)).j_value,
        lambda en: quantum_action_aho(p, en, delta).j_value,
    ]
    worst_round = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakRegimeWarning)
        for j in schemes:
            for n in (0, 1, 5, 12, 20):
                e_n = invert_action(j, n, p)
                worst_round = max(worst_round, abs(j(e_n) - float(n)))
    ok = (
        abs(hbar_slope - 1.0) <= 0.2
        and abs(eps_slope - 1.0) <= 0.2
        and worst_round <= 1e-12
    )
    report(
        8,
        ok,
        f"hbar-linearity slope {hbar_slope:.3f}, eps-linearity slope {eps_slope:.3f} "
        f"(each 1.0 +/- 0.2), worst round trip {worst_round:.2e} (<= 1e-12)",
    )
    assert hbar_slope == pytest.approx(1.0, abs=0.2)
    assert eps_slope == pytest.approx(1.0, abs=0.2)
    assert worst_round <= 1e-12


def test_criterion_9_level_spacing_law():
    ratio = 1e-3
    p = natural_params(c=math.sqrt(1.0 / ratio))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakRegimeWarning)
        energies = [eigenvalues_wr_pdx(p, n).energy for n in range(12)]
    worst = max(
        abs((energies[n] - energies[n - 1]) - (1.0 - (3.0 / 8.0) * n * ratio))
        for n in range(1, 12)
    )
    ok = worst <= 3e-6
    report(
        9,
        ok,
        f"max spacing deviation {worst:.2e} (stated 3e-6; the coordinate-form spectrum "
        f"carries a constant spacing offset of (7/16) x ratio = {7.0 / 16.0 * ratio:.2e})",
    )
    assert worst <= 3e-6
