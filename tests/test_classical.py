"""Classical actions: series forms, quadrature cross-checks, frequencies."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionvar import cli
from actionvar.classical import (
    action_fullrel,
    action_quadrature,
    action_sho,
    action_wr_pdx,
    action_wr_residue,
    action_wr_xdp,
    frequency_from_action,
    frequency_wr_closed,
    wr_momentum_series,
)
from actionvar.core import (
    OrderInsufficient,
    ParameterOutOfRange,
    SchemeTag,
    WeakRegimeWarning,
    energy_point,
    make_params,
    natural_params,
)
from actionvar.oracles import HamiltonianKind, HamiltonianSpec


def elliptic_weak_rel_action(eps: float, c: float = 10.0) -> float:
    """J of the weak-relativistic oscillator at m = k = 1 from K and E by the AGM.

    J = (b/(3 pi c)) [(u- + u+) E(mu) - (u+ - u-) K(mu)] with
    u+- = 2 c^2 (1 +- sqrt(1 - 2 eps)), mu = u-/u+ and b = sqrt(u+).  With
    E = K (1 - S), S = sum_n 2^(n-1) c_n^2 over the AGM's c_n (Abramowitz &
    Stegun 17.6), the bracket is K [2 u- - (u- + u+) S], free of the
    cancellation between its two terms at small eps.
    """
    q = math.sqrt(1.0 - 2.0 * eps)
    u_plus = 2.0 * c * c * (1.0 + q)
    u_minus = 4.0 * c * c * eps / (1.0 + q)
    mu = u_minus / u_plus
    # a_0 = 1, g_0 = sqrt(1 - mu), c_0 = sqrt(mu); c_{n+1} = c_n^2 / (4 a_{n+1})
    a, g, cn = 1.0, math.sqrt(2.0 * q / (1.0 + q)), math.sqrt(mu)
    s, weight = 0.5 * mu, 0.5
    for _ in range(8):
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        cn = cn * cn / (4.0 * a)
        weight *= 2.0
        s += weight * cn * cn
    k = math.pi / (2.0 * a)
    return math.sqrt(u_plus) / (3.0 * math.pi * c) * k * (2.0 * u_minus - (u_minus + u_plus) * s)


def params_for_eps(eps: float, e_tilde: float = 1.0):
    """Natural units m=k=1 with c chosen so e_tilde maps to the given eps."""
    c = math.sqrt(e_tilde / eps)
    return natural_params(c=c), energy_point(natural_params(c=c), e_tilde)


class TestActionSho:
    def test_direct_ratio(self):
        p = natural_params()
        assert action_sho(p, 1.0).j_value == pytest.approx(1.0)
        p2 = make_params(1.0, 4.0, 10.0, 1.0)
        assert action_sho(p2, 3.0).j_value == pytest.approx(1.5)

    def test_matches_quadrature(self):
        p = natural_params()
        spec = HamiltonianSpec(HamiltonianKind.SHO, p)
        for e in (0.3, 1.0, 4.7):
            assert abs(action_quadrature(spec, e) - action_sho(p, e).j_value) <= 1e-10 * e


class TestActionQuadrature:
    @pytest.mark.parametrize(
        "e, j",
        [
            (5.0, 5.0486778630999036811),
            (40.0, 44.654993584387907936),
            (49.99, 59.990305341863801714),
            (49.999, 60.017491276296486366),
            (49.99999, 60.021041413907872199),
        ],
    )
    def test_weak_rel_matches_elliptic_reference(self, e, j):
        # m = k = hbar = 1, c = 10, e = eps m c^2 with eps up to 0.4999999;
        # J = (b/(3 pi c)) [(u- + u+) E(mu) - (u+ - u-) K(mu)] with
        # u+- = 2 c^2 (1 +- sqrt(1 - 2 eps)), mu = u-/u+ and b = sqrt(u+),
        # evaluated at 40 digits and cross-checked by direct quadrature
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, make_params(1.0, 1.0, 10.0, 1.0))
        assert action_quadrature(spec, e) == pytest.approx(j, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize(
        "e, j", [(5.0, 5.0486778630999036811), (49.999, 60.017491276296486366)]
    )
    def test_agm_action_meets_the_40_digit_values(self, e, j):
        # the reference of the property test below, against two of the values above
        assert elliptic_weak_rel_action(e / 100.0) == pytest.approx(j, rel=4e-16, abs=0.0)

    @given(eps=st.floats(min_value=1e-3, max_value=0.4999))
    @settings(max_examples=40, deadline=None)
    def test_weak_rel_matches_elliptic_action(self, eps):
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, make_params(1.0, 1.0, 10.0, 1.0))
        j = elliptic_weak_rel_action(eps)
        assert action_quadrature(spec, eps * 100.0) == pytest.approx(j, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("e", [0.3, 1.0, 4.7, 37.0])
    def test_sho_is_e_over_omega0(self, e):
        p = make_params(2.0, 8.0, 10.0, 1.0)
        spec = HamiltonianSpec(HamiltonianKind.SHO, p)
        assert action_quadrature(spec, e) == pytest.approx(e / p.omega0, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("kind", [HamiltonianKind.WEAK_REL, HamiltonianKind.FULL_REL])
    @pytest.mark.parametrize("e", [0.0, math.nan, math.inf, -math.inf])
    def test_energy_not_finite_and_positive_refused(self, kind, e):
        spec = HamiltonianSpec(kind, natural_params())
        with pytest.raises(ParameterOutOfRange, match=f"e_tilde must be finite and > 0, got {e}"):
            action_quadrature(spec, e)

    @pytest.mark.parametrize(
        "kind, delta, eps, j",
        [
            (HamiltonianKind.WEAK_REL, 0.0, 0.05, 5.048677863099911),
            (HamiltonianKind.FULL_REL, 0.0, 0.2, 20.735022448871945),
            (HamiltonianKind.QUARTIC_AHO, 1e-3, 0.4, 38.02590495755651),
        ],
    )
    def test_values_pinned(self, kind, delta, eps, j):
        # values of the node-by-node quadrature this one replaced, at m = k = 1, c = 10
        p = make_params(1.0, 1.0, 10.0, 1.0)
        spec = HamiltonianSpec(kind, p, delta=delta)
        assert action_quadrature(spec, eps * p.rest_energy) == pytest.approx(j, rel=1e-14, abs=0.0)


class TestActionWrPdx:
    def test_substitution(self):
        p, ep = params_for_eps(0.1)
        assert action_wr_pdx(p, ep).j_value == pytest.approx(1.01875, rel=1e-12)

    def test_nonrelativistic_reduction(self):
        p, ep = params_for_eps(1e-12)
        assert action_wr_pdx(p, ep).j_value == pytest.approx(1.0, rel=1e-10)

    def test_matches_quadrature_to_eps_squared(self):
        p, ep = params_for_eps(0.05)
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
        j_quad = action_quadrature(spec, 1.0)
        assert abs(action_wr_pdx(p, ep).j_value - j_quad) <= 1.0 * 0.05**2

    def test_quadrature_discrepancy_scales_as_eps_squared(self):
        eps_values = [0.01, 0.02, 0.04, 0.08]
        gaps = []
        for eps in eps_values:
            p, ep = params_for_eps(eps)
            spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
            gaps.append(abs(action_quadrature(spec, 1.0) - action_wr_pdx(p, ep).j_value))
        slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestActionWrXdp:
    def test_exact_prefactor_and_two_terms(self):
        p, ep = params_for_eps(0.1)
        q = math.sqrt(0.8)
        prefactor = math.sqrt(2.0 / (1.0 + q))
        rho = (1.0 - q) / (1.0 + q)
        expected = prefactor * (1.0 - rho / 8.0)
        assert action_wr_xdp(p, ep, n_terms=2).j_value == pytest.approx(expected, rel=1e-12)
        assert action_wr_xdp(p, ep, n_terms=2).j_value == pytest.approx(1.0203288, abs=1e-6)

    def test_nonrelativistic_reduction(self):
        p, ep = params_for_eps(1e-12)
        assert action_wr_xdp(p, ep).j_value == pytest.approx(1.0, rel=1e-10)

    def test_agrees_with_pdx_to_eps_squared(self):
        p, ep = params_for_eps(0.05)
        gap = abs(action_wr_xdp(p, ep).j_value - action_wr_pdx(p, ep).j_value)
        assert gap <= 1.0 * 0.05**2

    def test_form_equivalence_constant_bounded(self):
        for eps in (0.01, 0.02, 0.05, 0.1):
            p, ep = params_for_eps(eps)
            gap = abs(action_wr_xdp(p, ep).j_value - action_wr_pdx(p, ep).j_value)
            assert gap / action_wr_pdx(p, ep).j_value <= 2.0 * eps**2

    def test_resummed_form_matches_quadrature_closely(self):
        # the prefactor-and-ratio form is an exact rearrangement, so with
        # enough terms it lands on the quadrature value far below eps^2
        p, ep = params_for_eps(0.05)
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
        j_quad = action_quadrature(spec, 1.0)
        assert action_wr_xdp(p, ep, n_terms=8).j_value == pytest.approx(j_quad, rel=1e-9)

    def test_first_order_truncation(self):
        # the momentum form cut at order eps, as table1's weakrel_xdp column computes it
        p, ep = params_for_eps(0.1)
        first_order = cli._SCHEMES["weakrel_xdp"].fn(p, ep).j_value
        assert first_order == pytest.approx(1.01875, rel=1e-12)

    def test_monotone_in_energy(self):
        p = natural_params(c=10.0)
        values = [action_wr_xdp(p, energy_point(p, e)).j_value for e in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestActionWrResidue:
    def test_matches_closed_form_to_eps_squared(self):
        for eps in (0.01, 0.05):
            p, ep = params_for_eps(eps)
            gap = abs(action_wr_residue(p, ep).j_value - action_wr_pdx(p, ep).j_value)
            assert gap <= 1.0 * eps**2

    def test_nonrelativistic_limit(self):
        p, ep = params_for_eps(1e-10)
        assert action_wr_residue(p, ep).j_value == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.filterwarnings("ignore::actionvar.core.WeakRegimeWarning")
    @pytest.mark.parametrize("c", [3.0, 10.0, 100.0])
    @pytest.mark.parametrize("eps", [1e-8, 0.1, 0.4999])
    def test_equals_residue_of_a_longer_series(self, c, eps):
        # only the x^-2 and x^-4 terms of sqrt(1 - s) reach the residue
        p = make_params(1.0, 1.0, c, 1.0)
        ep = energy_point(p, eps * p.rest_energy)
        longer = (1j * wr_momentum_series(p, ep, 8).residue()).real
        assert action_wr_residue(p, ep).j_value == longer

    def test_pinned_where_terms_spread_past_1e12(self):
        p = make_params(1.0, 1.0, 10.0, 1.0)
        ep = energy_point(p, 45.0)
        assert ep.epsilon == pytest.approx(0.45, rel=1e-15, abs=0.0)
        with pytest.warns(WeakRegimeWarning):
            j = action_wr_residue(p, ep).j_value
        assert j == pytest.approx(48.796875, rel=1e-12)


class TestActionFullrel:
    def test_eps_zero_limit(self):
        p, ep = params_for_eps(1e-14)
        for form in (SchemeTag.CLASSICAL_FULLREL_PDX, SchemeTag.CLASSICAL_FULLREL_XDP):
            assert action_fullrel(p, ep, form).j_value == pytest.approx(1.0, rel=1e-12)

    def test_row_values_at_eps_point_one(self):
        p, ep = params_for_eps(0.1)
        j1 = action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_PDX).j_value
        j2 = action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_XDP).j_value
        assert j1 == pytest.approx(1.018559, abs=2e-6)
        assert j2 == pytest.approx(1.018558, abs=2e-6)
        # rows agree within the first omitted term magnitude
        assert abs(j1 - j2) < 5e-4

    def test_xdp_row_is_the_cos_moment_expansion(self):
        # J / (e sqrt(1 + eps/2)) = (2/pi) int_0^pi cos^2 sqrt(1 + (eps/2) cos^2) dtheta
        # / sqrt(1 + eps/2): expand both square roots binomially and use
        # the moments (2/pi) int_0^pi cos^(2j) dtheta = 2 C(2j, j) / 4^j
        def binom(a, k):
            out = Fraction(1)
            for i in range(k):
                out *= (a - i) / (i + 1)
            return out

        integral = [
            binom(Fraction(1, 2), k) / 2**k * Fraction(2 * math.comb(2 * k + 2, k + 1), 4 ** (k + 1))
            for k in range(4)
        ]
        inverse_prefactor = [binom(Fraction(-1, 2), k) / 2**k for k in range(4)]
        exact = [sum(integral[i] * inverse_prefactor[l - i] for i in range(l + 1)) for l in range(4)]
        assert exact == [1, Fraction(-1, 16), Fraction(7, 256), Fraction(-101, 8192)]

        p = make_params(1.0, 1.0, 2.0, 1.0)
        ep = energy_point(p, 2.0)  # eps = 1/2 exactly
        brackets = [
            action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_XDP, n_terms=n).j_value
            / (2.0 * math.sqrt(1.25))
            for n in range(1, 5)
        ]
        tabulated = [brackets[0]] + [(brackets[l] - brackets[l - 1]) / 0.5**l for l in range(1, 4)]
        assert tabulated == pytest.approx([float(c) for c in exact], rel=1e-12)

    def test_matches_quadrature_within_omitted_term(self):
        p, ep = params_for_eps(0.1)
        spec = HamiltonianSpec(HamiltonianKind.FULL_REL, p)
        j_quad = action_quadrature(spec, 1.0)
        j1 = action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_PDX).j_value
        s = 0.1 / 2.1
        omitted = math.sqrt(1.05) * s**3  # next power with an order-one coefficient
        assert abs(j1 - j_quad) < max(omitted, 1e-6)

    def test_unknown_form_rejected(self):
        p, ep = params_for_eps(0.1)
        with pytest.raises(ParameterOutOfRange, match="form must be a fully relativistic scheme"):
            action_fullrel(p, ep, "pdx")

    def test_too_many_terms_rejected(self):
        p, ep = params_for_eps(0.1)
        with pytest.raises(OrderInsufficient):
            action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_PDX, n_terms=9)

    def test_cross_row_gap_bounded_in_eps_squared(self):
        ratios = []
        for eps in (0.025, 0.05, 0.1):
            p, ep = params_for_eps(eps)
            j1 = action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_PDX).j_value
            j2 = action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_XDP).j_value
            ratios.append(abs(j1 - j2) / eps**2)
        assert max(ratios) < 1.0


class TestFrequency:
    def test_flat_action_refused(self):
        with pytest.raises(ParameterOutOfRange, match="dJ/dE = 0.0 at e = 1.0"):
            frequency_from_action(lambda e: 1.0, 1.0)

    def test_sho_isochronous(self):
        p = natural_params()
        for e in (0.5, 1.0, 3.0):
            w = frequency_from_action(lambda en: action_sho(p, en).j_value, e)
            assert w == pytest.approx(1.0, rel=1e-8)

    def test_closed_form_substitution(self):
        p, ep = params_for_eps(0.08)
        assert frequency_wr_closed(p, ep) == pytest.approx(1.0 / 1.03, rel=1e-12)

    def test_quadrature_derivative_agrees_with_closed_form(self):
        p, ep = params_for_eps(0.01)
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
        w = frequency_from_action(lambda en: action_quadrature(spec, en), 1.0)
        assert w == pytest.approx(frequency_wr_closed(p, ep), abs=2.0 * 0.01**2)

    def test_frequency_decreases_with_eps(self):
        values = []
        for eps in (0.01, 0.02, 0.04):
            p, ep = params_for_eps(eps)
            values.append(frequency_wr_closed(p, ep))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_shift_law_limit(self):
        p, ep = params_for_eps(0.01)
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
        w = frequency_from_action(lambda en: action_quadrature(spec, en), 1.0)
        shift = (1.0 / w - 1.0) / 0.01
        assert shift == pytest.approx(3.0 / 8.0, rel=0.05)
