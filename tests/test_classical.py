"""Classical actions: series forms, quadrature cross-checks, frequencies."""

import math

import numpy as np
import pytest

from actionvar.classical import (
    _gauss_legendre_nodes,
    action_fullrel,
    action_quadrature,
    action_sho,
    action_wr_pdx,
    action_wr_residue,
    action_wr_xdp,
    action_wr_xdp_first_order,
    frequency_from_action,
    frequency_wr_closed,
    turning_momenta_wr,
    turning_points_wr,
    wr_momentum_series,
)
from actionvar.core import (
    EpsilonOutOfRange,
    OrderInsufficient,
    SchemeTag,
    UnknownForm,
    WeakRegimeWarning,
    energy_point,
    make_params,
    natural_params,
)
from actionvar.oracles import HamiltonianKind, HamiltonianSpec


def params_for_eps(eps: float, e_tilde: float = 1.0):
    """Natural units m=k=1 with c chosen so e_tilde maps to the given eps."""
    c = math.sqrt(e_tilde / eps)
    return natural_params(c=c), energy_point(natural_params(c=c), e_tilde)


class TestTurningPoints:
    def test_physical_pair(self):
        p, ep = params_for_eps(0.01)
        tp = turning_points_wr(p, ep)
        assert tp.physical == pytest.approx((-math.sqrt(2.0), math.sqrt(2.0)))
        assert tp.domain == "coordinate-plane"

    def test_unphysical_pair_is_imaginary(self):
        p, ep = params_for_eps(0.1)
        tp = turning_points_wr(p, ep)
        x4 = tp.unphysical[1]
        assert x4.real == pytest.approx(0.0, abs=1e-14)
        assert x4.imag == pytest.approx(2.0 * math.sqrt(2.0))
        assert abs(x4) > tp.physical[1]

    def test_x4_shrinks_toward_half(self):
        p1, ep1 = params_for_eps(0.3)
        p2, ep2 = params_for_eps(0.45)
        with pytest.warns(WeakRegimeWarning):
            a = abs(turning_points_wr(p1, ep1).unphysical[1])
        with pytest.warns(WeakRegimeWarning):
            b = abs(turning_points_wr(p2, ep2).unphysical[1])
        assert b < a

    def test_hard_limit(self):
        p = make_params(1.0, 1.0, 1.0, 1.0)
        ep = energy_point(p, 0.5)
        with pytest.raises(EpsilonOutOfRange):
            turning_points_wr(p, ep)


class TestTurningMomenta:
    def test_exact_value(self):
        p, ep = params_for_eps(0.01)
        tm = turning_momenta_wr(p, ep)
        exact = math.sqrt(2.0) * 10.0 * math.sqrt(1.0 - math.sqrt(0.98))
        assert tm.physical[1] == pytest.approx(exact, rel=1e-12)
        assert tm.physical[1] == pytest.approx(1.41778, abs=5e-6)

    def test_first_order_form_close(self):
        p, ep = params_for_eps(0.01)
        tm = turning_momenta_wr(p, ep)
        assert tm.first_order_p2 == pytest.approx(math.sqrt(2.0) * 1.0025, rel=1e-12)
        assert abs(tm.first_order_p2 - tm.physical[1]) < 1.0 * 0.01**2

    def test_nonrelativistic_limit(self):
        p, ep = params_for_eps(1e-8)
        tm = turning_momenta_wr(p, ep)
        assert tm.physical[1] == pytest.approx(math.sqrt(2.0), rel=1e-7)

    def test_outer_pair_larger(self):
        p, ep = params_for_eps(0.05)
        tm = turning_momenta_wr(p, ep)
        assert abs(tm.unphysical[1]) > tm.physical[1]

    def test_branch_ratio_near_half_eps(self):
        # (p2/p4)^2 ~ eps/2 for small eps
        p, ep = params_for_eps(0.01)
        tm = turning_momenta_wr(p, ep)
        rho = (tm.physical[1] / abs(tm.unphysical[1])) ** 2
        assert rho == pytest.approx(0.005, rel=0.02)


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

    def test_scheme_tag(self):
        assert action_sho(natural_params(), 1.0).scheme is SchemeTag.CLASSICAL_SHO


class TestActionQuadrature:
    def test_node_arrays_are_built_once_and_read_only(self):
        arrays = _gauss_legendre_nodes(32)
        assert _gauss_legendre_nodes(32) is arrays
        for a in arrays:
            assert a.shape == (32,) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

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
        assert action_quadrature(spec, eps * p.rest_energy) == pytest.approx(j, rel=1e-14)


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
        p, ep = params_for_eps(0.1)
        assert action_wr_xdp_first_order(p, ep).j_value == pytest.approx(1.01875, rel=1e-12)

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
        assert ep.epsilon == pytest.approx(0.45, rel=1e-15)
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
        assert j2 == pytest.approx(1.018579, abs=2e-6)
        # rows agree within the first omitted term magnitude
        assert abs(j1 - j2) < 5e-4

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
        with pytest.raises(UnknownForm):
            action_fullrel(p, ep, SchemeTag.CLASSICAL_SHO)

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
