"""Brute-force oracles: trajectories, diagonalization, perturbation theory."""

import math

import numpy as np
import pytest

from actionvar.classical import action_fullrel, action_quadrature, frequency_from_action
from actionvar.core import (
    BasisNotConverged,
    NoClassicalRegion,
    ParameterOutOfRange,
    SchemeTag,
    UnknownForm,
    energy_point,
    make_params,
    natural_params,
)
from actionvar.oracles import (
    HamiltonianKind,
    HamiltonianSpec,
    diagonalize,
    jacobi_eigenvalues,
    jwkb_levels_wr,
    ladder_matrix,
    p4_expectation,
    rk4_period,
    rs_shift_p4,
)


def wr_spec(ratio: float = 1e-3) -> HamiltonianSpec:
    p = natural_params(c=math.sqrt(1.0 / ratio))
    return HamiltonianSpec(HamiltonianKind.WEAK_REL, p)


# m = k = 1, c = 10, so e = 0.2 m c^2 = 20 below
_P10 = make_params(1.0, 1.0, 10.0, 1.0)
PINNED_SPECS = [
    HamiltonianSpec(HamiltonianKind.WEAK_REL, _P10),
    HamiltonianSpec(HamiltonianKind.FULL_REL, _P10),
    HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, _P10, delta=1e-3),
    HamiltonianSpec(HamiltonianKind.SHO, _P10),
]


class TestHamiltonianSpec:
    def test_turning_point_sho(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        assert spec.turning_point(1.0) == pytest.approx(math.sqrt(2.0))

    def test_turning_point_quartic_reduces_to_sho(self):
        p = natural_params()
        spec = HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, p, delta=1e-12)
        assert spec.turning_point(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_turning_point_quartic_moves_inward(self):
        p = natural_params()
        spec = HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, p, delta=0.05)
        assert spec.turning_point(1.0) < math.sqrt(2.0)

    def test_negative_delta_no_region(self):
        p = natural_params()
        spec = HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, p, delta=-0.2)
        with pytest.raises(NoClassicalRegion):
            spec.turning_point(10.0)

    def test_delta_rejected_off_quartic(self):
        with pytest.raises(ParameterOutOfRange):
            HamiltonianSpec(HamiltonianKind.SHO, natural_params(), delta=0.1)

    def test_energy_is_conserved_quantity(self):
        spec = wr_spec(1e-2)
        e = spec.energy(0.7, spec.momentum(0.7, 1.0))
        assert e == pytest.approx(1.0, rel=1e-12)

    def test_fullrel_energy_stable_at_small_p(self):
        p = natural_params(c=10.0)
        spec = HamiltonianSpec(HamiltonianKind.FULL_REL, p)
        assert spec.energy(0.0, 1e-6) == pytest.approx(1e-12 / 2.0, rel=1e-6)

    @pytest.mark.parametrize("spec", PINNED_SPECS, ids=lambda s: s.kind.value)
    def test_array_momentum_equals_scalar_calls(self, spec):
        e = 20.0
        xs = np.linspace(-1.0, 1.0, 41) * spec.turning_point(e)
        ps = spec.momentum(xs, e)
        assert isinstance(ps, np.ndarray) and ps.shape == xs.shape
        scalars = [spec.momentum(float(x), e) for x in xs]
        assert all(isinstance(v, float) for v in scalars)
        assert ps.tolist() == scalars

    def test_array_momentum_with_one_point_outside_orbit_raises(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        xs = np.array([0.0, 0.5, 1.5, -0.5])  # turning point sqrt(2) at e = 1
        with pytest.raises(NoClassicalRegion, match="x = 1.5"):
            spec.momentum(xs, 1.0)

    def test_momentum_snaps_rounding_below_zero_at_the_turning_point(self):
        spec = HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, natural_params(), delta=1e-3)
        x2 = spec.turning_point(1.0)
        assert spec.momentum(np.array([x2 * (1 + 1e-15), -x2]), 1.0).tolist() == [0.0, 0.0]

    def test_weakrel_momentum_beyond_half_rest_energy_raises(self):
        spec = wr_spec(1e-2)  # m c^2 = 100
        with pytest.raises(NoClassicalRegion, match="exceeds m c\\^2 / 2"):
            spec.momentum(np.array([0.0, 0.1]), 60.0)
        with pytest.raises(NoClassicalRegion):
            spec.momentum(0.0, 60.0)


class TestRk4Period:
    def test_sho_isochronous(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        for e in (0.5, 1.0, 5.0):
            assert abs(rk4_period(spec, e) - 2.0 * math.pi) < 1e-8

    def test_weakrel_prediction(self):
        spec = wr_spec(1e-2)
        t = rk4_period(spec, 1.0)
        predicted = 2.0 * math.pi * (1.0 + 3.0 * 0.01 / 8.0)
        assert abs(t - predicted) < 2.0 * math.pi * 1.0 * 0.01**2

    def test_fullrel_against_quadrature_derivative(self):
        p = natural_params(c=10.0)  # eps = 0.05 at e = 5
        spec = HamiltonianSpec(HamiltonianKind.FULL_REL, p)
        t = rk4_period(spec, 5.0)
        w = frequency_from_action(lambda e: action_quadrature(spec, e), 5.0)
        assert abs(t - 2.0 * math.pi / w) / t < 1e-5

    @pytest.mark.parametrize(
        "spec, period",
        zip(PINNED_SPECS, [6.898717272011616, 6.740500920649369, 5.960469630637499, 6.283185307184297]),
        ids=lambda v: v.kind.value if isinstance(v, HamiltonianSpec) else "",
    )
    def test_period_is_pinned_bit_for_bit(self, spec, period):
        # values of the step-by-step RK4 loop this one replaced; the stage
        # expressions keep their evaluation order, so they agree exactly
        assert rk4_period(spec, 0.2 * _P10.rest_energy) == period

    def test_fourth_order_convergence(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        t0 = 2.0 * math.pi
        err1 = abs(rk4_period(spec, 1.0, dt=t0 / 1000.0) - t0)
        err2 = abs(rk4_period(spec, 1.0, dt=t0 / 2000.0) - t0)
        assert err1 / err2 == pytest.approx(16.0, rel=0.8)


class TestDiagonalize:
    def test_sho_exact(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        eigs = diagonalize(spec, 64, n_levels=10)
        for n in range(10):
            assert abs(eigs[n] - (n + 0.5)) < 1e-12 * (n + 0.5)

    def test_weakrel_ground_state_shift(self):
        eigs = diagonalize(wr_spec(1e-3), 64, n_levels=2)
        assert eigs[0] - 0.5 == pytest.approx(-9.375e-5, abs=1e-6)

    def test_quartic_first_order_shift(self):
        p = natural_params()
        spec = HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, p, delta=1e-4)
        eigs = diagonalize(spec, 64, n_levels=4)
        assert eigs[2] - 2.5 == pytest.approx(9.75e-4, abs=2e-6)

    def test_fullrel_rejected(self):
        spec = HamiltonianSpec(HamiltonianKind.FULL_REL, natural_params(c=10.0))
        with pytest.raises(UnknownForm):
            diagonalize(spec, 32)

    def test_basis_precondition(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        with pytest.raises(ParameterOutOfRange):
            diagonalize(spec, 16, n_levels=10)

    def test_no_room_to_certify_refused_before_solving(self):
        spec = wr_spec()
        with pytest.raises(BasisNotConverged, match="64.*64"):
            diagonalize(spec, 64, n_levels=4, max_basis=64)
        with pytest.raises(BasisNotConverged, match="128.*64"):
            diagonalize(spec, 128, n_levels=4, max_basis=64)
        assert len(diagonalize(spec, 64, n_levels=4, certify=False, max_basis=64)) == 4

    def test_basis_independence(self):
        spec = wr_spec(1e-3)
        small = diagonalize(spec, 64, n_levels=6, certify=False)
        big = diagonalize(spec, 128, n_levels=6, certify=False)
        assert np.max(np.abs(big - small) / np.abs(big)) < 1e-10

    def test_shift_scales_linearly_in_ratio(self):
        ratios = [1e-4, 2e-4, 4e-4]
        shifts = []
        for r in ratios:
            eigs = diagonalize(wr_spec(r), 32, n_levels=3)
            shifts.append(eigs[2] - 2.5)
        slope = np.polyfit(ratios, shifts, 1)[0]
        expected = -(3.0 / 16.0) * (2.5**2 + 0.25)
        assert slope == pytest.approx(expected, rel=0.01)

    def test_jacobi_against_numpy(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(24, 24))
        a = (a + a.T) / 2.0
        mine = jacobi_eigenvalues(a)
        ref = np.sort(np.linalg.eigvalsh(a))
        assert np.max(np.abs(mine - ref)) < 1e-10


class TestRsShift:
    def test_table_substitution(self):
        p = natural_params(c=10.0)
        assert rs_shift_p4(p, 0) == pytest.approx(-9.375e-4, rel=1e-12)

    def test_ladder_expectation_closed_form(self):
        p = natural_params(c=10.0)
        for n in (0, 1, 5, 17):
            expected = 3.0 * (0.5) ** 2 * (2 * n * n + 2 * n + 1)
            assert p4_expectation(p, n) == pytest.approx(expected, rel=1e-12)

    def test_matches_ladder_expectation_through_n_50(self):
        p = make_params(2.0, 8.0, 3.0, 0.6)
        for n in range(51):
            ladder = -p4_expectation(p, n) / (8 * p.m**3 * p.c**2)
            assert rs_shift_p4(p, n) == pytest.approx(ladder, rel=1e-12, abs=0.0)

    def test_identity_through_n_50(self):
        p = natural_params(c=10.0)
        for n in range(51):
            closed = -(3.0 / 16.0) * ((n + 0.5) ** 2 + 0.25) * 0.01
            assert rs_shift_p4(p, n) == pytest.approx(closed, rel=1e-12)

    def test_large_n_trend(self):
        p = natural_params(c=10.0)
        n = 400
        assert rs_shift_p4(p, n) / n**2 == pytest.approx(-(3.0 / 16.0) * 0.01, rel=5e-3)


class TestJwkb:
    def test_nonrelativistic_limit(self):
        p = natural_params(c=1e6)
        entry = jwkb_levels_wr(p, 3)
        assert entry.energy == pytest.approx(3.5, rel=1e-9)

    def test_ground_state_correction(self):
        p = natural_params(c=10.0)
        entry = jwkb_levels_wr(p, 0)
        assert entry.correction == pytest.approx(-4.6875e-4, abs=2e-6)

    def test_matches_first_order_closed_form(self):
        p = natural_params(c=10.0)
        for n in (0, 2, 7):
            entry = jwkb_levels_wr(p, n)
            first_order = -(3.0 / 16.0) * (n + 0.5) ** 2 * 0.01
            assert abs(entry.correction - first_order) < 5.0 * 0.01**2 * (n + 0.5) ** 3

    def test_scheme_tag(self):
        p = natural_params(c=10.0)
        assert jwkb_levels_wr(p, 1).scheme is SchemeTag.JWKB_WR


class TestOracleCrossChecks:
    def test_sho_quadrature_action_is_e_over_omega0(self):
        p = natural_params()
        spec = HamiltonianSpec(HamiltonianKind.SHO, p)
        exact = 1.3 / p.omega0
        assert abs(action_quadrature(spec, 1.3) - exact) <= 1e-10 * exact

    def test_frequency_vs_trajectory(self):
        p = natural_params(c=math.sqrt(1.0 / 0.02))
        ep = energy_point(p, 1.0)
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
        closed = p.omega0 / (1.0 + 3.0 * ep.epsilon / 8.0)
        trajectory = 2.0 * math.pi / rk4_period(spec, 1.0)
        assert abs(closed - trajectory) <= 4e-4 * max(closed, trajectory)


class TestLadderMatrix:
    def test_lowering_entries(self):
        a = ladder_matrix(4)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[2, 3] == pytest.approx(math.sqrt(3.0))
        assert np.count_nonzero(a) == 3
