"""Brute-force oracles: trajectories, diagonalization, perturbation theory."""

import math
from collections import Counter
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionvar import oracles
from actionvar.classical import action_quadrature, frequency_from_action
from actionvar.core import (
    BasisNotConverged,
    NotConverged,
    ParameterOutOfRange,
    energy_point,
    make_params,
    natural_params,
)
from actionvar.oracles import (
    HamiltonianKind,
    HamiltonianSpec,
    _hamiltonian_matrix,
    _lowest_eigenvalues,
    _sturm_lowest,
    _tridiagonalize,
    diagonalize,
    jacobi_eigenvalues,
    jwkb_levels_wr,
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
# periods of PINNED_SPECS at e = 20: the closed-loop integral of dx / v,
# evaluated offline to 20 digits with mpmath; the SHO period is exact
REFERENCE_PERIODS = [
    6.8987172720087311052,
    6.7405009206464092236,
    5.9604696306309135651,
    2.0 * math.pi,
]


def _assert_period_matches_action_derivative(spec: HamiltonianSpec, e: float) -> None:
    """The trajectory period agrees with 2 pi / (dE/dJ) of the quadrature action."""
    t = rk4_period(spec, e)
    w = frequency_from_action(lambda energy: action_quadrature(spec, energy), e)
    assert abs(t - 2.0 * math.pi / w) <= 1e-8 * t


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
        with pytest.raises(ParameterOutOfRange, match="no turning point: delta = -0.2"):
            spec.turning_point(10.0)

    def test_delta_rejected_off_quartic(self):
        with pytest.raises(ParameterOutOfRange):
            HamiltonianSpec(HamiltonianKind.SHO, natural_params(), delta=0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_delta_refused(self, delta):
        with pytest.raises(ParameterOutOfRange, match=f"delta must be finite, got {delta}"):
            HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, natural_params(), delta=delta)

    @pytest.mark.parametrize("oracle", [rk4_period, action_quadrature], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("e", [50.0, 50.0000001, 60.0])
    def test_weakrel_oracles_refuse_half_rest_energy_and_above(self, oracle, e):
        # m c^2 / 2 = 50: the kinetic energy peaks there, so the orbit does not close
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, _P10)
        with pytest.raises(ParameterOutOfRange, match=f"e_tilde = {e} >= m c\\^2 / 2"):
            oracle(spec, e)

    @pytest.mark.parametrize("c", [10.0, 1e100])
    @pytest.mark.parametrize(
        "kind, delta",
        [
            (HamiltonianKind.SHO, 0.0),
            (HamiltonianKind.WEAK_REL, 0.0),
            (HamiltonianKind.FULL_REL, 0.0),
            (HamiltonianKind.QUARTIC_AHO, 1e-3),
        ],
        ids=["sho", "weak-rel", "full-rel", "quartic-aho"],
    )
    def test_energy_is_conserved_quantity(self, kind, delta, c):
        spec = HamiltonianSpec(kind, natural_params(c=c), delta=delta)
        for eps in (1e-6, 1e-3, 0.1, 0.49):
            e = eps * spec.params.rest_energy
            momentum = spec.orbit_momentum(e)
            x2 = spec.turning_point(e)
            for s in (0.0, 0.3, 0.7, 0.99):
                assert spec.energy(s * x2, momentum(s * x2)) == pytest.approx(e, rel=1e-14)

    def test_fullrel_energy_stable_at_small_p(self):
        p = natural_params(c=10.0)
        spec = HamiltonianSpec(HamiltonianKind.FULL_REL, p)
        assert spec.energy(0.0, 1e-6) == pytest.approx(1e-12 / 2.0, rel=1e-6)

    def test_momentum_outside_orbit_raises(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        momentum = spec.orbit_momentum(1.0)
        assert momentum(0.5) == pytest.approx(math.sqrt(1.75), rel=1e-15)
        with pytest.raises(ParameterOutOfRange, match="x = 1.5 is outside the orbit"):
            momentum(1.5)  # turning point sqrt(2) at e = 1

    def test_momentum_snaps_rounding_below_zero_at_the_turning_point(self):
        spec = HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, natural_params(), delta=1e-3)
        x2 = spec.turning_point(1.0)
        momentum = spec.orbit_momentum(1.0)
        assert momentum(x2 * (1 + 1e-15)) == 0.0
        assert momentum(-x2) == 0.0

    def test_weakrel_momentum_beyond_half_rest_energy_raises(self):
        spec = wr_spec(1e-2)  # m c^2 = 100
        for x in (0.0, 0.1):
            with pytest.raises(ParameterOutOfRange, match="exceeds m c\\^2 / 2"):
                spec.orbit_momentum(60.0)(x)

    @pytest.mark.parametrize("c", [1e-100, 10.0, 1e80, 1e150])
    def test_fullrel_momentum_round_trips_through_energy_at_any_c(self, c):
        spec = HamiltonianSpec(HamiltonianKind.FULL_REL, natural_params(c=c))
        for x in (0.0, 0.3, 1.0, 1.9):
            p = spec.orbit_momentum(2.0)(x)
            assert isinstance(p, float) and math.isfinite(p)
            assert spec.energy(x, p) == pytest.approx(2.0, rel=1e-14)
            assert spec.flow()[0](p) <= c * (1 + 1e-15)  # the speed of light, to rounding

    @pytest.mark.parametrize("c", [1e80, 1e150])
    def test_fullrel_oracles_at_large_c_are_harmonic(self, c):
        # m c^2 = c^2 is far above e, so the orbit is the harmonic one
        spec = HamiltonianSpec(HamiltonianKind.FULL_REL, natural_params(c=c))
        assert rk4_period(spec, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert action_quadrature(spec, 1.0) == pytest.approx(1.0, rel=1e-14)


class TestRk4Period:
    def test_sho_isochronous(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        for e in (0.5, 1.0, 5.0):
            assert abs(rk4_period(spec, e) - 2.0 * math.pi) < 1e-11

    @pytest.mark.parametrize(
        "kind", [HamiltonianKind.SHO, HamiltonianKind.WEAK_REL, HamiltonianKind.QUARTIC_AHO],
        ids=lambda k: k.value,
    )
    def test_harmonic_orbit_at_large_c_and_energy(self, kind):
        # eps = 1e-40, so the orbit is harmonic; p and x near 1e80 overflow
        # p**4 and x**4, so neither may be formed
        spec = HamiltonianSpec(kind, natural_params(c=1e100))
        assert abs(rk4_period(spec, 1e160) - 2.0 * math.pi) < 1e-11

    def test_weakrel_prediction(self):
        spec = wr_spec(1e-2)
        t = rk4_period(spec, 1.0)
        predicted = 2.0 * math.pi * (1.0 + 3.0 * 0.01 / 8.0)
        assert abs(t - predicted) < 2.0 * math.pi * 1.0 * 0.01**2

    def test_fullrel_against_quadrature_derivative(self):
        p = natural_params(c=10.0)  # eps = 0.05 at e = 5
        _assert_period_matches_action_derivative(HamiltonianSpec(HamiltonianKind.FULL_REL, p), 5.0)

    @pytest.mark.parametrize(
        "spec, period",
        zip(PINNED_SPECS, REFERENCE_PERIODS),
        ids=lambda v: v.kind.value if isinstance(v, HamiltonianSpec) else "",
    )
    def test_period_meets_reference(self, spec, period):
        assert abs(rk4_period(spec, 0.2 * _P10.rest_energy) - period) < 2e-12 * period

    @pytest.mark.parametrize(
        "spec, period",
        zip(PINNED_SPECS, [6.898717272011908, 6.740500920649658, 5.960469630637768, 6.283185307184574]),
        ids=lambda v: v.kind.value if isinstance(v, HamiltonianSpec) else "",
    )
    def test_period_is_pinned_bit_for_bit(self, spec, period):
        # values of the half-orbit loop; a refactor that keeps the stage
        # expressions and their evaluation order reproduces them exactly
        assert rk4_period(spec, 0.2 * _P10.rest_energy) == period

    @pytest.mark.parametrize("e", [0.5, 1.0, 5.0])
    def test_half_period_needs_only_an_even_kinetic_term(self, e):
        # k = 1 for x >= 0 and k = 4 for x < 0: the two half orbits take
        # pi and pi / 2, so T = 1.5 pi; a quarter-period shortcut, which
        # assumes V even in x, would give 2 pi
        class TwoSided(HamiltonianSpec):
            def potential(self, x):
                return 0.5 * (x * x if x >= 0.0 else 4.0 * x * x)

            def flow(self):
                velocity, _ = super().flow()
                return velocity, lambda x: -x if x >= 0.0 else -4.0 * x

        spec = TwoSided(HamiltonianKind.SHO, natural_params())
        assert abs(rk4_period(spec, e) - 1.5 * math.pi) < 1e-11 * 1.5 * math.pi

    def test_half_orbit_of_force_calls_per_attempt(self):
        calls = [0]

        class Counting(HamiltonianSpec):
            def flow(self):
                velocity, force = super().flow()

                def counted(x):
                    calls[0] += 1
                    return force(x)

                return velocity, counted

        spec = Counting(HamiltonianKind.SHO, _P10)
        period = rk4_period(spec, 20.0)
        dt = 2.0 * math.pi / 2000.0
        # one force call to start, then four per step over half an orbit:
        # three RK4 stages and the end-of-step force that the next step reuses
        assert calls[0] <= 4 * (period / (2 * dt) + 2) + 1

    def test_no_return_to_the_turning_point_raises(self):
        class Frozen(HamiltonianSpec):
            def flow(self):
                velocity, _ = super().flow()
                return velocity, lambda x: 0.0

        spec = Frozen(HamiltonianKind.SHO, natural_params())
        with pytest.raises(NotConverged, match="no momentum up-crossing after t = 0 within t = 50.27"):
            rk4_period(spec, 1.0)

    @pytest.mark.parametrize(
        "kind", [HamiltonianKind.WEAK_REL, HamiltonianKind.FULL_REL], ids=lambda k: k.value
    )
    @given(eps=st.floats(min_value=0.01, max_value=0.49))
    @settings(max_examples=25, deadline=None)
    def test_relativistic_period_matches_action_derivative(self, kind, eps):
        spec = HamiltonianSpec(kind, _P10)
        _assert_period_matches_action_derivative(spec, eps * _P10.rest_energy)

    @given(delta=st.floats(min_value=-1e-3, max_value=1e-3), e=st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_quartic_period_matches_action_derivative(self, delta, e):
        spec = HamiltonianSpec(HamiltonianKind.QUARTIC_AHO, _P10, delta=delta)
        _assert_period_matches_action_derivative(spec, e)

    def test_fourth_order_convergence(self):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        t0 = 2.0 * math.pi
        err1 = abs(rk4_period(spec, 1.0, dt=t0 / 1000.0) - t0)
        err2 = abs(rk4_period(spec, 1.0, dt=t0 / 2000.0) - t0)
        assert err1 / err2 == pytest.approx(16.0, rel=0.8)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_step_not_finite_and_positive_refused(self, dt):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        with pytest.raises(ParameterOutOfRange, match=f"dt must be finite and > 0, got {dt}"):
            rk4_period(spec, 1.0, dt=dt)

    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
    def test_energy_not_finite_refused(self, e):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        with pytest.raises(ParameterOutOfRange, match=f"e_tilde must be finite and > 0, got {e}"):
            rk4_period(spec, e)

    def test_step_beyond_budget_refused_before_integrating(self):
        # 8 periods at dt = 1e-9 would be 5e10 steps
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        with pytest.raises(ParameterOutOfRange, match="needs more than 1024000 steps"):
            rk4_period(spec, 1.0, dt=1e-9)

    @pytest.mark.parametrize(
        "dt, halvings",
        # the default dt stops at its 6th halving; one just inside the
        # 1,024,000-step budget cannot be halved at all
        [(None, 6), (1.5 * 16.0 * math.pi / 1_024_000, 0)],
    )
    def test_drift_past_the_step_budget_raises(self, dt, halvings):
        class Drifting(HamiltonianSpec):
            def energy(self, x, p):
                return super().energy(x, p) * (1.0 + 1e-6)

        spec = Drifting(HamiltonianKind.SHO, natural_params())
        with pytest.raises(
            NotConverged, match=f"drift 1e-06 > 1e-9 at dt = .* after {halvings} step halvings"
        ):
            rk4_period(spec, 1.0, dt=dt)


def _ladder_spec(kind: HamiltonianKind, strength: float) -> HamiltonianSpec:
    if kind is HamiltonianKind.WEAK_REL:
        return wr_spec(strength)
    return HamiltonianSpec(kind, natural_params(), delta=strength)


def _ladder_matrix(kind: HamiltonianKind, strength: float, n: int) -> np.ndarray:
    return _hamiltonian_matrix(_ladder_spec(kind, strength), n)


def _projected_hamiltonian(spec: HamiltonianSpec, n: int) -> np.ndarray:
    """H in the lowest n states, from x and p built on a lowering matrix of size n + 4.

    q^4 couples |j> no further than |j +- 4>, so every product is complete in
    the first n rows and columns.
    """
    p = spec.params
    a = np.diag(np.sqrt(np.arange(1.0, n + 4)), 1)
    x = math.sqrt(p.hbar / (2 * p.m * p.omega0)) * (a + a.T)
    p_over_i = math.sqrt(p.m * p.hbar * p.omega0 / 2) * (a.T - a)
    x2, p2 = x @ x, -(p_over_i @ p_over_i)
    h = p2 / (2 * p.m) + 0.5 * p.k * x2
    if spec.kind is HamiltonianKind.WEAK_REL:
        h -= (p2 @ p2) / (8 * p.m**3 * p.c**2)
    elif spec.kind is HamiltonianKind.QUARTIC_AHO:
        h += spec.delta * (x2 @ x2)
    return h[:n, :n]


@pytest.mark.parametrize("n", [*range(1, 10), 32])
@pytest.mark.parametrize(
    "kind, delta",
    [
        (HamiltonianKind.SHO, 0.0),
        (HamiltonianKind.WEAK_REL, 0.0),
        (HamiltonianKind.QUARTIC_AHO, 1e-3),
        (HamiltonianKind.QUARTIC_AHO, -1e-3),
    ],
    ids=["sho", "weak-rel", "aho+1e-3", "aho-1e-3"],
)
def test_hamiltonian_matrix_is_the_projection_of_h(kind, delta, n):
    spec = HamiltonianSpec(kind, make_params(2.0, 8.0, 3.0, 0.6), delta=delta)
    ref = _projected_hamiltonian(spec, n)
    assert np.max(np.abs(_hamiltonian_matrix(spec, n) - ref)) <= 1e-14 * np.max(np.abs(ref))


def _random_symmetric() -> np.ndarray:
    a = np.random.default_rng(11).normal(size=(40, 40))
    return (a + a.T) / 2.0


def _without_parity(a: np.ndarray, k: int) -> np.ndarray:
    # a dense matrix has no parity blocks: every column needs its full reflection
    return np.array(_sturm_lowest(*_tridiagonalize(a), k))


_SOLVER_CASES = [
    *[
        pytest.param(partial(_ladder_matrix, kind, strength, n), _lowest_eigenvalues, id=f"{name}-{n}")
        for kind, strength, name in [
            (HamiltonianKind.SHO, 0.0, "sho"),  # every off-diagonal entry is zero
            (HamiltonianKind.WEAK_REL, 1e-4, "weak-rel-1e-4"),
            (HamiltonianKind.WEAK_REL, 5e-3, "weak-rel-5e-3"),
            (HamiltonianKind.QUARTIC_AHO, 1e-4, "aho+1e-4"),
            (HamiltonianKind.QUARTIC_AHO, -1e-4, "aho-1e-4"),
        ]
        for n in (8, 9, 32, 256)
    ],
    pytest.param(_random_symmetric, _without_parity, id="random-dense-40"),
]


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
        with pytest.raises(ParameterOutOfRange, match="no finite ladder-band representation"):
            diagonalize(spec, 32, n_levels=8)

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

    @pytest.mark.parametrize("nmax", [0, 3, 8, 20])
    @pytest.mark.parametrize(
        "kind, strength",
        [
            (HamiltonianKind.SHO, 0.0),
            (HamiltonianKind.WEAK_REL, 1e-4),
            (HamiltonianKind.WEAK_REL, 5e-3),
            (HamiltonianKind.QUARTIC_AHO, 1e-4),
            (HamiltonianKind.QUARTIC_AHO, -1e-4),
            (HamiltonianKind.QUARTIC_AHO, 1e-2),
        ],
        ids=["sho", "weak-rel-1e-4", "weak-rel-5e-3", "aho+1e-4", "aho-1e-4", "aho+1e-2"],
    )
    def test_certified_levels_are_the_doubled_basis_bitwise(self, kind, strength, nmax):
        # the CLI's starting basis: 32, doubled until it holds 4 (nmax + 1) states
        basis = 32
        while basis < 4 * (nmax + 1):
            basis *= 2
        spec = _ladder_spec(kind, strength)
        doubled = _lowest_eigenvalues(_hamiltonian_matrix(spec, 2 * basis), nmax + 1)
        assert diagonalize(spec, basis, nmax + 1).tobytes() == doubled.tobytes()

    def test_certificate_counts_the_smaller_basis_and_bisects_only_the_returned(self, monkeypatch):
        # keyed by block size, so the 64-state basis shows as 32: each of the
        # 8 levels gets one count there and none is bisected, and the doubled
        # basis bisects the 8 it returns and the one the merge looked ahead to
        counts, bisected = Counter(), Counter()
        sturm = oracles._sturm

        def tallied(diag, off):
            count, levels = sturm(diag, off)

            def tallied_count(x):
                counts[len(diag)] += 1
                return count(x)

            def tallied_levels(k):
                for level in levels(k):
                    bisected[len(diag)] += 1
                    yield level

            return tallied_count, tallied_levels

        monkeypatch.setattr(oracles, "_sturm", tallied)
        diagonalize(wr_spec(1e-3), 64, 8)
        assert counts == {32: 8}
        assert bisected == {64: 9}

    def test_last_doubling_stops_at_max_basis(self, monkeypatch):
        sizes = []
        build = oracles._hamiltonian_matrix

        def recorded(spec, n):
            sizes.append(n)
            return build(spec, n)

        monkeypatch.setattr(oracles, "_hamiltonian_matrix", recorded)
        eigs = diagonalize(wr_spec(1e-3), 96, 4, max_basis=128)
        assert sizes == [96, 128]
        assert eigs.tobytes() == _lowest_eigenvalues(build(wr_spec(1e-3), 128), 4).tobytes()

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

    @pytest.mark.parametrize("build, solve", _SOLVER_CASES)
    def test_solver_matches_eigvalsh_and_jacobi(self, build, solve):
        h = build()
        k = min(len(h), 12)  # the whole spectrum at n = 8 and 9, more levels than a block holds
        tol = 1e-13 * max(1.0, float(np.max(np.abs(np.diag(h)))))
        mine = solve(h, k)
        assert np.max(np.abs(mine - np.linalg.eigvalsh(h)[:k])) <= tol
        assert np.max(np.abs(mine - jacobi_eigenvalues(h)[:k])) <= tol

    def test_overflowing_matrix_refused(self):
        # at ratio 1e300 the p^4 entries are finite but their squares are not
        with pytest.raises(NotConverged, match="16-state block is not finite"):
            diagonalize(wr_spec(1e300), 32, n_levels=1)

    @pytest.mark.parametrize(
        "basis_size, n_levels", [(32, 0), (-4, -1)], ids=["no-levels", "negative-basis"]
    )
    def test_level_count_below_one_refused(self, basis_size, n_levels):
        spec = HamiltonianSpec(HamiltonianKind.SHO, natural_params())
        with pytest.raises(ParameterOutOfRange, match=f"n_levels must be >= 1, got {n_levels}"):
            diagonalize(spec, basis_size, n_levels=n_levels)


class TestRsShift:
    def test_table_substitution(self):
        p = natural_params(c=10.0)
        assert rs_shift_p4(p, 0) == pytest.approx(-9.375e-4, rel=1e-12)

    def test_matches_ladder_expectation_through_n_50(self):
        # the first-order shift is <n|-p^4/8m^3c^2|n>, the matrix diagonal
        # less the harmonic level
        p = make_params(2.0, 8.0, 3.0, 0.6)
        h = _hamiltonian_matrix(HamiltonianSpec(HamiltonianKind.WEAK_REL, p), 51)
        for n in range(51):
            ladder = h[n, n] - (n + 0.5) * p.hbar * p.omega0
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

    def test_correction_is_the_exact_root_at_small_ratio(self):
        # (3/(16 m c^2)) e^2 + e - e0 = 0 solved in 50-digit decimals; the
        # correction e - e0 is 5 digits below e, so a float root that
        # differences e and e0 would lose them
        p = natural_params(c=math.sqrt(1e5))
        for n in range(64):
            e0 = (n + 0.5) * p.hbar * p.omega0
            with localcontext(prec=50):
                a = Decimal(3) / (16 * Decimal(p.rest_energy))
                root = (-1 + (1 + 4 * a * Decimal(e0)).sqrt()) / (2 * a)
                exact = float(root - Decimal(e0))
            correction = jwkb_levels_wr(p, n).correction
            assert abs(correction - exact) <= 1e-14 * abs(exact), n

    def test_matches_first_order_closed_form(self):
        p = natural_params(c=10.0)
        for n in (0, 2, 7):
            entry = jwkb_levels_wr(p, n)
            first_order = -(3.0 / 16.0) * (n + 0.5) ** 2 * 0.01
            assert abs(entry.correction - first_order) < 5.0 * 0.01**2 * (n + 0.5) ** 3


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
