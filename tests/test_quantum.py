"""Quantum actions, Riccati recurrences, and closed-form spectra."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from actionvar.classical import action_wr_pdx, action_wr_residue

from actionvar.core import (
    OrderInsufficient,
    ParameterOutOfRange,
    WeakRegimeWarning,
    energy_point,
    make_params,
    natural_params,
)
from actionvar import quantum
from actionvar.laurent import binomial_sqrt, LaurentSeries
from actionvar.quantum import (
    _real,
    _residual_norm,
    aho_coeffs,
    aho_coeffs_derived,
    eigenvalues_aho,
    eigenvalues_wr_pdx,
    eigenvalues_wr_xdp,
    invert_action,
    quantum_action_aho,
    quantum_action_aho_residue,
    quantum_action_sho,
    quantum_action_wr_pdx,
    quantum_action_wr_pdx_derived,
    quantum_action_wr_xdp,
    riccati_pdx,
    riccati_xdp,
    wr_correction_derived,
    wr_correction_pdx,
)


def params_for_eps(eps: float, e_tilde: float = 1.0):
    c = math.sqrt(e_tilde / eps)
    p = natural_params(c=c)
    return p, energy_point(p, e_tilde)


def exact_riccati_pdx(e: Fraction, order: int) -> list[tuple[Fraction, Fraction]]:
    """b_1..b_order of p = sum b_j x^(3-2j) at m = k = hbar = 1, exactly.

    Each coefficient is a Gaussian rational (re, im).  Matching x^(6-2n) in
    -i p' + p^2 = 2e - x^2 gives b_1^2 = -1 (b_1 = +i, the physical branch)
    and, for n >= 3,
    2 b_1 b_(n-1) = [n == 3] 2e - sum_(i=2..n-2) b_i b_(n-i) + i (7 - 2n) b_(n-2).
    """
    b = [None, (Fraction(0), Fraction(1))]
    for n in range(3, order + 2):
        re = 2 * e if n == 3 else Fraction(0)
        im = Fraction(0)
        for i in range(2, n - 1):
            (ar, ai), (br, bi) = b[i], b[n - i]
            re -= ar * br - ai * bi
            im -= ar * bi + ai * br
        ar, ai = b[n - 2]
        re -= (7 - 2 * n) * ai
        im += (7 - 2 * n) * ar
        b.append((im / 2, -re / 2))  # divide by 2 b_1 = 2i
    return b


class TestRiccatiPdx:
    def test_leading_coefficients(self):
        s = riccati_pdx(natural_params(), 1.0)
        assert s.coefficients.coefficient(1) == pytest.approx(1j)
        assert s.coefficients.coefficient(-1) == pytest.approx(-0.5j)

    def test_untrusted_coefficient_refused(self):
        # order 2 is trusted down to x^-1; the true x^-3 coefficient is 0.125j
        series = riccati_pdx(natural_params(), 1.0, order=2).coefficients
        with pytest.raises(OrderInsufficient):
            series.coefficient(-3)
        exact = riccati_pdx(natural_params(), 1.0, order=3).coefficients
        assert exact.coefficient(-3) == pytest.approx(0.125j)

    def test_vanishing_leading_coefficient_refused(self):
        # m k = 1e-400 underflows to 0, so b1 = i sqrt(m k) vanishes
        with pytest.raises(ParameterOutOfRange, match="leading coefficient vanished"):
            riccati_pdx(make_params(1e-200, 1e-200, 10.0, 1.0), 1.0)

    def test_complex_value_refused_as_untrusted(self):
        assert _real(2.0 + 1e-12j) == 2.0
        with pytest.raises(OrderInsufficient, match="expected a real value, got"):
            _real(2.0 + 1e-3j)

    def test_b2_general_units(self):
        p = make_params(2.0, 8.0, 10.0, 0.6)
        s = riccati_pdx(p, 1.3)
        expected = -1j * math.sqrt(2.0 / 8.0) * 1.3 + 1j * 0.6 / 2.0
        assert s.coefficients.coefficient(-1) == pytest.approx(expected)

    def test_residual_small(self):
        for e in (0.5, 1.0, 3.7):
            assert riccati_pdx(natural_params(), e, order=10).residual_norm < 1e-10

    def test_classical_limit_equals_binomials(self):
        p = make_params(1.0, 1.0, 10.0, 0.0)
        s = riccati_pdx(p, 1.0, order=6).coefficients
        x2sq = 2.0
        classical = binomial_sqrt(LaurentSeries.term(-2, x2sq), 6).shifted(1).scaled(1j)
        for power in (1, -1, -3, -5):
            assert s.coefficient(power) == pytest.approx(classical.coefficient(power))

    def test_quantum_correction_linear_in_hbar(self):
        e = 1.0
        a = riccati_pdx(make_params(1, 1, 10, 0.0), e, order=6).coefficients
        gaps = []
        hbars = [2.0**-k for k in range(0, 8)]
        for h in hbars:
            b = riccati_pdx(make_params(1, 1, 10, h), e, order=6).coefficients
            gaps.append(abs(b.coefficient(-3) - a.coefficient(-3)))
        slope = np.polyfit(np.log(hbars), np.log(gaps), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterOutOfRange, match="e_tilde must be finite and > 0, got -1.0"):
            riccati_pdx(natural_params(), -1.0)

    @pytest.mark.parametrize("e", [Fraction(1, 2), Fraction(11, 2), 20, 100])
    def test_coefficients_match_exact_gaussian_rationals(self, e):
        order = 11
        exact = exact_riccati_pdx(Fraction(e), order)
        series = riccati_pdx(make_params(1.0, 1.0, 10.0, 1.0), float(e), order=order)
        for j in range(1, order + 1):
            ref = complex(float(exact[j][0]), float(exact[j][1]))
            got = series.coefficients.coefficient(3 - 2 * j)
            assert abs(got - ref) <= 1e-13 * abs(ref), (j, got, ref)


class TestRiccatiXdp:
    def test_leading_coefficients(self):
        s = riccati_xdp(natural_params(), 1.0)
        assert s.coefficients.coefficient(1) == pytest.approx(-1j)
        assert s.coefficients.coefficient(-1) == pytest.approx(0.5j)

    def test_residual_small(self):
        for e in (0.5, 1.0, 3.7):
            assert riccati_xdp(natural_params(), e, order=10).residual_norm < 1e-10

    def test_classical_limit(self):
        p = make_params(1.0, 1.0, 10.0, 0.0)
        s = riccati_xdp(p, 1.0).coefficients
        # classical orbit function: b'2 = i e / omega0
        assert s.coefficient(-1) == pytest.approx(1j)


class TestResidualNormOnDemand:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _residual_norm(*args)

        monkeypatch.setattr(quantum, "_residual_norm", counting)
        return calls

    @pytest.mark.parametrize(
        "solve, hbar_sign, rhs",
        [
            (riccati_pdx, 1.0, lambda m, k, hbar, e: {2: -m * k, 0: 2.0 * m * e}),
            (riccati_xdp, -1.0, lambda m, k, hbar, e: {2: -1.0 / (m * k), 0: 2.0 * e / k}),
        ],
        ids=["pdx", "xdp"],
    )
    def test_computed_once_on_first_read(self, counted, solve, hbar_sign, rhs):
        m, k, c, hbar, e = 2.0, 8.0, 10.0, 0.6, 3.7
        sol = solve(make_params(m, k, c, hbar), e, order=11)
        assert counted == []
        first = sol.residual_norm
        assert len(counted) == 1
        assert sol.residual_norm == first
        assert len(counted) == 1
        # the formula riccati_pdx and riccati_xdp used to apply on every call
        assert first == _residual_norm(
            sol.coefficients, hbar_sign * hbar, LaurentSeries(rhs(m, k, hbar, e))
        )


class TestQuantumActionSho:
    def test_values(self):
        p = natural_params()
        assert quantum_action_sho(p, 1.5).j_value == pytest.approx(1.0)

    def test_forms_identical(self):
        p = natural_params()
        for e in (0.5, 1.0, 2.2, 9.0):
            a = quantum_action_sho(p, e, "pdx").j_value
            b = quantum_action_sho(p, e, "xdp").j_value
            assert a == pytest.approx(b, rel=1e-14, abs=0.0)

    def test_classical_limit(self):
        p = make_params(1.0, 1.0, 10.0, 0.0)
        assert quantum_action_sho(p, 2.0).j_value == pytest.approx(2.0)

    def test_bad_form(self):
        with pytest.raises(ParameterOutOfRange):
            quantum_action_sho(natural_params(), 1.0, form="zdz")


class TestWrCorrectionCoefficients:
    def test_printed_pair(self):
        p, ep = params_for_eps(0.015, 1.5)
        b0, b1 = wr_correction_pdx(p, ep)
        assert b0 == 1.0
        assert b1 == pytest.approx(1.0 + 7.0 / 6.0, rel=1e-12)

    def test_classical_limit_of_printed_pair(self):
        p = make_params(1.0, 1.0, 10.0, 0.0)
        ep = energy_point(p, 1.0)
        assert wr_correction_pdx(p, ep) == (1.0, 1.0)

    def test_derived_values_match_as_a_pair(self):
        p, ep = params_for_eps(0.015, 1.5)
        closed = sorted(wr_correction_pdx(p, ep))
        derived = sorted(wr_correction_derived(p, ep))
        assert derived == pytest.approx(closed, rel=1e-10)

    def test_derived_assignment_is_swapped(self):
        # the recurrence puts the 7/4-term on the constant slot and unity
        # on the quadratic slot, the reverse of the printed assignment
        p, ep = params_for_eps(0.015, 1.5)
        b0, b1 = wr_correction_pdx(p, ep)
        d0, d1 = wr_correction_derived(p, ep)
        assert d0 == pytest.approx(b1, rel=1e-10)
        assert d1 == pytest.approx(b0, rel=1e-10)


class TestQuantumActionWrPdx:
    def test_substitution(self):
        p, ep = params_for_eps(0.015, 1.5)
        assert quantum_action_wr_pdx(p, ep).j_value == pytest.approx(1.008125, rel=1e-9)

    def test_classical_limit(self):
        p = make_params(1.0, 1.0, 10.0, 0.0)
        ep = energy_point(p, 1.0)
        assert quantum_action_wr_pdx(p, ep).j_value == pytest.approx(
            1.0 * (1.0 + 3.0 * ep.epsilon / 16.0), rel=1e-12
        )

    def test_nonrelativistic_limit_linear_in_eps(self):
        gaps = []
        eps_list = [0.01, 0.005, 0.0025]
        for eps in eps_list:
            p, ep = params_for_eps(eps, 1.5)
            gaps.append(abs(quantum_action_wr_pdx(p, ep).j_value - 1.0))
        for g, eps in zip(gaps, eps_list):
            bracket = 3.0 / 16.0 + (7.0 / 16.0) * (2.0 / 3.0) - (17.0 / 64.0) * (2.0 / 3.0) ** 2
            assert g == pytest.approx(1.5 * eps * bracket, rel=1e-9)


class TestQuantumActionWrDerived:
    def test_residue_route_equals_momentum_form_value(self):
        # assembling the x^-1 coefficient from the recurrence lands on the
        # momentum-form closed expression, not the printed coordinate one
        p, ep = params_for_eps(0.015, 1.5)
        derived = quantum_action_wr_pdx_derived(p, ep).j_value
        xdp = quantum_action_wr_xdp(p, ep).j_value
        assert derived == pytest.approx(xdp, rel=1e-12)

    def test_printed_form_differs_from_residue_route(self):
        p, ep = params_for_eps(0.015, 1.5)
        printed = quantum_action_wr_pdx(p, ep).j_value
        derived = quantum_action_wr_pdx_derived(p, ep).j_value
        # the gap is first order in eps times the hbar-dependent slip
        assert abs(printed - derived) > 1e-4
        assert abs(printed - derived) < ep.epsilon

    def test_classical_limit_matches(self):
        p = make_params(1.0, 1.0, 10.0, 0.0)
        ep = energy_point(p, 1.0)
        derived = quantum_action_wr_pdx_derived(p, ep).j_value
        assert derived == pytest.approx(1.0 + 3.0 * ep.epsilon / 16.0, rel=1e-10)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(lambda u: min(math.exp(u), hi))


class TestResiduePathsOverFullRange:
    """Residue-derived quantities agree with their closed forms at any E.

    Small Riccati coefficients are kept, so the residue routes stay right
    where the coefficient spread passes 1e12 (E above about 4.8 hbar omega0
    at order 11).  Units are m = k = hbar = 1, so e is E / hbar omega0 and
    r = 1 / c^2.
    """

    def test_wr_derived_pinned_above_old_cutoff(self):
        p = make_params(1.0, 1.0, 100.0, 1.0)
        j55 = quantum_action_wr_pdx_derived(p, energy_point(p, 5.5)).j_value
        j20 = quantum_action_wr_pdx_derived(p, energy_point(p, 20.0)).j_value
        assert j55 == pytest.approx(5.000571875, rel=1e-12)
        assert j20 == pytest.approx(19.5075046875, rel=1e-12)

    @given(data=st.data(), c=st.sampled_from([100.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_residues_equal_closed_forms(self, data, c):
        p = make_params(1.0, 1.0, c, 1.0)
        r = 1.0 / (c * c)
        e = data.draw(log_uniform(0.5, 100.0 if c == 100.0 else 0.4999 * c * c))
        delta = data.draw(st.sampled_from([1e-4, -1e-4]))

        def close(got, want):
            return abs(got - want) <= 1e-12 * abs(want)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakRegimeWarning)
            ep = energy_point(p, e)
            wr = quantum_action_wr_pdx_derived(p, ep).j_value
            aho = quantum_action_aho_residue(p, e, delta).j_value
            wr_pair = zip(wr_correction_derived(p, ep), reversed(wr_correction_pdx(p, ep)))
            aho_pair = zip(aho_coeffs_derived(p, e, delta), aho_coeffs(p, e, delta))
            classical = action_wr_residue(p, ep).j_value
            classical_closed = action_wr_pdx(p, ep).j_value
        assert close(wr, e - 0.5 + (3.0 / 16.0) * r * (e * e + 0.25))
        assert close(aho, e - 0.5 - (3.0 * delta / 32.0) * (4.0 + 16.0 * e * e))
        assert all(close(got, want) for got, want in wr_pair)
        assert all(close(got, want) for got, want in aho_pair)
        assert close(classical, classical_closed)


# Residue-path values at m = k = hbar = 1, c = 100, as float.hex strings so
# that a change in the last bit shows in the failure message.  E = 0.7, 2.0
# and 4.4 lie in the benchmark's timed residue range, 3.3 and 37.0 beyond
# it.  Every Laurent product and recurrence sums its terms in a fixed order,
# so a refactor that keeps that order reproduces them exactly.
_RESIDUE_PINS = {
    0.7: {
        "wr_pdx_derived": "0x1.99a0dfdef8486p-3",
        "aho_residue": {1e-4: "0x1.995f676ea4227p-3", -1e-4: "0x1.99d3cbc48f109p-3"},
        "wr_correction_derived": ("0x1.bffffffffffffp+1", "0x1.0000000000000p+0"),
        "aho_coeffs_derived": (
            "0x1.0000000000000p+0",
            "0x1.5b6db6db6db6ep+0",
            "0x1.705397829cbc1p-1",
            "0x1.6db6db6db6db7p-2",
        ),
        "action_wr_residue": "0x1.66679aae6c8f7p-1",
        "root": "0x1.fffd8addbf07ep-2",
        "residual_norm": "0x1.371bf6b87185ep-53",
    },
    2.0: {
        "wr_pdx_derived": "0x1.800538ef34d6ap+0",
        "aho_residue": {1e-4: "0x1.7fd63886594afp+0", -1e-4: "0x1.8029c779a6b51p+0"},
        "wr_correction_derived": ("0x1.e000000000000p+0", "0x1.0000000000000p+0"),
        "aho_coeffs_derived": (
            "0x1.0000000000000p+0",
            "0x1.2000000000000p+0",
            "0x1.b000000000000p-1",
            "0x1.0000000000000p-3",
        ),
        "action_wr_residue": "0x1.00027525460abp+1",
        "root": "0x1.3ffc01bbf6d48p+1",
        "residual_norm": "0x0.0p+0",
    },
    3.3: {
        "wr_pdx_derived": "0x1.666d3e920c06ap+1",
        "aho_residue": {1e-4: "0x1.662fa5093964ap+1", -1e-4: "0x1.669d27c393682p+1"},
        "wr_correction_derived": ("0x1.87c1f07c1f07dp+0", "0x1.0000000000000p+0"),
        "aho_coeffs_derived": (
            "0x1.0000000000000p+0",
            "0x1.1364d9364d936p+0",
            "0x1.cbb1f43f003c2p-1",
            "0x1.364d9364d9365p-4",
        ),
        "action_wr_residue": "0x1.a66d173fb7a5fp+1",
        "root": "0x1.bff8522d91c4bp+1",
        "residual_norm": "0x1.b8cd1b74b7b2dp-55",
    },
    4.4: {
        "wr_pdx_derived": "0x1.f33f3f961804ep+1",
        "aho_residue": {1e-4: "0x1.f2d2d01c0ca61p+1", -1e-4: "0x1.f393964a59c07p+1"},
        "wr_correction_derived": ("0x1.65d1745d1745dp+0", "0x1.0000000000000p+0"),
        "aho_coeffs_derived": (
            "0x1.0000000000000p+0",
            "0x1.0e8ba2e8ba2e9p+0",
            "0x1.d7ab5f34e47f0p-1",
            "0x1.d1745d1745d17p-5",
        ),
        "action_wr_residue": "0x1.199f8c21e1d22p+2",
        "root": "0x1.1ff9b4161e3b6p+2",
        "residual_norm": "0x1.df6fcc3e89d14p-53",
    },
    37.0: {
        "wr_pdx_derived": "0x1.243494467381dp+5",
        "aho_residue": {1e-4: "0x1.225b5dcc63f14p+5", -1e-4: "0x1.25a4a2339c0ecp+5"},
        "wr_correction_derived": ("0x1.0c1bacf914c1cp+0", "0x1.0000000000000p+0"),
        "aho_coeffs_derived": (
            "0x1.0000000000000p+0",
            "0x1.01bacf914c1bbp+0",
            "0x1.fadb8911c3c96p-1",
            "0x1.bacf914c1bad0p-8",
        ),
        "action_wr_residue": "0x1.283491d14e3bdp+5",
        "root": "0x1.23cce6e401905p+5",
        "residual_norm": "0x1.ba3a212d4dfc0p-50",
    },
}


@pytest.mark.parametrize("e", sorted(_RESIDUE_PINS))
class TestResiduePathPinnedBitForBit:
    params = natural_params(c=100.0)

    def test_wr_pdx_derived(self, e):
        j = quantum_action_wr_pdx_derived(self.params, energy_point(self.params, e)).j_value
        assert j.hex() == _RESIDUE_PINS[e]["wr_pdx_derived"]

    @pytest.mark.parametrize("delta", [1e-4, -1e-4])
    def test_aho_residue(self, e, delta):
        j = quantum_action_aho_residue(self.params, e, delta).j_value
        assert j.hex() == _RESIDUE_PINS[e]["aho_residue"][delta]

    def test_wr_correction_derived(self, e):
        pair = wr_correction_derived(self.params, energy_point(self.params, e))
        assert tuple(v.hex() for v in pair) == _RESIDUE_PINS[e]["wr_correction_derived"]

    @pytest.mark.parametrize("delta", [1e-4, -1e-4])
    def test_aho_coeffs_derived(self, e, delta):
        coeffs = aho_coeffs_derived(self.params, e, delta)
        assert tuple(v.hex() for v in coeffs) == _RESIDUE_PINS[e]["aho_coeffs_derived"]

    def test_action_wr_residue(self, e):
        j = action_wr_residue(self.params, energy_point(self.params, e)).j_value
        assert j.hex() == _RESIDUE_PINS[e]["action_wr_residue"]

    def _root(self, e):
        p = self.params

        def j(energy):
            return quantum_action_wr_pdx_derived(p, energy_point(p, energy)).j_value

        return invert_action(j, round(e - 0.5), p)

    def test_root_of_the_derived_action(self, e):
        assert self._root(e).hex() == _RESIDUE_PINS[e]["root"]

    def test_root_meets_the_exact_root_of_the_derived_action(self, e):
        # the derived action is E - 1/2 + (3/16) r (E^2 + 1/4), r = 1/c^2, so
        # J(E) = n is the quadratic a E^2 + E - b = 0; solve it to 50 digits
        n = round(e - 0.5)
        with localcontext() as ctx:
            ctx.prec = 50
            r = 1 / Decimal(self.params.c) ** 2
            a, b = 3 * r / 16, n + Decimal("0.5") - 3 * r / 64
            exact = 2 * b / (1 + (1 + 4 * a * b).sqrt())
            gap = abs(Decimal(self._root(e)) - exact) / exact
        assert gap <= Decimal("1e-13")

    def test_riccati_residual_norm(self, e):
        norm = riccati_pdx(self.params, e, order=11).residual_norm
        assert norm.hex() == _RESIDUE_PINS[e]["residual_norm"]


class TestQuantumActionWrXdp:
    def test_substitution(self):
        p, ep = params_for_eps(0.015, 1.5)
        assert quantum_action_wr_xdp(p, ep).j_value == pytest.approx(1.0046875, rel=1e-12)

    def test_nonrelativistic_limit(self):
        p = natural_params(c=1e5)
        ep = energy_point(p, 1.5)
        assert quantum_action_wr_xdp(p, ep).j_value == pytest.approx(1.0, abs=1e-8)

    def test_warns_at_large_ratio(self):
        p = natural_params(c=2.0)
        ep = energy_point(p, 0.3)
        with pytest.warns(WeakRegimeWarning):
            quantum_action_wr_xdp(p, ep)

    def test_classical_limit(self):
        p = make_params(1.0, 1.0, 10.0, 0.0)
        assert quantum_action_wr_xdp(p, energy_point(p, 1.0)).j_value == pytest.approx(
            1.001875, rel=1e-12
        )

    def test_refuses_eps_at_or_above_half(self):
        p = natural_params(c=10.0)
        with pytest.raises(ParameterOutOfRange, match="quantum_action_wr_xdp: eps = 0.6 >= 0.5"):
            quantum_action_wr_xdp(p, energy_point(p, 60.0))

    @pytest.mark.parametrize("hbar", [0.0, 1e-300, 0.6, 1.0])
    @pytest.mark.parametrize("m, k, c", [(1.0, 1.0, 10.0), (2.0, 8.0, 3.0)])
    def test_equals_mapped_anharmonic_action(self, m, k, c, hbar):
        # the momentum form is the quartic action under delta -> -k^2/(8 m c^2)
        p = make_params(m, k, c, hbar)
        delta = -k * k / (8.0 * m * c * c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakRegimeWarning)
            for e in (1.5, 3.0):
                j = quantum_action_wr_xdp(p, energy_point(p, e)).j_value
                mapped = quantum_action_aho(p, e, delta).j_value
                assert j == pytest.approx(mapped, rel=1e-12, abs=0.0)


class TestInvertAction:
    def test_sho_levels(self):
        p = natural_params()
        j = lambda e: quantum_action_sho(p, e).j_value
        assert invert_action(j, 0, p) == pytest.approx(0.5, rel=1e-12)
        assert invert_action(j, 7, p) == pytest.approx(7.5, rel=1e-12)

    def test_wr_matches_closed_form(self):
        p = natural_params(c=10.0)
        j = lambda e: quantum_action_wr_pdx(p, energy_point(p, e)).j_value
        e1 = invert_action(j, 1, p)
        closed = eigenvalues_wr_pdx(p, 1).energy
        assert abs(e1 - closed) < 5.0 * 0.01**2

    @given(scheme=st.sampled_from(["sho", "wr-pdx", "wr-xdp", "aho"]), n=st.integers(0, 63))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, scheme, n):
        # the weak-relativistic series need eps = E / m c^2 < 1/2, so E < 50 at c = 10
        assume(scheme not in ("wr-pdx", "wr-xdp") or n < 50)
        p = natural_params(c=10.0)
        j = {
            "sho": lambda e: quantum_action_sho(p, e).j_value,
            "wr-pdx": lambda e: quantum_action_wr_pdx(p, energy_point(p, e)).j_value,
            "wr-xdp": lambda e: quantum_action_wr_xdp(p, energy_point(p, e)).j_value,
            "aho": lambda e: quantum_action_aho(p, e, 1e-4).j_value,
        }[scheme]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakRegimeWarning)
            e = invert_action(j, n, p)
            assert abs(j(e) - n * 1.0) <= 1e-12

    @pytest.mark.parametrize("n_max, most", [(4, 3), (100, 4)])
    def test_action_evaluations_per_root(self, n_max, most):
        # the residue levels n = round(E - 1/2) for E in [0.5, 4.5] and in
        # [0.5, 100]: the harmonic Newton start leaves a secant step or two
        p = natural_params(c=100.0)
        for n in range(n_max + 1):
            calls = []

            def j(e):
                calls.append(e)
                return quantum_action_wr_pdx_derived(p, energy_point(p, e)).j_value

            invert_action(j, n, p)
            assert len(calls) <= most, f"n = {n}: {len(calls)} evaluations"


class TestEigenvaluesWr:
    def test_pdx_substitution(self):
        p = natural_params(c=10.0)
        assert eigenvalues_wr_pdx(p, 1).energy == pytest.approx(1.491875, rel=1e-12)

    def test_pdx_ground_state_unshifted(self):
        p = natural_params(c=10.0)
        assert eigenvalues_wr_pdx(p, 0).correction == pytest.approx(0.0, abs=1e-15)

    def test_xdp_substitution(self):
        p = natural_params(c=10.0)
        assert eigenvalues_wr_xdp(p, 1).energy == pytest.approx(1.48828125, rel=1e-12)

    def test_nonrelativistic_limits(self):
        p = natural_params(c=1e6)
        for n in (0, 4):
            assert eigenvalues_wr_pdx(p, n).energy == pytest.approx(n + 0.5, rel=1e-10)
            assert eigenvalues_wr_xdp(p, n).energy == pytest.approx(n + 0.5, rel=1e-10)

    def test_forms_converge_for_large_n(self):
        p = natural_params(c=100.0)
        r = p.level_ratio
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakRegimeWarning)
            for n in (50, 100):
                a = eigenvalues_wr_pdx(p, n).correction / n**2
                b = eigenvalues_wr_xdp(p, n).correction / n**2
                target = -(3.0 / 16.0) * r
                assert a == pytest.approx(target, rel=0.1)
                assert b == pytest.approx(target, rel=0.1)

    def test_level_spacing_law(self):
        p = natural_params(c=10.0)
        r = p.level_ratio
        for n in range(1, 21):
            spacing = eigenvalues_wr_pdx(p, n).energy - eigenvalues_wr_pdx(p, n - 1).energy
            assert spacing == pytest.approx(1.0 - (3.0 / 8.0) * n * r, abs=2.0 * r)

    def test_energies_increase_in_validity_range(self):
        p = natural_params(c=10.0)
        energies = [eigenvalues_wr_pdx(p, n).energy for n in range(20)]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_warns_outside_trust_region(self):
        p = natural_params(c=2.0)  # r = 0.25
        with pytest.warns(WeakRegimeWarning):
            eigenvalues_wr_pdx(p, 5)


class TestAhoCoeffs:
    def test_closed_form_substitution(self):
        p = natural_params()
        d0, d1, d2, lam = aho_coeffs(p, 0.5, 1e-4)
        assert lam == pytest.approx(0.5)
        assert (d0, d1, d2) == pytest.approx((1.0, 1.5, 0.75))

    def test_classical_limit(self):
        p = make_params(1.0, 1.0, 10.0, 0.0)
        d0, d1, d2, lam = aho_coeffs(p, 1.0, 1e-4)
        assert (d0, d1, d2, lam) == (1.0, 1.0, 1.0, 0.0)

    def test_derived_equal_closed(self):
        p = natural_params()
        for e in (0.5, 1.0, 2.5):
            closed = aho_coeffs(p, e, 1e-4)
            derived = aho_coeffs_derived(p, e, 1e-4)
            assert derived == pytest.approx(closed, rel=1e-10)

    def test_smallness_warning(self):
        p = natural_params()
        with pytest.warns(WeakRegimeWarning):
            aho_coeffs(p, 1.0, 0.5)

    def test_overflowing_trust_term_warns(self):
        # delta x2^4 overflows at e = 1e200; the coefficients do not depend on it
        with pytest.warns(WeakRegimeWarning, match=r"\|delta\| x2\^4 = inf > 2e\+199"):
            coeffs = aho_coeffs(natural_params(), 1e200, 1e-3)
        assert coeffs == (1.0, 1.0, 1.0, 2.5e-201)


class TestQuantumActionAho:
    def test_substitution(self):
        p = natural_params()
        assert quantum_action_aho(p, 1.5, 0.001).j_value == pytest.approx(0.99625, rel=1e-12)

    def test_delta_zero_reduction(self):
        p = natural_params()
        assert quantum_action_aho(p, 1.5, 0.0).j_value == pytest.approx(1.0, rel=1e-12)

    def test_overflowing_action_refused(self):
        p = natural_params()
        with pytest.warns(WeakRegimeWarning):
            with pytest.raises(ParameterOutOfRange, match=r"J = -inf at e = 1e\+200, delta"):
                quantum_action_aho(p, 1e200, 1e-3)
        # delta = 0 forms no e^2 term, so the harmonic J stays exact
        assert quantum_action_aho(p, 1e200, 0.0).j_value == 1e200 - 0.5

    def test_residue_path_matches(self):
        p = natural_params()
        for e, delta in ((1.5, 0.001), (0.7, -2e-4), (3.0, 5e-5)):
            closed = quantum_action_aho(p, e, delta).j_value
            res = quantum_action_aho_residue(p, e, delta).j_value
            assert res == pytest.approx(closed, rel=1e-10)


class TestEigenvaluesAho:
    def test_delta_zero(self):
        p = natural_params()
        assert eigenvalues_aho(p, 0.0, 3).energy == pytest.approx(3.5)

    def test_substitution(self):
        p = natural_params()
        e = eigenvalues_aho(p, 0.001, 0).energy
        assert e == pytest.approx(0.500375 + 0.0015 * 0.500375**2, rel=1e-12)
        assert e == pytest.approx(0.5007506, abs=1e-7)

    def test_positive_delta_raises_levels_linearly_spaced(self):
        p = natural_params()
        energies = [eigenvalues_aho(p, 1e-4, n).energy for n in range(8)]
        spacings = [b - a for a, b in zip(energies, energies[1:])]
        diffs = [t - s for s, t in zip(spacings, spacings[1:])]
        assert all(c > 0 for c in [e - (n + 0.5) for n, e in enumerate(energies)])
        assert all(d == pytest.approx(diffs[0], rel=1e-6) for d in diffs)

    def test_negative_delta_lowers_levels(self):
        p = natural_params()
        assert eigenvalues_aho(p, -1e-4, 2).correction < 0

    def test_coupling_formed_without_k_squared(self):
        # k^2 = 1e-400 underflows to 0, which delta / k / k never forms
        p = make_params(1e-200, 1e-200, 10.0, 1.0)  # omega0 = 1
        assert [eigenvalues_aho(p, 0.0, n).energy for n in range(3)] == [0.5, 1.5, 2.5]
        with pytest.raises(ParameterOutOfRange, match=r"not finite at delta = 0\.001, k = 1e-200$"):
            eigenvalues_aho(p, 1e-3, 0)


@pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "routine",
    [
        riccati_pdx,
        riccati_xdp,
        lambda p, e: aho_coeffs(p, e, 1e-4),
        lambda p, e: aho_coeffs_derived(p, e, 1e-4),
        lambda p, e: quantum_action_aho(p, e, 1e-4),
        lambda p, e: quantum_action_aho_residue(p, e, 1e-4),
    ],
    ids=[
        "riccati_pdx",
        "riccati_xdp",
        "aho_coeffs",
        "aho_coeffs_derived",
        "quantum_action_aho",
        "quantum_action_aho_residue",
    ],
)
def test_energy_not_finite_and_positive_refused(routine, e):
    with pytest.raises(ParameterOutOfRange, match=f"e_tilde must be finite and > 0, got {e}"):
        routine(natural_params(), e)
