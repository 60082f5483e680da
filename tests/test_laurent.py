"""Laurent series arithmetic, truncation windows, and residue rules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionvar.core import InvalidExpansionPoint, OrderInsufficient
from actionvar.laurent import (
    LaurentSeries,
    binomial_series,
    binomial_sqrt,
)

coeffs_strategy = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.complex_numbers(
        min_magnitude=0.01, max_magnitude=10.0, allow_nan=False, allow_infinity=False
    ),
    max_size=6,
)


def approx_equal(a: LaurentSeries, b: LaurentSeries, tol: float = 1e-9) -> bool:
    powers = set(a.coefficients) | set(b.coefficients)
    scale = max(a.max_abs(), b.max_abs(), 1.0)
    return all(abs(a[p] - b[p]) <= tol * scale for p in powers)


class TestBasics:
    def test_add_cancellation(self):
        s = LaurentSeries({1: 1.0, 0: 1.0}) + LaurentSeries({1: 1.0, 0: -1.0})
        assert s.coefficients == {1: 2.0}

    def test_add_identity(self):
        s = LaurentSeries({2: 3.0, -1: 1.5})
        assert (LaurentSeries.zero() + s).coefficients == s.coefficients

    def test_add_like_powers(self):
        s = LaurentSeries({-1: 3.0}) + LaurentSeries({-1: 2.0})
        assert s[-1] == 5.0

    def test_mul_monomials(self):
        s = LaurentSeries.term(2, 2.0) * LaurentSeries.term(-3, 4.0)
        assert s.coefficients == {-1: 8.0}

    def test_scalar_multiplication(self):
        s = 3.0 * LaurentSeries({1: 1.0, -2: 2.0})
        assert s[1] == 3.0 and s[-2] == 6.0

    def test_shifted(self):
        s = LaurentSeries({0: 1.0, -2: 5.0}).shifted(3)
        assert s.coefficients == {3: 1.0, 1: 5.0}

    def test_derivative_power_rule(self):
        assert LaurentSeries.term(2, 1.0).derivative().coefficients == {1: 2.0}
        assert LaurentSeries.term(-1, 1.0).derivative().coefficients == {-2: -1.0}
        assert LaurentSeries.term(0, 7.0).derivative().is_zero()

    def test_small_coefficients_kept(self):
        s = LaurentSeries({0: 1.0, 5: 1e-15})
        assert s.coefficients == {0: 1.0, 5: 1e-15}


class TestWindows:
    def test_residue_refused_outside_window(self):
        s = LaurentSeries({1: 1.0}, trunc_low=0)
        with pytest.raises(OrderInsufficient):
            s.residue()

    def test_residue_allowed_inside_window(self):
        s = LaurentSeries({-1: 2.5}, trunc_low=-3)
        assert s.residue() == 2.5

    def test_coefficient_refused_below_window(self):
        s = LaurentSeries({-1: 2.5}, trunc_low=-3)
        assert s.coefficient(-3) == 0.0
        with pytest.raises(OrderInsufficient):
            s.coefficient(-4)
        with pytest.raises(OrderInsufficient):
            s[-5]

    def test_add_intersects_windows(self):
        a = LaurentSeries({0: 1.0}, trunc_low=-2)
        b = LaurentSeries({0: 1.0}, trunc_low=-5)
        assert (a + b).trunc_low == -2
        assert (a + LaurentSeries({0: 1.0})).trunc_low == -2

    def test_mul_contaminates_low_side(self):
        # unknown terms below a's window meet b's top power 2
        a = LaurentSeries({0: 1.0, -3: 1.0}, trunc_low=-3)
        b = LaurentSeries({2: 1.0, 0: 1.0})
        assert (a * b).trunc_low == -1

    def test_truncated_never_widens(self):
        s = LaurentSeries({0: 1.0}, trunc_low=-2)
        assert s.truncated(low=-10).trunc_low == -2

    def test_derivative_shifts_window(self):
        s = LaurentSeries({0: 1.0}, trunc_low=-2)
        assert s.derivative().trunc_low == -3


class TestBinomial:
    def test_constant_term_rejected(self):
        with pytest.raises(InvalidExpansionPoint):
            binomial_sqrt(LaurentSeries({0: 0.5}), 3)

    def test_mixed_powers_rejected(self):
        with pytest.raises(InvalidExpansionPoint):
            binomial_sqrt(LaurentSeries({1: 1.0, -1: 1.0}), 3)

    def test_positive_powers_rejected(self):
        with pytest.raises(InvalidExpansionPoint):
            binomial_sqrt(LaurentSeries.term(2, 1.0), 3)

    def test_small_constant_term_rejected(self):
        with pytest.raises(InvalidExpansionPoint):
            binomial_sqrt(LaurentSeries({0: 1e-15, -2: 1.0}), 3)

    def test_known_sqrt_coefficients(self):
        u = LaurentSeries.term(-2, 1.0)
        s = binomial_sqrt(u, 4)
        assert s[0] == pytest.approx(1.0)
        assert s[-2] == pytest.approx(-0.5)
        assert s[-4] == pytest.approx(-0.125)
        assert s[-6] == pytest.approx(-1.0 / 16.0)
        assert s[-8] == pytest.approx(-5.0 / 128.0)

    def test_window_set_by_omitted_tail(self):
        u = LaurentSeries.term(-2, 1.0)
        s = binomial_sqrt(u, 4)
        assert s.trunc_low == -9

    def test_negative_order_refused(self):
        with pytest.raises(OrderInsufficient):
            binomial_series(LaurentSeries.term(-2, 1.0), 0.5, -1)

    def test_inverse_power_alpha(self):
        # (1 - u)^(-1) is the geometric series
        u = LaurentSeries.term(-1, 0.5)
        s = binomial_series(u, -1.0, 5)
        for j in range(6):
            assert s[-j] == pytest.approx(0.5**j)

    @given(coeff=st.floats(min_value=0.1, max_value=2.0), power=st.integers(-4, -1))
    @settings(max_examples=30, deadline=None)
    def test_sqrt_squares_back(self, coeff, power):
        u = LaurentSeries.term(power, coeff)
        s = binomial_sqrt(u, 6)
        square = s * s
        target = LaurentSeries({0: 1.0, power: -coeff})
        lo = square.trunc_low
        for p in range(lo, 1):
            assert abs(square[p] - target[p]) < 1e-9 * max(1.0, coeff**7)


class TestAlgebraProperties:
    @given(a=coeffs_strategy, b=coeffs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes(self, a, b):
        sa, sb = LaurentSeries(a), LaurentSeries(b)
        assert approx_equal(sa + sb, sb + sa)

    @given(a=coeffs_strategy, b=coeffs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_commutes(self, a, b):
        sa, sb = LaurentSeries(a), LaurentSeries(b)
        assert approx_equal(sa * sb, sb * sa)

    @given(a=coeffs_strategy, b=coeffs_strategy, c=coeffs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_distributive(self, a, b, c):
        sa, sb, sc = LaurentSeries(a), LaurentSeries(b), LaurentSeries(c)
        lhs = sa * (sb + sc)
        rhs = sa * sb + sa * sc
        assert approx_equal(lhs, rhs, tol=1e-7)

    @given(a=coeffs_strategy, b=coeffs_strategy, c=coeffs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_multiplication_associates(self, a, b, c):
        sa, sb, sc = LaurentSeries(a), LaurentSeries(b), LaurentSeries(c)
        lhs = (sa * sb) * sc
        rhs = sa * (sb * sc)
        assert approx_equal(lhs, rhs, tol=1e-6)

    @given(s=coeffs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_derivative_has_no_residue(self, s):
        d = LaurentSeries(s).derivative()
        assert abs(d.residue()) == 0.0

    @given(a=coeffs_strategy, b=coeffs_strategy, alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_residue_is_linear(self, a, b, alpha, beta):
        sa, sb = LaurentSeries(a), LaurentSeries(b)
        combined = sa.scaled(alpha) + sb.scaled(beta)
        expected = alpha * sa.residue() + beta * sb.residue()
        scale = max(abs(expected), 1.0)
        assert abs(combined.residue() - expected) <= 1e-9 * scale
