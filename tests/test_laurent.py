"""Laurent series arithmetic, truncation windows, and residue rules."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionvar.core import OrderInsufficient, ParameterOutOfRange
from actionvar.laurent import (
    LaurentSeries,
    binomial_sqrt,
    sqrt_coefficients,
)

coeffs_strategy = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.complex_numbers(
        min_magnitude=0.01, max_magnitude=10.0, allow_nan=False, allow_infinity=False
    ),
    max_size=6,
)

trunc_strategy = st.one_of(st.none(), st.integers(min_value=-8, max_value=7))

# small integers, so that every product and sum below is exact in floats
int_coeffs_strategy = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9).filter(bool),
    max_size=6,
)
# where a hidden series is cut, in powers from its top term (None: exact);
# an offset above 0 leaves the truncated series holding no term at all
offset_strategy = st.one_of(st.none(), st.integers(min_value=-3, max_value=2))


def naive_product(a: LaurentSeries, b: LaurentSeries, bound: int | None) -> list:
    """Every pair of a full double loop, then the powers at or above bound."""
    out = {}
    for pa, ca in a.coefficients.items():
        for pb, cb in b.coefficients.items():
            out[pa + pb] = out.get(pa + pb, 0.0) + ca * cb
    return [(p, c) for p, c in out.items() if c != 0 and (bound is None or p >= bound)]


def approx_equal(a: LaurentSeries, b: LaurentSeries, tol: float = 1e-9) -> bool:
    powers = set(a.coefficients) | set(b.coefficients)
    scale = max(a.max_abs(), b.max_abs(), 1.0)
    return all(abs(a.coefficient(p) - b.coefficient(p)) <= tol * scale for p in powers)


class TestBasics:
    def test_add_cancellation(self):
        s = LaurentSeries({1: 1.0, 0: 1.0}) + LaurentSeries({1: 1.0, 0: -1.0})
        assert s.coefficients == {1: 2.0}

    def test_add_identity(self):
        s = LaurentSeries({2: 3.0, -1: 1.5})
        assert (LaurentSeries({}) + s).coefficients == s.coefficients

    def test_add_like_powers(self):
        s = LaurentSeries({-1: 3.0}) + LaurentSeries({-1: 2.0})
        assert s.coefficient(-1) == 5.0

    def test_mul_monomials(self):
        s = LaurentSeries.term(2, 2.0) * LaurentSeries.term(-3, 4.0)
        assert s.coefficients == {-1: 8.0}

    def test_scalar_multiplication(self):
        s = 3.0 * LaurentSeries({1: 1.0, -2: 2.0})
        assert s.coefficient(1) == 3.0 and s.coefficient(-2) == 6.0

    def test_shifted(self):
        s = LaurentSeries({0: 1.0, -2: 5.0}).shifted(3)
        assert s.coefficients == {3: 1.0, 1: 5.0}

    def test_derivative_power_rule(self):
        assert LaurentSeries.term(2, 1.0).derivative().coefficients == {1: 2.0}
        assert LaurentSeries.term(-1, 1.0).derivative().coefficients == {-2: -1.0}
        assert not LaurentSeries.term(0, 7.0).derivative().coefficients

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
            s.coefficient(-5)

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

    def test_mul_of_truncated_empty_series_is_untrusted_above_zero(self):
        # each factor may hold x^2 below its bound x^3, and x^2 * x^2 = x^4
        a = LaurentSeries({}, trunc_low=3)
        assert (a * a).trunc_low == 5
        with pytest.raises(OrderInsufficient):
            (a * a).coefficient(4)

    def test_mul_by_exact_zero_keeps_the_other_bound(self):
        a = LaurentSeries({1: 2.0}, trunc_low=-1)
        assert (a * LaurentSeries({})).trunc_low == -1
        assert not (LaurentSeries({}) * a).coefficients

    def test_truncated_never_widens(self):
        s = LaurentSeries({0: 1.0}, trunc_low=-2)
        assert s.truncated(low=-10).trunc_low == -2

    def test_derivative_shifts_window(self):
        s = LaurentSeries({0: 1.0}, trunc_low=-2)
        assert s.derivative().trunc_low == -3


class TestBinomial:
    def test_constant_term_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="about infinity needs u -> 0"):
            binomial_sqrt(LaurentSeries({0: 0.5}), 3)

    def test_mixed_powers_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="about infinity needs u -> 0"):
            binomial_sqrt(LaurentSeries({1: 1.0, -1: 1.0}), 3)

    def test_positive_powers_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="about infinity needs u -> 0"):
            binomial_sqrt(LaurentSeries.term(2, 1.0), 3)

    def test_small_constant_term_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="about infinity needs u -> 0"):
            binomial_sqrt(LaurentSeries({0: 1e-15, -2: 1.0}), 3)

    def test_known_sqrt_coefficients(self):
        u = LaurentSeries.term(-2, 1.0)
        s = binomial_sqrt(u, 4)
        assert s.coefficient(0) == pytest.approx(1.0)
        assert s.coefficient(-2) == pytest.approx(-0.5)
        assert s.coefficient(-4) == pytest.approx(-0.125)
        assert s.coefficient(-6) == pytest.approx(-1.0 / 16.0)
        assert s.coefficient(-8) == pytest.approx(-5.0 / 128.0)

    def test_shared_coefficients_are_the_exact_binomials(self):
        # c_j = binom(1/2, j) (-1)^j as exact rationals; binomial_sqrt and
        # classical.action_wr_xdp both read these values
        c = sqrt_coefficients(12)
        s = binomial_sqrt(LaurentSeries.term(-1, 1.0), 12)
        for j in range(13):
            binom = Fraction(1)
            for i in range(j):
                binom *= (Fraction(1, 2) - i) / (i + 1)
            assert Fraction(c[j]) == binom * (-1) ** j
            assert s.coefficient(-j) == c[j]

    def test_window_set_by_omitted_tail(self):
        u = LaurentSeries.term(-2, 1.0)
        s = binomial_sqrt(u, 4)
        assert s.trunc_low == -9

    def test_negative_order_refused(self):
        with pytest.raises(OrderInsufficient):
            binomial_sqrt(LaurentSeries.term(-2, 1.0), -1)

    @given(coeff=st.floats(min_value=0.1, max_value=2.0), power=st.integers(-4, -1))
    @settings(max_examples=30, deadline=None)
    def test_sqrt_squares_back(self, coeff, power):
        u = LaurentSeries.term(power, coeff)
        s = binomial_sqrt(u, 6)
        square = s * s
        target = LaurentSeries({0: 1.0, power: -coeff})
        lo = square.trunc_low
        for p in range(lo, 1):
            assert abs(square.coefficient(p) - target.coefficient(p)) < 1e-9 * max(1.0, coeff**7)


def typed_terms(s: LaurentSeries) -> tuple:
    """trunc_low, then each term in stored order with the types of its power and coefficient."""
    return s.trunc_low, [(p, type(p), c, type(c)) for p, c in s.coefficients.items()]


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

    @given(a=coeffs_strategy, ta=trunc_strategy, b=coeffs_strategy, tb=trunc_strategy)
    @settings(max_examples=100, deadline=None)
    def test_product_equals_naive_double_loop(self, a, ta, b, tb):
        sa, sb = LaurentSeries(a, ta), LaurentSeries(b, tb)
        product = sa * sb
        # same coefficients, bit for bit, in the same order
        assert list(product.coefficients.items()) == naive_product(sa, sb, product.trunc_low)

    @given(
        a=int_coeffs_strategy, da=offset_strategy, b=int_coeffs_strategy, db=offset_strategy
    )
    @example(a={2: 1}, da=1, b={2: 1}, db=1)  # both factors hold only unknown terms
    @settings(max_examples=200, deadline=None)
    def test_trusted_product_terms_match_the_exact_product(self, a, da, b, db):
        # a and b are the hidden exact series; the factors know them only
        # down to a bound placed da and db powers from their top terms
        ta = None if da is None else max(a, default=0) + da
        tb = None if db is None else max(b, default=0) + db
        exact = {}
        for pa, ca in a.items():
            for pb, cb in b.items():
                exact[pa + pb] = exact.get(pa + pb, 0) + ca * cb
        product = LaurentSeries(a, ta) * LaurentSeries(b, tb)
        low = -14 if product.trunc_low is None else product.trunc_low
        for p in range(low, 15):
            assert product.coefficient(p) == exact.get(p, 0)

    @given(
        a=coeffs_strategy,
        ta=trunc_strategy,
        b=coeffs_strategy,
        tb=trunc_strategy,
        factor=st.one_of(
            st.just(0.0),
            st.floats(-3, 3),
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        ),
        powers=st.integers(-3, 3),
        low=trunc_strategy,
    )
    @settings(max_examples=100, deadline=None)
    def test_operations_return_what_the_constructor_builds(
        self, a, ta, b, tb, factor, powers, low
    ):
        # every result is already in the form the public constructor gives:
        # int powers, complex coefficients, no exact zeros, none below the bound
        sa, sb = LaurentSeries(a, ta), LaurentSeries(b, tb)
        results = [
            sa + sb,
            sa - sb,
            -sa,
            sa * sb,
            sa * factor,
            factor * sa,
            sa.scaled(factor),
            sa.shifted(powers),
            sa.derivative(),
            sa.truncated(low),
        ]
        for r in results:
            assert typed_terms(r) == typed_terms(LaurentSeries(r.coefficients, r.trunc_low))
        assert typed_terms(sa - sb) == typed_terms(sa + (-sb))
