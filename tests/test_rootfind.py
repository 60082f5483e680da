"""Root finding for increasing functions: convergence, work, and refusals."""

import math

import pytest

from actionvar import rootfind
from actionvar.core import ActionVarError, NotConverged, ParameterOutOfRange
from actionvar.rootfind import increasing_root


def test_converges_on_a_smooth_root():
    root = increasing_root(lambda x: x * x - 2.0, 1.0, 2.0, f_tol=1e-14)
    assert root == pytest.approx(2.0**0.5, rel=1e-14, abs=0.0)


def test_flat_function_converges_by_illinois_steps():
    # x^20 - 0.5 is so flat on [0.5, 1) that plain regula falsi stalls on
    # 0.5; the Illinois step halves the stale end's value and converges
    root = increasing_root(lambda x: x**20 - 0.5, 1.0, 1.0, f_tol=1e-12)
    assert root == pytest.approx(0.5 ** (1.0 / 20.0), rel=1e-14, abs=0.0)


def test_unconverged_root_raises_instead_of_returning_its_last_iterate(monkeypatch):
    monkeypatch.setattr(rootfind, "MAX_ITER", 3)
    with pytest.raises(NotConverged, match="after 3 iterations") as exc:
        increasing_root(lambda x: x**20 - 0.5, 1.0, 1.0, f_tol=1e-12)
    assert isinstance(exc.value, ActionVarError)


def test_equal_signs_refused():
    # the root lies at -e^1000, past the largest float: the steps run off the floats
    with pytest.raises(ParameterOutOfRange, match="no sign change found"):
        increasing_root(lambda x: 1000.0 - math.log(-x), -1.0, 1.0, f_tol=1e-12)


def test_decreasing_function_refused_when_increase_is_required():
    with pytest.raises(ParameterOutOfRange, match="function decreases"):
        increasing_root(lambda x: 1.0 - x, 0.0, 1.0, f_tol=1e-12)


def test_expand_bracket_gives_up_without_a_sign_change():
    # steps left from a positive point stop at half of it, so the root at
    # e^-100 is out of reach within MAX_EXPANSIONS steps from 1
    with pytest.raises(ParameterOutOfRange, match="no sign change found") as exc:
        increasing_root(lambda x: math.log(x) + 100.0, 1.0, 1.0, f_tol=1e-12)
    assert f"x = {2.0**-rootfind.MAX_EXPANSIONS!r}" in str(exc.value)


def test_expand_bracket_finds_a_sign_change():
    calls = []

    def f(x):
        calls.append(x)
        return x**3 - 1000.0

    # a poor slope makes a short first step; secant steps then cross the root
    assert increasing_root(f, 1.0, 1e6, f_tol=1e-9) == pytest.approx(10.0, rel=1e-12, abs=0.0)
    assert len(calls) == len(set(calls))


def test_secant_steps_reach_a_root_without_a_bracket():
    calls = []

    def f(x):
        calls.append(x)
        return math.sqrt(x) - 10.0

    # every secant step on this concave function stays left of the root
    assert increasing_root(f, 1.0, 1.0, f_tol=1e-12) == pytest.approx(100.0, rel=1e-12, abs=0.0)
    assert all(x <= 100.0 for x in calls)
    assert len(calls) == len(set(calls))


def test_a_step_below_one_ulp_still_moves():
    # slope 1e300 makes the Newton step from 1 round to nothing; the search
    # moves one ulp instead, and the secant through both points is exact
    assert increasing_root(lambda x: x - 0.5, 1.0, 1e300, f_tol=1e-12) == 0.5


def test_a_step_that_leaves_f_unchanged_is_grown():
    # slope 1e300 makes the first step 5e-301, where x - 0.5 rounds to -0.5
    # again; the search grows such steps instead of calling f flat
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.5

    root = increasing_root(f, 0.0, 1e300, f_tol=1e-12)
    assert abs(root - 0.5) <= 1e-12
    assert len(calls) <= rootfind.MAX_EXPANSIONS


def test_a_decreasing_function_still_refused_after_unchanged_steps():
    with pytest.raises(ParameterOutOfRange, match="function decreases"):
        increasing_root(lambda x: -0.5 - x, 0.0, 1e300, f_tol=1e-12)


@pytest.mark.parametrize("slope", [0.0, -1.0, math.inf, math.nan])
def test_slope_must_be_finite_and_positive(slope):
    with pytest.raises(ParameterOutOfRange, match="slope must be finite and > 0"):
        increasing_root(lambda x: x - 0.5, 0.0, slope, f_tol=1e-12)


@pytest.mark.parametrize("slope", [1.0, 0.5])
def test_non_finite_value_refused(slope):
    # slope 1 steps straight onto the NaN at 0.5; slope 0.5 brackets [0, 1]
    # first and meets it at the bracket's first interior point
    def f(x):
        return math.nan if 0.3 < x < 0.7 else x - 0.5

    with pytest.raises(ParameterOutOfRange, match=r"not finite at x = 0\.5"):
        increasing_root(f, 0.0, slope, f_tol=1e-12)
