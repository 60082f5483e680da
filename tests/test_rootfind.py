"""Root finding for increasing functions: convergence, and refusal when it stalls."""

import pytest

from actionvar.core import ActionVarError, NotConverged, ParameterOutOfRange
from actionvar.rootfind import increasing_root


def test_converges_on_a_smooth_root():
    root = increasing_root(lambda x: x * x - 2.0, 0.0, 2.0, f_tol=1e-14)
    assert root == pytest.approx(2.0**0.5, rel=1e-14, abs=0.0)


def test_stalled_regula_falsi_raises_instead_of_returning_its_last_iterate():
    # x^20 - 0.5 is so flat on [0, 1) that every secant step lands next to 0;
    # the iterate after 200 steps is about 1.9e-4, where f is still -0.5
    with pytest.raises(NotConverged, match="after 200 iterations") as exc:
        increasing_root(lambda x: x**20 - 0.5, 0.0, 2.0, f_tol=1e-12)
    assert isinstance(exc.value, ActionVarError)


def test_equal_signs_refused():
    # the bracket grows on both sides and never finds a sign change
    with pytest.raises(ParameterOutOfRange, match="no sign change found in expanded bracket"):
        increasing_root(lambda x: x * x + 1.0, -1.0, 1.0, f_tol=1e-12)


def test_decreasing_function_refused_when_increase_is_required():
    with pytest.raises(ParameterOutOfRange, match="function decreases across the bracket"):
        increasing_root(lambda x: 1.0 - x, 0.0, 2.0, f_tol=1e-12)


def test_expand_bracket_gives_up_without_a_sign_change():
    with pytest.raises(ParameterOutOfRange, match="no sign change found in expanded bracket"):
        increasing_root(lambda x: x * x + 1.0, 1.0, 2.0, f_tol=1e-12)


def test_expand_bracket_finds_a_sign_change():
    calls = []

    def f(x):
        calls.append(x)
        return x - 10.0

    assert increasing_root(f, 1.0, 2.0, f_tol=1e-12) == pytest.approx(10.0, rel=1e-12, abs=0.0)
    # each end is evaluated once per bracket: no bracket end is re-evaluated
    assert len(calls) == len(set(calls))
