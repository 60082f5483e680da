"""Bracketed root finding: convergence, and refusal when it stalls."""

import pytest

from actionvar.core import ActionVarError, NotConverged, ParameterOutOfRange
from actionvar.rootfind import bracketed_root, expand_bracket


def test_converges_on_a_smooth_root():
    root = bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0, f_tol=1e-14)
    assert root == pytest.approx(2.0**0.5, rel=1e-14)


def test_stalled_regula_falsi_raises_instead_of_returning_its_last_iterate():
    # x^20 - 0.5 is so flat on [0, 1) that every secant step lands next to 0;
    # the iterate after 200 steps is about 1.9e-4, where f is still -0.5
    with pytest.raises(NotConverged, match="after 200 iterations") as exc:
        bracketed_root(lambda x: x**20 - 0.5, 0.0, 2.0, f_tol=1e-12)
    assert isinstance(exc.value, ActionVarError)


def test_equal_signs_refused():
    with pytest.raises(ParameterOutOfRange, match="have equal sign"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, f_tol=1e-12)


def test_decreasing_function_refused_when_increase_is_required():
    with pytest.raises(ParameterOutOfRange, match="function decreases across the bracket"):
        bracketed_root(lambda x: 1.0 - x, 0.0, 2.0, f_tol=1e-12, require_increasing=True)


def test_expand_bracket_gives_up_without_a_sign_change():
    with pytest.raises(ParameterOutOfRange, match="no sign change found in expanded bracket"):
        expand_bracket(lambda x: x * x + 1.0, 1.0, 2.0)


def test_expand_bracket_finds_a_sign_change():
    lo, hi = expand_bracket(lambda x: x - 10.0, 1.0, 2.0)
    assert lo < 10.0 < hi
