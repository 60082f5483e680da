"""Parameter bundles, energy points, the error taxonomy and the imports."""

import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import actionvar
from actionvar import core
from actionvar.core import (
    EPSILON_HARD_LIMIT,
    EnergyPoint,
    ParameterOutOfRange,
    WeakRegimeWarning,
    energy_point,
    make_params,
    natural_params,
    require_weak_regime,
)


class TestMakeParams:
    def test_natural_units(self):
        p = make_params(1.0, 1.0, 10.0, 1.0)
        assert p.omega0 == 1.0
        assert p.rest_energy == 100.0

    def test_omega0_from_stiffness(self):
        p = make_params(1.0, 4.0, 1.0, 1.0)
        assert p.omega0 == 2.0

    def test_hbar_zero_is_legal(self):
        p = make_params(1.0, 1.0, 1.0, 0.0)
        assert p.hbar == 0.0
        assert p.level_ratio == 0.0

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 0, 1), (1, 1, 1, -1)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ParameterOutOfRange, match=r"must be finite and >=? 0, got -?[0-9]"):
            make_params(*bad)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterOutOfRange, match="m must be finite and > 0, got inf"):
            make_params(math.inf, 1, 1, 1)

    def test_rest_energy_underflow_refused(self):
        # m c^2 = 1e-400 rounds to 0, and every energy ratio would divide by it
        with pytest.raises(ParameterOutOfRange, match="m c\\^2 underflows to 0"):
            make_params(1e-200, 1.0, 1e-100, 1.0)

    @pytest.mark.parametrize("m, c", [(1.0, 1e160), (1e300, 1e10), (2.0, 1.5e154)])
    def test_rest_energy_overflow_refused(self, m, c):
        # natural_params(c=1e160): c**2 alone raises OverflowError;
        # m * c**2 turns inf in the other two
        with pytest.raises(ParameterOutOfRange, match="m c\\^2 overflows at m = "):
            make_params(m, 1.0, c, 1.0)

    @pytest.mark.parametrize("m, c", [(1.0, 10.0), (0.3, 7.1), (3.7, 1.3e-7), (1.0, 1.3e154)])
    def test_rest_energy_is_m_times_c_squared(self, m, c):
        assert make_params(m, 1.0, c, 1.0).rest_energy == m * c**2

    def test_level_ratio(self):
        p = make_params(1.0, 1.0, 10.0, 1.0)
        assert p.level_ratio == pytest.approx(0.01)

    def test_params_are_frozen(self):
        p = natural_params()
        with pytest.raises(AttributeError):
            p.m = 2.0


class TestEnergyPoint:
    def test_direct_ratio(self):
        p = make_params(1.0, 1.0, 10.0, 1.0)
        assert energy_point(p, 1.0).epsilon == pytest.approx(0.01)
        assert energy_point(p, 5.0).epsilon == pytest.approx(0.05)

    def test_epsilon_scales_linearly(self):
        p = natural_params(c=10.0)
        base = energy_point(p, 2.0).epsilon
        for s in (0.5, 3.0, 7.25):
            assert energy_point(p, 2.0 * s).epsilon == pytest.approx(s * base)

    def test_rejects_nonpositive_energy(self):
        p = natural_params()
        with pytest.raises(ParameterOutOfRange, match="e_tilde must be finite and > 0, got 0.0"):
            energy_point(p, 0.0)
        with pytest.raises(ParameterOutOfRange, match="e_tilde must be finite and > 0, got -1.0"):
            energy_point(p, -1.0)

    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_energy(self, e):
        with pytest.raises(ParameterOutOfRange, match=f"e_tilde must be finite and > 0, got {e}"):
            energy_point(natural_params(), e)
        with pytest.raises(ParameterOutOfRange, match=f"e_tilde must be finite and > 0, got {e}"):
            EnergyPoint(e_tilde=e, epsilon=0.01)


class TestWeakRegimeGate:
    def test_hard_limit_raises(self):
        p = make_params(1.0, 1.0, 1.0, 1.0)
        for eps in (EPSILON_HARD_LIMIT, EPSILON_HARD_LIMIT + 0.01):
            ep = energy_point(p, eps)
            with pytest.raises(ParameterOutOfRange, match="branch points reach the real axis"):
                require_weak_regime(ep, "test")

    def test_soft_limit_warns(self):
        p = make_params(1.0, 1.0, 1.0, 1.0)
        ep = energy_point(p, 0.2)
        with pytest.warns(WeakRegimeWarning):
            require_weak_regime(ep, "test")

    def test_comfortable_regime_silent(self, recwarn):
        p = natural_params(c=10.0)
        require_weak_regime(energy_point(p, 1.0), "test")
        assert not recwarn.list


class TestErrorTaxonomy:
    """One error class per remedy open to the caller."""

    ERRORS = {
        name
        for name, obj in vars(core).items()
        if isinstance(obj, type) and issubclass(obj, core.ActionVarError)
    } - {"ActionVarError"}

    def test_one_class_per_remedy(self):
        assert self.ERRORS == {
            "ParameterOutOfRange",
            "OrderInsufficient",
            "NotConverged",
            "BasisNotConverged",
            "ConfigInvalid",
            "IoFailure",
        }
        assert self.ERRORS <= set(core.__all__)

    def test_every_error_class_is_raised_and_asserted_by_name(self):
        root = Path(__file__).resolve().parents[1]
        src = "".join(p.read_text() for p in (root / "src" / "actionvar").glob("*.py"))
        tests = "".join(p.read_text() for p in (root / "tests").glob("*.py"))
        for name in sorted(self.ERRORS):
            assert f"raise {name}(" in src, f"{name} is never raised"
            assert f"pytest.raises({name}" in tests, f"no test asserts {name} by name"


@pytest.mark.parametrize(
    "module", ["__init__", *sorted(p.stem for p in Path(actionvar.__file__).parent.glob("[!_]*.py"))]
)
def test_every_exported_name_resolves(module):
    mod = actionvar if module == "__init__" else importlib.import_module(f"actionvar.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names {missing}, which it does not define"
    if mod is not actionvar:
        # a submodule lists only what it defines; re-exports belong to the package
        borrowed = [
            name
            for name in mod.__all__
            if callable(obj := getattr(mod, name)) and obj.__module__ != mod.__name__
        ]
        assert not borrowed, f"{mod.__name__}.__all__ re-exports {borrowed}"


def test_runtime_imports_are_stdlib_numpy_or_own():
    # numpy is the one runtime dependency pyproject.toml declares
    allowed = set(sys.stdlib_module_names) | {"numpy", "__future__", "actionvar"}
    src = Path(__file__).resolve().parents[1] / "src" / "actionvar"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["actionvar"]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


_ROOT = Path(__file__).resolve().parents[1]

# Runs the code in argv[1] in a fresh interpreter and prints the top-level
# names of the modules it loaded, leaving out those loaded at start-up.
_LOADED_BY = """
import sys
before = set(sys.modules)
exec(sys.argv[1])
print(*sorted({name.partition(".")[0] for name in sys.modules.keys() - before}))
"""


def _modules_loaded_by(code: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, code],
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    # the report is the last line; code that prints (the CLI) comes first
    return set(proc.stdout.splitlines()[-1].split())


def _foreign(loaded: set[str]) -> list[str]:
    return sorted(loaded - set(sys.stdlib_module_names) - {"actionvar"})


def _readme_quick_start() -> str:
    readme = (_ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_import_and_quick_start_load_only_stdlib_and_own_modules():
    # the residue, closed-form and root-finding paths build no array, so
    # numpy (and any later heavy dependency) stays off them
    code = "import actionvar\n" + _readme_quick_start()
    loaded = _modules_loaded_by(code)
    assert "actionvar" in loaded
    assert not _foreign(loaded), f"import actionvar and the README quick start load {_foreign(loaded)}"


_WEAK = (
    "from actionvar import *\n"
    "spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, natural_params())\n"
)


@pytest.mark.parametrize(
    "code",
    [
        _WEAK + "action_quadrature(spec, 1.0)",
        _WEAK + "rk4_period(spec, 1.0)",
        _WEAK + "frequency_from_action(lambda e: action_quadrature(spec, e), 1.0)",
        "from actionvar import cli\nassert cli.main(['table1']) == 0",
        "from actionvar import cli\nassert cli.main(['freq']) == 0",
    ],
    ids=["action_quadrature", "rk4_period", "frequency_from_action", "cli-table1", "cli-freq"],
)
def test_classical_paths_load_only_stdlib_and_own_modules(code):
    # the orbit integrals are float arithmetic on math; numpy stays with the ladder basis
    loaded = _modules_loaded_by(code)
    assert "actionvar" in loaded
    assert not _foreign(loaded), f"{code!r} loads {_foreign(loaded)}"


def test_diagonalize_loads_numpy():
    # the positive case: the checks above would pass vacuously if no module
    # ever showed up in the child's report
    loaded = _modules_loaded_by(_WEAK + "diagonalize(spec, 8, 2, certify=False)")
    assert "numpy" in loaded


@pytest.mark.parametrize(
    "path",
    [
        *sorted(p for p in (_ROOT / "src" / "actionvar").glob("*.py") if p.name != "__init__.py"),
        *sorted((_ROOT / "tests").glob("*.py")),
    ],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    # the package __init__ imports names only to re-export them
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - read, f"{path.name} never reads {sorted(imported - read)}"
