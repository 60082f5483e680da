"""The library calls the benchmark makes still run and check out.

bench/workloads.py calls the library the way a user would: it reads
`.j_value` and `.energy`, passes `SchemeTag` members to `action_fullrel`
and catches only typed errors.  Each workload's warm-up request runs here
untimed, so an API change that breaks the benchmark fails this suite:
as an exception, or as a `wrong` outcome where the benchmark's checker
caught an untyped exception inside a library call.  Every library name a
bench script imports or reads, also inside a function body, must resolve.
"""

import ast
import importlib
import sys
import warnings
from pathlib import Path

import pytest

from actionvar.core import WeakRegimeWarning

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import checks
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return checks, tracing, workloads


@pytest.mark.parametrize("name", ["spectral", "classical", "residue"])
def test_warmup_request_checks_out(bench, name):
    checks, tracing, workloads = bench
    workload = workloads.WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakRegimeWarning)  # as the benchmark runs
        req = workload.run(workload.warmup, tracing.NullTracer())
    assert req.outcome == checks.OK, req.wrong + req.refused


def _bench_library_names() -> set[tuple[str, str]]:
    """(module, name) for each `from actionvar... import name` and each
    `actionvar.name` attribute in bench/*.py."""
    names = set()
    for path in BENCH_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "actionvar":
                names.update((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "actionvar"
            ):
                names.add(("actionvar", node.attr))
    return names


def test_every_library_name_the_bench_uses_resolves():
    names = _bench_library_names()
    # bench/probe.py imports these inside main(), where no warm-up reaches
    assert {"_hamiltonian_matrix", "jacobi_eigenvalues", "riccati_pdx"} <= {n for _, n in names}
    missing = [f"{m}.{n}" for m, n in sorted(names) if not hasattr(importlib.import_module(m), n)]
    assert not missing
