"""The library calls the benchmark makes still run and check out.

bench/workloads.py calls the library the way a user would: it reads
`.j_value` and `.energy`, passes `SchemeTag` members to `action_fullrel`
and catches only typed errors.  Each workload's warm-up request runs here
untimed, so an API change that breaks the benchmark fails this suite:
as an exception, or as a `wrong` outcome where the benchmark's checker
caught an untyped exception inside a library call.
"""

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
