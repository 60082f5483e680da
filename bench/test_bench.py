"""Tests of the benchmark itself: inputs, printed names, and the checker.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from actionvar.core import BasisNotConverged  # noqa: E402
from checks import OK, REFUSED, WRONG, Request, Tally  # noqa: E402
from tracing import NullTracer, Tracer, aggregate  # noqa: E402
from workloads import FULL_RANGES, WORKLOADS, QuasiRandom  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(name: str, seed: int, count: int = 50) -> list:
    workload = WORKLOADS[name]
    q = QuasiRandom(seed, workload.dims)
    return [workload.draw(q.point(i)) for i in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = _inputs(name, 7)
    assert first == _inputs(name, 7)
    other = _inputs(name, 8)
    assert all(a != b for a, b in zip(first, other))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_two_requests_share_an_input(name):
    inputs = _inputs(name, 3, 2000)
    assert len(set(inputs)) == len(inputs)


def test_workload_names_match_declaration():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(WORKLOADS)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    proc = _run("--workload", "residue", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert printed == set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "residue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _raise(exc):
    raise exc


def test_checker_flags_planted_wrong_value():
    req = Request(NullTracer())
    value = req.call("planted", "layer", lambda: 1.0 + 1e-6)
    req.expect("planted", value, 1.0, 1e-9)
    assert req.outcome == WRONG
    tally = Tally()
    tally.add(req)
    assert tally.failed == 1 and tally.wrong == req.wrong  # so the run is not correct


def test_checker_flags_planted_untyped_exception():
    req = Request(NullTracer())
    assert req.call("planted", "layer", _raise, ZeroDivisionError("planted")) is None
    assert req.outcome == WRONG
    assert "ZeroDivisionError" in req.wrong[0][1]


def test_typed_refusal_is_a_failure_but_not_wrong():
    req = Request(NullTracer())
    req.call("diagonalize", "layer", _raise, BasisNotConverged("planted"))
    req.expect("diagonalize", None, 1.0, 1e-9)
    assert req.outcome == REFUSED
    assert req.wrong == []


def test_checker_passes_values_within_tolerance_and_rejects_nan():
    req = Request(NullTracer())
    req.expect("close", 1.0 + 1e-12, 1.0, 1e-9)
    assert req.outcome == OK
    req.expect("nan", float("nan"), 1.0, 1e-9)
    assert req.outcome == WRONG


def test_timed_ranges_lie_within_the_full_ranges():
    for name, workload in WORKLOADS.items():
        full = FULL_RANGES[name]
        for field, timed in vars(workload).items():
            lo, hi = getattr(full, field)
            assert lo <= timed[0] < timed[1] <= hi, (name, field)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", lambda: sum(range(10000))))
    stats = aggregate(tracer.spans)
    outer, inner = stats["outer"], stats["inner"]
    assert outer.calls == inner.calls == 1
    assert outer.child_calls == 1
    assert outer.self_s == pytest.approx(outer.time_s - inner.time_s)
    assert tracer.spans[1][3] == 0  # inner's parent is outer


def test_harrell_davis_matches_plain_quantiles_on_even_data():
    from run import harrell_davis

    ordered = [float(i) for i in range(101)]
    assert harrell_davis(ordered, 0.5) == pytest.approx(50.0, abs=0.01)
    assert harrell_davis(ordered, 0.9) == pytest.approx(90.0, abs=0.5)
