"""Closed-loop benchmark of actionvar: one client in one process.

Usage, from the repository root:

    python3 bench/run.py --workload spectral --seed 1 --seconds 40 --trace 0

The client sends the next request only after the previous one returns.
With --trace 0 the run measures set-up and then the end-to-end metrics;
with --trace 1 it runs every request twice, untraced and with a span
around every call into actionvar, and reports the per-layer metrics and
the tracing overhead.  Every output is checked against a reference (see
checks.py and workloads.py).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
full record, with the environment, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

from tracing import LayerStats, NullTracer, Tracer, aggregate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = (4, 3)  # fresh processes before and after the timed loop
MIN_SAMPLES = 100

# One client, one BLAS thread (at most nproc): the hot loops are Python, and
# a second thread only adds contention.  Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _import_library():
    """Import actionvar from this checkout's src/, never from elsewhere."""
    if not (SRC / "actionvar" / "__init__.py").is_file():
        sys.exit(f"bench: no actionvar package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import actionvar

    if Path(actionvar.__file__).resolve().parent != SRC / "actionvar":
        sys.exit(f"bench: imported actionvar from {actionvar.__file__}, not from {SRC}")
    warnings.simplefilter("ignore", actionvar.WeakRegimeWarning)


def _git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
    }


def _prepare(name: str, seed: int):
    """Inputs from the seed, then one untimed warm-up request."""
    from workloads import WORKLOADS, QuasiRandom

    workload = WORKLOADS[name]
    inputs = QuasiRandom(seed, workload.dims)
    warm = workload.run(workload.warmup, NullTracer())
    return workload, inputs, warm


def measure_setup(name: str, seed: int, count: int) -> list[float]:
    """Seconds from a fresh process start until its warm-up request returned."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-child"]
    times = []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"bench: set-up child exited with {code} before it was ready")
        times.append(elapsed)
    return times


def closed_loop(workload, inputs, seconds: float, tally) -> tuple[list[float], float]:
    """Send requests one after another until `seconds` have passed.

    If fewer than MIN_SAMPLES requests completed by then, keep going until
    they have (at most 2.5 x `seconds` in all), so that at least ten
    latencies lie beyond p90.
    """
    tracer = NullTracer()
    latencies = []
    start = perf_counter()
    deadline, hard_stop = start + seconds, start + 2.5 * seconds
    while True:
        t0 = perf_counter()
        if (t0 >= deadline and len(latencies) >= MIN_SAMPLES) or t0 >= hard_stop:
            break
        tally.add(workload.run(workload.draw(inputs.point(len(latencies))), tracer))
        latencies.append(perf_counter() - t0)
    return latencies, perf_counter() - start


def paired_traced(workload, inputs, seconds: float, untraced, traced):
    """Run each request untraced and traced, back to back, until `seconds` pass.

    The two runs of a pair alternate which goes first, and both see the same
    machine state, so their difference is the tracing overhead.
    """
    tracer, null = Tracer(), NullTracer()
    untraced_s = traced_s = 0.0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        i = traced.attempted
        inp = workload.draw(inputs.point(i))
        tracer.request_id = i
        for traced_run in (False, True) if i % 2 == 0 else (True, False):
            t0 = perf_counter()
            if traced_run:
                traced.add(tracer.call("bench.request", workload.run, inp, tracer))
                traced_s += perf_counter() - t0
            else:
                untraced.add(workload.run(inp, null))
                untraced_s += perf_counter() - t0
    return tracer, untraced_s, traced_s


def harrell_davis(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 635 (1982)).

    A weighted mean of all order statistics, the i-th weighted by the mass
    of Beta(p (n + 1), (1 - p)(n + 1)) on [(i - 1)/n, i/n].  It moves less
    between runs than a single order statistic when the latencies of a
    mixed workload cluster with gaps between the clusters.
    """
    import numpy as np

    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20 * n + 1)
    pdf = np.zeros_like(t)
    inner = t[1:-1]
    pdf[1:-1] = np.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    )
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(t))))
    weights = np.diff(cdf[::20])
    return float(weights @ np.asarray(ordered) / weights.sum())


def end_to_end(latencies, tally, elapsed, setup_times) -> dict:
    """Latency percentiles use whole blocks of MIN_SAMPLES requests from the
    start of the stream, so that runs of one workload compare nearly the
    same requests.

    p50 is the mean over those blocks of each block's median.  The host's
    speed switches between two states about 1.5x apart, for seconds to
    minutes at a time, and the requests of `classical` and `residue` cost
    nearly the same, so the median of a whole run jumps to whichever state
    held more than half of it; the mean of block medians moves in
    proportion to the time spent in each.  p90 is taken over all of those
    requests at once: every run spends more than a tenth of its time in
    the slow state, so it stays there.
    """
    counts = tally.counts
    n = len(latencies)
    k = n - n % MIN_SAMPLES if n >= MIN_SAMPLES else n
    ms = [1000.0 * t for t in latencies[:k]]
    blocks = [sorted(ms[i:i + MIN_SAMPLES]) for i in range(0, k, MIN_SAMPLES)]
    p50 = statistics.fmean(harrell_davis(block, 0.5) for block in blocks)
    p90 = harrell_davis(sorted(ms), 0.9)
    beyond = k - math.ceil(0.9 * k)
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh processes"),
        "throughput_rps": (counts["ok"] / elapsed, "1/s",
                           f"{counts['ok']} verified requests in {elapsed:.3f} s"),
        "latency_p50_ms": (p50, "ms", f"mean of the medians of {len(blocks)} blocks, {k} samples "
                           f"(the first {k} of {n} requests)"),
        "latency_p90_ms": (p90, "ms", f"{k} samples, {beyond} beyond rank 0.9 x {k}"),
        "ok_frac": (counts["ok"] / n, "ratio",
                    f"1 - fail_frac; fail_frac = {tally.failed / n:.4g}: {tally.failed} of {n} failed"),
        "honest_frac": (1.0 - counts["wrong"] / n, "ratio",
                        f"1 - wrong_frac; wrong_frac = {counts['wrong'] / n:.4g}: "
                        f"{counts['wrong']} of {n} quietly wrong"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "peak resident memory of the benchmark process"),
    }


def per_layer(tracer, n: int, traced_s: float, untraced_s: float) -> dict:
    stats = aggregate(tracer.spans)

    def layer(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    root = layer("rootfind.invert_action")
    overhead = traced_s - untraced_s
    metrics = {
        "trace.requests": (n, "count", "requests run traced (and untraced); base of every count"),
        "trace.overhead_ms": (1000.0 * overhead / n, "ms",
                              f"per request: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s"),
        "trace.overhead_frac": (overhead / untraced_s, "ratio", f"of untraced {untraced_s:.3f} s"),
    }
    for name, fields in (
        ("oracles.diagonalize", ("calls", "time_s", "fail")),
        ("oracles.rs_shift_p4", ("time_s",)),
        ("oracles.jwkb_levels_wr", ("time_s",)),
        ("quantum.closed_levels", ("time_s",)),
        ("oracles.rk4_period", ("calls", "time_s")),
        ("classical.action_quadrature", ("calls", "time_s")),
        ("classical.frequency_from_action", ("self_s",)),
        ("classical.closed_forms", ("time_s",)),
        ("classical.action_wr_residue", ("time_s",)),
        ("quantum.riccati", ("time_s",)),
        ("quantum.derived", ("calls", "time_s", "fail")),
        ("quantum.quantum_action_wr_xdp", ("time_s",)),
    ):
        s = layer(name)
        for field in fields:
            unit = "s" if field.endswith("_s") else "count"
            metrics[f"{name}.{field}"] = (getattr(s, field), unit, f"{s.calls} calls in {n} requests")
    metrics["rootfind.evals"] = (root.child_calls, "count",
                                 f"J evaluations inside {root.calls} invert_action calls")
    metrics["rootfind.self_s"] = (root.self_s, "s", "invert_action time minus its J evaluations")
    metrics["rootfind.evals_per_root"] = (
        root.child_calls / root.calls if root.calls else 0.0, "count",
        f"{root.child_calls} evaluations / {root.calls} roots")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["spectral", "classical", "residue"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    if args.setup_child:
        _prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from checks import Tally

    setup_times: list[float] = []
    if args.trace == 0:
        setup_times += measure_setup(args.workload, args.seed, SETUP_RUNS[0])
    workload, inputs, warm = _prepare(args.workload, args.seed)
    tally = Tally()
    checked = [tally]
    latencies: list[float] = []
    if args.trace == 0:
        latencies, elapsed = closed_loop(workload, inputs, args.seconds, tally)
        # set-up samples on both sides of the loop see more of the machine's
        # speed drift than seven back to back
        setup_times += measure_setup(args.workload, args.seed, SETUP_RUNS[1])
        metrics = end_to_end(latencies, tally, elapsed, setup_times)
    else:
        untraced = Tally()
        checked.append(untraced)
        tracer, untraced_s, traced_s = paired_traced(workload, inputs, args.seconds, untraced, tally)
        metrics = per_layer(tracer, tally.attempted, traced_s, untraced_s)
    n = tally.attempted
    distinct = len({workload.draw(inputs.point(i)) for i in range(n)})
    wrong = warm.wrong + [item for t in checked for item in t.wrong]

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "outcomes": tally.counts,
        "distinct_inputs": distinct,
        "failures": tally.failures,
        "wrong": wrong[:20],
        "setup_times_s": setup_times,
        "latencies_ms": [1000.0 * t for t in latencies],
        "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env))
    print("outcomes " + json.dumps(tally.counts))
    print(f"inputs {distinct} distinct of {n} (sharing share {1 - distinct / n:.3g})")
    for label, entry in sorted(tally.failures.items()):
        print(f"failures {label}: refused {entry['refused']}, wrong {entry['wrong']} "
              f"(e.g. {entry['example'][:120]})")
    for label, why in wrong[:5]:
        print(f"wrong {label}: {why[:160]}")
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}  ({note})")
    result = {
        "correct": not wrong,
        "attempted": n,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _note) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
