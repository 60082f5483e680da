"""Untimed sweep of the workloads' full input ranges, for comparison with later commits.

The timed workloads draw only from the ranges on which every call of
today's library succeeds (README, "Input ranges").  This sweep runs each
workload's request over the full ranges of its definition
(`workloads.FULL_RANGES`), on the first points of the seed-0 design, and
reports per workload fail_frac (refused or wrong requests / attempted)
and wrong_frac (quietly wrong requests / attempted), with the failures of
each checked function.  Not gated; `bench/defects-baseline.json` is its
report at the commit that added it.

    python3 bench/defects.py [--out bench/out/defects.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import OUT_DIR, _import_library, environment

# Requests per workload: a failing spectral request costs about 4 s.
COUNTS = {"spectral": 48, "classical": 48, "residue": 256}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(OUT_DIR / "defects.json"))
    args = parser.parse_args(argv)

    _import_library()
    from checks import WRONG, Tally
    from tracing import NullTracer
    from workloads import FULL_RANGES, QuasiRandom

    report = {"environment": environment(), "workloads": {}}
    for name, workload in FULL_RANGES.items():
        design = QuasiRandom(0, workload.dims)
        tally = Tally()
        for i in range(COUNTS[name]):
            tally.add(workload.run(workload.draw(design.point(i)), NullTracer()))
        n = tally.attempted
        report["workloads"][name] = entry = {
            "attempted": n,
            "fail_frac": tally.failed / n,
            "wrong_frac": tally.counts[WRONG] / n,
            "outcomes": tally.counts,
            "failures": tally.failures,
        }
        print(f"defects {name}: {tally.failed} of {n} failed (fail_frac {entry['fail_frac']:.3g}), "
              f"{tally.counts[WRONG]} quietly wrong (wrong_frac {entry['wrong_frac']:.3g})", flush=True)
        for label, counts in sorted(tally.failures.items()):
            print(f"  {label}: refused {counts['refused']}, wrong {counts['wrong']} "
                  f"(e.g. {counts['example'][:100]})")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
