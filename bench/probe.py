"""Untimed-loop probe of single layers, for comparison with later commits.

Re-measures the layer table of ROADMAP item 1 outside the closed loop:
jacobi_eigenvalues at N = 256 / 512, numpy.linalg.eigvalsh at
N = 256 / 512 / 1024, riccati_pdx at order 11, action_quadrature at
eps = 0.05 and rk4_period at eps = 0.05; also action_quadrature at
eps = 0.4999, the node-count cliff the classical workload stays below.
The matrices are the weak-relativistic H at hbar omega0 / m c^2 = 0.01,
the CLI's default ratio.
Each case reports the median and minimum of its repeats.  Not gated.

    python3 bench/probe.py [--out bench/out/probe.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from run import OUT_DIR, _import_library, environment


def _time(fn, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return {"median_s": statistics.median(times), "min_s": min(times), "repeats": repeats}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(OUT_DIR / "probe.json"))
    args = parser.parse_args(argv)

    _import_library()
    import numpy as np
    from actionvar import natural_params
    from actionvar.classical import action_quadrature
    from actionvar.oracles import (
        HamiltonianKind,
        HamiltonianSpec,
        _hamiltonian_matrix,
        jacobi_eigenvalues,
        rk4_period,
    )
    from actionvar.quantum import riccati_pdx

    p10 = natural_params(c=10.0)
    weak = HamiltonianSpec(HamiltonianKind.WEAK_REL, p10)
    e = 0.05 * p10.rest_energy
    matrices = {n: _hamiltonian_matrix(weak, n) for n in (256, 512, 1024)}
    cases = {
        "jacobi_eigenvalues.N256": (lambda: jacobi_eigenvalues(matrices[256]), 3),
        "jacobi_eigenvalues.N512": (lambda: jacobi_eigenvalues(matrices[512]), 3),
        "numpy.eigvalsh.N256": (lambda: np.linalg.eigvalsh(matrices[256]), 20),
        "numpy.eigvalsh.N512": (lambda: np.linalg.eigvalsh(matrices[512]), 10),
        "numpy.eigvalsh.N1024": (lambda: np.linalg.eigvalsh(matrices[1024]), 5),
        "hamiltonian_matrix.N1024": (lambda: _hamiltonian_matrix(weak, 1024), 5),
        "riccati_pdx.order11": (lambda: riccati_pdx(natural_params(c=100.0), 3.0, order=11), 200),
        "action_quadrature.eps0.05": (lambda: action_quadrature(weak, e), 30),
        "action_quadrature.eps0.4999": (lambda: action_quadrature(weak, 0.4999 * p10.rest_energy), 3),
        "rk4_period.eps0.05": (lambda: rk4_period(weak, e), 15),
    }
    report = {"environment": environment(), "cases": {}}
    for name, (fn, repeats) in cases.items():
        report["cases"][name] = result = _time(fn, repeats)
        print(f"probe {name}: median {result['median_s']:.6g} s, min {result['min_s']:.6g} s "
              f"over {repeats}", flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
