#!/usr/bin/env python3
"""Show the inputs the workloads leave out because frax fails on them.

Run from a checkout root:

    python3 perfbench/known_failures.py

The benchmark's workloads must not contain failing operations, so they
leave out three regions where frax fails today.  This script runs each one
against the same references and gates as the workloads and prints what
fails, so the defects stay visible until they are fixed:

1. ``psi(Distributed)`` with the larger order above ``DIST_ORDERS[1]``:
   from ~0.9 the Gaver-Stehfest fallback raises ``Unstable`` or errs by
   more than 1e-5 for t in ~1..300 (eval-scatter draws orders up to 0.75);
2. ``frax simulate --strict`` for quadrature crossings: the z-score divides
   by quad's error estimate, so WrightTime(0.3) near t = 4 exits 4 on a
   1e-13 gap (mc-simulate runs quadrature calls without ``--strict``);
3. ``psi(Distributed(0.5, 1, 0.5, 0.5, 1), 1e6)``, outside every workload.

Exits 0; the counts are information, not a gate.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import frax  # noqa: E402
import frax.cli  # noqa: E402
import frax.relaxation as rx  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SAMPLES = 600


def distributed_scan(seed: int = 1) -> None:
    rng = np.random.default_rng(seed)
    lo = workloads.DIST_ORDERS[1]
    failed = 0
    for _ in range(SAMPLES):
        nu2 = float(rng.uniform(lo, 0.95))
        n1 = float(rng.random())
        p = {"nu1": float(rng.uniform(0.05, nu2)), "nu2": nu2, "n1": n1, "n2": 1.0 - n1,
             "lam": float(math.exp(rng.uniform(math.log(0.1), math.log(10.0))))}
        t = float(10.0 ** rng.uniform(0.0, 2.5))
        try:
            v = rx.psi(rx.Distributed(**p), t)
        except frax.FraxError as exc:
            why = f"{type(exc).__name__}"
        else:
            err = abs(v - reference.psi_many("Distributed", p, [t])[0])
            if err <= workloads.EVAL_TOL:
                continue
            why = f"off by {err:.3g}"
        failed += 1
        print(f"  Distributed({p['nu1']!r}, {nu2!r}, {n1!r}, {1.0 - n1!r}, {p['lam']!r})"
              f" t={t!r}: {why}")
    print(f"Distributed, larger order in [{lo}, 0.95], t in [1, 316]: "
          f"{failed} of {SAMPLES} calls fail")


def strict_quadrature() -> None:
    mc = next(pair for pair in workloads.QUAD_PAIRS if pair[0][3] == "0.3")
    argv = ["simulate"] + mc[0] + ["--t", "4", "--strict"]
    code, _, err = workloads._capture(frax.cli.main, argv)
    print(f"frax {' '.join(argv)}: exit {code} {err.strip()}")


def far_tail() -> None:
    p = {"nu1": 0.5, "nu2": 1.0, "n1": 0.5, "n2": 0.5, "lam": 1.0}
    v = rx.psi(rx.Distributed(**p), 1e6)
    err = abs(v - reference.psi("Distributed", p, 1e6))
    print(f"psi(Distributed(0.5, 1, 0.5, 0.5, 1), 1e6): off by {err:.3g}")


if __name__ == "__main__":
    distributed_scan()
    strict_quadrature()
    far_tail()
