#!/usr/bin/env python3
"""Run the Monte Carlo agreement suite against the closed-form laws.

Simulates every process/boundary pairing that has an analytic crossing
probability (the law comes from the process spec's ``law`` method) and
prints a z-score table.  A combination whose worst |z| exceeds 4 is rerun
once with a fresh seed; a second exceedance marks the suite failed
(exit 1).

Usage:
    python3 scripts/run_mc_suite.py --paths 1000000 --seed 15805127
"""

import argparse
import sys
import time

import frax.relaxation as rx
import frax.stochsim as ss

COMBOS = [
    ("reflected bm / exp", ss.ReflectedBM(), ss.Exponential(lam=1.0)),
    ("iterated bm n=2 / exp", ss.IteratedBM(n=2), ss.Exponential(lam=1.0)),
    ("sojourn time / exp", ss.SojournTime(), ss.Exponential(lam=1.0)),
    ("passage chain n=1 / exp", ss.FirstPassageChain(n=1), ss.Exponential(lam=1.0)),
    ("passage chain n=2 / exp", ss.FirstPassageChain(n=2), ss.Exponential(lam=1.0)),
    ("bessel sq g=1 / exp", ss.BesselSquared(gamma=1.0), ss.Exponential(lam=1.0)),
    ("bessel sq g=2 / exp", ss.BesselSquared(gamma=2.0), ss.Exponential(lam=1.0)),
    ("bessel sq g=3 / exp", ss.BesselSquared(gamma=3.0), ss.Exponential(lam=1.0)),
    ("elastic a=0.5 / exp", ss.ElasticBM(alpha=0.5), ss.Exponential(lam=1.0)),
    ("elastic a=1.0 / exp", ss.ElasticBM(alpha=1.0), ss.Exponential(lam=1.0)),
    ("elastic a=2.0 / exp", ss.ElasticBM(alpha=2.0), ss.Exponential(lam=1.0)),
    ("reflected bm / gamma k=2", ss.ReflectedBM(), ss.Gamma(k=2, lam=1.0)),
    ("reflected bm / gamma k=3", ss.ReflectedBM(), ss.Gamma(k=3, lam=1.0)),
]

TIMES = (0.25, 1.0, 4.0)


def worst_z(spec, boundary, paths, seed):
    model = spec.law(boundary)
    worst = 0.0
    for t in TIMES:
        est = ss.estimate_crossing(spec, boundary, t, paths, seed=seed)
        z = (est.p_hat - rx.psi(model, t)) / est.stderr
        worst = max(worst, abs(z))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--paths", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=ss.DEFAULT_SEED)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    failures = 0
    for name, spec, boundary in COMBOS:
        z = worst_z(spec, boundary, args.paths, args.seed)
        note = ""
        if z > 4.0:
            z2 = worst_z(spec, boundary, args.paths, args.seed + 1)
            note = f"  (reseeded: {z2:.2f})"
            if z2 > 4.0:
                failures += 1
                note += "  FAIL"
        print(f"{name:28s} worst |z| = {z:5.2f}{note}")
    print(f"total {time.perf_counter() - start:.1f}s, "
          f"{args.paths} paths x {len(TIMES)} times x {len(COMBOS)} combos")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
