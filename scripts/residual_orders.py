#!/usr/bin/env python3
"""Measure the observed convergence order of the governing-equation residual.

For each law with a governing equation (``frax.relaxation.equation``),
evaluate the residual of psi in it on a sequence of refined grids and print
the max-norm at every level together with the fitted order.  A law discretized at order 2 - nu_max should show
that slope once the startup window is excluded.

Usage:
    python3 scripts/residual_orders.py --h 0.0625 --n 32 --levels 4
"""

import argparse
import sys

import frax.relaxation as rx
from frax.fraccalc import ode_residual

CASES = [
    ("standard", rx.Standard(lam=1.0)),
    ("fractional nu=0.5", rx.Fractional(nu=0.5, lam=1.0)),
    ("sojourn", rx.Sojourn(lam=1.0)),
    ("elastic", rx.Elastic(alpha=0.7, lam=1.3)),
    ("gamma boundary k=1", rx.GammaBoundary(k=1, lam=1.0)),
    ("gamma boundary k=2", rx.GammaBoundary(k=2, lam=1.0)),
    ("elastic gamma k=1", rx.ElasticGamma(k=1, alpha=0.8, lam=1.1)),
    ("distributed (0.5, 1)", rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0)),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--h", type=float, default=1.0 / 16)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--levels", type=int, default=4)
    args = parser.parse_args(argv)

    for name, model in CASES:
        report = ode_residual(
            rx.equation(model), lambda t, m=model: rx._series_psi(m, t), args.h, args.n, levels=args.levels
        )
        norms = "  ".join(f"{v:.3e}" for v in report.max_norms)
        print(f"{name:22s} order {report.order:5.3f}   max-norms {norms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
