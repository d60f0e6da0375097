#!/usr/bin/env python3
"""Measure the observed convergence order of the governing-equation residual.

For each law of the catalogue ``frax.relaxation.EXAMPLES`` with a governing
equation (``frax.relaxation.equation``), evaluate the residual of psi in it
on a sequence of refined grids and print the max-norm at every level together
with the fitted order.  A law discretized at order 2 - nu_max should show that
slope once the startup window is excluded.

Usage:
    python3 scripts/residual_orders.py --h 0.0625 --n 32 --levels 4
"""

import argparse
import sys

import frax.relaxation as rx
from frax.errors import Unsupported
from frax.fraccalc import ode_residual


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--h", type=float, default=1.0 / 16)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--levels", type=int, default=4)
    args = parser.parse_args(argv)

    for name, model in rx.EXAMPLES:
        try:
            equation = rx.equation(model)
        except Unsupported:
            continue
        report = ode_residual(equation, lambda t, m=model: rx._series_psi(m, t), args.h, args.n, levels=args.levels)
        norms = "  ".join(f"{v:.3e}" for v in report.max_norms)
        print(f"{name:22s} order {report.order:5.3f}   max-norms {norms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
