"""Pin the command-line outputs that internal refactors must not move.

Run directly (``python3 tests/gen_parity.py``) to rewrite
``tests/data/parity.json`` from the current code; ``tests/test_parity.py``
re-runs the same cases and compares.  Given the flags of ``frax simulate``
pairings, each quoted as one argument (``python3 tests/gen_parity.py
"--process reflectedbm --boundary exponential --lambda 1"``), it rewrites
only those rows and leaves the rest of the file as it is.  The file covers:

- ``frax eval`` for every law of ``cli._TABLE_MODELS`` on one log grid
  over [1e-4, 1e4];
- ``frax simulate`` at a fixed seed and 20k paths for the 13 Monte Carlo
  pairings of ``scripts/run_mc_suite.py``;
- the quadrature crossing probability of the five quadrature pairings.

Regenerate it only when a change of value is intended and explained.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import frax.cli as cli
import frax.stochsim as ss

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "parity.json")

EVAL_GRID = ["--t-start", "1e-4", "--t-stop", "1e4", "--t-count", "17", "--t-scale", "log"]
TIMES = ["0.25", "1", "4"]
SEED = 12345
PATHS = 20_000

MC_PAIRINGS = [
    ["--process", "reflectedbm", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "iteratedbm", "--k", "2", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "sojourntime", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "firstpassagechain", "--k", "1", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "firstpassagechain", "--k", "2", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "besselsquared", "--gamma", "1", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "besselsquared", "--gamma", "2", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "besselsquared", "--gamma", "3", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "elasticbm", "--alpha", "0.5", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "elasticbm", "--alpha", "1.0", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "elasticbm", "--alpha", "2.0", "--boundary", "exponential", "--lambda", "1"],
    ["--process", "reflectedbm", "--boundary", "gamma", "--k", "2", "--lambda", "1"],
    ["--process", "reflectedbm", "--boundary", "gamma", "--k", "3", "--lambda", "1"],
]

QUADRATURE_PAIRINGS = [
    ("wrighttime nu=0.3 / exp", ss.WrightTime(nu=0.3), ss.Exponential(lam=1.0)),
    ("wrighttime nu=0.7 / exp", ss.WrightTime(nu=0.7), ss.Exponential(lam=1.0)),
    ("wrighttime nu=0.5 / gamma k=2", ss.WrightTime(nu=0.5), ss.Gamma(k=2, lam=1.0)),
    ("airytime / exp", ss.AiryTime(), ss.Exponential(lam=1.3)),
    ("distributedtime n1=0.5 / exp", ss.DistributedTime(n1=0.5, n2=0.5), ss.Exponential(lam=1.0)),
]


def model_flags(model) -> list[str]:
    """``frax eval`` flags that rebuild ``model``."""
    flags = ["--model", type(model).__name__.lower()]
    for f in dataclasses.fields(model):
        flag = {"lam": "lambda", "n": "k"}.get(f.name, f.name)
        flags += [f"--{flag}", repr(getattr(model, f.name))]
    return flags


def run_cli(argv: list[str]) -> tuple[list[str], list[list[float]]]:
    """Run ``cli.main`` and parse its CSV into (comment lines, numeric rows)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"frax {' '.join(argv)} exited {rc}")
    lines = buf.getvalue().strip().split("\n")
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    return comments, [[float(v) for v in line.split(",")] for line in body[1:]]


def simulate(flags: list[str]) -> dict:
    """The pinned ``frax simulate`` output of one pairing."""
    argv = ["simulate", *flags, "--t", *TIMES, "--paths", str(PATHS), "--seed", str(SEED)]
    comments, rows = run_cli(argv)
    return {"comments": comments, "rows": rows}


def collect() -> dict:
    out = {"eval": {}, "simulate": {}, "quadrature": {}}
    for name, model in cli._TABLE_MODELS:
        _c, rows = run_cli(["eval", *model_flags(model), *EVAL_GRID])
        out["eval"][name] = rows
    for flags in MC_PAIRINGS:
        out["simulate"][" ".join(flags)] = simulate(flags)
    for name, spec, boundary in QUADRATURE_PAIRINGS:
        out["quadrature"][name] = [
            ss.quadrature_crossing(spec, boundary, float(t)).p_hat for t in TIMES
        ]
    return out


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    if len(sys.argv) > 1:
        with open(DATA, encoding="utf-8") as fh:
            doc = json.load(fh)
        for key in sys.argv[1:]:
            if key not in doc["simulate"]:
                sys.exit(f"no simulate pairing {key!r} in {DATA}")
            doc["simulate"][key] = simulate(key.split())
    else:
        doc = collect()
    with open(DATA, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(DATA)
