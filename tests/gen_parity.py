"""Pin the command-line outputs that internal refactors must not move.

Run directly (``python3 tests/gen_parity.py``) to rewrite
``tests/data/parity.json`` from the current code; ``tests/test_parity.py``
re-runs the same cases and compares.  Given the names of Monte Carlo or
quadrature pairings (``python3 tests/gen_parity.py
reflectedbm-exponential-1``), it rewrites (or, for a new pairing, adds)
only those simulate or quadrature rows and leaves the rest of the file as
it is.  Given the name of an eval row (``python3 tests/gen_parity.py
"fractional nu=0.5 lam=1"``), it rewrites only that row's psi column.  With
``--check`` it regenerates every row in memory, writes nothing, and exits 1
listing each row that would move with its largest relative move (0 when
none would).  It exits 1 without writing if a ``frax simulate`` row it
would write has a z-score of magnitude ``Z_GATE`` or more: such a row pins
a defect, not a draw.  The file covers:

- ``frax eval`` for every law of ``cli._TABLE_MODELS`` on one log grid
  over [1e-4, 1e4];
- ``frax simulate`` at a fixed seed and 20k paths for the Monte Carlo
  pairings of ``stochsim.PAIRINGS``, keyed by pairing name;
- the quadrature crossing probability of its quadrature pairings.

Regenerate it only when a change of value is intended and explained.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import sys

import frax.cli as cli
import frax.stochsim as ss

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "parity.json")

EVAL_GRID = ["--t-start", "1e-4", "--t-stop", "1e4", "--t-count", "17", "--t-scale", "log"]
TIMES = ["0.25", "1", "4"]
SEED = 12345
PATHS = 20_000
Z_GATE = 4.0  # the |z| gate of the crossing suite and of --strict

# the pairings by method: a process with an exact sampler is simulated
MONTE_CARLO = [row for row in ss.PAIRINGS if hasattr(row[1], "_sample")]
QUADRATURE = [row for row in ss.PAIRINGS if not hasattr(row[1], "_sample")]


def field_flags(spec) -> list[str]:
    """The parameter flags that rebuild the dataclass ``spec``."""
    flags = []
    for f in dataclasses.fields(spec):
        flags += [f"--{cli._FIELD_FLAG.get(f.name, f.name)}", repr(getattr(spec, f.name))]
    return flags


def model_flags(model) -> list[str]:
    """``frax eval`` flags that rebuild ``model``."""
    return ["--model", type(model).__name__.lower(), *field_flags(model)]


def pairing_flags(spec, boundary) -> list[str]:
    """``frax simulate`` flags that rebuild a pairing."""
    return [
        "--process", type(spec).__name__.lower(), *field_flags(spec),
        "--boundary", type(boundary).__name__.lower(), *field_flags(boundary),
    ]


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


def simulate(spec, boundary) -> dict:
    """The pinned ``frax simulate`` output of one pairing."""
    argv = ["simulate", *pairing_flags(spec, boundary), "--t", *TIMES, "--paths", str(PATHS), "--seed", str(SEED)]
    comments, rows = run_cli(argv)
    return {"comments": comments, "rows": rows}


def integrate(spec, boundary) -> list[float]:
    """The pinned quadrature crossing probabilities of one pairing."""
    return [ss.quadrature_crossing(spec, boundary, float(t)).p_hat for t in TIMES]


def evaluate(model) -> list[list[float]]:
    """The pinned ``frax eval`` rows of one law."""
    return run_cli(["eval", *model_flags(model), *EVAL_GRID])[1]


def collect() -> dict:
    out = {"eval": {}, "simulate": {}, "quadrature": {}}
    for name, model in cli._TABLE_MODELS:
        out["eval"][name] = evaluate(model)
    for name, spec, boundary in MONTE_CARLO:
        out["simulate"][name] = simulate(spec, boundary)
    for name, spec, boundary in QUADRATURE:
        out["quadrature"][name] = integrate(spec, boundary)
    return out


def wild_rows(doc: dict) -> list[str]:
    """The names of the ``simulate`` rows of ``doc`` with some |z| >= Z_GATE."""
    return [name for name, row in doc["simulate"].items() if any(abs(r[4]) >= Z_GATE for r in row["rows"])]


def _leaves(value, path: str = ""):
    """(where, value) for each string and number of a pinned value, in order."""
    if isinstance(value, dict):
        for key in value:
            yield f"{path}{key!r}", key
            yield from _leaves(value[key], f"{path}[{key!r}]")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def largest_move(old, new) -> tuple[float, str]:
    """The largest relative move between two pinned values and where it
    is: inf where their shape or text differs, or a number moves off 0."""
    old, new = list(_leaves(old)), list(_leaves(new))
    if len(old) != len(new):
        return math.inf, "its shape"
    worst = (0.0, "")
    for (where, a), (_, b) in zip(old, new):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return math.inf, where
        elif a != b:
            worst = max(worst, (abs(b - a) / abs(a) if a else math.inf, where))
    return worst


def check() -> int:
    """Print each pinned row that regeneration would move; 1 if any would."""
    with open(DATA, encoding="utf-8") as fh:
        pinned = json.load(fh)
    fresh = collect()
    moved = 0
    for section in fresh:
        for name in {**pinned.get(section, {}), **fresh[section]}:
            if name not in pinned.get(section, {}):
                print(f"{section} {name!r}: not pinned")
            elif name not in fresh[section]:
                print(f"{section} {name!r}: no longer generated")
            else:
                move, where = largest_move(pinned[section][name], fresh[section][name])
                if not move:
                    continue
                print(f"{section} {name!r}: largest relative move {move:.3g} at {where}")
            moved += 1
    print(f"{moved} row(s) would move" if moved else "no row would move")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    if len(sys.argv) > 1:
        with open(DATA, encoding="utf-8") as fh:
            doc = json.load(fh)
        models = dict(cli._TABLE_MODELS)
        pairings = {name: (spec, boundary) for name, spec, boundary in MONTE_CARLO}
        integrals = {name: (spec, boundary) for name, spec, boundary in QUADRATURE}
        for key in sys.argv[1:]:
            if key in doc["eval"]:
                for old, new in zip(doc["eval"][key], evaluate(models[key]), strict=True):
                    if old[0] != new[0]:
                        sys.exit(f"eval row {key!r}: the grid moved ({old[0]!r} -> {new[0]!r})")
                    old[1] = new[1]
            elif key in pairings:
                doc["simulate"][key] = simulate(*pairings[key])
            elif key in integrals:
                doc["quadrature"][key] = integrate(*integrals[key])
            else:
                sys.exit(f"no eval row, simulate or quadrature pairing {key!r} in {DATA}")
    else:
        doc = collect()
    wild = wild_rows(doc)
    if wild:
        sys.exit(f"not written: |z| >= {Z_GATE} in the simulate row(s) {', '.join(wild)}")
    with open(DATA, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(DATA)
