"""Pinned-output parity: command-line values must not move under refactors.

The expected values in tests/data/parity.json were written by
tests/gen_parity.py.  Monte Carlo draws must match exactly; every other
value must match to 1e-13 relative, which leaves room for last-digit
changes of the special functions (e.g. scipy's i0e and airy in place of
hand-rolled series) but not for any change of method or branch.
"""

import json
import math

import pytest

import gen_parity as gp

REL = 1e-13

with open(gp.DATA, encoding="utf-8") as fh:
    PINNED = json.load(fh)


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("name, model", gp.cli._TABLE_MODELS, ids=lambda v: str(v).split()[0])
def test_eval_grid_parity(name, model):
    _c, rows = gp.run_cli(["eval", *gp.model_flags(model), *gp.EVAL_GRID])
    want = PINNED["eval"][name]
    assert len(rows) == len(want)
    for got_row, want_row in zip(rows, want):
        assert got_row[0] == want_row[0]
        for g, w in zip(got_row[1:], want_row[1:]):
            assert close(g, w), (got_row, want_row)


@pytest.mark.parametrize("flags", gp.MC_PAIRINGS, ids=lambda f: "-".join(f[1::2]))
def test_simulate_parity(flags):
    argv = ["simulate", *flags, "--t", *gp.TIMES, "--paths", str(gp.PATHS), "--seed", str(gp.SEED)]
    comments, rows = gp.run_cli(argv)
    want = PINNED["simulate"][" ".join(flags)]
    assert comments == want["comments"]
    assert len(rows) == len(want["rows"])
    for (t, p, s, a, z), (t0, p0, s0, a0, z0) in zip(rows, want["rows"]):
        assert (t, p, s) == (t0, p0, s0)
        assert close(a, a0)
        # z = (p - a) / s moves only through the analytic value
        assert abs(z - z0) <= REL * (abs(a0) / s0 + abs(z0))


@pytest.mark.parametrize("name, spec, boundary", gp.QUADRATURE_PAIRINGS, ids=lambda v: str(v).split()[0])
def test_quadrature_parity(name, spec, boundary):
    got = [gp.ss.quadrature_crossing(spec, boundary, float(t)).p_hat for t in gp.TIMES]
    for g, w in zip(got, PINNED["quadrature"][name]):
        assert close(g, w), (name, got, PINNED["quadrature"][name])
