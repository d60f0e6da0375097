"""Pinned-output parity: command-line values must not move under refactors.

The expected values in tests/data/parity.json were written by
tests/gen_parity.py.  Monte Carlo draws must match exactly; every other
value must match to 1e-13 relative, which leaves room for last-digit
changes of the special functions (e.g. scipy's i0e and airy in place of
hand-rolled series) but not for any change of method or branch.

The eval rows listed in ``INVERTED`` come from contour inversion of the
law's transform.  They were re-pinned when fixed-Talbot inversion replaced
Gaver-Stehfest and the half-line quadrature, and are also held to 1e-10
absolute against mpmath values printed by tests/gen_oracles.py.
"""

import json
import math

import pytest

import gen_parity as gp

REL = 1e-13

# psi on the eval grid where the law inverts its transform: t -> mpmath value
INVERTED = {
    "gammaboundary k=2 lam=1": {
        10.000000000000028: 0.3272715841120613845888,
        31.622776601683846: 0.1947215359214047704003,
        100.00000000000023: 0.1117341149344310287443,
        316.2277660168388: 0.06325417912766308217745,
        1000.0000000000016: 0.03564687985986349724059,
        3162.277660168392: 0.02005939356330454083741,
        10000.000000000027: 0.0112826635455887360011,
    },
    "elasticgamma k=2 alpha=0.8 lam=1.1": {
        31.622776601683846: 0.8511355237735100170348,
        100.00000000000023: 0.9060993513298763999147,
        316.2277660168388: 0.9450067376606535426952,
        1000.0000000000016: 0.9686584039141997037555,
        3162.277660168392: 0.9822995540812395910785,
        10000.000000000027: 0.9900327357658138408852,
    },
    "distributed nu1=0.5 nu2=1 n1=0.5 n2=0.5 lam=1": {
        3.1622776601683866: 0.1804179417780231070459,
        10.000000000000028: 0.09276434024245096025532,
        31.622776601683846: 0.05077109213188208575899,
        100.00000000000023: 0.02831592828000982564031,
        316.2277660168388: 0.01588220475291396217596,
        1000.0000000000016: 0.008923967905033595378936,
        3162.277660168392: 0.00501702859234001163448,
        10000.000000000027: 0.002821053709897537327649,
    },
}

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
    inverted = INVERTED.get(name, {})
    assert set(inverted) <= {row[0] for row in rows}
    for t, psi, *_ in rows:
        if t in inverted:
            assert abs(psi - inverted[t]) <= 1e-10, (t, psi, inverted[t])


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
