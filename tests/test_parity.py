"""Pinned-output parity: command-line values must not move under refactors.

The expected values in tests/data/parity.json were written by
tests/gen_parity.py.  Monte Carlo draws must match exactly; every other
value must match to 1e-13 relative, which leaves room for last-digit
changes of the special functions (e.g. scipy's i0e and airy in place of
hand-rolled series) but not for any change of method or branch.

The eval rows listed in ``INVERTED`` come from contour inversion of the
law's transform: ``frax eval`` evaluates each grid as one array, and the
five laws whose closed form is a series (fractional, elastic,
gamma-boundary, elastic-gamma, distributed) invert the whole grid on one
Talbot contour.  Their rows were re-pinned when eval moved to array psi
(and part of them earlier, when fixed-Talbot inversion replaced
Gaver-Stehfest and the half-line quadrature), and every psi value of them
is also held to 1e-10 absolute against mpmath values printed by
tests/gen_oracles.py.

The ``frax simulate`` rows listed in ``SIMULATED`` take their analytic
column (and the z-score derived from it) from scalar psi of a fractional,
elastic, gamma-boundary or elastic-gamma law, which inverts the transform
first.  They were re-pinned when scalar psi moved from series-first to
contour-first, and their analytic values are held to 1e-10 absolute
against mpmath in the same way.

The quadrature rows were re-pinned when one nested double-exponential
rule replaced an adaptive quad, and every value of them is held to 1e-10
absolute against the mpmath values in ``INTEGRATED``.
"""

import json
import math

import pytest

import gen_parity as gp

REL = 1e-13

# psi on the eval grid of the laws frax eval inverts on the contour: t -> mpmath value
INVERTED = {
    "fractional nu=0.5 lam=1": {
        0.00010000000000000009: 0.9888154610463425057874,
        0.0003162277660168384: 0.9802463126122839680521,
        0.001000000000000001: 0.9652942200040563080552,
        0.003162277660168382: 0.9395799183958766963237,
        0.010000000000000014: 0.8964569799691265750878,
        0.031622776601683854: 0.8271865213020960960414,
        0.10000000000000016: 0.7235784384776153297698,
        0.31622776601683833: 0.5850732472812110276053,
        1.0000000000000018: 0.4275835761558067617497,
        3.1622776601683866: 0.2813123984225179144194,
        10.000000000000028: 0.1705777183259724325818,
        31.622776601683846: 0.09881221242263070164765,
        100.00000000000023: 0.05614099274382252265545,
        316.2277660168388: 0.03167678356079990419896,
        1000.0000000000016: 0.01783233388854203623086,
        3162.277660168392: 0.01003128161409454350584,
        10000.000000000027: 0.005641613782989425207799,
    },
    "elastic alpha=0.7 lam=1.3": {
        0.00010000000000000009: 0.989756439386492873177,
        0.0003162277660168384: 0.9819599564356053014659,
        0.001000000000000001: 0.9684661882593252783462,
        0.003162277660168382: 0.9455989872165592408846,
        0.010000000000000014: 0.9082736070270218164394,
        0.031622776601683854: 0.8512917592098900501364,
        0.10000000000000016: 0.7741854480847905950693,
        0.31622776601683833: 0.6909752284226595731699,
        1.0000000000000018: 0.6369163329667084627075,
        3.1622776601683866: 0.6493961676294286518942,
        10.000000000000028: 0.7247912260310271323613,
        31.622776601683846: 0.8172140170060432219291,
        100.00000000000023: 0.8900023722371055085591,
        316.2277660168388: 0.9366426654964919812075,
        1000.0000000000016: 0.964088826323610746149,
        3162.277660168392: 0.979754412732730958734,
        10000.000000000027: 0.9886058994071193699454,
    },
    "gammaboundary k=2 lam=1": {
        0.00010000000000000009: 0.999901489625088367713,
        0.0003162277660168384: 0.9996920848047449220522,
        0.001000000000000001: 0.9990461138871036353114,
        0.003162277660168382: 0.9970909168382717864607,
        0.010000000000000014: 0.9913657570792953551923,
        0.031622776601683854: 0.9755279961162578328229,
        0.10000000000000016: 0.9356875740126465400341,
        0.31622776601683833: 0.8495746715349751180108,
        1.0000000000000018: 0.7007955909397052952664,
        3.1622776601683866: 0.5087100118655056449252,
        10.000000000000028: 0.3272715841120613845888,
        31.622776601683846: 0.1947215359214047704003,
        100.00000000000023: 0.1117341149344310287443,
        316.2277660168388: 0.06325417912766308217745,
        1000.0000000000016: 0.03564687985986349724059,
        3162.277660168392: 0.02005939356330454083741,
        10000.000000000027: 0.0112826635455887360011,
    },
    "elasticgamma k=2 alpha=0.8 lam=1.1": {
        0.00010000000000000009: 0.9999404563848716528694,
        0.0003162277660168384: 0.9998140212169845848324,
        0.001000000000000001: 0.9994246381376324562737,
        0.003162277660168382: 0.9982497392427639904365,
        0.010000000000000014: 0.9948303982397224361549,
        0.031622776601683854: 0.9854901444774933852212,
        0.10000000000000016: 0.9626414766944850368741,
        0.31622776601683833: 0.9164222925573789463772,
        1.0000000000000018: 0.8490111217276987012788,
        3.1622776601683866: 0.7957585921112318736381,
        10.000000000000028: 0.8000667368015124942133,
        31.622776601683846: 0.8511355237735100170348,
        100.00000000000023: 0.9060993513298763999147,
        316.2277660168388: 0.9450067376606535426952,
        1000.0000000000016: 0.9686584039141997037555,
        3162.277660168392: 0.9822995540812395910785,
        10000.000000000027: 0.9900327357658138408852,
    },
    "distributed nu1=0.5 nu2=1 n1=0.5 n2=0.5 lam=1": {
        0.00010000000000000009: 0.9998015143253573325074,
        0.0003162277660168384: 0.9993761017249492363069,
        0.001000000000000001: 0.9980485199110589973777,
        0.003162277660168382: 0.9939519845610140830424,
        0.010000000000000014: 0.9815868648740809190017,
        0.031622776601683854: 0.9459086317573722035729,
        0.10000000000000016: 0.8524132302424789331478,
        0.31622776601683833: 0.6536348272042530191182,
        1.0000000000000018: 0.3775168250211099492664,
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

# analytic column of the frax simulate pairings whose law psi inverts on the
# contour, by pairing name: t -> mpmath value
SIMULATED = {
    "reflectedbm-exponential-1": {
        0.25: 0.6156903441929258748708,
        1.0: 0.4275835761558070044108,
        4.0: 0.2553956763105057438651,
    },
    "iteratedbm-2-exponential-1": {
        0.25: 0.5524670047525455215514,
        1.0: 0.4638527608017132869365,
        4.0: 0.3773760996258594661363,
    },
    "elasticbm-0.5-exponential-1": {
        0.25: 0.7423469270906506004586,
        1.0: 0.6478378285789012074164,
        4.0: 0.6260948374321889389812,
    },
    "elasticbm-1.0-exponential-1": {
        0.25: 0.7758671369587663569739,
        1.0: 0.7252720229273813874838,
        4.0: 0.7490468881796341396574,
    },
    "elasticbm-2.0-exponential-1": {
        0.25: 0.8239189142894506037082,
        1.0: 0.8130474187160944694906,
        4.0: 0.8526172801575966604875,
    },
    "reflectedbm-gamma-2-1": {
        0.25: 0.8720347556442192243835,
        1.0: 0.7007955909397055694854,
        4.0: 0.4689886000174849407367,
    },
    "reflectedbm-gamma-3-1": {
        0.25: 0.961871238829627355723,
        1.0: 0.8551671523116140088215,
        4.0: 0.6361996104315911287106,
    },
    "elasticbm-0.8-gamma-2-1.1": {
        0.25: 0.9280353852259734984132,
        1.0: 0.849011121727698807924,
        4.0: 0.7912903284951809772655,
    },
}

# each quadrature row at gp.TIMES (0.25, 1, 4): mpmath values
INTEGRATED = {
    "wrighttime-0.3-exponential-1": (
        0.5639507788887805890962, 0.4565944083296906690069, 0.352903908628849067857),
    "wrighttime-0.7-exponential-1": (
        0.6776075248471719170567, 0.3996119781155993843659, 0.1589402579766133480601),
    "wrighttime-0.5-gamma-2-1": (
        0.8720347556442192243835, 0.7007955909397055694854, 0.4689886000174849407367),
    "airytime-exponential-1.3": (
        0.5038971183221379588058, 0.384890914011059094104, 0.2781806758501419678129),
    "distributedtime-0.5-0.5-exponential-1": (
        0.7037959358801522825096, 0.3775168250211103538149, 0.1561405312908942364394),
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


@pytest.mark.parametrize("name, spec, boundary", gp.MONTE_CARLO, ids=[row[0] for row in gp.MONTE_CARLO])
def test_simulate_parity(name, spec, boundary):
    flags = gp.pairing_flags(spec, boundary)
    argv = ["simulate", *flags, "--t", *gp.TIMES, "--paths", str(gp.PATHS), "--seed", str(gp.SEED)]
    comments, rows = gp.run_cli(argv)
    want = PINNED["simulate"][name]
    assert comments == want["comments"]
    assert len(rows) == len(want["rows"])
    for (t, p, s, a, z), (t0, p0, s0, a0, z0) in zip(rows, want["rows"]):
        assert (t, p, s) == (t0, p0, s0)
        assert close(a, a0)
        # z = (p - a) / s moves only through the analytic value
        assert abs(z - z0) <= REL * (abs(a0) / s0 + abs(z0))
    inverted = SIMULATED.get(name, {})
    assert set(inverted) <= {row[0] for row in rows}
    for t, _p, _s, a, _z in rows:
        if t in inverted:
            assert abs(a - inverted[t]) <= 1e-10, (t, a, inverted[t])


# ids: the process (the name up to its first hyphen), then each spec's repr up to a space
@pytest.mark.parametrize("name, spec, boundary", gp.QUADRATURE, ids=lambda v: str(v).split()[0].split("-")[0])
def test_quadrature_parity(name, spec, boundary):
    got = gp.integrate(spec, boundary)
    for g, w, exact in zip(got, PINNED["quadrature"][name], INTEGRATED[name], strict=True):
        assert close(g, w), (name, got, PINNED["quadrature"][name])
        assert abs(w - exact) <= 1e-10, (name, w, exact)


def test_check_reports_the_largest_move_and_where_it_is():
    row = {"comments": ["# seed=1"], "rows": [[0.25, 0.5, 0.01], [1.0, 0.25, 0.01]]}
    assert gp.largest_move(row, json.loads(json.dumps(row))) == (0.0, "")
    moved = json.loads(json.dumps(row))
    moved["rows"][1][1] *= 1 + 1e-12
    moved["rows"][0][1] *= 1 + 1e-14
    move, where = gp.largest_move(row, moved)
    assert math.isclose(move, 1e-12, rel_tol=1e-3) and where == "['rows'][1][1]"
    assert gp.largest_move(row, {**row, "comments": ["# seed=2"]}) == (math.inf, "['comments'][0]")
    assert gp.largest_move(row, {**row, "rows": row["rows"][:1]})[0] == math.inf
    assert gp.largest_move([0.0], [1e-300]) == (math.inf, "[0]")
