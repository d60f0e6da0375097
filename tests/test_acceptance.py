"""Acceptance gate: nine numbered end-to-end criteria.

Each criterion prints one PASS/FAIL line on the real stdout (bypassing
capture) so the run log always shows the verdict table, then asserts.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfcx

import frax.cli as cli
import frax.relaxation as rx
import frax.stochsim as ss
import frax.verify as vf
from frax.specfun import MLParams, mittag_leffler


def _report(capsys, n, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} failed {detail}"


def _suite_outcome(name):
    records = vf.run_suite(name)
    failed = [r["check"] for r in records if not r["passed"]]
    detail = f"{len(records) - len(failed)}/{len(records)} checks"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    return not failed, detail


# ---------------------------------------------------------------------------
# criterion 1: fractional-time density integrates to the relaxation law
# ---------------------------------------------------------------------------

def test_criterion_1(capsys):
    start = time.perf_counter()
    worst = 0.0
    for nu in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0):
            est = ss.quadrature_crossing(ss.WrightTime(nu=nu), ss.Exponential(lam=1.0), t)
            want = mittag_leffler(MLParams(nu), -(t**nu))
            worst = max(worst, abs(est.p_hat - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(capsys, 1, ok, f"worst gap {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: half-order law equals the scaled complementary error function
# ---------------------------------------------------------------------------

def test_criterion_2(capsys):
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for t in np.geomspace(0.01, 10.0, 61):
            x = lam * math.sqrt(t)
            got = mittag_leffler(MLParams(0.5), -x)
            worst = max(worst, abs(got - float(erfcx(x))))
    ok = worst <= 1e-9
    _report(capsys, 2, ok, f"worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: Monte Carlo suite agrees with the closed forms (|z| <= 4)
# ---------------------------------------------------------------------------

COMBOS = [
    ("reflectedbm_exp", ["--process", "reflectedbm", "--boundary", "exponential", "--lambda", "1"]),
    ("iteratedbm2_exp", ["--process", "iteratedbm", "--k", "2", "--boundary", "exponential", "--lambda", "1"]),
    ("sojourntime_exp", ["--process", "sojourntime", "--boundary", "exponential", "--lambda", "1"]),
    ("firstpassage1_exp", ["--process", "firstpassagechain", "--k", "1", "--boundary", "exponential", "--lambda", "1"]),
    ("firstpassage2_exp", ["--process", "firstpassagechain", "--k", "2", "--boundary", "exponential", "--lambda", "1"]),
    ("besselsq1_exp", ["--process", "besselsquared", "--gamma", "1", "--boundary", "exponential", "--lambda", "1"]),
    ("besselsq2_exp", ["--process", "besselsquared", "--gamma", "2", "--boundary", "exponential", "--lambda", "1"]),
    ("besselsq3_exp", ["--process", "besselsquared", "--gamma", "3", "--boundary", "exponential", "--lambda", "1"]),
    ("elastic_half_exp", ["--process", "elasticbm", "--alpha", "0.5", "--boundary", "exponential", "--lambda", "1"]),
    ("elastic_equal_exp", ["--process", "elasticbm", "--alpha", "1.0", "--boundary", "exponential", "--lambda", "1"]),
    ("elastic_double_exp", ["--process", "elasticbm", "--alpha", "2.0", "--boundary", "exponential", "--lambda", "1"]),
    ("reflectedbm_gamma2", ["--process", "reflectedbm", "--boundary", "gamma", "--k", "2", "--lambda", "1"]),
    ("reflectedbm_gamma3", ["--process", "reflectedbm", "--boundary", "gamma", "--k", "3", "--lambda", "1"]),
]

N_PATHS = 1_000_000
TIMES = ("0.25", "1", "4")


def _run_combo(outdir, name, flags, seed):
    path = outdir / f"{name}.csv"
    rc = cli.main(["simulate", *flags, "--t", *TIMES,
                   "--paths", str(N_PATHS), "--seed", str(seed), "--out", str(path)])
    assert rc == 0, f"simulate failed for {name}"
    return path


def _max_abs_z(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[1] == "t,p_hat,stderr,analytic,z_score"
    return max(abs(float(line.split(",")[4])) for line in lines[2:])


@pytest.fixture(scope="module")
def mc_suite(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("mc_run_a")
    start = time.perf_counter()
    paths = {name: _run_combo(outdir, name, flags, ss.DEFAULT_SEED)
             for name, flags in COMBOS}
    elapsed = time.perf_counter() - start
    return {"dir": outdir, "paths": paths, "elapsed": elapsed}


def test_criterion_3(capsys, mc_suite, tmp_path):
    verdicts = []
    worst = 0.0
    for name, flags in COMBOS:
        z = _max_abs_z(mc_suite["paths"][name])
        if z > 4.0:
            # one rerun with a fresh seed; two consecutive failures are red
            retry = _run_combo(tmp_path, f"{name}_retry", flags, ss.DEFAULT_SEED + 1)
            z2 = _max_abs_z(retry)
            verdicts.append((name, z, z2, z2 <= 4.0))
            worst = max(worst, min(z, z2))
        else:
            verdicts.append((name, z, None, True))
            worst = max(worst, z)
    ok = all(v[-1] for v in verdicts) and mc_suite["elapsed"] < 120.0
    retried = [v[0] for v in verdicts if v[2] is not None]
    detail = f"13 combos, worst |z| {worst:.2f}, {mc_suite['elapsed']:.1f}s"
    if retried:
        detail += f", reseeded: {','.join(retried)}"
    _report(capsys, 3, ok, detail)


# ---------------------------------------------------------------------------
# criteria 4-7: the self-verification suites
# ---------------------------------------------------------------------------

def test_criterion_4(capsys):
    ok, detail = _suite_outcome("residuals")
    _report(capsys, 4, ok, detail)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_criterion_5(capsys):
    ok, detail = _suite_outcome("laplace")
    _report(capsys, 5, ok, detail)


def test_criterion_6(capsys):
    ok, detail = _suite_outcome("asymptotics")
    _report(capsys, 6, ok, detail)


def test_criterion_7(capsys):
    ok, detail = _suite_outcome("identities")
    _report(capsys, 7, ok, detail)


# ---------------------------------------------------------------------------
# criterion 8: two-order endpoint density normalizes and prices the law
# ---------------------------------------------------------------------------

def test_criterion_8(capsys):
    from scipy.integrate import quad

    worst_norm = 0.0
    worst_gap = 0.0
    for n1, n2 in ((0.2, 0.8), (0.5, 0.5), (0.8, 0.2)):
        spec = ss.DistributedTime(n1=n1, n2=n2)
        model = rx.Distributed(nu1=0.5, nu2=1.0, n1=n1, n2=n2, lam=1.0)
        for t in (0.5, 1.0, 2.0):
            val, _ = quad(lambda y: ss.density(spec, y, t), 0.0, t / n2, limit=300)
            worst_norm = max(worst_norm, abs(val - 1.0))
            est = ss.quadrature_crossing(spec, ss.Exponential(lam=1.0), t)
            worst_gap = max(worst_gap, abs(est.p_hat - rx.psi(model, t)))
    ok = worst_norm <= 1e-8 and worst_gap <= 1e-6
    _report(capsys, 8, ok, f"norm gap {worst_norm:.2e}, law gap {worst_gap:.2e}")


# ---------------------------------------------------------------------------
# criterion 9: the simulation suite is bit-reproducible
# ---------------------------------------------------------------------------

def test_criterion_9(capsys, mc_suite, tmp_path):
    identical = True
    for name, flags in COMBOS:
        again = _run_combo(tmp_path, name, flags, ss.DEFAULT_SEED)
        if again.read_bytes() != mc_suite["paths"][name].read_bytes():
            identical = False
            break
    _report(capsys, 9, identical, "13 combos byte-compared across runs")
