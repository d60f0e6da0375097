"""Acceptance gate: nine numbered end-to-end criteria.

Each criterion prints one PASS/FAIL line on the real stdout (bypassing
capture) so the run log always shows the verdict table, then asserts.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfcx

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
# criterion 3: every crossing pairing agrees with its closed form
# ---------------------------------------------------------------------------

def test_criterion_3(capsys, crossing_run):
    records = crossing_run["records"]
    failed = [r["check"] for r in records if not r["passed"]]
    simulated = [hasattr(spec, "_sample") for _, spec, _ in ss.PAIRINGS]
    z = [r["error"] for r, mc in zip(records, simulated) if mc]
    gaps = [r["error"] for r, mc in zip(records, simulated) if not mc]
    ok = (not failed and [r["check"] for r in records] == [row[0] for row in ss.PAIRINGS]
          and (len(z), len(gaps)) == (14, 5) and crossing_run["seconds"] < 120.0)
    detail = (f"{len(z)} Monte Carlo pairings, worst |z| {max(z):.2f}; {len(gaps)} quadrature "
              f"pairings, worst gap {max(gaps):.1e}; {crossing_run['seconds']:.1f}s")
    if failed:
        detail += "; failed: " + ", ".join(failed)
    _report(capsys, 3, ok, detail)


# ---------------------------------------------------------------------------
# criteria 4-7: the self-verification suites
# ---------------------------------------------------------------------------

def test_criterion_4(capsys):
    ok, detail = _suite_outcome("residuals")
    _report(capsys, 4, ok, detail)


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
# criterion 9: the crossing suite is bit-reproducible across thread counts
# ---------------------------------------------------------------------------

def _timeless(records):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in records]


def test_criterion_9(capsys, crossing_run, monkeypatch):
    monkeypatch.setenv("FRAX_THREADS", "2")
    again = vf.run_suite("crossing")
    identical = _timeless(again) == _timeless(crossing_run["records"])
    _report(capsys, 9, identical, f"{len(again)} crossing records compared at FRAX_THREADS=1 and 2")
