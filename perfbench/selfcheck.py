#!/usr/bin/env python3
"""Self-checks of the benchmark itself.  Run from a checkout root:

    python3 perfbench/selfcheck.py

Checks that the output gate counts a value off by 1e-4, a NaN and a raised
NonConvergence as failed operations; that self time is computed correctly
on a synthetic nested span tree and on spans the tracer records; and that
the fast and the high-precision reference paths agree.  Exits 1 on the
first mismatch.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import frax  # noqa: E402
import frax.cli  # noqa: E402
import frax.relaxation  # noqa: E402
import frax.verify  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def require(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def check_failure_counting() -> None:
    work = workloads.EvalScatter(frax, 3)
    refs = {i: work.references(i) for i in range(4)}
    good = [refs[i][0] for i in range(4)]
    results = [good[0], good[1] + 1e-4, math.nan, frax.NonConvergence("synthetic")]
    outcomes, failed, correct, _, _ = run.check_all(work, results, refs)
    require([o.failed for o in outcomes] == [False, True, True, True],
            "an exact value passes; off by 1e-4, NaN and NonConvergence fail")
    require(failed == 3 and not correct, "three failed operations, two of them wrong answers")
    require(not outcomes[3].wrong, "a raised NonConvergence is a failure, not a wrong answer")

    grid = workloads.EvalGrid(frax, 3)
    o = grid.check(0, (3, "", "evaluation failed at t=1: synthetic"), grid.references(0))
    require(o.failed and not o.wrong, "a frax eval exit code 3 is a failed grid")

    mc = workloads.McSimulate(frax, 3)
    i = next(j for j in range(len(mc.pool)) if not mc.is_latency_op(j))
    real = mc.run(mc.prepare(i))
    for second, want in ((real, False), ((4, "", "synthetic |z|"), True)):
        mc.run = lambda argv, r=second: r
        o = mc.check(i, (4, "", "synthetic |z|"), mc.references(i))
        require(o.failed == want and not o.wrong,
                f"a Monte Carlo exit 4 {'repeated' if want else 'passing'} on a second seed "
                f"{'fails' if want else 'does not fail'}")


def check_self_time_synthetic() -> None:
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [5, 6] and e [7, 8.5]; a second root f [11, 12].
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 7.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.5, 12.0])
    parent = np.array([-1, 0, 1, 0, 3, 3, -1])
    got = tracing.self_times(start, end, parent)
    want = np.array([10 - 3 - 4, 3 - 1, 1, 4 - 1 - 1.5, 1, 1.5, 1])
    require(np.allclose(got, want), f"self times of a nested tree: {got.tolist()}")
    require(math.isclose(got.sum(), 11.0), "self times sum to the root durations")
    hit = np.array([False, False, True, False, False, False, False])
    below = tracing._has_descendant(parent, hit)
    require(below.tolist() == [True, True, False, False, False, False, False],
            "a fallback span marks every ancestor and nothing else")


def check_self_time_recorded() -> None:
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf_t = tracer.wrap("leaf", leaf)

    def mid():
        leaf_t()
        time.sleep(0.01)
        leaf_t()

    mid_t = tracer.wrap("mid", mid)

    def top():
        time.sleep(0.01)
        mid_t()

    tracer.wrap("top", top)()
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    require(names == ["top", "mid", "leaf", "leaf"], f"spans recorded in call order: {names}")
    require(a["parent"].tolist() == [-1, 0, 1, 1], "parents follow the call stack")
    s = tracing.self_times(a["start"], a["end"], a["parent"])
    require(all(0.009 < x < 0.05 for x in s), f"each span keeps ~10 ms of self time: {s.tolist()}")
    require(math.isclose(s.sum(), a["end"][0] - a["start"][0], rel_tol=1e-9),
            "recorded self times add up to the root span")


def check_tracer_patches_copies() -> None:
    tracer = tracing.Tracer()
    original = frax.relaxation.laplace_invert
    with tracer.installed():
        require(frax.verify.laplace_invert is not original and frax.relaxation.laplace_invert
                is frax.fraccalc.laplace_invert, "imported copies of a function are wrapped too")
        frax.relaxation.psi(frax.relaxation.GammaBoundary(k=2, lam=1.0), 1e4)
    require(frax.verify.laplace_invert is original, "uninstall restores every name")
    m = tracing.layer_metrics(tracer.names, tracer.arrays())
    require(m["relaxation.psi.gammaboundary.calls"] == 1 and m["fraccalc.laplace_invert.calls"] >= 1
            and m["relaxation.psi.fallback_share"] == 1.0,
            "a psi call that inverts its transform counts as a fallback")


def check_references() -> None:
    cases = [
        ("Distributed", {"nu1": 0.3, "nu2": 0.8, "n1": 0.4, "n2": 0.6, "lam": 2.0}),
        ("ElasticGamma", {"k": 3, "alpha": 0.4, "lam": 5.0}),
        ("Elastic", {"alpha": 1.0, "lam": 1.0}),
        ("GammaBoundary", {"k": 7, "lam": 0.2}),
    ]
    ts = [1e-6, 1e-2, 0.7, 30.0, 1e4, 1e6]
    worst = 0.0
    for law, p in cases:
        fast = reference.psi_many(law, p, ts)
        worst = max(worst, max(abs(f - reference.psi(law, p, t)) for f, t in zip(fast, ts)))
    require(worst < 1e-10, f"numpy Talbot matches mpmath Talbot (worst {worst:.1e})")
    p = {"nu": 0.5, "lam": 1.7}
    closed = [reference.psi("Fractional", p, t) for t in ts]
    with reference.mp.workdps(reference.TALBOT_DPS):
        talbot = [float(reference.talbot(reference._transform("Fractional", p), t)) for t in ts]
    gap = max(abs(a - b) for a, b in zip(closed, talbot))
    require(gap < 1e-14, f"mpmath Talbot matches the erfcx closed form (worst {gap:.1e})")


def main() -> int:
    check_failure_counting()
    check_self_time_synthetic()
    check_self_time_recorded()
    check_tracer_patches_copies()
    check_references()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
