"""Self-contained verification suites for the package's numerical claims.

Each suite function returns a list of check records, one per named check:

    {"check": str, "passed": bool, "error": float, "detail": str}

``error`` is the measured figure of merit for the check (a maximum
deviation, or a distance from a target order); ``detail`` states the
tolerance or expectation it was held against.  The suites are pure and
deterministic: random probe points are drawn from fixed-seed generators.
They sample psi through the series evaluator ``relaxation._series_psi``,
not through :func:`~frax.relaxation.psi`, which inverts the transform
first: the transform and inversion checks then hold the contour against
the series rather than against itself.

Suites:

- ``identities``   exact functional equations and parameter reductions
- ``laplace``      forward transforms vs closed forms, inversion round trips
- ``residuals``    grid-refinement orders of the governing equations
- ``asymptotics``  small- and large-time limit tables with ratio convergence

``run_suite(name)`` dispatches by name ("all" concatenates everything);
``report(records)`` renders the machine-readable JSON document used by the
command-line ``verify`` subcommand.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np

from . import relaxation as rx
from .errors import NonConvergence
from .fraccalc import laplace_forward, laplace_invert, ode_residual
from .specfun import MLParams, _gml_raw, gml, mittag_leffler
from scipy.special import erfcx

__all__ = ["SUITES", "run_suite", "report"]

_PROBE_SEED = 20260814


def _record(check: str, passed: bool, error: float, detail: str) -> dict:
    return {"check": check, "passed": bool(passed), "error": float(error), "detail": detail}


def _gml_or_unit(k: int, beta: float, z: float) -> tuple[float, float]:
    """E^k_{1/2,beta}(z) extended to k = 0, with its summation error estimate.

    Uses the raw series accessor so the identity checks can account for the
    evaluation error themselves instead of relying on the (stricter)
    production acceptance gate.
    """
    if k == 0:
        return 1.0 / math.gamma(beta), 0.0
    val, est, ok = _gml_raw(MLParams(alpha=0.5, beta=beta, gamma=float(k)), z)
    if not ok:
        raise NonConvergence(f"series for E^{k}_(1/2,{beta})({z}) did not converge")
    return val, est


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def _check_gml_recursion() -> dict:
    """E^m_{nu,b}(-x) + x E^m_{nu,b+nu}(-x) = E^(m-1)_{nu,b}(-x), nu=1/2, b=k*nu+1/2."""
    worst = 0.0
    for k in range(1, 6):
        b = 0.5 * k + 0.5
        for x in (0.25, 0.75, 1.5):
            v1, e1 = _gml_or_unit(k, b, -x)
            v2, e2 = _gml_or_unit(k, b + 0.5, -x)
            v0, e0 = _gml_or_unit(k - 1, b, -x)
            lhs = v1 + x * v2
            eval_err = (e1 + x * e2 + e0) / abs(v0)
            if eval_err > 2.5e-11:
                # noise budget: a quarter of the identity tolerance
                return _record(
                    "gml-index-recursion",
                    False,
                    eval_err,
                    "series evaluation error too large to test the identity at 1e-10",
                )
            worst = max(worst, abs(lhs - v0) / abs(v0))
    return _record("gml-index-recursion", worst <= 1e-10, worst, "relative tolerance 1e-10")


def _check_gml_derivative() -> dict:
    """d/dt [t^(b-1) E^g_{a,b}(z t^a)] = t^(b-2) E^g_{a,b-1}(z t^a), by central differences."""

    def observed_order(a: float, b: float, g: float, z: float, t0: float) -> float:
        def lhs(t: float) -> float:
            return t ** (b - 1.0) * gml(MLParams(alpha=a, beta=b, gamma=g), z * t**a)

        target = t0 ** (b - 2.0) * gml(MLParams(alpha=a, beta=b - 1.0, gamma=g), z * t0**a)
        errs = []
        for j in range(4):
            h = 0.1 / 2**j
            errs.append(abs((lhs(t0 + h) - lhs(t0 - h)) / (2.0 * h) - target))
        orders = [math.log2(errs[j] / errs[j + 1]) for j in range(3)]
        return min(orders)

    worst = math.inf
    for a, b, g, z in ((0.6, 1.7, 2.0, -1.0), (0.5, 2.2, 3.0, -0.7), (0.8, 1.5, 1.5, 0.4)):
        worst = min(worst, observed_order(a, b, g, z, t0=0.9))
    return _record(
        "gml-derivative-ladder",
        worst >= 1.9,
        worst,
        "min observed central-difference order, expected >= 1.9",
    )


def _check_half_derivative_recursion() -> dict:
    """Half-derivative of the gamma-boundary law steps down its shape index.

    D^{1/2} psi_k + lam psi_k - lam psi_{k-1} = 0: an equation in psi_k
    whose source is the law one shape below.  Its L1 residual must shrink
    under grid halving for k in {2, 3}.
    """
    lam = 1.0
    detail = []
    passed = True
    worst = 0.0
    for k in (2, 3):
        hi = rx.GammaBoundary(k=k, lam=lam)
        lo = rx.GammaBoundary(k=k - 1, lam=lam)
        step_down = (((0.5, 1.0),), lam, 0.0, lambda t, lo=lo: -lam * rx._series_psi(lo, t))
        rep = ode_residual(step_down, lambda t, hi=hi: rx._series_psi(hi, t), 1.0 / 32.0, 48, levels=3)
        norms = rep.max_norms
        decreasing = norms[0] > norms[1] > norms[2]
        passed = passed and decreasing
        worst = max(worst, norms[-1])
        detail.append(f"k={k}: norms {norms[0]:.3e} -> {norms[1]:.3e} -> {norms[2]:.3e}")
    return _record(
        "half-derivative-shape-recursion",
        passed,
        worst,
        "residual max-norms must decrease under halving; " + "; ".join(detail),
    )


def _check_ml_erfcx_chain() -> dict:
    """E_{1/2,1}(-x) = erfcx(x) for x = lam sqrt(t) over the working range."""
    worst = 0.0
    ts = np.geomspace(0.01, 10.0, 31)
    for lam in (0.5, 1.0, 2.0):
        for t in ts:
            x = lam * math.sqrt(t)
            worst = max(
                worst,
                abs(mittag_leffler(MLParams(alpha=0.5), -x) - float(erfcx(x))),
            )
    return _record("ml-half-erfcx-chain", worst <= 1e-9, worst, "absolute tolerance 1e-9")


def _check_gml_single_parameter() -> dict:
    """gml with unit third parameter agrees with the two-parameter evaluator."""
    rng = np.random.default_rng(_PROBE_SEED)
    worst = 0.0
    used = 0
    skipped = 0
    while used < 200 and used + skipped < 4000:
        a = float(rng.uniform(0.1, 1.0))
        b = float(rng.uniform(0.5, 3.0))
        z = float(rng.uniform(-5.0, 5.0))
        try:
            v_two = mittag_leffler(MLParams(alpha=a, beta=b), z)
            v_three = gml(MLParams(alpha=a, beta=b, gamma=1.0), z)
        except NonConvergence:
            # fast-growing positive-axis points exceed double precision range
            skipped += 1
            continue
        used += 1
        worst = max(worst, abs(v_three - v_two) / (1.0 + abs(v_two)))
    return _record(
        "gml-unit-parameter-collapse",
        used == 200 and worst <= 1e-12,
        worst,
        f"200 probe points (skipped {skipped} non-representable), tolerance 1e-12*(1+|v|)",
    )


def _check_gamma_boundary_collapse() -> dict:
    """Shape k = 1 reduces the gamma-boundary law to the order-1/2 relaxation.

    Where both sides run on their power series the agreement must be near
    machine level; where the gamma-boundary law has switched to transform
    inversion (large lam*sqrt(t)) the inverter's own accuracy bounds the
    comparison, so that region is held to 1e-9.
    """
    worst_series = 0.0
    worst_far = 0.0
    for lam in (0.7, 1.0, 1.9):
        frac = rx.Fractional(nu=0.5, lam=lam)
        gb = rx.GammaBoundary(k=1, lam=lam)
        for t in np.geomspace(0.05, 20.0, 13):
            t = float(t)
            diff = abs(rx._series_psi(gb, t) - rx._series_psi(frac, t))
            if lam * math.sqrt(t) <= 2.8:
                worst_series = max(worst_series, diff)
            else:
                worst_far = max(worst_far, diff)
    passed = worst_series <= 1e-10 and worst_far <= 1e-9
    return _record(
        "gamma-boundary-unit-shape",
        passed,
        max(worst_series, worst_far),
        f"series region {worst_series:.3e} (tol 1e-10), "
        f"inversion region {worst_far:.3e} (tol 1e-9)",
    )


def _check_elastic_vanishing_killing() -> dict:
    """alpha -> 0 removes the killing: psi -> E_{1/2,1}(-lam sqrt(t)/sqrt(2))."""
    worst = 0.0
    for lam in (0.7, 1.0, 1.9):
        m = rx.Elastic(alpha=1e-10, lam=lam)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            limit = mittag_leffler(MLParams(alpha=0.5), -lam * math.sqrt(t) / math.sqrt(2.0))
            worst = max(worst, abs(rx._series_psi(m, t) - limit))
    return _record("elastic-vanishing-killing", worst <= 1e-8, worst, "absolute tolerance 1e-8")


def _check_elastic_gamma_collapse() -> dict:
    """Shape k = 1 reduces the elastic gamma law to the plain elastic law."""
    rng = np.random.default_rng(_PROBE_SEED + 1)
    worst = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.3, 2.5))
        lam = float(rng.uniform(0.3, 2.5))
        t = float(rng.uniform(0.1, 4.0))
        a = rx._series_psi(rx.ElasticGamma(k=1, alpha=alpha, lam=lam), t)
        b = rx._series_psi(rx.Elastic(alpha=alpha, lam=lam), t)
        worst = max(worst, abs(a - b))
    return _record("elastic-gamma-unit-shape", worst <= 1e-9, worst, "absolute tolerance 1e-9")


def _check_elastic_gamma_zero_killing() -> dict:
    """alpha -> 0 with rate lam*sqrt(2) recovers the gamma-boundary law at rate lam."""
    worst = 0.0
    for k in (1, 2, 3):
        for t in (0.25, 1.0, 4.0):
            a = rx._series_psi(rx.ElasticGamma(k=k, alpha=1e-10, lam=math.sqrt(2.0)), t)
            b = rx._series_psi(rx.GammaBoundary(k=k, lam=1.0), t)
            worst = max(worst, abs(a - b))
    return _record("elastic-gamma-vanishing-killing", worst <= 1e-8, worst, "absolute tolerance 1e-8")


def _check_first_passage_collapse() -> dict:
    """The n-fold passage chain is exponential with the nested-rate formula."""
    worst = 0.0
    for n in (1, 2, 3):
        for lam in (0.5, 1.0, 2.0):
            rate = rx.first_passage_rate(lam, n)
            m = rx.FirstPassage(lam=lam, n=n)
            for t in (0.25, 1.0, 4.0):
                worst = max(worst, abs(rx._series_psi(m, t) - math.exp(-rate * t)))
    return _record("first-passage-chain-rate", worst <= 1e-14, worst, "absolute tolerance 1e-14")


def _check_distributed_zero_weight() -> dict:
    """n1 = 0 collapses the two-order law to its single surviving order."""
    worst = 0.0
    m1 = rx.Distributed(nu1=0.5, nu2=1.0, n1=0.0, n2=1.0, lam=1.3)
    for t in (0.25, 1.0, 4.0):
        worst = max(worst, abs(rx._series_psi(m1, t) - math.exp(-1.3 * t)))
    m2 = rx.Distributed(nu1=0.3, nu2=0.7, n1=0.0, n2=1.0, lam=0.8)
    frac = rx.Fractional(nu=0.7, lam=0.8)
    for t in (0.25, 1.0, 4.0):
        worst = max(worst, abs(rx._series_psi(m2, t) - rx._series_psi(frac, t)))
    return _record("distributed-zero-weight", worst <= 1e-12, worst, "absolute tolerance 1e-12")


def _check_equal_rate_branch() -> dict:
    """The alpha = lam elastic branch is the limit of the two-rate formula."""
    worst = 0.0
    for lam in (0.8, 1.3):
        for t in (0.25, 1.0, 4.0):
            equal = rx._series_psi(rx.Elastic(alpha=lam, lam=lam), t)
            near = rx._series_psi(rx.Elastic(alpha=lam * (1.0 + 1e-7), lam=lam), t)
            worst = max(worst, abs(near - equal))
    return _record("elastic-equal-rate-branch", worst <= 1e-6, worst, "absolute tolerance 1e-6")


def identities() -> list[dict]:
    return [
        _check_gml_recursion(),
        _check_gml_derivative(),
        _check_half_derivative_recursion(),
        _check_ml_erfcx_chain(),
        _check_gml_single_parameter(),
        _check_gamma_boundary_collapse(),
        _check_elastic_vanishing_killing(),
        _check_elastic_gamma_collapse(),
        _check_elastic_gamma_zero_killing(),
        _check_first_passage_collapse(),
        _check_distributed_zero_weight(),
        _check_equal_rate_branch(),
    ]


# ---------------------------------------------------------------------------
# laplace
# ---------------------------------------------------------------------------

_TRANSFORM_MODELS: tuple[tuple[str, rx.RelaxationModel], ...] = (
    ("elastic", rx.Elastic(alpha=0.7, lam=1.3)),
    ("gamma-boundary", rx.GammaBoundary(k=2, lam=1.0)),
    ("elastic-gamma", rx.ElasticGamma(k=2, alpha=0.8, lam=1.1)),
    ("distributed", rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0)),
    ("sojourn", rx.Sojourn(lam=1.0)),
)


def _check_forward_transform(name: str, model: rx.RelaxationModel) -> dict:
    etas = np.random.default_rng(_PROBE_SEED + 2).uniform(0.5, 20.0, size=20)
    closed = rx.psi_laplace(model, etas)
    numeric = laplace_forward(lambda t: rx._series_psi(model, t), etas)
    worst = float(np.max(np.abs(numeric - closed) / np.abs(closed)))
    return _record(
        f"transform-{name}",
        worst <= 1e-10,
        worst,
        "numerical transform vs closed form, relative tolerance 1e-10 at 20 points",
    )


def _check_inversion(name: str, model: rx.RelaxationModel) -> dict:
    worst = 0.0
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        inv = laplace_invert(lambda eta: rx.psi_laplace(model, eta), t)
        worst = max(worst, abs(inv - rx._series_psi(model, t)))
    return _record(
        f"inversion-{name}",
        worst <= 1e-10,
        worst,
        "inversion vs series evaluator, absolute tolerance 1e-10 on t in [0.25, 4]",
    )


def laplace() -> list[dict]:
    out = [_check_forward_transform(name, m) for name, m in _TRANSFORM_MODELS]
    out.extend(_check_inversion(name, m) for name, m in _TRANSFORM_MODELS)
    return out


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

_RESIDUAL_CASES: tuple[tuple[str, rx.RelaxationModel, float], ...] = (
    ("fractional", rx.Fractional(nu=0.5, lam=1.0), 1.5),
    ("gamma-boundary", rx.GammaBoundary(k=2, lam=1.0), 1.0),
    ("elastic-gamma", rx.ElasticGamma(k=1, alpha=0.8, lam=1.1), 1.0),
    ("distributed", rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0), 1.0),
    ("sojourn", rx.Sojourn(lam=1.0), 1.5),
    ("standard", rx.Standard(lam=1.0), 1.0),
)


def _check_residual(name: str, model: rx.RelaxationModel, expected: float) -> dict:
    rep = ode_residual(rx.equation(model), lambda t: rx._series_psi(model, t), 1.0 / 16.0, 32, levels=4)
    decreasing = all(a > b for a, b in zip(rep.max_norms[:-1], rep.max_norms[1:]))
    passed = decreasing and abs(rep.order - expected) <= 0.4
    detail = f"order {rep.order:.3f}, expected {expected} +/- 0.4 with decreasing norms"
    return _record(f"residual-{name}", passed, abs(rep.order - expected), detail)


def residuals() -> list[dict]:
    return [_check_residual(name, m, e) for name, m, e in _RESIDUAL_CASES]


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

_ASYMPTOTIC_MODELS: tuple[tuple[str, rx.RelaxationModel], ...] = (
    ("standard", rx.Standard(lam=1.0)),
    ("fractional", rx.Fractional(nu=0.5, lam=1.0)),
    ("sojourn", rx.Sojourn(lam=1.0)),
    ("first-passage", rx.FirstPassage(lam=1.0, n=1)),
    ("first-passage-2", rx.FirstPassage(lam=1.0, n=2)),
    ("besselsq", rx.BesselSq(gamma=2.0, lam=1.0)),
    ("elastic", rx.Elastic(alpha=0.7, lam=1.3)),
    ("gamma-boundary", rx.GammaBoundary(k=2, lam=1.0)),
    ("elastic-gamma", rx.ElasticGamma(k=2, alpha=0.8, lam=1.1)),
    ("distributed", rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0)),
)

_RATIO_FLOOR = 1e-12


def _ratio_error(model: rx.RelaxationModel, regime: rx.Regime, t: float) -> float:
    exact = rx._series_psi(model, t)
    approx = rx.asymptote(model, regime, t)
    err = abs(exact - approx) / max(abs(approx), 1e-300)
    return 0.0 if err < _RATIO_FLOOR else err


def _check_asymptote(name: str, model: rx.RelaxationModel, regime: rx.Regime) -> dict:
    ts = (1e-2, 1e-3, 1e-4) if regime is rx.SmallT else (1e2, 1e3, 1e4)
    errs = [_ratio_error(model, regime, t) for t in ts]
    monotone = all(a >= b for a, b in zip(errs[:-1], errs[1:]))
    passed = errs[-1] < 0.02 and monotone
    tag = "small-t" if regime is rx.SmallT else "large-t"
    return _record(
        f"asymptote-{tag}-{name}",
        passed,
        errs[-1],
        f"ratio errors along approach: {errs[0]:.3e} -> {errs[1]:.3e} -> {errs[2]:.3e}; "
        "extreme point < 2% and non-increasing",
    )


def asymptotics() -> list[dict]:
    out = []
    for name, m in _ASYMPTOTIC_MODELS:
        out.append(_check_asymptote(name, m, rx.SmallT))
        out.append(_check_asymptote(name, m, rx.LargeT))
    return out


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[], list[dict]]] = {
    "identities": identities,
    "laplace": laplace,
    "residuals": residuals,
    "asymptotics": asymptotics,
}


def run_suite(name: str) -> list[dict]:
    """Run one suite by name, or every suite for ``all`` (in a fixed order)."""
    if name == "all":
        out: list[dict] = []
        for key in ("identities", "laplace", "residuals", "asymptotics"):
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise KeyError(f"unknown verify suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()


def report(records: list[dict]) -> str:
    """Machine-readable JSON report with a summary header."""
    failed = [r["check"] for r in records if not r["passed"]]
    doc = {
        "passed": not failed,
        "checks_run": len(records),
        "checks_failed": failed,
        "records": records,
    }
    return json.dumps(doc, indent=2)
