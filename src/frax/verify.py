"""Self-contained verification suites for the package's numerical claims.

Each suite function returns a list of check records, one per named check:

    {"check": str, "passed": bool, "error": float, "detail": str, "seconds": float}

``error`` is the measured figure of merit for the check (a maximum
deviation, or a distance from a target order); ``detail`` states the
tolerance or expectation it was held against; ``seconds`` is the check's
wall time (``time.perf_counter``).  Each check runs on its own: a check
that raises a :class:`~frax.errors.FraxError` gives a failed record with
error NaN and the exception as its detail, and the suite goes on.  The
suites are pure and deterministic: random probe points are drawn from
fixed-seed generators.  All but ``crossing`` sample psi through the
series evaluator ``relaxation._series_psi``, not through
:func:`~frax.relaxation.psi`, which inverts the transform first: the
transform and inversion checks then hold the contour against the series
rather than against itself.
The residual, half-derivative and ``transform-*`` checks call it once per
sample set, on the whole array of times.

The checks that hold two evaluators against each other point by point
are rows of one table, ``_PAIRS``: check name -> (comparisons, absolute
tolerance[, detail]), where each comparison is ``(a, b, points)`` and the
check's error is the largest |a(x) - b(x)| over the points.  No row holds a code path against itself: a law's
reduction or limit is held against another law or branch, a closed form
(of E_{a,b}, an exponential or erfcx) or the law's own transform
inverted on the contour.  The evaluators look up the series,
``laplace_invert``, ``mittag_leffler`` and ``gml`` when they are called.
The other checks test an equation (index recursions, a derivative
ladder, residual orders), a forward transform against its closed form
(relative gaps, the transform taken once for all points), a ratio along
a limit (the asymptotes) or a crossing estimate (a Monte Carlo z-score or
a quadrature gap, one draw serving three times).
Every maximum or minimum a check reports goes through numpy, so one NaN
makes the error NaN and the check fails: a NaN is never skipped.

Suites:

- ``identities``   exact functional equations and parameter reductions
- ``laplace``      forward transforms vs closed forms, inversion round trips
- ``residuals``    grid-refinement orders of the governing equations
- ``asymptotics``  small- and large-time limit tables with ratio convergence
- ``crossing``     each pairing of :data:`frax.stochsim.PAIRINGS` against
  :func:`~frax.relaxation.psi` of its law at t = 0.25, 1 and 4: a Monte
  Carlo pair at 2**20 paths per time and the default seed passes with
  every |z| < 4, a quadrature pair within 1e-9 absolute.  Its sampling
  takes about a second on one thread (one draw per block serves the three
  times), so ``all`` leaves it out.

``run_suite(name)`` dispatches by name ("all" concatenates every suite but
``crossing``); ``report(records)`` renders the machine-readable JSON
document used by the command-line ``verify`` subcommand.
"""

from __future__ import annotations

import functools
import json
import math
import time
from typing import Callable, Sequence

import numpy as np

from . import relaxation as rx
from . import stochsim as ss
from .errors import FraxError, NonConvergence
from .fraccalc import laplace_forward, laplace_invert, ode_residual
from .specfun import MLParams, _gml_raw, gml, mittag_leffler
from scipy.special import erfcx

__all__ = ["SUITES", "run_suite", "report"]

_PROBE_SEED = 20260814


# What a check returns: (passed, error, detail).
_Outcome = tuple[bool, float, str]


def _run(check: str, fn: Callable[[], _Outcome]) -> dict:
    """The record of one check; a :class:`FraxError` it raises fails it with error NaN."""
    start = time.perf_counter()
    try:
        passed, error, detail = fn()
    except FraxError as exc:
        passed, error, detail = False, math.nan, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"check": check, "passed": bool(passed), "error": float(error), "detail": detail, "seconds": seconds}


def _worst(gaps: Sequence[float]) -> float:
    """The largest gap (0.0 for none); NaN if any gap is NaN, which fails every tolerance."""
    return float(np.max(gaps, initial=0.0))


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


def _check_gml_recursion() -> _Outcome:
    """E^m_{nu,b}(-x) + x E^m_{nu,b+nu}(-x) = E^(m-1)_{nu,b}(-x), nu=1/2, b=k*nu+1/2."""
    gaps = []
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
                return False, eval_err, "series evaluation error too large to test the identity at 1e-10"
            gaps.append(abs(lhs - v0) / abs(v0))
    worst = _worst(gaps)
    return worst <= 1e-10, worst, "relative tolerance 1e-10"


def _check_gml_derivative() -> _Outcome:
    """d/dt [t^(b-1) E^g_{a,b}(z t^a)] = t^(b-2) E^g_{a,b-1}(z t^a), by central differences."""

    def observed_orders(a: float, b: float, g: float, z: float, t0: float) -> list[float]:
        def lhs(t: float) -> float:
            return t ** (b - 1.0) * gml(MLParams(alpha=a, beta=b, gamma=g), z * t**a)

        target = t0 ** (b - 2.0) * gml(MLParams(alpha=a, beta=b - 1.0, gamma=g), z * t0**a)
        errs = []
        for j in range(4):
            h = 0.1 / 2**j
            errs.append(abs((lhs(t0 + h) - lhs(t0 - h)) / (2.0 * h) - target))
        return [math.log2(errs[j] / errs[j + 1]) for j in range(3)]

    cases = ((0.6, 1.7, 2.0, -1.0), (0.5, 2.2, 3.0, -0.7), (0.8, 1.5, 1.5, 0.4))
    worst = float(np.min([order for c in cases for order in observed_orders(*c, t0=0.9)]))
    return worst >= 1.9, worst, "min observed central-difference order, expected >= 1.9"


def _check_half_derivative_recursion() -> _Outcome:
    """Half-derivative of the gamma-boundary law steps down its shape index.

    D^{1/2} psi_k + lam psi_k - lam psi_{k-1} = 0: an equation in psi_k
    whose source is the law one shape below.  Its L1 residual must shrink
    under grid halving for k in {2, 3}.
    """
    lam = 1.0
    detail = []
    passed = True
    finest = []
    for k in (2, 3):
        hi = rx.GammaBoundary(k=k, lam=lam)
        lo = rx.GammaBoundary(k=k - 1, lam=lam)
        step_down = (((0.5, 1.0),), lam, 0.0, lambda t, lo=lo: -lam * rx._series_psi(lo, t))
        rep = ode_residual(step_down, _series(hi), 1.0 / 32.0, 48, levels=3)
        norms = rep.max_norms
        decreasing = norms[0] > norms[1] > norms[2]
        passed = passed and decreasing
        finest.append(norms[-1])
        detail.append(f"k={k}: norms {norms[0]:.3e} -> {norms[1]:.3e} -> {norms[2]:.3e}")
    return passed, _worst(finest), "residual max-norms must decrease under halving; " + "; ".join(detail)


# ---------------------------------------------------------------------------
# pairwise comparisons
# ---------------------------------------------------------------------------

_TRANSFORM_MODELS: tuple[tuple[str, rx.RelaxationModel], ...] = (
    ("elastic", rx.Elastic(alpha=0.7, lam=1.3)),
    ("gamma-boundary", rx.GammaBoundary(k=2, lam=1.0)),
    ("elastic-gamma", rx.ElasticGamma(k=2, alpha=0.8, lam=1.1)),
    ("distributed", rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0)),
    ("sojourn", rx.Sojourn(lam=1.0)),
)


def _series(model: rx.RelaxationModel) -> Callable:
    """The series reference of ``model``, at a float or on an array of times."""
    return lambda t: rx._series_psi(model, t)


def _inverted(model: rx.RelaxationModel) -> Callable[[float], float]:
    return lambda t: laplace_invert(lambda eta: rx.psi_laplace(model, eta), t)


def _exponential(rate: float) -> Callable[[float], float]:
    return lambda t: math.exp(-rate * t)


# (a, b, E_{a,b}) in closed form (Haubold, Mathai & Saxena, J. Appl. Math. 2011)
_ML_CLOSED_FORMS = (
    (1.0, 1.0, math.exp),
    (1.0, 2.0, lambda z: math.expm1(z) / z),
    (2.0, 1.0, lambda z: math.cos(math.sqrt(-z)) if z < 0.0 else math.cosh(math.sqrt(z))),
    (2.0, 2.0, lambda z: (math.sin(math.sqrt(-z)) / math.sqrt(-z) if z < 0.0
                          else math.sinh(math.sqrt(z)) / math.sqrt(z))),
    (0.5, 1.0, lambda z: float(erfcx(-z))),
)
# where gml's series certifies all five (E_{1/2,1} cancels past z = -2); no
# z = 0, at which (1, 2) and (2, 2) divide by z
_ML_CLOSED_ZS = (-2.0, -1.5, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 3.0)

_TIMES = (0.25, 1.0, 4.0)
# (alpha, lam, t) probe points of the unit-shape elastic gamma collapse
_UNIT_SHAPE_DRAWS = np.random.default_rng(_PROBE_SEED + 1).uniform((0.3, 0.3, 0.1), (2.5, 2.5, 4.0), (50, 3))

# check name -> ([(a, b, points), ...], absolute tolerance[, detail])
_PAIRS: dict[str, tuple] = {
    # E_{1/2,1}(-x) = erfcx(x) at x = lam sqrt(t) over the working range
    "ml-half-erfcx-chain": ([(
        lambda x: mittag_leffler(MLParams(alpha=0.5), -x), lambda x: float(erfcx(x)),
        [lam * math.sqrt(t) for lam in (0.5, 1.0, 2.0) for t in np.geomspace(0.01, 10.0, 31)],
    )], 1e-9),
    # gamma = 1 is the two-parameter function: gml against the closed forms,
    # as the gap (gml - E)/(1 + |E|) against 0
    "gml-unit-parameter-collapse": ([(
        lambda z, p=MLParams(alpha=a, beta=b, gamma=1.0), e=closed: (gml(p, z) - e(z)) / (1.0 + abs(e(z))),
        lambda z: 0.0, _ML_CLOSED_ZS,
    ) for a, b, closed in _ML_CLOSED_FORMS], 1e-12, "gml vs closed forms of E_(a,b), tolerance 1e-12*(1+|E|)"),
    # shape k = 1 reduces the gamma-boundary law to the order-1/2 relaxation
    "gamma-boundary-unit-shape": ([(
        _series(rx.GammaBoundary(k=1, lam=lam)), _series(rx.Fractional(nu=0.5, lam=lam)),
        np.geomspace(0.05, 20.0, 13).tolist(),
    ) for lam in (0.7, 1.0, 1.9)], 1e-10),
    # alpha -> 0 removes the killing: psi -> E_{1/2,1}(-lam sqrt(t)/sqrt(2))
    "elastic-vanishing-killing": ([(
        _series(rx.Elastic(alpha=1e-10, lam=lam)),
        lambda t, lam=lam: mittag_leffler(MLParams(alpha=0.5), -lam * math.sqrt(t) / math.sqrt(2.0)),
        (0.1, 0.5, 1.0, 2.0, 5.0),
    ) for lam in (0.7, 1.0, 1.9)], 1e-8),
    # shape k = 1 reduces the elastic gamma law to the plain elastic law
    "elastic-gamma-unit-shape": ([(
        _series(rx.ElasticGamma(k=1, alpha=alpha, lam=lam)), _series(rx.Elastic(alpha=alpha, lam=lam)), (t,),
    ) for alpha, lam, t in _UNIT_SHAPE_DRAWS.tolist()], 1e-9),
    # alpha -> 0 with rate lam*sqrt(2) recovers the gamma-boundary law at rate lam
    "elastic-gamma-vanishing-killing": ([(
        _series(rx.ElasticGamma(k=k, alpha=1e-10, lam=math.sqrt(2.0))), _series(rx.GammaBoundary(k=k, lam=1.0)),
        _TIMES,
    ) for k in (1, 2, 3)], 1e-8),
    # the n-fold passage chain is exponential, its rate lam mapped n times by r -> sqrt(2 r)
    "first-passage-chain-rate": ([(
        _series(rx.FirstPassage(lam=lam, n=n)),
        _exponential(functools.reduce(lambda r, _: math.sqrt(2.0 * r), range(n), lam)), _TIMES,
    ) for n in (1, 2, 3) for lam in (0.5, 1.0, 2.0)], 1e-14),
    # n1 = 0 collapses the two-order law to its single surviving order: the
    # law's own transform, inverted, against that order's law
    "distributed-zero-weight": ([
        (_inverted(rx.Distributed(nu1=0.5, nu2=1.0, n1=0.0, n2=1.0, lam=1.3)), _exponential(1.3), _TIMES),
        (_inverted(rx.Distributed(nu1=0.3, nu2=0.7, n1=0.0, n2=1.0, lam=0.8)),
         _series(rx.Fractional(nu=0.7, lam=0.8)), _TIMES),
    ], 1e-12),
    # the alpha = lam elastic branch is the limit of the two-rate formula
    "elastic-equal-rate-branch": ([(
        _series(rx.Elastic(alpha=lam * (1.0 + 1e-7), lam=lam)), _series(rx.Elastic(alpha=lam, lam=lam)), _TIMES,
    ) for lam in (0.8, 1.3)], 1e-6),
    # contour inversion of the closed-form transform against the series
    **{f"inversion-{name}": (
        [(_inverted(model), _series(model), (0.25, 0.5, 1.0, 2.0, 4.0))], 1e-10,
        "inversion vs series evaluator, absolute tolerance 1e-10 on t in [0.25, 4]",
    ) for name, model in _TRANSFORM_MODELS},
}


def _check_pair(pairs: list, tol: float, detail: str = "") -> _Outcome:
    """Largest |a(x) - b(x)| over every comparison's points, held to ``tol``."""
    worst = _worst([abs(a(x) - b(x)) for a, b, points in pairs for x in points])
    detail = detail or "absolute tolerance " + np.format_float_scientific(tol, trim="-", exp_digits=1)
    return worst <= tol, worst, detail


def _pairs(*names: str) -> list[tuple[str, Callable[[], _Outcome]]]:
    """The named rows of ``_PAIRS`` as (check name, check) entries of a suite."""
    return [(name, functools.partial(_check_pair, *_PAIRS[name])) for name in names]


# ---------------------------------------------------------------------------
# laplace
# ---------------------------------------------------------------------------

_TRANSFORM_ETAS = np.random.default_rng(_PROBE_SEED + 2).uniform(0.5, 20.0, size=20)


def _check_transform(model: rx.RelaxationModel) -> _Outcome:
    """The forward transform of the series against the closed form."""
    closed = rx.psi_laplace(model, _TRANSFORM_ETAS)
    numeric = laplace_forward(_series(model), _TRANSFORM_ETAS)
    worst = _worst(np.abs(numeric - closed) / np.abs(closed))
    return worst <= 1e-10, worst, "numerical transform vs closed form, relative tolerance 1e-10 at 20 points"


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


def _check_residual(model: rx.RelaxationModel, expected: float) -> _Outcome:
    rep = ode_residual(rx.equation(model), _series(model), 1.0 / 16.0, 32, levels=4)
    decreasing = all(a > b for a, b in zip(rep.max_norms[:-1], rep.max_norms[1:]))
    passed = decreasing and abs(rep.order - expected) <= 0.4
    detail = f"order {rep.order:.3f}, expected {expected} +/- 0.4 with decreasing norms"
    return passed, abs(rep.order - expected), detail


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


def _check_asymptote(model: rx.RelaxationModel, regime: rx.Regime) -> _Outcome:
    ts = (1e-2, 1e-3, 1e-4) if regime is rx.SmallT else (1e2, 1e3, 1e4)
    errs = [_ratio_error(model, regime, t) for t in ts]
    monotone = all(a >= b for a, b in zip(errs[:-1], errs[1:]))
    return (
        errs[-1] < 0.02 and monotone,
        errs[-1],
        f"ratio errors along approach: {errs[0]:.3e} -> {errs[1]:.3e} -> {errs[2]:.3e}; "
        "extreme point < 2% and non-increasing",
    )


# ---------------------------------------------------------------------------
# crossing
# ---------------------------------------------------------------------------

_CROSSING_PATHS = 1 << 20


def _check_crossing(spec: ss.ProcessSpec, boundary: ss.BoundarySpec) -> _Outcome:
    """The crossing estimate of one pairing against psi of its law."""
    model = spec.law(boundary)
    estimates = ss.crossing(spec, boundary, _TIMES, _CROSSING_PATHS)
    runs = [(est, rx.psi(model, t)) for est, t in zip(estimates, _TIMES)]
    if runs[0][0].method == "monte_carlo":
        worst = _worst([abs(est.z_score(value)) for est, value in runs])
        return worst < 4.0, worst, f"worst |z| at {_CROSSING_PATHS} paths per time, must be < 4"
    worst = _worst([abs(est.p_hat - value) for est, value in runs])
    return worst <= 1e-9, worst, "quadrature vs psi, absolute tolerance 1e-9"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# suite name -> its checks in report order, as (check name, check)
_CHECKS: dict[str, list[tuple[str, Callable[[], _Outcome]]]] = {
    "identities": [
        ("gml-index-recursion", _check_gml_recursion),
        ("gml-derivative-ladder", _check_gml_derivative),
        ("half-derivative-shape-recursion", _check_half_derivative_recursion),
        *_pairs("ml-half-erfcx-chain", "gml-unit-parameter-collapse", "gamma-boundary-unit-shape",
                "elastic-vanishing-killing", "elastic-gamma-unit-shape", "elastic-gamma-vanishing-killing",
                "first-passage-chain-rate", "distributed-zero-weight", "elastic-equal-rate-branch"),
    ],
    # forward transforms of the series against the closed forms, then the inversion rows
    "laplace": [(f"transform-{name}", functools.partial(_check_transform, model)) for name, model in _TRANSFORM_MODELS]
    + _pairs(*(f"inversion-{name}" for name, _ in _TRANSFORM_MODELS)),
    "residuals": [
        (f"residual-{name}", functools.partial(_check_residual, model, expected))
        for name, model, expected in _RESIDUAL_CASES
    ],
    "asymptotics": [
        (f"asymptote-{'small' if regime is rx.SmallT else 'large'}-t-{name}",
         functools.partial(_check_asymptote, model, regime))
        for name, model in _ASYMPTOTIC_MODELS for regime in (rx.SmallT, rx.LargeT)
    ],
    "crossing": [
        (name, functools.partial(_check_crossing, spec, boundary)) for name, spec, boundary in ss.PAIRINGS
    ],
}


def _suite(name: str) -> Callable[[], list[dict]]:
    return lambda: [_run(check, fn) for check, fn in _CHECKS[name]]


SUITES: dict[str, Callable[[], list[dict]]] = {name: _suite(name) for name in _CHECKS}


def run_suite(name: str) -> list[dict]:
    """Run one suite by name, or for ``all`` every suite but ``crossing`` (in a fixed order)."""
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
