"""Self-contained verification suites for the package's numerical claims.

Each suite returns a list of check records, one per named check:

    {"check": str, "passed": bool, "error": float, "detail": str, "seconds": float}

``error`` is the check's figure of merit (a maximum deviation, or a
distance from a target order), ``detail`` the tolerance or expectation it
was held against and ``seconds`` its wall time (``time.perf_counter``).
A check that raises a :class:`~frax.errors.FraxError` fails alone, with
error NaN and the exception as its detail.  The suites are deterministic:
probe points come from fixed-seed generators.  All but ``crossing``
sample psi through the series evaluator ``relaxation._series_psi``, not
:func:`~frax.relaxation.psi`, so that the transform and inversion checks
hold the contour against the series rather than against itself; the
residual, half-derivative and ``transform-*`` checks call it once per
sample set, on the whole array of times.

The ``laplace``, ``residuals`` and ``asymptotics`` rows come from the law
catalogue :data:`~frax.relaxation.EXAMPLES`, by what each law can do:
``transform-*`` and ``inversion-*`` rows where ``psi_laplace`` does not
raise :class:`~frax.errors.Unsupported`, a ``residual-*`` row at order
2 - (largest Caputo order) where ``equation`` does not, and two asymptote
rows for every law, but for the rows that ``_EXEMPT`` lists with a reason.

The checks that hold two evaluators against each other point by point
are rows of one table, ``_PAIRS``: check name -> (comparisons, absolute
tolerance[, detail]), each comparison ``(a, b, points)``, the error the
largest |a(x) - b(x)| over the points.  No row holds a code path against
itself: a reduction or limit is held against another law or branch, a
closed form (of E_{a,b}, an exponential or erfcx) or the law's own
transform inverted on the contour, and an identity of ``gml`` as a gap
against 0.  The evaluators look up the series, ``laplace_invert`` and
the law's ``_transform`` (the contour of :func:`~frax.relaxation.psi`),
``mittag_leffler`` and ``gml`` when they are called.  The other checks
test an equation (a derivative ladder, a half-derivative recursion,
residual orders), a forward transform against its closed form, a ratio
along a limit or a crossing estimate (a Monte Carlo z-score or a
quadrature gap, one draw serving three times).  Every maximum or minimum
a check reports goes through numpy, so one NaN fails the check.

Suites:

- ``identities``   exact functional equations and parameter reductions
- ``laplace``      forward transforms vs closed forms, inversion round trips
- ``residuals``    grid-refinement orders of the governing equations
- ``asymptotics``  small- and large-time limit tables with ratio convergence
- ``crossing``     each pairing of :data:`frax.stochsim.PAIRINGS` against
  :func:`~frax.relaxation.psi` of its law at t = 0.25, 1 and 4: a Monte
  Carlo pair at 2**20 paths per time and the default seed passes with
  every |z| < 4, a quadrature pair within 1e-10 absolute.  Its sampling
  takes about a second on one thread, so ``all`` leaves it out.

``run_suite(name)`` dispatches by name ("all" concatenates every suite but
``crossing``); ``report(records)`` renders the JSON document that the
``verify`` subcommand prints.
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
from .errors import FraxError, Unsupported
from .fraccalc import _Scaled, laplace_forward, laplace_invert, ode_residual
from .specfun import MLParams, gml, mittag_leffler
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


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


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

# row -> why a catalogue law that could have the row does not
_EXEMPT = {
    "transform-fractional": "it takes 2.2-3.8 ms warm, and inversion-fractional checks the same transform",
    "transform-elastic-gamma-1": "transform-elastic-gamma runs the same transform and series code at k = 2",
    "inversion-elastic-gamma-1": "inversion-elastic-gamma runs the same transform and series code at k = 2",
}


def _examples(row: str, capability: Callable[[rx.RelaxationModel], object]) -> list[tuple[str, rx.RelaxationModel]]:
    """(row name, law) for each catalogue law on which ``capability`` does
    not raise :class:`Unsupported`, but for the rows of ``_EXEMPT``."""
    out = []
    for name, model in rx.EXAMPLES:
        try:
            capability(model)
        except Unsupported:
            continue
        if f"{row}-{name}" not in _EXEMPT:
            out.append((f"{row}-{name}", model))
    return out


_transform_at_1 = functools.partial(rx.psi_laplace, s=1.0)
_TRANSFORMS = _examples("transform", _transform_at_1)
_INVERSIONS = _examples("inversion", _transform_at_1)
_RESIDUALS = _examples("residual", rx.equation)


def _series(model: rx.RelaxationModel) -> Callable:
    """The series reference of ``model``, at a float or on an array of times."""
    return lambda t: rx._series_psi(model, t)


def _inverted(model: rx.RelaxationModel, grid: bool = False) -> Callable[[float], float]:
    """The law's own transform inverted on the contour at a float time, or
    with ``grid`` at a one-point array of it: the paths that
    :func:`~frax.relaxation.psi` takes at one time and on a grid of times."""
    if grid:
        return lambda t: float(laplace_invert(_Scaled(model._transform), np.array([t]))[0])
    return lambda t: laplace_invert(_Scaled(model._transform), t)


def _exponential(rate: float) -> Callable[[float], float]:
    return lambda t: math.exp(-rate * t)


def _index_gap(k: int, x: float) -> float:
    """(v1 + x v2 - v0)/|v0| of the index recursion at z = -x, by gml:
    v1 = E^k_{1/2,b}, v2 = E^k_{1/2,b+1/2} and v0 = E^(k-1)_{1/2,b}, b = k/2
    + 1/2, where E^0_{1/2,b} = 1/Gamma(b)."""
    b = 0.5 * k + 0.5
    v1 = gml(MLParams(alpha=0.5, beta=b, gamma=float(k)), -x)
    v2 = gml(MLParams(alpha=0.5, beta=b + 0.5, gamma=float(k)), -x)
    v0 = gml(MLParams(alpha=0.5, beta=b, gamma=float(k - 1)), -x) if k > 1 else 1.0 / math.gamma(b)
    return (v1 + x * v2 - v0) / abs(v0)


def _equal_rate_elastic(lam: float, t: float) -> float:
    """psi of Elastic(lam, lam): the erfcx form's limit 1 - y (2/sqrt(pi) - 2 y erfcx(y)), y = lam sqrt(t/2)."""
    y = lam * math.sqrt(0.5 * t)
    return 1.0 - y * (2.0 / math.sqrt(math.pi) - 2.0 * y * float(erfcx(y)))


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
    # E^m_{1/2,b}(-x) + x E^m_{1/2,b+1/2}(-x) = E^(m-1)_{1/2,b}(-x) for each
    # shape m = k of the gamma-boundary law, b = k/2 + 1/2: the relative gap against 0
    "gml-index-recursion": ([
        (functools.partial(_index_gap, k), lambda x: 0.0, (0.25, 0.75, 1.5)) for k in range(1, 6)
    ], 1e-10, "relative tolerance 1e-10"),
    # E_{1/2,1}(-x) = erfcx(x) at x = lam sqrt(t) over the working range
    "ml-half-erfcx-chain": ([(
        lambda x: mittag_leffler(MLParams(alpha=0.5), -x), lambda x: float(erfcx(x)),
        [lam * math.sqrt(t) for lam in (0.5, 1.0, 2.0) for t in np.geomspace(0.01, 10.0, 31)],
    )], 1e-12),
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
    # alpha -> 0 removes the killing: the law's erfcx form tends to
    # E_{1/2}(-lam sqrt(t/2)), the order-1/2 relaxation's Mittag-Leffler series
    "elastic-vanishing-killing": ([(
        _series(rx.Elastic(alpha=1e-13, lam=lam)), _series(rx.Fractional(nu=0.5, lam=lam / math.sqrt(2.0))),
        (0.1, 0.5, 1.0, 2.0, 5.0),
    ) for lam in (0.7, 1.0, 1.9)], 1e-10),
    # shape k = 1 reduces the elastic gamma law to the plain elastic law
    "elastic-gamma-unit-shape": ([(
        _series(rx.ElasticGamma(k=1, alpha=alpha, lam=lam)), _series(rx.Elastic(alpha=alpha, lam=lam)), (t,),
    ) for alpha, lam, t in _UNIT_SHAPE_DRAWS.tolist()], 1e-10),
    # alpha -> 0 with rate lam*sqrt(2) recovers the gamma-boundary law at rate lam
    "elastic-gamma-vanishing-killing": ([(
        _series(rx.ElasticGamma(k=k, alpha=1e-13, lam=math.sqrt(2.0))), _series(rx.GammaBoundary(k=k, lam=1.0)),
        _TIMES,
    ) for k in (1, 2, 3)], 1e-10),
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
    # near equal rates the elastic law sums ElasticGamma's k = 1 series: at
    # alpha = lam against the erfcx form's limit, beside it against its transform
    "elastic-equal-rate-branch": ([
        (_series(rx.Elastic(alpha=lam, lam=lam)), functools.partial(_equal_rate_elastic, lam), _TIMES)
        for lam in (0.8, 1.3)
    ] + [(_series(m), _inverted(m), _TIMES) for m in (
        rx.Elastic(alpha=lam * (1.0 + d), lam=lam) for lam in (0.8, 1.3) for d in (1e-7, -1e-7))], 1e-10),
    # contour inversion of the closed-form transform against the series
    **{name: (
        [(_inverted(model, grid=True), _series(model), (0.25, 0.5, 1.0, 2.0, 4.0))], 1e-12,
        "inversion vs series evaluator, absolute tolerance 1e-12 on t in [0.25, 4]",
    ) for name, model in _INVERSIONS},
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

def _check_residual(model: rx.RelaxationModel) -> _Outcome:
    """The residual order of psi in its equation, at the L1 scheme's 2 - (largest Caputo order)."""
    equation = rx.equation(model)
    expected = 2.0 - max(nu for nu, _ in equation[0])
    rep = ode_residual(equation, _series(model), 1.0 / 16.0, 32, levels=4)
    decreasing = all(a > b for a, b in zip(rep.max_norms[:-1], rep.max_norms[1:]))
    passed = decreasing and abs(rep.order - expected) <= 0.4
    norms = " ".join(f"{v:.3e}" for v in rep.max_norms)
    detail = f"order {rep.order:.3f}, expected {expected} +/- 0.4 with decreasing max-norms {norms}"
    return passed, abs(rep.order - expected), detail


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

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
    return worst <= 1e-10, worst, "quadrature vs psi, absolute tolerance 1e-10"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# suite name -> its checks in report order, as (check name, check)
_CHECKS: dict[str, list[tuple[str, Callable[[], _Outcome]]]] = {
    "identities": [
        *_pairs("gml-index-recursion"),
        ("gml-derivative-ladder", _check_gml_derivative),
        ("half-derivative-shape-recursion", _check_half_derivative_recursion),
        *_pairs("ml-half-erfcx-chain", "gml-unit-parameter-collapse", "gamma-boundary-unit-shape",
                "elastic-vanishing-killing", "elastic-gamma-unit-shape", "elastic-gamma-vanishing-killing",
                "first-passage-chain-rate", "distributed-zero-weight", "elastic-equal-rate-branch"),
    ],
    # what each law of the catalogue can do: forward transforms of the
    # series against the closed forms, then the inversion rows
    "laplace": [(name, functools.partial(_check_transform, model)) for name, model in _TRANSFORMS]
    + _pairs(*(name for name, _ in _INVERSIONS)),
    "residuals": [(name, functools.partial(_check_residual, model)) for name, model in _RESIDUALS],
    "asymptotics": [
        (f"asymptote-{'small' if regime is rx.SmallT else 'large'}-t-{name}",
         functools.partial(_check_asymptote, model, regime))
        for name, model in rx.EXAMPLES for regime in (rx.SmallT, rx.LargeT)
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
        return [r for key in ("identities", "laplace", "residuals", "asymptotics") for r in SUITES[key]()]
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
