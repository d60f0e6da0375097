"""Relaxation laws: the probability psi(t) that a Brownian-type process
has not yet crossed an independent random boundary by time t.

Each model is a frozen dataclass carrying its parameters and everything
the package knows about its law: the closed form, the Laplace transform,
the small- and large-t asymptotes and, where the law solves a fractional
relaxation equation, that equation stated as data (``_equation()``), which
:func:`~frax.fraccalc.ode_residual` checks psi against.  The public
functions :func:`psi`, :func:`psi_laplace`, :func:`asymptote` and
:func:`equation` validate their arguments and hand over to the model.

Evaluation strategy: every law has an explicit series/closed form.  The
series track their propagated error term by term and raise
:class:`NonConvergence` at the first term that breaks the 1e-9 budget.
For the five laws whose closed form is a series (fractional, elastic,
gamma-boundary, elastic-gamma, distributed) :func:`psi` inverts the exact
Laplace transform on a fixed Talbot contour, at one time or on a whole
array of times: the contour, else :class:`Unstable`.  The elementary laws
evaluate their closed form.  ``_series_psi`` is the reference evaluator
that the verify checks compare against: the series first, the contour
where the series fails its gate, at one time or, summing each series once
with per-time gates, on a whole array of times.  Both snap values a
rounding error outside [0, 1] back onto the interval; the laws themselves
never do.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import gammaln, i0e

from .errors import DomainError, NonConvergence, Unsupported, _finite, _integer
from .fraccalc import laplace_invert
from .specfun import _ABSUM_CAP, _BLOCK, _EPS, _EXP_CAP, _MAX_TERMS, _REL_TOL, MLParams, _gml_raw, mittag_leffler

_SQRT2 = math.sqrt(2.0)

__all__ = [
    "Regime",
    "SmallT",
    "LargeT",
    "Standard",
    "Fractional",
    "Sojourn",
    "FirstPassage",
    "BesselSq",
    "Elastic",
    "GammaBoundary",
    "ElasticGamma",
    "Distributed",
    "RelaxationModel",
    "first_passage_rate",
    "psi",
    "psi_laplace",
    "asymptote",
    "equation",
]


class Regime(enum.Enum):
    """Asymptotic regime selector for :func:`asymptote`."""

    SmallT = "small_t"
    LargeT = "large_t"


SmallT = Regime.SmallT
LargeT = Regime.LargeT


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _positive(obj: object, *names: str) -> None:
    """Check that each named dataclass field is a finite real > 0; store it as a float."""
    for name in names:
        v = getattr(obj, name)
        x = _finite(v)
        _require(x > 0.0, f"{type(obj).__name__}.{name} must be positive and finite, got {v!r}")
        object.__setattr__(obj, name, x)


def _count(obj: object, name: str) -> None:
    """Check that a dataclass field is an integer >= 1; store it as an int."""
    v = getattr(obj, name)
    _require(_integer(v, 1), f"{type(obj).__name__}.{name} must be an integer >= 1, got {v!r}")
    object.__setattr__(obj, name, int(v))


def _time(t: object, what: str, zero: bool = False) -> float:
    """``t`` as a float if it is a finite real (see ``_finite``) > 0, or >= 0
    with ``zero``; anything else raises :class:`DomainError` naming ``what``."""
    x = _finite(t)
    if x > 0.0 or (zero and x == 0.0):
        return x
    raise DomainError(f"{what} requires finite t {'>=' if zero else '>'} 0, got {t!r}")


def _reals(obj: object, *names: str) -> None:
    """Check that each named dataclass field is a finite real (see ``_finite``); store it as a float."""
    for name in names:
        v = getattr(obj, name)
        x = _finite(v)
        _require(not math.isnan(x), f"{type(obj).__name__}.{name} must be a finite real, got {v!r}")
        object.__setattr__(obj, name, x)


def _xp(t: float | np.ndarray):
    """``np`` for an ndarray ``t`` and ``math`` for a float, so that one
    formula serves both: ``_xp(t).sqrt(t)``."""
    return np if isinstance(t, np.ndarray) else math


def _log(v: float | np.ndarray):
    """log v of a float or an ndarray, -inf at 0 with no error or warning."""
    if isinstance(v, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(v)
    return math.log(v) if v > 0.0 else -math.inf


def _clip01(v: float) -> float:
    """Snap values a rounding error outside [0, 1] back onto the interval."""
    if -1e-9 <= v < 0.0:
        return 0.0
    if 1.0 < v <= 1.0 + 1e-9:
        return 1.0
    return v


# Log-space evaluation loses a few tens of ulps per term: _gml_scaled
# inflates a Mittag-Leffler series' error estimate by this factor, and
# _degree_series allows its terms as many.
_INNER_ERR_SAFETY = 64.0
# Absolute error a law may carry; the law is a probability.
_BUDGET = 1e-9
# Relative accuracy of a mittag_leffler value (its integral branch's epsrel).
_ML_ACCURACY = 1e-12
# The elastic law takes its alpha = lam form within this relative offset of
# equal rates; that form errs by ~0.17 times the offset (1.7e-11 at the edge).
_EQUAL_RATES = 1e-10


def _absum_cap(scale):
    """Cap on the absolute sum of a series whose value a law multiplies by ``scale``.

    A series with absolute sum A adds ``scale * 64 * eps * A`` to the
    error :func:`_gml_scaled` propagates; the cap is twice the A that fills
    the 1e-9 budget, so rounding never rejects a series that its gate would
    accept.  A scale of 0 leaves the sum uncapped, and an infinite one caps
    it at 0.  Arrays give one cap per element.
    """
    unit = scale * (_INNER_ERR_SAFETY * _EPS)
    if isinstance(unit, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.where(unit == 0.0, _ABSUM_CAP, np.minimum(_ABSUM_CAP, 2.0 * _BUDGET / unit))
    return _ABSUM_CAP if unit == 0.0 else min(_ABSUM_CAP, 2.0 * _BUDGET / unit)


def _gml_scaled(p: MLParams, z, scale):
    """Inner series value whose ``scale``-multiplied error must fit the law.

    The single-series laws subtract ``scale * value`` from 1, so what has
    to be small is the absolute error of that product, not the relative
    error of the series; the acceptance gate matches the one of the
    regrouped double series (propagated error below 1e-9), and the series
    stops at the first term whose absolute sum breaks it.  For arrays ``z`` and
    ``scale`` the rows that fail the gate are NaN instead of raising.
    """
    val, est, ok = _gml_raw(p, z, _absum_cap(scale))
    accurate = ok & (scale * (est * _INNER_ERR_SAFETY + _EPS * abs(val)) <= _BUDGET)
    if isinstance(z, np.ndarray):
        return np.where(accurate, val, np.nan)
    if not accurate:
        raise NonConvergence(
            f"series for E^{p.gamma}_({p.alpha},{p.beta})({z}) is not accurate enough "
            f"at scale {scale:.3g}"
        )
    return val


# A double series regrouped by total degree keeps the reach of its two
# indices, 600 terms each, with twice as many.
_DEGREE_TERMS = 2 * _MAX_TERMS
# A bound, in units of eps, on the absolute error that a product of two
# numbers <= 1 carries beyond its relative rounding when it falls below the
# normal range: each factor and the product round by at most 2**-1074
# there, 3 * 2**-1022 eps in all.
_TINY = 2.0**-1020


def _two_order_logs(n, r, nu1, nu2):
    """log coef[n, r] of the distributed law: log binom(n, r) - gammaln(nu2 (n+1) - nu1 r + 1).

    Its double series x sum_r (-q)**r E^{r+1}_{nu2,nu2+delta r+1}(-x),
    delta = nu2 - nu1, summed by n = r + j, is :func:`_degree_series` with
    this rule and prefactor x.
    """
    return gammaln(n + 1.0) - gammaln(r + 1.0) - gammaln(n - r + 1.0) - gammaln(nu2 * (n + 1.0) - nu1 * r + 1.0)


def _elastic_gamma_logs(n, r, k):
    """log coef[n, r] of the elastic gamma-boundary law: log (k)_r/r! - gammaln(n/2 + k/2 + 1).

    Its double series q**k sum_l (-x)**l E^k_{1/2,(l+k)/2+1}(-q), with
    x = alpha sqrt(t/2) and q = lam sqrt(t/2), summed by n = r + l (a
    Cauchy product), is :func:`_degree_series` with this rule and
    prefactor q**k.
    """
    return gammaln(k + r) - gammaln(k) - gammaln(r + 1.0) - gammaln(0.5 * n + (0.5 * k + 1.0))


@functools.lru_cache(maxsize=48)
def _degree_block(rule: Callable, params: tuple, n0: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Rows n = n0 .. n0+31 (none past 1199) of the table of :func:`_degree_series`.

    With L[n, r] = rule(n, r, *params) and G_n = max_r L[n, r], returns
    E[n, r] = exp(L[n, r] - G_n) in [0, 1] for r = 0 .. n0+31, zero past
    r = n; the same rows by j = n - r; and the G_n.  Each block is built on
    first use from vectorised ``gammaln`` calls and shared, read-only,
    through one cache for every rule: 16 kB for the first block and up to
    0.6 MB for the last ones, so the 48 blocks it holds take at most 29 MB;
    most series read two to four blocks.
    """
    n = np.arange(n0, min(n0 + _BLOCK, _DEGREE_TERMS), dtype=float)[:, None]
    r = np.arange(n[-1, 0] + 1.0)
    inside = r <= n
    logs = np.where(inside, rule(n, r, *params), -np.inf)
    top = logs.max(axis=1, keepdims=True)
    by_r = np.exp(logs - top)
    by_j = np.where(inside, np.take_along_axis(by_r, np.where(inside, n - r, 0.0).astype(int), axis=1), 0.0)
    by_r.flags.writeable = by_j.flags.writeable = False
    return by_r, by_j, tuple(top[:, 0].tolist())


def _degree_series(rule: Callable, params: tuple, x, q, lead):
    """sum_n (-1)**n exp(lead) C_n, C_n = sum_{r<=n} coef[n, r] q**r x**(n-r), log coef = ``rule``.

    The elastic gamma-boundary and distributed laws regroup their double
    series by total degree n into this form (:func:`_elastic_gamma_logs`,
    :func:`_two_order_logs`), ``lead`` the log of the law's prefactor:
    every coefficient is >= 0, so the regrouping cancels nothing and the
    sum of |terms| is the double series' own.  With m = max(x, q),
    u = min(x, q)/m and the table of :func:`_degree_block`,
    C_n = c_n exp(G_n + n log m), where c_n = sum_r E[n, r] u**r when
    q <= x, and sum_j E[n, n-j] u**j when q > x: at most n + 1 products of
    numbers in [0, 1], so that no power overflows.  Term n is T_n = c_n x_n,
    x_n = exp(lead + G_n + n log m).  Each block of 32 indices takes one
    product of a table block with the powers of u, which also gives d_n,
    the same sum weighted by the power's exponent.

    Error bound: the table entry, the power u**r and x_n are the log-space
    factors of a term and err together as a Mittag-Leffler term formed in
    log space (``_INNER_ERR_SAFETY`` ulps), which also covers the product
    c_n x_n; the compensated sum adds eps * sum|T_n|.  c_n is a sum of
    products with no cancellation.  The rounding of u, raised to the r-th
    power, adds r eps/2 to product r and that of the product eps/2, and
    the sum of n + 1 products adds n eps/2 of c_n, in any order.  So c_n
    errs by at most e_n eps, e_n = ((n + 1) c_n + d_n)/2; a product below
    the normal range errs by 3 * 2**-1074 absolute instead, and e_n adds
    (n + 1) * 2**-1020 for those.  The bound is
    eps * ((64 + 1) * sum|T_n| + sum e_n x_n).  It only grows: the series
    fails at the first term that takes it past the 1e-9 budget, as at an
    exponent past 700, and otherwise stops at the third negligible term in
    a row once n >= 8, within 1200 terms (``_DEGREE_TERMS``).

    Returns ``(value, bound, converged)``; a failed series has bound inf.
    ``x``, ``q`` and ``lead`` may be 1-D arrays of one shape: see
    :func:`_degree_rows`.
    """
    if isinstance(x, np.ndarray):
        return _degree_rows(rule, params, x, q, lead)
    m = max(x, q) or 1.0
    u, log_m = min(x, q) / m, math.log(m)
    exp = math.exp
    s = comp = absum = carried = 0.0
    small = 0
    powers = np.empty((_DEGREE_TERMS, 2))  # (u**r, r u**r) by row r, a block's new rows at a time
    for n0 in range(0, _DEGREE_TERMS, _BLOCK):
        by_r, by_j, top = _degree_block(rule, params, n0)
        width = by_r.shape[1]  # the rows r < n0 are filled
        rank = np.arange(float(n0), width)
        fresh = powers[n0:width]
        fresh[:, 0] = u**rank
        fresh[:, 1] = rank * fresh[:, 0]
        cd = ((by_j if q > x else by_r) @ powers[:width]).tolist()
        for n, ((c, d), g) in enumerate(zip(cd, top), n0):
            lg = lead + n * log_m + g
            if not lg <= _EXP_CAP:  # the term overflows, or is NaN
                return s, math.inf, False
            xn = exp(lg)
            mag = c * xn
            term = (-mag if n & 1 else mag) - comp
            tt = s + term
            comp = (tt - s) - term
            s = tt
            absum += mag
            carried += (0.5 * ((n + 1) * c + d) + (n + 1) * _TINY) * xn
            bound = _EPS * ((_INNER_ERR_SAFETY + 1.0) * absum + carried)
            if not bound <= _BUDGET:  # an overflowed (inf or NaN) bound fails too
                return s, math.inf, False
            if mag <= _REL_TOL * (abs(s) + 1e-300):
                small += 1
                if small >= 3 and n >= 8:
                    return s, bound, True
            else:
                small = 0
    return s, math.inf, False


def _degree_rows(
    rule: Callable, params: tuple, x: np.ndarray, q: np.ndarray, lead: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_degree_series` at every row of the 1-D arrays ``x``, ``q`` and ``lead``.

    Each block of 32 indices forms c_n and d_n for every row still summing
    with matrix products, two per table layout, from the powers of u each
    row has used so far, and then its terms, in the scalar form's order of
    operations.  Each row's compensated partial sums are formed index by
    index; the gates are then read off the block at once.  A row fails at
    its first exponent past 700 or bound past the budget, and converges at
    its third negligible term in a row once n >= 8, whichever comes first;
    rows left after 1200 terms fail.  A failed row has value NaN and bound
    inf.
    """
    values = np.full(x.size, np.nan)
    bounds = np.full(x.size, np.inf)
    ok = np.zeros(x.size, dtype=bool)
    live = np.arange(x.size)
    with np.errstate(all="ignore"):
        m = np.maximum(x, q)
        m = np.where(m > 0.0, m, 1.0)
        u, log_m = np.minimum(x, q) / m, np.log(m)
    flip = q > x
    powers = np.empty((0, x.size))  # u**r by row r, one column per live row
    s = comp = np.zeros(x.size)
    absum = carried = np.zeros((1, x.size))
    negl = np.zeros((2, x.size), dtype=bool)  # were the last two terms negligible
    for n0 in range(0, _DEGREE_TERMS, _BLOCK):
        if live.size == 0:
            break
        by_r, by_j, top = _degree_block(rule, params, n0)
        n = np.arange(n0, n0 + len(top), dtype=float)[:, None]
        rank = np.arange(float(by_r.shape[1]))[:, None]
        with np.errstate(all="ignore"):
            powers = np.concatenate((powers, u ** rank[powers.shape[0]:]))
            c, d = np.empty((2, n.size, live.size))
            for table, rows in ((by_r, ~flip), (by_j, flip)):
                c[:, rows] = table @ powers[:, rows]
                d[:, rows] = table @ (rank * powers[:, rows])
            lg = lead + n * log_m + np.array(top)[:, None]
            xn = np.where(lg <= _EXP_CAP, np.exp(lg), np.inf)
            mag = c * xn
            terms = mag.copy()
            terms[1::2] *= -1.0  # n0 is even: the odd rows are the odd n
            sums = np.empty_like(terms)
            for i in range(n.size):
                y = terms[i] - comp
                tt = s + y
                comp = (tt - s) - y
                s = tt
                sums[i] = s
            # cumsum adds in order, as the scalar form does
            absum = np.cumsum(np.concatenate((absum[-1:], mag)), axis=0)[1:]
            errs = (0.5 * ((n + 1.0) * c + d) + (n + 1.0) * _TINY) * xn
            carried = np.cumsum(np.concatenate((carried[-1:], errs)), axis=0)[1:]
            bound = _EPS * ((_INNER_ERR_SAFETY + 1.0) * absum + carried)
            negl = np.concatenate((negl[-2:], mag <= _REL_TOL * (np.abs(sums) + 1e-300)))
        failed = ~(bound <= _BUDGET)
        event = failed | (negl[2:] & negl[1:-1] & negl[:-2] & (n >= 8.0))
        stop = event.any(axis=0)
        if stop.any():
            cols = np.flatnonzero(stop)
            at = event[:, cols].argmax(axis=0)
            win = ~failed[at, cols]
            at, cols = at[win], cols[win]
            values[live[cols]], bounds[live[cols]], ok[live[cols]] = sums[at, cols], bound[at, cols], True
            keep = ~stop
            live, u, flip, log_m, lead = live[keep], u[keep], flip[keep], log_m[keep], lead[keep]
            powers, s, comp = powers[:, keep], s[keep], comp[keep]
            absum, carried, negl = absum[:, keep], carried[:, keep], negl[:, keep]
    return values, bounds, ok


# A governing equation as data: ((nu_i, c_i), ...), c0, f_inf, source.
_Equation = tuple[tuple[tuple[float, float], ...], float, float, Callable[[np.ndarray], np.ndarray] | None]


class _Law:
    """Behaviour shared by the law dataclasses.

    Subclasses implement ``_psi(t)`` for t > 0, ``_laplace(eta)`` and
    ``_asymptote(small, t)``, and ``_equation()`` where the law solves a
    fractional relaxation equation; a law without a transform or an
    equation keeps the defaults below, which raise :class:`Unsupported`.
    The laws hold data and formulas only: :func:`psi` samples them and
    :func:`~frax.fraccalc.ode_residual` checks them against their equation.
    ``_psi`` neither clips nor inverts: it returns its series value or
    raises :class:`NonConvergence`, and :func:`psi` owns the clipping and
    the Talbot inversion of ``_laplace``.  A law whose ``_psi`` is a series
    sets ``_contour_first``: :func:`psi` inverts its transform, at a single
    time or on one contour for a whole array (the contour, else
    :class:`Unstable`), and only ``_series_psi`` sums the series.  Such a
    ``_psi`` also takes a 1-D float array of times > 0, and is NaN where a
    float time would raise :class:`NonConvergence`.
    """

    _contour_first = False

    def _laplace(self, s):
        raise Unsupported(f"psi_laplace has no transform for {type(self).__name__}")

    def _equation(self) -> _Equation:
        """The governing equation of the law as ``(terms, c0, f_inf, source)``.

        psi solves sum_i c_i D^{nu_i} f + c0 (f - f_inf) + source(t) = 0,
        with ``terms`` the pairs (nu_i, c_i) of Caputo orders in (0, 1] and
        their coefficients, and ``source`` a numpy expression in an array
        of t > 0, or None.
        """
        raise Unsupported(f"equation: no governing equation is known for {type(self).__name__}")


@dataclass(frozen=True)
class Standard(_Law):
    """Exponential relaxation exp(-lam*t) (constant-rate crossing)."""

    lam: float

    def __post_init__(self) -> None:
        _positive(self, "lam")

    def _psi(self, t: float) -> float:
        return math.exp(-self.lam * t)

    def _laplace(self, s):
        return 1.0 / (s + self.lam)

    def _asymptote(self, small: bool, t: float) -> float:
        return 1.0 - self.lam * t if small else math.exp(-self.lam * t)

    def _equation(self) -> _Equation:
        return ((1.0, 1.0),), self.lam, 0.0, None


@dataclass(frozen=True)
class Fractional(_Law):
    """Reflected-Brownian-type crossing of an exponential boundary.

    psi(t) = E_nu(-lam * t**nu); the nu = 1/2 case is a reflecting
    Brownian motion with Var B(t) = 2t, smaller nu arise from iterated
    composition of reflected motions.
    """

    nu: float
    lam: float

    _contour_first = True

    def __post_init__(self) -> None:
        _reals(self, "nu")
        _require(0.0 < self.nu < 1.0, f"Fractional.nu must lie in (0, 1), got {self.nu!r}")
        _positive(self, "lam")

    def _psi(self, t):
        return mittag_leffler(MLParams(self.nu, 1.0), -self.lam * t**self.nu)

    def _laplace(self, s):
        # s**(nu-1) / (s**nu + lam), with no product that outgrows s
        return 1.0 / (s + self.lam * np.exp((1.0 - self.nu) * np.log(s)))

    def _asymptote(self, small: bool, t: float) -> float:
        nu, lam = self.nu, self.lam
        if small:
            return 1.0 - lam * t**nu / math.gamma(1.0 + nu)
        return 1.0 / (lam * t**nu * math.gamma(1.0 - nu))

    def _equation(self) -> _Equation:
        return ((self.nu, 1.0),), self.lam, 0.0, None


@dataclass(frozen=True)
class Sojourn(_Law):
    """Crossing of an exponential boundary by the occupation time of the
    positive half-line, psi(t) = exp(-lam*t/2) * I0(lam*t/2)."""

    lam: float

    def __post_init__(self) -> None:
        _positive(self, "lam")

    def _psi(self, t: float) -> float:
        return float(i0e(0.5 * self.lam * t))

    def _laplace(self, s):
        # two roots, not sqrt(s*(s+lam)): the product leaves the principal
        # branch off the real axis
        return 1.0 / (np.sqrt(s) * np.sqrt(s + self.lam))

    def _asymptote(self, small: bool, t: float) -> float:
        return 1.0 - 0.5 * self.lam * t if small else 1.0 / math.sqrt(self.lam * math.pi * t)

    def _equation(self) -> _Equation:
        # s^{1/2} Psi - s^{-1/2} = (s + lam)^{-1/2} - s^{-1/2}, inverted term by term
        lam = self.lam
        return ((0.5, 1.0),), 0.0, 0.0, lambda t: -np.expm1(-lam * t) / np.sqrt(math.pi * t)


@dataclass(frozen=True)
class FirstPassage(_Law):
    """Crossing by an n-fold first-passage-time chain of Brownian motions.

    psi(t) = exp(-rate * t) with rate = 2**(1 - 2**-n) * lam**(2**-n);
    n = 1 is the plain first-passage time, giving exp(-t*sqrt(2*lam)).
    """

    lam: float
    n: int = 1

    def __post_init__(self) -> None:
        _positive(self, "lam")
        _count(self, "n")

    def _psi(self, t: float) -> float:
        return math.exp(-first_passage_rate(self.lam, self.n) * t)

    def _laplace(self, s):
        return 1.0 / (s + first_passage_rate(self.lam, self.n))

    def _asymptote(self, small: bool, t: float) -> float:
        rate = first_passage_rate(self.lam, self.n)
        return 1.0 - rate * t if small else math.exp(-rate * t)


@dataclass(frozen=True)
class BesselSq(_Law):
    """Crossing of an exponential boundary by a squared Bessel process of
    dimension ``gamma``, psi(t) = (2*lam*t + 1)**(-gamma/2).  It has no
    elementary Laplace transform."""

    gamma: float
    lam: float

    def __post_init__(self) -> None:
        _positive(self, "gamma", "lam")

    def _psi(self, t: float) -> float:
        return (2.0 * self.lam * t + 1.0) ** (-0.5 * self.gamma)

    def _asymptote(self, small: bool, t: float) -> float:
        return self._psi(t)


@dataclass(frozen=True)
class Elastic(_Law):
    """Crossing of an exponential boundary by elastic Brownian motion
    (reflected motion killed at rate alpha per unit local time)."""

    alpha: float
    lam: float

    _contour_first = True

    def __post_init__(self) -> None:
        _positive(self, "alpha", "lam")

    def _psi(self, t):
        lam, alpha = self.lam, self.alpha
        sqrt_t = _xp(t).sqrt(t)
        if abs(alpha - lam) < _EQUAL_RATES * lam:
            y = lam * sqrt_t / _SQRT2
            return 1.0 - y * _gml_scaled(MLParams(0.5, 1.5, 2.0), -y, y)
        # lam / (lam - alpha) amplifies the error of both Mittag-Leffler values
        if 2.0 * _ML_ACCURACY * lam > _BUDGET * abs(lam - alpha):
            if isinstance(t, np.ndarray):
                return np.full(t.shape, np.nan)
            raise NonConvergence(f"two-rate elastic series cancels at alpha={alpha!r}, lam={lam!r}")
        ml = MLParams(0.5, 1.0)
        ea = mittag_leffler(ml, -alpha * sqrt_t / _SQRT2)
        el = mittag_leffler(ml, -lam * sqrt_t / _SQRT2)
        return 1.0 - lam / (lam - alpha) * (ea - el)

    def _laplace(self, s):
        lam, alpha = self.lam, self.alpha
        r = np.sqrt(s)
        s2 = _SQRT2 * r
        num = alpha * lam / s + _SQRT2 * alpha / r + 2.0
        return num / ((s2 + alpha) * (s2 + lam))

    def _asymptote(self, small: bool, t: float) -> float:
        if small:
            return 1.0 - self.lam * math.sqrt(2.0 * t / math.pi)
        return 1.0 - _SQRT2 / (self.alpha * math.sqrt(math.pi * t))

    def _equation(self) -> _Equation:
        lam, alpha = self.lam, self.alpha
        terms = ((1.0, 1.0), (0.5, (alpha + lam) / _SQRT2))
        return terms, 0.5 * alpha * lam, 1.0, lambda t: lam / np.sqrt(2.0 * math.pi * t)


@dataclass(frozen=True)
class GammaBoundary(_Law):
    """Reflected-Brownian crossing of a gamma(k, lam) boundary (integer k)."""

    k: int
    lam: float

    _contour_first = True

    def __post_init__(self) -> None:
        _count(self, "k")
        _positive(self, "lam")

    def _psi(self, t):
        x = self.lam * _xp(t).sqrt(t)
        try:
            with np.errstate(over="ignore"):
                scale = x**self.k
        except OverflowError:  # a float x**k past the float range, as an array's inf
            scale = math.inf  # the series then fails its gate
        p = MLParams(0.5, 0.5 * self.k + 1.0, float(self.k))
        return 1.0 - scale * _gml_scaled(p, -x, scale)

    def _laplace(self, s):
        lam, k = self.lam, self.k
        return (1.0 - (lam / (np.sqrt(s) + lam)) ** k) / s

    def _asymptote(self, small: bool, t: float) -> float:
        k, lam = self.k, self.lam
        if small:
            return 1.0 - (lam * math.sqrt(t)) ** k / math.gamma(0.5 * k + 1.0)
        return k / (lam * math.sqrt(math.pi * t))

    def _equation(self) -> _Equation:
        # (1 + D^{1/2}/lam)^k psi = 0, expanded by the binomial theorem
        k, lam = self.k, self.lam
        if k > 2:
            raise Unsupported(
                "equation: the gamma-boundary law is stated for k <= 2 "
                "(higher k requires Caputo orders above 1)"
            )
        return tuple((0.5 * j, math.comb(k, j) / lam**j) for j in range(1, k + 1)), 1.0, 0.0, None


@dataclass(frozen=True)
class ElasticGamma(_Law):
    """Elastic-Brownian crossing of a gamma(k, lam) boundary (integer k)."""

    k: int
    alpha: float
    lam: float

    _contour_first = True

    def __post_init__(self) -> None:
        _count(self, "k")
        _positive(self, "alpha", "lam")

    def _psi(self, t):
        sqrt_t = _xp(t).sqrt(t)
        y = self.lam * sqrt_t / _SQRT2
        a = self.alpha * sqrt_t / _SQRT2
        s, _bound, ok = _degree_series(_elastic_gamma_logs, (float(self.k),), a, y, self.k * _log(y))
        if not (isinstance(t, np.ndarray) or ok):
            raise NonConvergence(f"elastic gamma-boundary series fails its 1e-9 gate at t={t!r}")
        return 1.0 - s  # NaN where an array's series failed

    def _laplace(self, s):
        lam, alpha, k = self.lam, self.alpha, self.k
        r = np.sqrt(s)
        s2 = _SQRT2 * r
        return 1.0 / s - _SQRT2 / (r * (s2 + alpha)) * (lam / (s2 + lam)) ** k

    def _asymptote(self, small: bool, t: float) -> float:
        k, lam = self.k, self.lam
        if small:
            return 1.0 - (lam * math.sqrt(t) / _SQRT2) ** k / math.gamma(0.5 * k + 1.0)
        return 1.0 - _SQRT2 / (self.alpha * math.sqrt(math.pi * t))

    def _equation(self) -> _Equation:
        if self.k != 1:
            raise Unsupported(
                "equation: the elastic gamma-boundary law is stated for "
                "k = 1 (higher k requires Caputo orders above 1)"
            )
        lam, alpha = self.lam, self.alpha
        terms = ((0.5, 1.0 + alpha / lam), (1.0, _SQRT2 / lam))
        return terms, alpha / _SQRT2, 1.0, lambda t: 1.0 / np.sqrt(math.pi * t)


@dataclass(frozen=True)
class Distributed(_Law):
    """Two-order distributed relaxation with weights n1, n2 (n1 + n2 = 1)
    on Caputo orders nu1 < nu2; the crossing process is the inverse of the
    corresponding weighted stable subordinator."""

    nu1: float
    nu2: float
    n1: float
    n2: float
    lam: float

    _contour_first = True

    def __post_init__(self) -> None:
        _reals(self, "nu1", "nu2", "n1", "n2")
        _require(0.0 < self.nu1 < self.nu2 <= 1.0, f"Distributed requires 0 < nu1 < nu2 <= 1, got nu1={self.nu1!r}, nu2={self.nu2!r}")
        _require(self.n1 >= 0.0 and self.n2 > 0.0, f"Distributed requires n1 >= 0 and n2 > 0, got n1={self.n1!r}, n2={self.n2!r}")
        _require(abs(self.n1 + self.n2 - 1.0) <= 1e-12, f"Distributed weights must satisfy n1 + n2 = 1, got {self.n1!r} + {self.n2!r}")
        _positive(self, "lam")

    def _psi(self, t):
        if self.n1 == 0.0:
            if self.nu2 == 1.0:
                return _xp(t).exp(-self.lam * t / self.n2)
            return Fractional(self.nu2, self.lam / self.n2)._psi(t)
        delta = self.nu2 - self.nu1
        x = self.lam * t**self.nu2 / self.n2
        q = self.n1 * t**delta / self.n2
        s, _bound, ok = _degree_series(_two_order_logs, (self.nu1, self.nu2), x, q, _log(x))
        if not (isinstance(t, np.ndarray) or ok):
            raise NonConvergence(f"distributed-order series fails its 1e-9 gate at t={t!r}")
        return 1.0 - s  # NaN where an array's series failed

    def _laplace(self, s):
        log_s = np.log(s)
        w = self.n1 * np.exp(self.nu1 * log_s) + self.n2 * np.exp(self.nu2 * log_s)
        return 1.0 / (s + self.lam * s / w)

    def _asymptote(self, small: bool, t: float) -> float:
        if small:
            return 1.0 - self.lam * t**self.nu2 / (self.n2 * math.gamma(1.0 + self.nu2))
        if self.n1 == 0.0:
            inner = Fractional(self.nu2, self.lam / self.n2) if self.nu2 < 1.0 else Standard(self.lam / self.n2)
            return inner._asymptote(small, t)
        return self.n1 / (self.lam * t**self.nu1 * math.gamma(1.0 - self.nu1))

    def _equation(self) -> _Equation:
        return ((self.nu1, self.n1), (self.nu2, self.n2)), self.lam, 0.0, None


RelaxationModel = Union[
    Standard,
    Fractional,
    Sojourn,
    FirstPassage,
    BesselSq,
    Elastic,
    GammaBoundary,
    ElasticGamma,
    Distributed,
]


def first_passage_rate(lam: float, n: int) -> float:
    """Decay rate of the n-fold first-passage chain: 2**(1-2**-n) * lam**(2**-n)."""
    return 2.0 ** (1.0 - 0.5**n) * lam ** (0.5**n)


def _law(model: object, missing: str) -> _Law:
    if not isinstance(model, _Law):
        raise Unsupported(f"{missing} for {type(model).__name__}")
    return model


def psi(model: RelaxationModel, t: float | np.ndarray) -> float | np.ndarray:
    """Survival probability psi(t) of the crossing problem ``model``.

    psi(0) = 1 exactly.  For t > 0 the laws whose closed form is a series
    (fractional, elastic, gamma-boundary, elastic-gamma, distributed)
    invert their exact Laplace transform on a fixed Talbot contour
    (:func:`~frax.fraccalc.laplace_invert`: the transform called once, the
    20-node value certified by the 28-node one to 1e-10): the contour,
    else :class:`Unstable`, never an uncertified value.  The elementary
    laws (standard, sojourn, first passage, squared Bessel) evaluate their
    closed form.  Values a rounding error outside [0, 1] are snapped back
    onto the interval.

    ``t`` may also be an ndarray of finite times >= 0 (a real dtype, not
    bool); the result is an ndarray of the same shape, holding the values
    of scalar calls.  The series laws invert the whole array on one
    contour, with one call of the transform, so their values may differ
    from scalar calls by the rounding of the batched sums (~5e-14); the
    first time the contour does not certify raises :class:`Unstable`.
    """
    if isinstance(t, np.ndarray):
        return _psi_array(_law(model, "psi has no law"), t)
    t = _time(t, "psi", zero=True)
    law = _law(model, "psi has no law")
    if t == 0.0 or not law._contour_first:
        return _series_psi(law, t)
    return _clip01(laplace_invert(law._laplace, t))


def _series_psi(model: _Law, t: float | np.ndarray) -> float | np.ndarray:
    """psi at a float t >= 0 from the law's series, the reference evaluator.

    The law's closed form answers; where its series fails its gate, the
    transform is inverted on the contour instead (the contour, else
    :class:`Unstable`).  Checks sample this, not :func:`psi`, so that they
    hold the series and the contour against each other rather than the
    contour against itself.  The arguments are not checked.

    ``t`` may be a 1-D float ndarray of times >= 0: a series law then sums
    its series once for all of them, and the times where it fails its gate
    are inverted together on one contour, which raises :class:`Unstable`
    if it does not certify them.  The values agree with scalar calls to
    ~1e-12; the elementary laws answer point by point.
    """
    if isinstance(t, np.ndarray):
        out = np.ones(t.size)
        rest = np.flatnonzero(t > 0.0)
        if not model._contour_first:
            out[rest] = [_series_psi(model, tj) for tj in t[rest].tolist()]
            return out
        ts = t[rest]
        values = model._psi(ts)
        failed = np.flatnonzero(np.isnan(values))
        if failed.size:
            values[failed] = laplace_invert(model._laplace, ts[failed])
        out[rest] = [_clip01(v) for v in values.tolist()]
        return out
    if t == 0.0:
        return 1.0
    try:
        return _clip01(model._psi(t))
    except NonConvergence:
        return _clip01(laplace_invert(model._laplace, t))


def _psi_array(law: _Law, t: np.ndarray) -> np.ndarray:
    """:func:`psi` at every time of the ndarray ``t``."""
    if not (t.dtype.kind in "iuf" and np.all(np.isfinite(t) & (t >= 0.0))):
        raise DomainError(f"psi requires finite t >= 0 (a real array), got {t!r}")
    flat = t.astype(float).reshape(-1)
    if not law._contour_first:
        return _series_psi(law, flat).reshape(t.shape)
    out = np.ones(flat.size)
    rest = np.flatnonzero(flat > 0.0)
    if rest.size:
        out[rest] = [_clip01(v) for v in laplace_invert(law._laplace, flat[rest]).tolist()]
    return out.reshape(t.shape)


def psi_laplace(model: RelaxationModel, s):
    """Exact Laplace transform of psi, where a closed form exists.

    Real s > 0 gives a float.  Complex or array-valued s is accepted where
    it is finite and off the closed negative real axis, and the transform
    takes the principal branch there (as contour inversion needs).  The
    squared-Bessel law has no elementary transform and raises
    :class:`Unsupported`.
    """
    z = np.asarray(s)
    if not (
        z.dtype.kind in "iufc"
        and np.all(np.isfinite(z))
        and not np.any((z.imag == 0.0) & (z.real <= 0.0))
    ):
        raise DomainError(f"psi_laplace requires finite s off the closed negative axis, got {s!r}")
    law = _law(model, "psi_laplace has no transform")
    if z.ndim == 0 and z.dtype.kind != "c":
        return float(law._laplace(float(z)))
    return law._laplace(z)


def asymptote(model: RelaxationModel, regime: Regime, t: float) -> float:
    """Leading small-t or large-t behaviour of psi for ``model``.

    Where the law is already elementary (pure exponentials, the squared
    Bessel power law) the exact expression is returned in both regimes.
    An expression that overflows or divides by zero in floating point
    raises :class:`NonConvergence` naming the law, the regime and t.
    """
    t = _time(t, "asymptote")
    if not isinstance(regime, Regime):
        raise DomainError(f"asymptote regime must be a Regime member, got {regime!r}")
    law = _law(model, "asymptote has no expansion")
    try:
        return law._asymptote(regime is Regime.SmallT, t)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonConvergence(f"{type(law).__name__} {regime.value} asymptote at t={t!r}: {exc}") from None


def equation(model: RelaxationModel) -> _Equation:
    """The fractional relaxation equation that psi of ``model`` solves.

    Returns ``(terms, c0, f_inf, source)`` for
    sum_i c_i D^{nu_i} psi + c0 (psi - f_inf) + source(t) = 0, where
    ``terms`` pairs each Caputo order nu_i in (0, 1] with its coefficient
    and ``source`` is a numpy expression in t > 0 (a float or an array of
    times) or None; this is the form
    :func:`~frax.fraccalc.ode_residual` takes.  Laws without such an
    equation (first passage, squared Bessel, gamma shapes above the
    stated range) raise :class:`Unsupported`.
    """
    return _law(model, "equation: no governing equation is known")._equation()
