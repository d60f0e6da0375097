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
Laplace transform on a fixed Talbot contour first, at one time or on a
whole array of times, and sums the series only where the contour does not
certify its value; the elementary laws evaluate their closed form.
``_series_psi`` keeps the other order (series first, the contour where
the series fails) as the reference evaluator that the verify checks
compare against.  Both snap values a rounding error outside [0, 1] back
onto the interval; the laws themselves never do.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np
from scipy.special import i0e

from .errors import DomainError, NonConvergence, Unstable, Unsupported, _integer, _real
from .fraccalc import _talbot, _talbot_failure, laplace_invert
from .specfun import _ABSUM_CAP, _EPS, MLParams, _gml_raw, _sum_series, mittag_leffler

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
        _require(_real(v) and math.isfinite(v) and v > 0.0, f"{type(obj).__name__}.{name} must be positive and finite, got {v!r}")
        object.__setattr__(obj, name, float(v))


def _count(obj: object, name: str) -> None:
    """Check that a dataclass field is an integer >= 1; store it as an int."""
    v = getattr(obj, name)
    _require(_integer(v, 1), f"{type(obj).__name__}.{name} must be an integer >= 1, got {v!r}")
    object.__setattr__(obj, name, int(v))


def _time(t: object, what: str, zero: bool = False) -> float:
    """``t`` as a float if it is a finite real (see ``_real``) > 0, or >= 0
    with ``zero``; anything else raises :class:`DomainError` naming ``what``."""
    x = float(t) if _real(t) else math.nan
    if math.isfinite(x) and (x > 0.0 or (zero and x == 0.0)):
        return x
    raise DomainError(f"{what} requires finite t {'>=' if zero else '>'} 0, got {t!r}")


def _reals(obj: object, *names: str) -> None:
    """Check that each named dataclass field is a real (see ``_real``); store it as a float."""
    for name in names:
        v = getattr(obj, name)
        _require(_real(v), f"{type(obj).__name__}.{name} must be a real number, got {v!r}")
        object.__setattr__(obj, name, float(v))


def _clip01(v: float) -> float:
    """Snap values a rounding error outside [0, 1] back onto the interval."""
    if -1e-9 <= v < 0.0:
        return 0.0
    if 1.0 < v <= 1.0 + 1e-9:
        return 1.0
    return v


# Log-space term evaluation inside the inner series loses a few tens of
# ulps per term; the inner error estimates are inflated by this factor
# before being amplified by the outer coefficients.
_INNER_ERR_SAFETY = 64.0
# Absolute error a law may carry; the law is a probability.
_BUDGET = 1e-9


def _absum_cap(scale: float, used: float, weight: float) -> float:
    """Cap on the absolute sum of an inner series entering with ``weight``.

    An inner sum with absolute sum A adds ``scale * weight * 64 * eps * A``
    to a propagated error that already stands at ``scale * used``; the cap
    is twice the A that fills the rest of the budget, so rounding never
    rejects a series that the final gate would accept.
    """
    unit = scale * weight * _INNER_ERR_SAFETY * _EPS
    if unit == 0.0:
        return _ABSUM_CAP
    return min(_ABSUM_CAP, 2.0 * (_BUDGET - scale * used) / unit)


def _outer_series(
    inner: "Callable[[int, float], tuple[float, float, bool]]", ratio: float, scale: float
) -> float:
    """Sum an outer series sum_r (-ratio)**r * inner(r) with error tracking.

    ``inner(r, cap)`` returns an inner-series value with its raw error
    estimate, failing once its absolute sum passes ``cap``; the propagated
    bound sums |ratio|**r times those estimates (they are amplified, not
    cancelled, by the alternating outer coefficients) plus the outer
    cancellation term.  ``scale`` is the prefactor the caller multiplies
    the sum by; the law being a probability, the scaled error must stay
    below 1e-9 or :class:`NonConvergence` is raised.  Both parts of the
    bound only grow, so the gate is checked before each term reaches
    :func:`~frax.specfun._sum_series` and each inner series is capped at
    what is left of the budget: a sum that breaks it stops there, as it
    would fail at the end anyway.
    """

    def terms() -> Iterator[float]:
        absum = 0.0
        errb = 0.0
        coeff = 1.0
        for r in itertools.count():
            g, est, ok = inner(r, _absum_cap(scale, errb + _EPS * absum, abs(coeff)))
            if not ok:
                raise NonConvergence(f"inner series failed at outer index {r}")
            term = coeff * g
            absum += abs(term)
            errb += abs(coeff) * est * _INNER_ERR_SAFETY
            total = scale * (errb + _EPS * absum)
            if not total <= _BUDGET:  # an overflowed (inf or NaN) bound fails too
                raise NonConvergence(f"outer series propagated error {total:.3g} exceeds target at term {r}")
            yield term
            coeff *= -ratio

    s, _est, ok = _sum_series(terms())
    if not ok:
        raise NonConvergence("outer series did not converge")
    return s


def _gml_scaled(p: MLParams, z: float, scale: float) -> float:
    """Inner series value whose ``scale``-multiplied error must fit the law.

    The single-series laws subtract ``scale * value`` from 1, so what has
    to be small is the absolute error of that product, not the relative
    error of the series; the acceptance gate matches the one used for the
    outer-series laws (propagated error below 1e-9), and the series stops
    at the first term whose absolute sum breaks it.
    """
    val, est, ok = _gml_raw(p, z, _absum_cap(scale, 0.0, 1.0))
    if not ok or scale * (est * _INNER_ERR_SAFETY + _EPS * abs(val)) > _BUDGET:
        raise NonConvergence(
            f"series for E^{p.gamma}_({p.alpha},{p.beta})({z}) is not accurate enough "
            f"at scale {scale:.3g}"
        )
    return val


# A governing equation as data: ((nu_i, c_i), ...), c0, f_inf, source.
_Equation = tuple[tuple[tuple[float, float], ...], float, float, Callable[[float], float] | None]


class _Law:
    """Behaviour shared by the law dataclasses.

    Subclasses implement ``_psi(t)`` for t > 0, ``_laplace(eta)`` and
    ``_asymptote(small, t)``, and ``_equation()`` where the law solves a
    fractional relaxation equation; a law without a transform or an
    equation keeps the defaults below, which raise :class:`Unsupported`.
    The laws hold data and formulas only: :func:`psi` samples them and
    :func:`~frax.fraccalc.ode_residual` checks them against their equation.
    ``_psi`` neither clips nor falls back: it returns its series value or
    raises :class:`NonConvergence`, and :func:`psi` owns the clipping and
    the Talbot inversion of ``_laplace``.  A law whose ``_psi`` is a series
    sets ``_contour_first``: :func:`psi` inverts its transform first, at a
    single time or on one contour for a whole array, and runs the series
    only where the contour does not certify.
    """

    _contour_first = False

    def _laplace(self, s):
        raise Unsupported(f"psi_laplace has no transform for {type(self).__name__}")

    def _equation(self) -> _Equation:
        """The governing equation of the law as ``(terms, c0, f_inf, source)``.

        psi solves sum_i c_i D^{nu_i} f + c0 (f - f_inf) + source(t) = 0,
        with ``terms`` the pairs (nu_i, c_i) of Caputo orders in (0, 1] and
        their coefficients, and ``source`` a function of t or None.
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

    def _psi(self, t: float) -> float:
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
        return ((0.5, 1.0),), 0.0, 0.0, lambda t: -math.expm1(-lam * t) / math.sqrt(math.pi * t)


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

    def _psi(self, t: float) -> float:
        lam, alpha = self.lam, self.alpha
        if abs(alpha - lam) < 1e-8 * lam:
            y = lam * math.sqrt(t) / _SQRT2
            return 1.0 - y * _gml_scaled(MLParams(0.5, 1.5, 2.0), -y, y)
        ml = MLParams(0.5, 1.0)
        ea = mittag_leffler(ml, -alpha * math.sqrt(t) / _SQRT2)
        el = mittag_leffler(ml, -lam * math.sqrt(t) / _SQRT2)
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
        return terms, 0.5 * alpha * lam, 1.0, lambda t: lam / math.sqrt(2.0 * math.pi * t)


@dataclass(frozen=True)
class GammaBoundary(_Law):
    """Reflected-Brownian crossing of a gamma(k, lam) boundary (integer k)."""

    k: int
    lam: float

    _contour_first = True

    def __post_init__(self) -> None:
        _count(self, "k")
        _positive(self, "lam")

    def _psi(self, t: float) -> float:
        x = self.lam * math.sqrt(t)
        p = MLParams(0.5, 0.5 * self.k + 1.0, float(self.k))
        return 1.0 - x**self.k * _gml_scaled(p, -x, x**self.k)

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

    def _psi(self, t: float) -> float:
        lam, alpha, k = self.lam, self.alpha, self.k
        y = lam * math.sqrt(t) / _SQRT2
        if abs(alpha - lam) < 1e-8 * lam:
            p = MLParams(0.5, 0.5 * k + 1.0, k + 1.0)
            return 1.0 - y**k * _gml_scaled(p, -y, y**k)
        a = alpha * math.sqrt(t) / _SQRT2

        def inner(ell: int, cap: float) -> tuple[float, float, bool]:
            return _gml_raw(MLParams(0.5, 0.5 * (ell + k) + 1.0, float(k)), -y, cap)

        return 1.0 - y**k * _outer_series(inner, a, y**k)

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
        return terms, alpha / _SQRT2, 1.0, lambda t: 1.0 / math.sqrt(math.pi * t)


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

    def _psi(self, t: float) -> float:
        if self.n1 == 0.0:
            if self.nu2 == 1.0:
                return math.exp(-self.lam * t / self.n2)
            return Fractional(self.nu2, self.lam / self.n2)._psi(t)
        return self._series(t)

    def _series(self, t: float) -> float:
        delta = self.nu2 - self.nu1
        x = self.lam * t**self.nu2 / self.n2
        q = self.n1 * t**delta / self.n2

        def inner(r: int, cap: float) -> tuple[float, float, bool]:
            return _gml_raw(MLParams(self.nu2, self.nu2 + delta * r + 1.0, r + 1.0), -x, cap)

        return 1.0 - x * _outer_series(inner, q, x)

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
    20-node value certified by the 28-node one to 1e-10); where the contour
    does not certify, the series answers, gated on a 1e-9 error budget, and
    if that fails too :class:`Unstable` is raised rather than an
    uncertified value returned.  The elementary laws (standard, sojourn,
    first passage, squared Bessel) evaluate their closed form.  Values a
    rounding error outside [0, 1] are snapped back onto the interval.

    ``t`` may also be an ndarray of finite times >= 0 (a real dtype, not
    bool); the result is an ndarray of the same shape, holding the values
    of scalar calls.  The series laws invert the whole array on one
    contour, with one call of the transform, so their values may differ
    from scalar calls by the rounding of the batched sums (~5e-14).
    """
    if isinstance(t, np.ndarray):
        return _psi_array(_law(model, "psi has no law"), t)
    t = _time(t, "psi", zero=True)
    law = _law(model, "psi has no law")
    if t == 0.0 or not law._contour_first:
        return _series_psi(law, t)
    try:
        return _clip01(laplace_invert(law._laplace, t))
    except Unstable as exc:
        return _series_fallback(law, t, str(exc))


def _series_psi(model: _Law, t: float) -> float:
    """psi at a float t >= 0 from the law's series, the reference evaluator.

    The law's closed form answers; where its series fails its gate, the
    transform is inverted on the contour instead.  Checks sample this, not
    :func:`psi`, so that they hold the series and the contour against each
    other rather than the contour against itself.  The arguments are not
    checked.
    """
    if t == 0.0:
        return 1.0
    try:
        return _clip01(model._psi(t))
    except NonConvergence:
        return _clip01(laplace_invert(model._laplace, t))


def _series_fallback(law: _Law, t: float, why: str) -> float:
    """psi at t from the series alone, where the contour failed for ``why``;
    a series that fails too raises :class:`Unstable`."""
    try:
        return _clip01(law._psi(t))
    except NonConvergence as exc:
        raise Unstable(f"{why}, and the series failed too: {exc}") from exc


def _psi_array(law: _Law, t: np.ndarray) -> np.ndarray:
    """:func:`psi` at every time of the ndarray ``t``."""
    if not (t.dtype.kind in "iuf" and np.all(np.isfinite(t) & (t >= 0.0))):
        raise DomainError(f"psi requires finite t >= 0 (a real array), got {t!r}")
    flat = t.astype(float).reshape(-1)
    out = np.ones(flat.size)
    rest = np.flatnonzero(flat > 0.0)
    ts = flat[rest].tolist()
    if law._contour_first and ts:
        values, gaps, ok = _talbot(law._laplace, flat[rest])
        out[rest] = [
            _clip01(v) if good else _series_fallback(law, tj, _talbot_failure(tj, g))
            for tj, v, g, good in zip(ts, values.tolist(), gaps.tolist(), ok.tolist())
        ]
    else:
        out[rest] = [_series_psi(law, tj) for tj in ts]
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
    """
    t = _time(t, "asymptote")
    if not isinstance(regime, Regime):
        raise DomainError(f"asymptote regime must be a Regime member, got {regime!r}")
    return _law(model, "asymptote has no expansion")._asymptote(regime is Regime.SmallT, t)


def equation(model: RelaxationModel) -> _Equation:
    """The fractional relaxation equation that psi of ``model`` solves.

    Returns ``(terms, c0, f_inf, source)`` for
    sum_i c_i D^{nu_i} psi + c0 (psi - f_inf) + source(t) = 0, where
    ``terms`` pairs each Caputo order nu_i in (0, 1] with its coefficient
    and ``source`` is a function of t > 0 or None; this is the form
    :func:`~frax.fraccalc.ode_residual` takes.  Laws without such an
    equation (first passage, squared Bessel, gamma shapes above the
    stated range) raise :class:`Unsupported`.
    """
    return _law(model, "equation: no governing equation is known")._equation()
