"""Relaxation laws: the probability psi(t) that a Brownian-type process
has not yet crossed an independent random boundary by time t.

Each model is a frozen dataclass carrying its parameters and everything
the package knows about its law: the closed form, the Laplace transform,
the small- and large-t asymptotes and the residual of the governing
equation on an :class:`~frax.fraccalc.L1Grid`.  The public functions
:func:`psi`, :func:`psi_laplace` and :func:`asymptote` validate their
arguments and hand over to the model.

Evaluation strategy: every law has an explicit series/closed form used
wherever it holds full accuracy in doubles.  The laws that lose the series
at large arguments (gamma-type boundaries, distributed orders) track the
series' propagated error term by term, stop at the first term that breaks
the 1e-9 budget and invert their exact Laplace transform on a fixed Talbot
contour instead (:func:`~frax.fraccalc.laplace_invert`).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np
from scipy.special import i0e

from .errors import DomainError, NonConvergence, Unsupported
from .fraccalc import L1Grid, caputo_l1, laplace_invert
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
    "TimeGrid",
    "first_passage_rate",
    "psi",
    "psi_grid",
    "psi_laplace",
    "asymptote",
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


def _positive(name: str, v: float) -> None:
    _require(isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0, f"{name} must be positive and finite, got {v!r}")


def _clip01(v: float) -> float:
    """Snap values a rounding error outside [0, 1] back onto the interval."""
    if -1e-9 <= v < 0.0:
        return 0.0
    if 1.0 < v <= 1.0 + 1e-9:
        return 1.0
    return v


def _psi_by_inversion(model: "RelaxationModel", t: float) -> float:
    return _clip01(laplace_invert(model._laplace, t))


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


class _Law:
    """Behaviour shared by the law dataclasses.

    Subclasses implement ``_psi(t)`` for t > 0, ``_laplace(eta)``
    and ``_asymptote(small, t)``, and ``_residual(g)`` where the law has a
    governing equation; a law without a transform or an equation keeps the
    defaults below, which raise :class:`Unsupported`.
    """

    def _laplace(self, s):
        raise Unsupported(f"psi_laplace has no transform for {type(self).__name__}")

    def _residual(self, g: L1Grid) -> tuple[tuple[float, ...], list[float]]:
        """Residual of the governing equation on the nodes t_1..t_n of ``g``.

        Fractional orders are discretized by the L1 scheme (its nu -> 1
        limit, the backward difference, is used for first derivatives so
        every term carries the order of its own operator).
        """
        raise Unsupported(f"ode_residual has no governing equation for {type(self).__name__}")

    def _sample(self, h: float, n: int) -> L1Grid:
        """psi sampled exactly on the uniform grid {0, h, ..., n*h}."""
        return L1Grid.sample(lambda t: psi(self, t), h, n)


@dataclass(frozen=True)
class Standard(_Law):
    """Exponential relaxation exp(-lam*t) (constant-rate crossing)."""

    lam: float

    def __post_init__(self) -> None:
        _positive("Standard.lam", self.lam)

    def _psi(self, t: float) -> float:
        return math.exp(-self.lam * t)

    def _laplace(self, s):
        return 1.0 / (s + self.lam)

    def _asymptote(self, small: bool, t: float) -> float:
        return 1.0 - self.lam * t if small else math.exp(-self.lam * t)

    def _residual(self, g: L1Grid) -> tuple[tuple[float, ...], list[float]]:
        d1 = caputo_l1(g, 1.0)
        return g.ts[1:], [d1[m] + self.lam * g.values[m + 1] for m in range(g.n)]


@dataclass(frozen=True)
class Fractional(_Law):
    """Reflected-Brownian-type crossing of an exponential boundary.

    psi(t) = E_nu(-lam * t**nu); the nu = 1/2 case is a reflecting
    Brownian motion with Var B(t) = 2t, smaller nu arise from iterated
    composition of reflected motions.
    """

    nu: float
    lam: float

    def __post_init__(self) -> None:
        _require(0.0 < self.nu < 1.0, f"Fractional.nu must lie in (0, 1), got {self.nu!r}")
        _positive("Fractional.lam", self.lam)

    def _psi(self, t: float) -> float:
        return _clip01(mittag_leffler(MLParams(self.nu, 1.0), -self.lam * t**self.nu))

    def _laplace(self, s):
        return s ** (self.nu - 1.0) / (s**self.nu + self.lam)

    def _asymptote(self, small: bool, t: float) -> float:
        nu, lam = self.nu, self.lam
        if small:
            return 1.0 - lam * t**nu / math.gamma(1.0 + nu)
        return 1.0 / (lam * t**nu * math.gamma(1.0 - nu))

    def _residual(self, g: L1Grid) -> tuple[tuple[float, ...], list[float]]:
        dnu = caputo_l1(g, self.nu)
        return g.ts[1:], [dnu[m] + self.lam * g.values[m + 1] for m in range(g.n)]


@dataclass(frozen=True)
class Sojourn(_Law):
    """Crossing of an exponential boundary by the occupation time of the
    positive half-line, psi(t) = exp(-lam*t/2) * I0(lam*t/2)."""

    lam: float

    def __post_init__(self) -> None:
        _positive("Sojourn.lam", self.lam)

    def _psi(self, t: float) -> float:
        return float(i0e(0.5 * self.lam * t))

    def _laplace(self, s):
        # two roots, not sqrt(s*(s+lam)): the product leaves the principal
        # branch off the real axis
        return 1.0 / (np.sqrt(s) * np.sqrt(s + self.lam))

    def _asymptote(self, small: bool, t: float) -> float:
        return 1.0 - 0.5 * self.lam * t if small else 1.0 / math.sqrt(self.lam * math.pi * t)

    def _residual(self, g: L1Grid) -> tuple[tuple[float, ...], list[float]]:
        # second-order equation, by central differences at t_1..t_{n-1}
        lam, h, f = self.lam, g.h, g.values
        nodes, res = [], []
        for m in range(1, g.n):
            t = m * h
            d2 = (f[m + 1] - 2.0 * f[m] + f[m - 1]) / (h * h)
            d1 = (f[m + 1] - f[m - 1]) / (2.0 * h)
            nodes.append(t)
            res.append(d2 + (lam + 1.0 / t) * d1 + lam / (2.0 * t) * f[m])
        return tuple(nodes), res


@dataclass(frozen=True)
class FirstPassage(_Law):
    """Crossing by an n-fold first-passage-time chain of Brownian motions.

    psi(t) = exp(-rate * t) with rate = 2**(1 - 2**-n) * lam**(2**-n);
    n = 1 is the plain first-passage time, giving exp(-t*sqrt(2*lam)).
    """

    lam: float
    n: int = 1

    def __post_init__(self) -> None:
        _positive("FirstPassage.lam", self.lam)
        _require(isinstance(self.n, int) and self.n >= 1, f"FirstPassage.n must be an integer >= 1, got {self.n!r}")

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
        _positive("BesselSq.gamma", self.gamma)
        _positive("BesselSq.lam", self.lam)

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

    def __post_init__(self) -> None:
        _positive("Elastic.alpha", self.alpha)
        _positive("Elastic.lam", self.lam)

    def _psi(self, t: float) -> float:
        lam, alpha = self.lam, self.alpha
        if abs(alpha - lam) < 1e-8 * lam:
            try:
                y = lam * math.sqrt(t) / _SQRT2
                return _clip01(1.0 - y * _gml_scaled(MLParams(0.5, 1.5, 2.0), -y, y))
            except NonConvergence:
                return _psi_by_inversion(self, t)
        ml = MLParams(0.5, 1.0)
        ea = mittag_leffler(ml, -alpha * math.sqrt(t) / _SQRT2)
        el = mittag_leffler(ml, -lam * math.sqrt(t) / _SQRT2)
        return _clip01(1.0 - lam / (lam - alpha) * (ea - el))

    def _laplace(self, s):
        lam, alpha = self.lam, self.alpha
        s2 = np.sqrt(2.0 * s)
        num = alpha * lam / s + _SQRT2 * alpha / np.sqrt(s) + 2.0
        return num / ((s2 + alpha) * (s2 + lam))

    def _asymptote(self, small: bool, t: float) -> float:
        if small:
            return 1.0 - self.lam * math.sqrt(2.0 * t / math.pi)
        return 1.0 - _SQRT2 / (self.alpha * math.sqrt(math.pi * t))

    def _residual(self, g: L1Grid) -> tuple[tuple[float, ...], list[float]]:
        lam, alpha, f, ts = self.lam, self.alpha, g.values, g.ts[1:]
        d1 = caputo_l1(g, 1.0)
        dh = caputo_l1(g, 0.5)
        res = [
            d1[m]
            + (alpha + lam) / _SQRT2 * dh[m]
            - 0.5 * alpha * lam * (1.0 - f[m + 1])
            + lam / math.sqrt(2.0 * math.pi * ts[m])
            for m in range(g.n)
        ]
        return ts, res


@dataclass(frozen=True)
class GammaBoundary(_Law):
    """Reflected-Brownian crossing of a gamma(k, lam) boundary (integer k)."""

    k: int
    lam: float

    def __post_init__(self) -> None:
        _require(isinstance(self.k, int) and self.k >= 1, f"GammaBoundary.k must be an integer >= 1, got {self.k!r}")
        _positive("GammaBoundary.lam", self.lam)

    def _psi(self, t: float) -> float:
        x = self.lam * math.sqrt(t)
        p = MLParams(0.5, 0.5 * self.k + 1.0, float(self.k))
        try:
            return _clip01(1.0 - x**self.k * _gml_scaled(p, -x, x**self.k))
        except NonConvergence:
            return _psi_by_inversion(self, t)

    def _laplace(self, s):
        lam, k = self.lam, self.k
        b = (np.sqrt(s) + lam) ** k
        return (b - lam**k) / (s * b)

    def _asymptote(self, small: bool, t: float) -> float:
        k, lam = self.k, self.lam
        if small:
            return 1.0 - (lam * math.sqrt(t)) ** k / math.gamma(0.5 * k + 1.0)
        return k / (lam * math.sqrt(math.pi * t))

    def _residual(self, g: L1Grid) -> tuple[tuple[float, ...], list[float]]:
        lam, k, f = self.lam, self.k, g.values
        if k > 2:
            raise Unsupported(
                "ode_residual for the gamma-boundary law is implemented for k <= 2 "
                "(higher k requires Caputo orders above 1)"
            )
        dh = caputo_l1(g, 0.5)
        if k == 1:
            return g.ts[1:], [dh[m] / lam + f[m + 1] for m in range(g.n)]
        d1 = caputo_l1(g, 1.0)
        return g.ts[1:], [2.0 * dh[m] / lam + d1[m] / lam**2 + f[m + 1] for m in range(g.n)]


@dataclass(frozen=True)
class ElasticGamma(_Law):
    """Elastic-Brownian crossing of a gamma(k, lam) boundary (integer k)."""

    k: int
    alpha: float
    lam: float

    def __post_init__(self) -> None:
        _require(isinstance(self.k, int) and self.k >= 1, f"ElasticGamma.k must be an integer >= 1, got {self.k!r}")
        _positive("ElasticGamma.alpha", self.alpha)
        _positive("ElasticGamma.lam", self.lam)

    def _psi(self, t: float) -> float:
        lam, alpha, k = self.lam, self.alpha, self.k
        y = lam * math.sqrt(t) / _SQRT2
        try:
            if abs(alpha - lam) < 1e-8 * lam:
                p = MLParams(0.5, 0.5 * k + 1.0, k + 1.0)
                return _clip01(1.0 - y**k * _gml_scaled(p, -y, y**k))
            a = alpha * math.sqrt(t) / _SQRT2

            def inner(ell: int, cap: float) -> tuple[float, float, bool]:
                return _gml_raw(MLParams(0.5, 0.5 * (ell + k) + 1.0, float(k)), -y, cap)

            return _clip01(1.0 - y**k * _outer_series(inner, a, y**k))
        except NonConvergence:
            return _psi_by_inversion(self, t)

    def _laplace(self, s):
        lam, alpha, k = self.lam, self.alpha, self.k
        s2 = np.sqrt(2.0 * s)
        return 1.0 / s - _SQRT2 * lam**k / (np.sqrt(s) * (s2 + alpha) * (s2 + lam) ** k)

    def _asymptote(self, small: bool, t: float) -> float:
        k, lam = self.k, self.lam
        if small:
            return 1.0 - (lam * math.sqrt(t) / _SQRT2) ** k / math.gamma(0.5 * k + 1.0)
        return 1.0 - _SQRT2 / (self.alpha * math.sqrt(math.pi * t))

    def _residual(self, g: L1Grid) -> tuple[tuple[float, ...], list[float]]:
        if self.k != 1:
            raise Unsupported(
                "ode_residual for the elastic gamma-boundary law is implemented for "
                "k = 1 (higher k requires Caputo orders above 1)"
            )
        lam, alpha, f, ts = self.lam, self.alpha, g.values, g.ts[1:]
        d1 = caputo_l1(g, 1.0)
        dh = caputo_l1(g, 0.5)
        res = [
            (1.0 + alpha / lam) * dh[m]
            + _SQRT2 / lam * d1[m]
            - alpha / _SQRT2 * (1.0 - f[m + 1])
            + 1.0 / math.sqrt(math.pi * ts[m])
            for m in range(g.n)
        ]
        return ts, res


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

    def __post_init__(self) -> None:
        _require(0.0 < self.nu1 < self.nu2 <= 1.0, f"Distributed requires 0 < nu1 < nu2 <= 1, got nu1={self.nu1!r}, nu2={self.nu2!r}")
        _require(self.n1 >= 0.0 and self.n2 > 0.0, f"Distributed requires n1 >= 0 and n2 > 0, got n1={self.n1!r}, n2={self.n2!r}")
        _require(abs(self.n1 + self.n2 - 1.0) <= 1e-12, f"Distributed weights must satisfy n1 + n2 = 1, got {self.n1!r} + {self.n2!r}")
        _positive("Distributed.lam", self.lam)

    def _psi(self, t: float) -> float:
        if self.n1 == 0.0:
            if self.nu2 == 1.0:
                return math.exp(-self.lam * t / self.n2)
            return psi(Fractional(self.nu2, self.lam / self.n2), t)
        try:
            return _clip01(self._series(t))
        except NonConvergence:
            return _psi_by_inversion(self, t)

    def _series(self, t: float) -> float:
        delta = self.nu2 - self.nu1
        x = self.lam * t**self.nu2 / self.n2
        q = self.n1 * t**delta / self.n2

        def inner(r: int, cap: float) -> tuple[float, float, bool]:
            return _gml_raw(MLParams(self.nu2, self.nu2 + delta * r + 1.0, r + 1.0), -x, cap)

        return 1.0 - x * _outer_series(inner, q, x)

    def _laplace(self, s):
        w = self.n1 * s**self.nu1 + self.n2 * s**self.nu2
        return w / (s * (self.lam + w))

    def _asymptote(self, small: bool, t: float) -> float:
        if small:
            return 1.0 - self.lam * t**self.nu2 / (self.n2 * math.gamma(1.0 + self.nu2))
        if self.n1 == 0.0:
            inner = Fractional(self.nu2, self.lam / self.n2) if self.nu2 < 1.0 else Standard(self.lam / self.n2)
            return inner._asymptote(small, t)
        return self.n1 / (self.lam * t**self.nu1 * math.gamma(1.0 - self.nu1))

    def _residual(self, g: L1Grid) -> tuple[tuple[float, ...], list[float]]:
        da = caputo_l1(g, self.nu1)
        db = caputo_l1(g, self.nu2)
        res = [self.n1 * da[m] + self.n2 * db[m] + self.lam * g.values[m + 1] for m in range(g.n)]
        return g.ts[1:], res


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


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid of positive evaluation times."""

    ts: tuple[float, ...]

    def __post_init__(self) -> None:
        _require(len(self.ts) >= 1, "TimeGrid needs at least one point")
        _require(all(math.isfinite(t) and t > 0.0 for t in self.ts), "TimeGrid points must be positive and finite")
        _require(all(b > a for a, b in zip(self.ts[:-1], self.ts[1:])), "TimeGrid points must be strictly increasing")

    @classmethod
    def span(cls, start: float, stop: float, count: int, scale: str = "linear") -> "TimeGrid":
        _require(count >= 1, f"TimeGrid.span count must be >= 1, got {count}")
        _require(0.0 < start <= stop, f"TimeGrid.span requires 0 < start <= stop, got {start}, {stop}")
        if count == 1:
            return cls(ts=(start,))
        _require(start < stop, f"TimeGrid.span with count > 1 requires start < stop, got start = stop = {start}")
        if scale == "linear":
            step = (stop - start) / (count - 1)
            return cls(ts=tuple(start + i * step for i in range(count)))
        if scale == "log":
            la, lb = math.log(start), math.log(stop)
            step = (lb - la) / (count - 1)
            return cls(ts=tuple(math.exp(la + i * step) for i in range(count)))
        raise DomainError(f"TimeGrid.span scale must be 'linear' or 'log', got {scale!r}")


def first_passage_rate(lam: float, n: int) -> float:
    """Decay rate of the n-fold first-passage chain: 2**(1-2**-n) * lam**(2**-n)."""
    return 2.0 ** (1.0 - 0.5**n) * lam ** (0.5**n)



def _law(model: object, missing: str) -> _Law:
    if not isinstance(model, _Law):
        raise Unsupported(f"{missing} for {type(model).__name__}")
    return model


def psi(model: RelaxationModel, t: float) -> float:
    """Survival probability psi(t) of the crossing problem ``model``.

    psi(0) = 1 exactly; for t > 0 the closed form of the law is evaluated.
    The series-form laws stop their series at the first term that breaks
    the 1e-9 error budget and then invert their Laplace transform on a
    fixed Talbot contour, which raises :class:`Unstable` rather than return
    an uncertified value.
    """
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0.0):
        raise DomainError(f"psi requires finite t >= 0, got {t!r}")
    law = _law(model, "psi has no law")
    return law._psi(t) if t > 0.0 else 1.0


def psi_grid(model: RelaxationModel, grid: TimeGrid) -> list[tuple[float, float]]:
    """Evaluate psi over a time grid, returning (t, psi(t)) pairs."""
    return [(t, psi(model, t)) for t in grid.ts]


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
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"asymptote requires t > 0, got {t!r}")
    if not isinstance(regime, Regime):
        raise DomainError(f"asymptote regime must be a Regime member, got {regime!r}")
    return _law(model, "asymptote has no expansion")._asymptote(regime is Regime.SmallT, t)
