"""Monte Carlo and quadrature oracles for the boundary-crossing laws.

Every process here admits exact sampling of its time-t endpoint (no path
discretization), so a crossing estimate is a plain Bernoulli mean with a
binomial standard error and no discretization bias.  Sampling is
deterministic by construction: paths are grouped into fixed-size blocks,
each block draws from its own counter-based stream keyed by
``(seed, block_index)``, and draws within a block follow a fixed order.
The result is bit-identical for a given seed regardless of how many
worker threads (``FRAX_THREADS``) are used.  A process's endpoint at time
t is a fixed map of randomness that does not depend on t, so one draw per
block serves every time of a call: the estimates of one call share their
draws (common random numbers), so they are correlated across times, and
each is bit-for-bit the estimate a single-time call returns.

Heavy-tailed waiting-time processes without exact samplers (the inverse
stable, Airy, and distributed-order subordinators) are integrated instead:
their density times the boundary's survival function, on one nested
double-exponential rule (Takahasi & Mori, Publ. RIMS 9, 1974) whose
levels halve the step until two of them agree.  The inverse stable and
Airy clocks end at scale(t) * X for one time-free X, so the density of X
times the rule's weights is tabulated once per spec, level by level, and
a call is one survival evaluation and one sum per level.

Each process spec owns what is known about it: its exact sampler or its
quadrature rule, its endpoint density and, through :meth:`law`, the
relaxation law of :mod:`frax.relaxation` its crossing probability follows.
:data:`PAIRINGS` names the pairs checked against their laws, and
:func:`crossing` estimates a pair by the method its process admits.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np
from scipy.special import erfcx, gammaincc

from . import relaxation as rx
from .errors import DomainError, NonConvergence, Unsupported, _finite, _integer
from .relaxation import _count, _positive, _reals, _require, _time
from .specfun import airy_ai, wright_m

DEFAULT_SEED = 0xF12AC7
_BLOCK = 1 << 18

__all__ = [
    "ReflectedBM",
    "IteratedBM",
    "SojournTime",
    "FirstPassageChain",
    "BesselSquared",
    "ElasticBM",
    "WrightTime",
    "AiryTime",
    "DistributedTime",
    "ProcessSpec",
    "Exponential",
    "Gamma",
    "BoundarySpec",
    "CrossingEstimate",
    "PAIRINGS",
    "DEFAULT_SEED",
    "crossing",
    "estimate_crossing",
    "quadrature_crossing",
    "density",
    "elastic_atom",
]


@dataclass(frozen=True)
class CrossingEstimate:
    """Crossing-probability estimate with its uncertainty and provenance."""

    p_hat: float
    stderr: float
    n_paths: int
    seed: int
    method: str

    def z_score(self, value: float) -> float:
        """How many standard errors ``p_hat`` lies above ``value``.  A zero
        stderr claims an exact value: any gap scores an infinite |z|."""
        gap = self.p_hat - value
        if self.stderr > 0.0:
            return gap / self.stderr
        return math.copysign(math.inf, gap) if gap else 0.0


@dataclass(frozen=True)
class Exponential:
    """Exponential(lam) random boundary."""

    lam: float

    def __post_init__(self) -> None:
        _positive(self, "lam")

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.lam, size)

    def _survivor(self, y: np.ndarray) -> np.ndarray:
        """P(boundary > y) at each y."""
        return np.exp(-self.lam * y)


@dataclass(frozen=True)
class Gamma:
    """Gamma(k, lam) random boundary with integer shape k (Erlang)."""

    k: int
    lam: float

    def __post_init__(self) -> None:
        _count(self, "k")
        _positive(self, "lam")

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.k, 1.0 / self.lam, size)

    def _survivor(self, y: np.ndarray) -> np.ndarray:
        """P(boundary > y) at each y."""
        return gammaincc(self.k, self.lam * y)


BoundarySpec = Union[Exponential, Gamma]


class _Process:
    """Behaviour shared by the process specs.

    A process with an exact endpoint sampler defines ``_sample(rng, size)``,
    which draws the time-free randomness of ``size`` endpoints, and
    ``_endpoints(draw, t)``, which maps that draw to the endpoints at time
    t.  The map must not change the draw, since one draw serves every time
    of a call.  One with an explicit endpoint density
    overrides ``_density(y, t)``.  The time-changed processes, which have
    no sampler, define instead the quadrature rule of
    :func:`quadrature_crossing`: ``_levels(boundary, t)`` yields, for each
    level l = 0, 1, ... of a nested double-exponential rule with step
    2**(-2 - l) in s, the integrand density * P(boundary > y) * dy/ds at
    the nodes that level adds (:func:`_de_nodes`), and a bound on what the
    nodes of the levels so far whose density did not certify would add
    to the value.  Level 0 spans the rule's whole range of s, so its
    first and last values are the integrand at the two ends, which must
    be negligible.  A process whose crossing
    probability of an exponential boundary has a closed form defines
    ``_exponential_law(lam)``.
    """

    def _density(self, y: float, t: float) -> float:
        raise Unsupported(f"density is not available for {type(self).__name__}")

    def law(self, boundary: BoundarySpec) -> rx.RelaxationModel:
        """The relaxation law whose psi(t) is this process's probability of
        staying below ``boundary``; raises :class:`DomainError` when no
        closed form pairs the two."""
        if isinstance(boundary, Exponential) and hasattr(self, "_exponential_law"):
            return self._exponential_law(boundary.lam)
        raise DomainError(
            f"no closed form pairs {type(self).__name__} with {type(boundary).__name__}"
        )


@dataclass(frozen=True)
class ReflectedBM(_Process):
    """Reflected Brownian motion |B(t)| with Var B(t) = 2t, the convention
    of the fractional relaxation laws."""

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.abs(rng.standard_normal(size))

    def _endpoints(self, draw: np.ndarray, t: float) -> np.ndarray:
        return draw * math.sqrt(2.0 * t)

    def _density(self, y: float, t: float) -> float:
        if y < 0.0:
            return 0.0
        var = 2.0 * t
        return math.sqrt(2.0 / (math.pi * var)) * math.exp(-y * y / (2.0 * var))

    def law(self, boundary: BoundarySpec) -> rx.RelaxationModel:
        if isinstance(boundary, Exponential):
            return rx.Fractional(nu=0.5, lam=boundary.lam)
        if isinstance(boundary, Gamma):
            return rx.GammaBoundary(k=boundary.k, lam=boundary.lam)
        return super().law(boundary)


@dataclass(frozen=True)
class IteratedBM(_Process):
    """n-fold composition |B_1(|B_2(... |B_n(t)|)|)| of reflected motions
    (each with Var = 2t), whose endpoint law has fractional order 2**-n."""

    n: int

    def __post_init__(self) -> None:
        _count(self, "n")

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # the chain s -> |Z| sqrt(2s) run from s = 1/2: its end at time t is
        # that draw times (2t)**(2**-n)
        s = np.abs(rng.standard_normal(size))
        for _ in range(1, self.n):
            s *= 2.0
            np.sqrt(s, out=s)
            s *= np.abs(rng.standard_normal(size))
        return s

    def _endpoints(self, draw: np.ndarray, t: float) -> np.ndarray:
        return draw * (2.0 * t) ** 0.5**self.n

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Fractional(nu=0.5**self.n, lam=lam)


@dataclass(frozen=True)
class SojournTime(_Process):
    """Occupation time of (0, inf) up to t by a Brownian motion, which
    follows the arcsine law t * Beta(1/2, 1/2), drawn as t * sin(pi U / 2)**2
    from one uniform U."""

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # P(sin(pi U / 2)**2 <= x) = (2/pi) asin(sqrt(x)), the arcsine CDF
        u = rng.random(size)
        u *= 0.5 * math.pi
        np.sin(u, out=u)
        return np.square(u, out=u)

    def _endpoints(self, draw: np.ndarray, t: float) -> np.ndarray:
        return t * draw

    def _density(self, y: float, t: float) -> float:
        if not (0.0 < y < t):
            return 0.0
        return 1.0 / (math.pi * math.sqrt(y * (t - y)))

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Sojourn(lam=lam)


@dataclass(frozen=True)
class FirstPassageChain(_Process):
    """n-fold iteration of Brownian first-passage times through a level:
    one step maps a level s to the passage time s**2 / Z**2, Z ~ N(0,1)."""

    n: int

    def __post_init__(self) -> None:
        _count(self, "n")

    def _sample(self, rng: np.random.Generator, size: int) -> list[np.ndarray]:
        return [rng.standard_normal(size) for _ in range(self.n)]

    def _endpoints(self, draw: list[np.ndarray], t: float) -> np.ndarray:
        s = t
        for z in draw:
            with np.errstate(divide="ignore", over="ignore"):
                s = (s / z) ** 2
        return s

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.FirstPassage(lam=lam, n=self.n)


@dataclass(frozen=True)
class BesselSquared(_Process):
    """Squared Bessel process of dimension gamma built from unit-variance
    components; its time-t endpoint is 2t * Gamma(gamma/2, 1)."""

    gamma: float

    def __post_init__(self) -> None:
        _positive(self, "gamma")

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_gamma(0.5 * self.gamma, size)

    def _endpoints(self, draw: np.ndarray, t: float) -> np.ndarray:
        return 2.0 * t * draw

    def _density(self, y: float, t: float) -> float:
        if y <= 0.0:
            return 0.0
        g = self.gamma
        return (
            y ** (0.5 * g - 1.0)
            * math.exp(-y / (2.0 * t))
            / ((2.0 * t) ** (0.5 * g) * math.gamma(0.5 * g))
        )

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.BesselSq(gamma=self.gamma, lam=lam)


@dataclass(frozen=True)
class ElasticBM(_Process):
    """Elastic Brownian motion: reflected motion (Var = t) killed at rate
    alpha per unit of local time at the origin.  A killed path never
    crosses: its sampled endpoint is 0, below every boundary, so the
    survival probability tends to 1 at large t.

    The endpoint comes from Levy's identity: with S the running maximum of
    a Brownian motion B, (S - B, S) has the law of (|B|, L), L the local
    time at 0.  At t = 1, B = Z ~ N(0, 1) and, given Z, S is the maximum
    of a Brownian bridge from 0 to Z, (Z + sqrt(Z**2 + 2 E1)) / 2 with E1
    a standard exponential; both scale by sqrt(t).  The path is killed
    once alpha L passes a second standard exponential E2."""

    alpha: float

    def __post_init__(self) -> None:
        _positive(self, "alpha")

    def _sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, ...]:
        # (S, S - Z, E2 / alpha) at t = 1
        z = rng.standard_normal(size)
        e1 = rng.standard_exponential(size)
        clock = rng.standard_exponential(size)
        clock /= self.alpha
        s = np.square(z)
        s += e1
        s += e1
        np.sqrt(s, out=s)
        s += z
        s *= 0.5
        return s, s - z, clock

    def _endpoints(self, draw: tuple[np.ndarray, ...], t: float) -> np.ndarray:
        # np.where(clock <= root * s, 0, root * rest), as a product: a
        # random mask costs np.where a mispredicted branch per element
        s, rest, clock = draw
        root = math.sqrt(t)
        endpoint = root * rest
        endpoint *= clock > root * s
        return endpoint

    def _density(self, y: float, t: float) -> float:
        if y < 0.0:
            return 0.0
        a = self.alpha
        return math.exp(-y * y / (2.0 * t)) * (
            math.sqrt(2.0 / (math.pi * t)) - a * float(erfcx((y + a * t) / math.sqrt(2.0 * t)))
        )

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Elastic(alpha=self.alpha, lam=lam)

    def law(self, boundary: BoundarySpec) -> rx.RelaxationModel:
        if isinstance(boundary, Gamma):
            return rx.ElasticGamma(k=boundary.k, alpha=self.alpha, lam=boundary.lam)
        return super().law(boundary)


# The nested double-exponential rules of quadrature_crossing: level l
# adds the nodes s = (odd) * 2**(-2 - l) of a fixed range to those of the
# levels before it, and a value stands once two consecutive levels, plus
# the integrand at the two ends of the range and the bound on nodes whose
# density did not certify, agree to _DE_TOL relative.
_DE_TOL = 1e-12
_DE_LEVELS = 10
# a shape rule's range begins where x = exp(sigma * sinh(s)) reaches 1e-40
_SHAPE_LOW = math.log(1e-40)
# a tanh-sinh rule spans s in [-4, 4]: y within e**(-pi sinh 4) = 5.8e-38
# of each end of the support, in shares of its length
_TANH_SINH_END = 4.0


def _de_nodes(lo: float, hi: float, level: int) -> np.ndarray:
    """The nodes in s that ``level`` adds on [lo, hi], ends multiples of 1/4:
    every multiple of 1/4 at level 0, then the odd multiples of the step
    2**(-2 - level) past ``lo``."""
    h = 2.0 ** (-2 - level)
    n = round((hi - lo) / h)
    return lo + h * (np.arange(n + 1) if level == 0 else np.arange(1, n, 2))


class _ScaleFamily(_Process):
    """A process whose endpoint at time t is ``_scale(t)`` times a time-free
    variable with density ``_shape(x)`` on (0, inf).  Its rule maps x =
    exp(sigma * sinh(s)) with sigma = ``_spread()`` and tabulates the
    weights sigma * cosh(s) * x * shape(x) once per spec and level
    (:func:`_shape_level`), so that a call at any time and boundary sums
    weight * P(boundary > scale(t) * x) and evaluates no density."""

    def _density(self, y: float, t: float) -> float:
        if y < 0.0:
            return 0.0
        c = self._scale(t)
        return self._shape(y / c) / c

    def _levels(self, boundary: BoundarySpec, t: float) -> Iterator[tuple[np.ndarray, float]]:
        c, slack = self._scale(t), 0.0
        for level in itertools.count():
            x, weight, failure = _shape_level(self, level)
            integrand = weight * boundary._survivor(c * x)
            if failure is not None:
                # a node's share of a level's sum is at most the whole, about
                # 1, so a node whose shape did not certify adds at most twice
                # its survival; past _DE_TOL no value <= 1 can absorb that
                unknown = np.isnan(weight)
                slack += 2.0 * float(boundary._survivor(c * x[unknown]).sum())
                if not slack <= _DE_TOL:
                    raise NonConvergence(failure)
                integrand[unknown] = 0.0
            yield integrand, slack


def _shape_or_nan(spec: _ScaleFamily, x: float) -> tuple[float, str | None]:
    """``spec._shape(x)``, or NaN and the reason where it does not certify."""
    try:
        return spec._shape(x), None
    except NonConvergence as exc:
        return math.nan, str(exc)


@functools.lru_cache(maxsize=16)
def _shape_range(spec: _ScaleFamily) -> tuple[float, float]:
    """The range of s of ``spec``'s rule: from the first multiple of 1/4
    where x <= 1e-40, up to the first past 0 where shape(x) underflows to 0
    (one that does not certify counts as positive)."""
    sigma = spec._spread()
    lo = -math.ceil(4.0 * math.asinh(-_SHAPE_LOW / sigma)) / 4.0
    hi = 0.0
    while not _shape_or_nan(spec, math.exp(sigma * math.sinh(hi)))[0] <= 0.0:
        hi += 0.25
    return lo, hi


@functools.lru_cache(maxsize=16 * _DE_LEVELS)
def _shape_level(spec: _ScaleFamily, level: int) -> tuple[np.ndarray, np.ndarray, str | None]:
    """The nodes x that ``level`` adds to ``spec``'s rule, their weights and
    the first reason a shape value did not certify (its weight is NaN), built
    on first use: only the new nodes' shape values are evaluated."""
    sigma = spec._spread()
    s = _de_nodes(*_shape_range(spec), level)
    x = np.exp(sigma * np.sinh(s))
    shape, reasons = zip(*(_shape_or_nan(spec, v) for v in x.tolist()))
    weight = sigma * np.cosh(s) * x * np.array(shape)
    x.flags.writeable = weight.flags.writeable = False  # shared by every call through the cache
    return x, weight, next(filter(None, reasons), None)


@dataclass(frozen=True)
class WrightTime(_ScaleFamily):
    """Inverse stable subordinator of index nu: its endpoint is t**nu * X,
    X with the M-Wright density M_nu (Mainardi, Mura & Pagnini 2010).
    Quadrature only."""

    nu: float

    def __post_init__(self) -> None:
        _reals(self, "nu")
        _require(0.0 < self.nu < 1.0, f"WrightTime.nu must lie in (0, 1), got {self.nu!r}")

    def _scale(self, t: float) -> float:
        return t**self.nu

    def _shape(self, x: float) -> float:
        return wright_m(self.nu, x)

    def _spread(self) -> float:
        # twice the coefficient of variation of M_nu (its moments are
        # n!/Gamma(1 + n*nu)), so that the peak it narrows to at x = 1 as
        # nu -> 1 spans s in about (-1/2, 1/2); at most pi/2
        nu = self.nu
        cv2 = math.expm1(math.log(2.0) + 2.0 * math.lgamma(1.0 + nu) - math.lgamma(1.0 + 2.0 * nu))
        return min(0.5 * math.pi, 2.0 * math.sqrt(cv2))

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Fractional(nu=self.nu, lam=lam)

    def law(self, boundary: BoundarySpec) -> rx.RelaxationModel:
        # nu = 1/2 is the reflected motion with Var = 2t, M_{1/2}(x) = exp(-x^2/4)/sqrt(pi)
        if self.nu == 0.5 and isinstance(boundary, Gamma):
            return rx.GammaBoundary(k=boundary.k, lam=boundary.lam)
        return super().law(boundary)


@dataclass(frozen=True)
class AiryTime(_ScaleFamily):
    """Order-1/3 waiting process whose endpoint is (3t)**(1/3) * X, X with
    density 3 Ai(x).  Quadrature only."""

    def _scale(self, t: float) -> float:
        return (3.0 * t) ** (1.0 / 3.0)

    def _shape(self, x: float) -> float:
        return 3.0 * airy_ai(x)

    def _spread(self) -> float:
        return 0.5 * math.pi  # 3 Ai has coefficient of variation 0.88: twice that is past pi/2

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Fractional(nu=1.0 / 3.0, lam=lam)


@dataclass(frozen=True)
class DistributedTime(_Process):
    """Inverse of the weighted subordinator n1 * (stable 1/2) + n2 * t;
    the endpoint has an explicit density on (0, t/n2).  Quadrature only,
    on a tanh-sinh rule over that support (:func:`_tanh_sinh_level`),
    whose nodes crowd toward its end, where the mass sits at small t."""

    n1: float
    n2: float

    def __post_init__(self) -> None:
        _positive(self, "n1", "n2")
        _require(abs(self.n1 + self.n2 - 1.0) <= 1e-12, f"DistributedTime weights must satisfy n1 + n2 = 1, got {self.n1!r} + {self.n2!r}")

    def _density(self, y: float, t: float) -> float:
        n1, n2 = self.n1, self.n2
        gap = t - n2 * y
        if not (y > 0.0 and gap > 0.0):  # 0 off the support (0, t/n2)
            return 0.0
        # in logs, where no factor overflows at large t or underflows at
        # small t, a subnormal gap included; the exponent n1**2 y**2 / (4 gap)
        # may be inf, and the density then 0
        spike = 0.25 * n1 * y * (n1 * y / gap)
        return math.exp(math.log(n1) + math.log(t - 0.5 * n2 * y) - 0.5 * math.log(math.pi) - 1.5 * math.log(gap) - spike)

    def _levels(self, boundary: BoundarySpec, t: float) -> Iterator[tuple[np.ndarray, float]]:
        # with y = end * share and gap = t - n2*y = t * rest, the density
        # times dy/ds is scale * weight * exp(-rate * share**2 / rest)
        end, ratio = t / self.n2, self.n1 / self.n2
        rate = 0.25 * ratio * ratio * t
        scale = 0.5 * ratio * math.sqrt(t / math.pi)
        for level in itertools.count():
            share, spike, weight = _tanh_sinh_level(level)
            yield scale * weight * np.exp(-rate * spike) * boundary._survivor(end * share), 0.0

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Distributed(nu1=0.5, nu2=1.0, n1=self.n1, n2=self.n2, lam=lam)


@functools.lru_cache(maxsize=_DE_LEVELS)
def _tanh_sinh_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``level`` adds to the tanh-sinh rule of DistributedTime, with u =
    pi * sinh(s): the shares share = 1/(1 + e**-u) of the support below
    each node and rest = 1/(1 + e**u) above it, the latter formed directly
    so that the gap to the support's end does not cancel; share**2 / rest;
    and the time-free factor pi * cosh(s) * share * (1 + rest) / sqrt(rest)
    of the density times dy/ds."""
    s = _de_nodes(-_TANH_SINH_END, _TANH_SINH_END, level)
    u = math.pi * np.sinh(s)
    share, rest = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))
    table = share, share**2 / rest, math.pi * np.cosh(s) * share * (1.0 + rest) / np.sqrt(rest)
    for a in table:
        a.flags.writeable = False  # shared by every call through the cache
    return table


ProcessSpec = Union[
    ReflectedBM,
    IteratedBM,
    SojournTime,
    FirstPassageChain,
    BesselSquared,
    ElasticBM,
    WrightTime,
    AiryTime,
    DistributedTime,
]

# (name, process, boundary): every pairing checked against its law, the
# Monte Carlo pairs first.  A process with an exact sampler is simulated,
# the others are integrated against their density (see :func:`crossing`).
# A name lists the process, its parameters, the boundary and its
# parameters as the ``frax simulate`` flags spell them.
_EXP1 = Exponential(lam=1.0)
PAIRINGS: tuple[tuple[str, ProcessSpec, BoundarySpec], ...] = (
    ("reflectedbm-exponential-1", ReflectedBM(), _EXP1),
    ("iteratedbm-2-exponential-1", IteratedBM(n=2), _EXP1),
    ("sojourntime-exponential-1", SojournTime(), _EXP1),
    ("firstpassagechain-1-exponential-1", FirstPassageChain(n=1), _EXP1),
    ("firstpassagechain-2-exponential-1", FirstPassageChain(n=2), _EXP1),
    ("besselsquared-1-exponential-1", BesselSquared(gamma=1.0), _EXP1),
    ("besselsquared-2-exponential-1", BesselSquared(gamma=2.0), _EXP1),
    ("besselsquared-3-exponential-1", BesselSquared(gamma=3.0), _EXP1),
    ("elasticbm-0.5-exponential-1", ElasticBM(alpha=0.5), _EXP1),
    ("elasticbm-1.0-exponential-1", ElasticBM(alpha=1.0), _EXP1),
    ("elasticbm-2.0-exponential-1", ElasticBM(alpha=2.0), _EXP1),
    ("reflectedbm-gamma-2-1", ReflectedBM(), Gamma(k=2, lam=1.0)),
    ("reflectedbm-gamma-3-1", ReflectedBM(), Gamma(k=3, lam=1.0)),
    ("elasticbm-0.8-gamma-2-1.1", ElasticBM(alpha=0.8), Gamma(k=2, lam=1.1)),
    ("wrighttime-0.3-exponential-1", WrightTime(nu=0.3), _EXP1),
    ("wrighttime-0.7-exponential-1", WrightTime(nu=0.7), _EXP1),
    ("wrighttime-0.5-gamma-2-1", WrightTime(nu=0.5), Gamma(k=2, lam=1.0)),
    ("airytime-exponential-1.3", AiryTime(), Exponential(lam=1.3)),
    ("distributedtime-0.5-0.5-exponential-1", DistributedTime(n1=0.5, n2=0.5), _EXP1),
)


def _typed(owner: str, value: object, kind: object, what: str) -> None:
    """Raise :class:`DomainError` unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise DomainError(f"{owner} requires {what}, got {type(value).__name__}")


def _specs(owner: str, spec: object, boundary: object) -> None:
    _typed(owner, spec, ProcessSpec, "a process spec")
    _typed(owner, boundary, BoundarySpec, "a boundary spec")


def _seed(seed: object, owner: str) -> int:
    """The seed as an ``int``: any integer in [0, 2**64), numpy integers included."""
    if not (_integer(seed, 0) and seed < 2**64):
        raise DomainError(f"{owner} requires an integer seed in [0, 2**64), got {seed!r}")
    return int(seed)


def _workers() -> int:
    raw = os.environ.get("FRAX_THREADS", "")
    try:
        w = int(raw) if raw else 1
    except ValueError:
        raise DomainError(f"FRAX_THREADS must be an integer, got {raw!r}")
    return max(1, w)


def _times(t: object, owner: str) -> tuple[tuple[float, ...], bool]:
    """The requested times as floats, and whether ``t`` was one time rather
    than a non-empty tuple, list or 1-D array of them.  Any time that is not
    a finite real > 0 raises :class:`DomainError` naming ``owner``."""
    if isinstance(t, (tuple, list)) or (isinstance(t, np.ndarray) and t.ndim == 1):
        if len(t) == 0:
            raise DomainError(f"{owner} requires at least one time, got {t!r}")
        return tuple(_time(x, owner) for x in t), False
    return (_time(t, owner),), True


def estimate_crossing(
    spec: ProcessSpec,
    boundary: BoundarySpec,
    t: float | Sequence[float] | np.ndarray,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CrossingEstimate | tuple[CrossingEstimate, ...]:
    """Monte Carlo estimate of P(process endpoint < boundary) at time t,
    or a tuple of estimates, one per time, when ``t`` is a non-empty tuple,
    list or 1-D array of times.

    Paths are processed in fixed blocks of 2**18, each with its own
    counter-based stream keyed by (seed, block index); the estimate is
    independent of thread count and bit-identical across runs.  The seed
    is an integer in [0, 2**64) (numpy integers included, stored as int).
    Each block draws the process's randomness and the boundary once and
    maps the draw to every time in turn, so the estimates of one call are
    correlated across times, and each is bit-for-bit the estimate a
    single-time call returns.  Every time is checked before anything is
    drawn.
    """
    _specs("estimate_crossing", spec, boundary)
    ts, single = _times(t, "estimate_crossing")
    if not hasattr(spec, "_sample"):
        raise DomainError(
            f"{type(spec).__name__} has no exact path sampler; use quadrature_crossing"
        )
    if not _integer(n_paths, 1000):
        raise DomainError(f"estimate_crossing requires an integer n_paths >= 1000, got {n_paths!r}")
    n_paths = int(n_paths)
    seed = _seed(seed, "estimate_crossing")
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK

    def run_block(b: int) -> list[int]:
        # each time's endpoints are dropped once counted, so a block holds
        # its draw, its bounds and one time's endpoints whatever len(ts) is
        m = min(_BLOCK, n_paths - b * _BLOCK)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        draw = spec._sample(rng, m)
        bounds = boundary._draw(rng, m)
        return [int(np.count_nonzero(spec._endpoints(draw, s) < bounds)) for s in ts]

    w = _workers()
    if w > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=w) as pool:
            blocks = list(pool.map(run_block, range(n_blocks)))
    else:
        blocks = [run_block(b) for b in range(n_blocks)]
    estimates = tuple(_bernoulli(sum(counts), n_paths, seed) for counts in zip(*blocks))
    return estimates[0] if single else estimates


def _bernoulli(count: int, n_paths: int, seed: int) -> CrossingEstimate:
    """The estimate from ``count`` of ``n_paths`` paths ending below their boundary."""
    p = count / n_paths
    # at count 0 or n the variance comes from half a count (p(1 - p) is
    # symmetric, so 1/2n serves both ends): a zero would claim an exact value
    q = p if 0 < count < n_paths else 0.5 / n_paths
    stderr = math.sqrt(q * (1.0 - q) / n_paths)
    return CrossingEstimate(p_hat=p, stderr=stderr, n_paths=n_paths, seed=seed, method="monte_carlo")


def quadrature_crossing(spec: ProcessSpec, boundary: BoundarySpec, t: float) -> CrossingEstimate:
    """Crossing probability by quadrature of the endpoint density times
    P(boundary > y), on the process's nested double-exponential rule.
    Supported: WrightTime, AiryTime and DistributedTime, with either
    boundary.  Each level halves the step in s, from 1/4 down to at most
    2**-11, and the value of the first level that agrees with the level
    before it to 1e-12 relative, with the integrand at the two ends of the
    range counted against it, is returned.  The stderr is the gap between
    those two levels, floored at 1e-10.  Levels that never agree, or that
    agree on a value <= 0 (no positive survival function gives one: the
    rule missed the mass), raise :class:`NonConvergence` naming the spec,
    the boundary and t.  WrightTime and AiryTime tabulate their shape
    density at the rule's nodes once per spec, level by level as calls
    first need them: on a 2-vCPU machine a first call costs 4-6 ms for
    WrightTime up to nu = 0.9, 12 ms at 0.99, 60 ms at 0.999 and 1 ms for
    AiryTime, and a later one 20-50 us at any time and boundary.
    """
    _specs("quadrature_crossing", spec, boundary)
    t = _time(t, "quadrature_crossing")
    if not hasattr(spec, "_levels"):
        raise Unsupported(f"quadrature_crossing does not support {type(spec).__name__}")
    total, value, agreed = 0.0, math.nan, False
    try:
        # at extreme parameters a survival's argument passes the float range
        # and reads 0 as it should; a NaN from inf * 0 fails the checks below
        with np.errstate(over="ignore", invalid="ignore"):
            for level, (integrand, slack) in zip(range(_DE_LEVELS), spec._levels(boundary, t)):
                if level == 0:
                    ends = float(integrand[0] + integrand[-1])
                total += float(integrand.sum())
                last, value = value, total * 2.0 ** (-2 - level)
                agreed = abs(value - last) + ends + slack <= _DE_TOL * value
                if agreed:
                    break
    except NonConvergence as exc:  # the density's own failure, named with its time
        why = str(exc)
    else:
        if value > 0.0 and agreed:
            return CrossingEstimate(p_hat=value, stderr=max(abs(value - last), 1e-10), n_paths=1,
                                    seed=0, method="quadrature")
        why = (f"the value {value!r} is not positive" if not value > 0.0 else
               f"{_DE_LEVELS} levels, down to a step of 2**-{_DE_LEVELS + 1}, did not agree to {_DE_TOL:g}")
    raise NonConvergence(f"quadrature of {spec} under {boundary} at t={t!r}: {why}")


def crossing(
    spec: ProcessSpec,
    boundary: BoundarySpec,
    t: float | Sequence[float] | np.ndarray,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CrossingEstimate | tuple[CrossingEstimate, ...]:
    """Crossing probability by :func:`estimate_crossing` where the process
    has an exact sampler, else by :func:`quadrature_crossing` (which needs
    no ``n_paths`` or ``seed``).  Like :func:`estimate_crossing` it takes
    one time or a non-empty tuple, list or 1-D array of them, and returns
    one estimate or a tuple of them.  Monte Carlo estimates of one call
    share their draws (correlated across times, each bit-for-bit the
    single-time estimate); quadrature answers one time at a time, from the
    shape table its first call built where the process has one."""
    if hasattr(spec, "_sample"):
        return estimate_crossing(spec, boundary, t, n_paths, seed=seed)
    ts, single = _times(t, "quadrature_crossing")
    estimates = tuple(quadrature_crossing(spec, boundary, s) for s in ts)
    return estimates[0] if single else estimates


def density(spec: ProcessSpec, y: float, t: float) -> float:
    """Endpoint density of ``spec`` at time t, where one is available.

    For ElasticBM this is the continuous part only; the killed mass is
    exposed separately by :func:`elastic_atom`.  DistributedTime's density
    is formed in logs and is finite at every float y and t: it peaks where
    the gap t - n2*y is one unit in the last place of t, below 1e177, so it
    never overflows, and it is 0 only off its support or where its true
    value lies below the float range.
    """
    _typed("density", spec, ProcessSpec, "a process spec")
    t = _time(t, "density")
    x = _finite(y)
    if math.isnan(x):
        raise DomainError(f"density requires finite y, got {y!r}")
    return spec._density(x, t)


def elastic_atom(spec: ElasticBM, t: float) -> float:
    """Probability that the elastic motion has been killed by time t:
    1 - exp(alpha**2 t / 2) * erfc(alpha sqrt(t/2)), in stable form."""
    _typed("elastic_atom", spec, ElasticBM, "an ElasticBM")
    t = _time(t, "elastic_atom")
    return 1.0 - float(erfcx(spec.alpha * math.sqrt(0.5 * t)))
