"""Monte Carlo and quadrature oracles for the boundary-crossing laws.

Every process here admits exact sampling of its time-t endpoint (no path
discretization), so a crossing estimate is a plain Bernoulli mean with a
binomial standard error and no discretization bias.  Sampling is
deterministic by construction: paths are grouped into fixed-size blocks,
each block draws from its own counter-based stream keyed by
``(seed, block_index)``, and draws within a block follow a fixed order.
The result is bit-identical for a given seed regardless of how many
worker threads (``FRAX_THREADS``) are used.

Heavy-tailed waiting-time processes without exact samplers (the inverse
stable, Airy, and distributed-order subordinators) are handled by
quadrature against their explicit densities instead of Monte Carlo.

Each process spec owns what is known about it: its exact sampler, its
endpoint density, its quadrature crossing and, through :meth:`law`, the
relaxation law of :mod:`frax.relaxation` its crossing probability follows.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx, gammaincc

from . import relaxation as rx
from .errors import DomainError, Unsupported, _integer, _real
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
    "DEFAULT_SEED",
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


@dataclass(frozen=True)
class Exponential:
    """Exponential(lam) random boundary."""

    lam: float

    def __post_init__(self) -> None:
        _positive(self, "lam")

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.lam, size)

    def _survivor(self, y: float) -> float:
        """P(boundary > y)."""
        return math.exp(-self.lam * y)


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

    def _survivor(self, y: float) -> float:
        """P(boundary > y)."""
        return float(gammaincc(self.k, self.lam * y))


BoundarySpec = Union[Exponential, Gamma]


class _Process:
    """Behaviour shared by the process specs.

    A process with an exact endpoint sampler defines
    ``_sample(t, rng, size)``; one with an explicit endpoint density
    overrides ``_density(y, t)``, and the time-changed processes override
    ``_quadrature(boundary, t)``.  A process whose crossing probability of
    an exponential boundary has a closed form defines
    ``_exponential_law(lam)``.
    """

    def _density(self, y: float, t: float) -> float:
        raise Unsupported(f"density is not available for {type(self).__name__}")

    def _quadrature(self, boundary: BoundarySpec, t: float) -> CrossingEstimate:
        raise Unsupported(f"quadrature_crossing does not support {type(self).__name__}")

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

    def _sample(self, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.abs(rng.standard_normal(size)) * math.sqrt(2.0 * t)

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

    def _sample(self, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
        s = np.full(size, t)
        for _ in range(self.n):
            s = np.abs(rng.standard_normal(size)) * np.sqrt(2.0 * s)
        return s

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Fractional(nu=0.5**self.n, lam=lam)


@dataclass(frozen=True)
class SojournTime(_Process):
    """Occupation time of (0, inf) up to t by a Brownian motion, which
    follows the arcsine law t * Beta(1/2, 1/2)."""

    def _sample(self, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
        return t * rng.beta(0.5, 0.5, size)

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

    def _sample(self, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
        s = np.full(size, t)
        for _ in range(self.n):
            z = rng.standard_normal(size)
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

    def _sample(self, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
        return 2.0 * t * rng.standard_gamma(0.5 * self.gamma, size)

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
    survival probability tends to 1 at large t."""

    alpha: float

    def __post_init__(self) -> None:
        _positive(self, "alpha")

    def _sample(self, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
        # Joint draw of (|B_t|, L_t) via the running-maximum identity:
        # with R = 2S - B ~ Maxwell(sqrt(t)) and S | R ~ Uniform(0, R),
        # (S - B, S) has the law of (|B_t|, L_t).  Kill with prob 1 - e^(-alpha L).
        r = np.sqrt(2.0 * t * rng.standard_gamma(1.5, size))
        s = r * rng.random(size)
        killed = rng.random(size) >= np.exp(-self.alpha * s)
        endpoint = r - s
        endpoint[killed] = 0.0
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


def _quadrature_estimate(val: float, err: float, epsabs: float, epsrel: float) -> CrossingEstimate:
    """Quadrature result as an estimate whose stderr is quad's error
    estimate, floored at the tolerance quad was asked to meet: quad's own
    estimate can read far below its real error, even 0."""
    stderr = max(err, epsabs, epsrel * abs(val))
    return CrossingEstimate(p_hat=val, stderr=stderr, n_paths=1, seed=0, method="quadrature")


@dataclass(frozen=True)
class WrightTime(_Process):
    """Inverse stable subordinator of index nu: endpoint density
    t**-nu * M_nu(y / t**nu).  Quadrature only."""

    nu: float

    def __post_init__(self) -> None:
        _reals(self, "nu")
        _require(0.0 < self.nu < 1.0, f"WrightTime.nu must lie in (0, 1), got {self.nu!r}")

    def _density(self, y: float, t: float) -> float:
        if y < 0.0:
            return 0.0
        tn = t**self.nu
        return wright_m(self.nu, y / tn) / tn

    def _quadrature(self, boundary: BoundarySpec, t: float) -> CrossingEstimate:
        nu = self.nu
        tn = t**nu
        lam_eff = boundary.lam * tn if isinstance(boundary, Exponential) else 0.0
        b = (1.0 - nu) * nu ** (nu / (1.0 - nu))
        c = 1.0 / (1.0 - nu)
        x_hi = 1.0
        while lam_eff * x_hi + b * x_hi**c < 45.0 and x_hi < 1e6:
            x_hi *= 1.25

        def f(x: float) -> float:
            return boundary._survivor(tn * x) * wright_m(nu, x)

        val, err = quad(f, 0.0, x_hi, limit=300, epsabs=1e-10, epsrel=1e-10)
        return _quadrature_estimate(val, err, 1e-10, 1e-10)

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Fractional(nu=self.nu, lam=lam)

    def law(self, boundary: BoundarySpec) -> rx.RelaxationModel:
        # nu = 1/2 is the reflected motion with Var = 2t, M_{1/2}(x) = exp(-x^2/4)/sqrt(pi)
        if self.nu == 0.5 and isinstance(boundary, Gamma):
            return rx.GammaBoundary(k=boundary.k, lam=boundary.lam)
        return super().law(boundary)


@dataclass(frozen=True)
class AiryTime(_Process):
    """Order-1/3 waiting process with endpoint density
    (9/t)**(1/3) * Ai(y / (3t)**(1/3)).  Quadrature only."""

    def _density(self, y: float, t: float) -> float:
        if y < 0.0:
            return 0.0
        cube = (3.0 * t) ** (1.0 / 3.0)
        return (9.0 / t) ** (1.0 / 3.0) * airy_ai(y / cube)

    def _quadrature(self, boundary: BoundarySpec, t: float) -> CrossingEstimate:
        if not isinstance(boundary, Exponential):
            raise Unsupported("AiryTime quadrature supports exponential boundaries only")
        scale = boundary.lam * (3.0 * t) ** (1.0 / 3.0)

        def f(w: float) -> float:
            return math.exp(-scale * w) * airy_ai(w)

        val, err = quad(f, 0.0, 18.0, limit=300, epsabs=1e-12, epsrel=1e-10)
        return _quadrature_estimate(3.0 * val, 3.0 * err, 3.0 * 1e-12, 1e-10)

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Fractional(nu=1.0 / 3.0, lam=lam)


@dataclass(frozen=True)
class DistributedTime(_Process):
    """Inverse of the weighted subordinator n1 * (stable 1/2) + n2 * t;
    the endpoint has an explicit density on (0, t/n2).  Quadrature only."""

    n1: float
    n2: float

    def __post_init__(self) -> None:
        _positive(self, "n1", "n2")
        _require(abs(self.n1 + self.n2 - 1.0) <= 1e-12, f"DistributedTime weights must satisfy n1 + n2 = 1, got {self.n1!r} + {self.n2!r}")

    def _density(self, y: float, t: float) -> float:
        n1, n2 = self.n1, self.n2
        if not (0.0 < y < t / n2):
            return 0.0
        gap = t - n2 * y
        return (
            n1
            * (t - 0.5 * n2 * y)
            / (math.sqrt(math.pi) * gap**1.5)
            * math.exp(-n1 * n1 * y * y / (4.0 * gap))
        )

    def _quadrature(self, boundary: BoundarySpec, t: float) -> CrossingEstimate:
        if not isinstance(boundary, Exponential):
            raise Unsupported("DistributedTime quadrature supports exponential boundaries only")
        lam = boundary.lam

        def f(y: float) -> float:
            return math.exp(-lam * y) * self._density(y, t)

        # exp(-lam*y) underflows beyond lam*y = 700; over the whole of
        # (0, t/n2) at large t, quad would miss the mass near y = 0.
        upper = min(t / self.n2, 700.0 / lam)
        val, err = quad(f, 0.0, upper, limit=300, epsabs=1e-12, epsrel=1e-10)
        return _quadrature_estimate(val, err, 1e-12, 1e-10)

    def _exponential_law(self, lam: float) -> rx.RelaxationModel:
        return rx.Distributed(nu1=0.5, nu2=1.0, n1=self.n1, n2=self.n2, lam=lam)


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


def _workers() -> int:
    raw = os.environ.get("FRAX_THREADS", "")
    try:
        w = int(raw) if raw else 1
    except ValueError:
        raise DomainError(f"FRAX_THREADS must be an integer, got {raw!r}")
    return max(1, w)


def estimate_crossing(
    spec: ProcessSpec,
    boundary: BoundarySpec,
    t: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
) -> CrossingEstimate:
    """Monte Carlo estimate of P(process endpoint < boundary) at time t.

    Paths are processed in fixed blocks of 2**18, each with its own
    counter-based stream keyed by (seed, block index); the estimate is
    independent of thread count and bit-identical across runs.  The seed
    is an integer in [0, 2**64) (numpy integers included, stored as int).
    """
    t = _time(t, "estimate_crossing")
    if not hasattr(spec, "_sample"):
        raise DomainError(
            f"{type(spec).__name__} has no exact path sampler; use quadrature_crossing"
        )
    if not _integer(n_paths, 1000):
        raise DomainError(f"estimate_crossing requires an integer n_paths >= 1000, got {n_paths!r}")
    n_paths = int(n_paths)
    if not (_integer(seed, 0) and seed < 2**64):
        raise DomainError(f"estimate_crossing requires an integer seed in [0, 2**64), got {seed!r}")
    seed = int(seed)
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK

    def run_block(b: int) -> int:
        m = min(_BLOCK, n_paths - b * _BLOCK)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        values = spec._sample(t, rng, m)
        bounds = boundary._draw(rng, m)
        return int(np.count_nonzero(values < bounds))

    w = _workers()
    if w > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=w) as pool:
            count = sum(pool.map(run_block, range(n_blocks)))
    else:
        count = sum(run_block(b) for b in range(n_blocks))
    p = count / n_paths
    stderr = math.sqrt(max(p * (1.0 - p), 1e-300) / n_paths)
    return CrossingEstimate(p_hat=p, stderr=stderr, n_paths=n_paths, seed=seed, method="monte_carlo")


def quadrature_crossing(spec: ProcessSpec, boundary: BoundarySpec, t: float) -> CrossingEstimate:
    """Crossing probability by quadrature against an explicit endpoint density.

    Supported: WrightTime with exponential or gamma boundaries; AiryTime
    and DistributedTime with exponential boundaries.  The reported stderr
    is quad's error estimate, but never less than the tolerance quad was
    asked to meet.
    """
    t = _time(t, "quadrature_crossing")
    return spec._quadrature(boundary, t)


def density(spec: ProcessSpec, y: float, t: float) -> float:
    """Endpoint density of ``spec`` at time t, where one is available.

    For ElasticBM this is the continuous part only; the killed mass is
    exposed separately by :func:`elastic_atom`.
    """
    t = _time(t, "density")
    if not (_real(y) and math.isfinite(y)):
        raise DomainError(f"density requires finite y, got {y!r}")
    return spec._density(float(y), t)


def elastic_atom(spec: ElasticBM, t: float) -> float:
    """Probability that the elastic motion has been killed by time t:
    1 - exp(alpha**2 t / 2) * erfc(alpha sqrt(t/2)), in stable form."""
    t = _time(t, "elastic_atom")
    return 1.0 - float(erfcx(spec.alpha * math.sqrt(0.5 * t)))
