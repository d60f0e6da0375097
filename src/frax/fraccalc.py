"""Fractional-calculus numerics: Caputo derivatives, Riemann-Liouville
integrals, numerical Laplace transforms, and residual checks of the
governing equations satisfied by the relaxation laws.

The discrete operators act on samples over a uniform grid; the residual
study refines that grid and reports the observed convergence order, which
is the quantity the equation checks assert on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, Unstable, Unsupported

__all__ = [
    "L1Grid",
    "ResidualReport",
    "caputo_l1",
    "rl_integral",
    "laplace_forward",
    "laplace_invert",
    "ode_residual",
]


@dataclass(frozen=True)
class L1Grid:
    """Uniform time grid {0, h, 2h, ..., n*h} with function samples.

    ``values`` holds the n+1 samples at the nodes, starting at t = 0.
    """

    h: float
    n: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise DomainError(f"L1Grid.h must be positive, got {self.h!r}")
        if self.n < 8:
            raise DomainError(f"L1Grid.n must be >= 8, got {self.n!r}")
        if len(self.values) != self.n + 1:
            raise DomainError(
                f"L1Grid.values must have n+1 = {self.n + 1} entries, got {len(self.values)}"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise DomainError("L1Grid.values must be finite")

    @property
    def ts(self) -> tuple[float, ...]:
        return tuple(i * self.h for i in range(self.n + 1))

    @classmethod
    def sample(cls, f: Callable[[float], float], h: float, n: int) -> "L1Grid":
        return cls(h=h, n=n, values=tuple(f(i * h) for i in range(n + 1)))


@dataclass(frozen=True)
class ResidualReport:
    """Result of a grid-refinement residual study.

    ``hs`` are the step sizes of the levels (coarse to fine), ``max_norms``
    the residual max-norms measured on the common window t >= 4*hs[0], and
    ``order`` the mean observed convergence order across consecutive
    levels (``orders`` holds the individual pairwise estimates).
    ``ts``/``residuals`` give the pointwise residual on the finest level.
    """

    ts: tuple[float, ...]
    residuals: tuple[float, ...]
    hs: tuple[float, ...]
    max_norms: tuple[float, ...]
    orders: tuple[float, ...]
    order: float


def caputo_l1(g: L1Grid, nu: float) -> list[float]:
    """L1 approximation of the Caputo derivative of order nu in (0, 1].

    Returns the values at the interior nodes t_1, ..., t_n.  The scheme
    integrates the piecewise-linear interpolant of the samples against the
    weakly singular kernel exactly; at nu = 1 it reduces to the backward
    difference quotient.
    """
    if not (0.0 < nu <= 1.0):
        raise DomainError(f"caputo_l1 requires nu in (0, 1], got {nu!r}")
    h, n, f = g.h, g.n, g.values
    if nu == 1.0:
        return [(f[m] - f[m - 1]) / h for m in range(1, n + 1)]
    scale = h ** (-nu) / math.gamma(2.0 - nu)
    w = [(j + 1.0) ** (1.0 - nu) - j ** (1.0 - nu) for j in range(n)]
    out = []
    for m in range(1, n + 1):
        acc = 0.0
        for j in range(m):
            acc += w[j] * (f[m - j] - f[m - j - 1])
        out.append(scale * acc)
    return out


def rl_integral(g: L1Grid, nu: float) -> list[float]:
    """Riemann-Liouville fractional integral of order nu > 0 at t_1..t_n.

    Product discretization: the integrand is taken piecewise constant at
    the cell midpoint value (average of the endpoint samples) and the
    kernel (t-s)^(nu-1) is integrated exactly over each cell.  Constants
    are reproduced exactly; for smooth data the kernel singularity in the
    final cell limits the rate to order 1 + min(nu, 1).
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"rl_integral requires nu > 0, got {nu!r}")
    h, n, f = g.h, g.n, g.values
    inv = 1.0 / math.gamma(nu + 1.0)
    out = []
    for m in range(1, n + 1):
        acc = 0.0
        for j in range(m):
            kernel = ((m - j) * h) ** nu - ((m - j - 1) * h) ** nu
            acc += 0.5 * (f[j] + f[j + 1]) * kernel
        out.append(inv * acc)
    return out


def laplace_forward(f: Callable[[float], float], eta: float, *, epsabs: float = 1e-12) -> float:
    """Numerical Laplace transform int_0^inf exp(-eta t) f(t) dt.

    Substituting u = exp(-eta t) maps the integral to
    (1/eta) int_0^1 f(-ln(u)/eta) du, which removes the semi-infinite
    range and the exponential weight in one step; the u -> 0 endpoint
    (t -> inf) is harmless for bounded f since the integrand stays
    bounded there.
    """
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"laplace_forward requires eta > 0, got {eta!r}")

    def substituted(u: float) -> float:
        # u below exp(-60) contributes at most exp(-60)/eta for bounded f;
        # zeroing it keeps the quadrature from probing extreme times.
        if u <= 8.75651076269652e-27:
            return 0.0
        return f(-math.log(u) / eta) / eta

    with warnings.catch_warnings():
        # Integrands assembled from series-with-fallback evaluators carry
        # ~1e-8 seams that trip quad's roundoff heuristic without harming
        # the requested accuracy; the transform checks assert the result.
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(substituted, 0.0, 1.0, limit=400, epsabs=epsabs, epsrel=1e-11)
    return val


def _talbot_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit nodes and weights of the m-node fixed-Talbot rule.

    The contour is s(theta) = r*theta*(cot(theta) + i), 0 <= theta < pi,
    with r = 2m/(5t).  Since t*s = (2m/5)*theta*(cot(theta) + i) does not
    depend on t, the exponential factor and the 1/m are folded into the
    weights once: f(t) = r * Re sum_k w_k F(r*u_k), where u_0 = 1 is the
    theta -> 0 end (half weight) and u_k = s(k*pi/m)/r.
    """
    theta = np.arange(1, m) * np.pi / m
    cot = 1.0 / np.tan(theta)
    u = np.concatenate(([1.0 + 0j], theta * (cot + 1j)))
    sigma = theta + (theta * cot - 1.0) * cot
    w = np.concatenate(([0.5 + 0j], 1.0 + 1j * sigma)) * np.exp(0.4 * m * u)
    return u, w / m


# Two contour sizes: the smaller one answers (its weights grow less, so it
# carries less round-off), the larger one certifies it.
_TALBOT_RULES = tuple(_talbot_rule(m) for m in (20, 28))
_TALBOT_AGREE = 1e-10


def laplace_invert(F: Callable[[np.ndarray], np.ndarray], t: float) -> float:
    """Fixed-Talbot inversion of the Laplace transform F at time t > 0.

    F is called with a complex ndarray of contour nodes, all off the closed
    negative real axis, and must return its principal-branch values there
    (numpy ``sqrt`` and ``**`` do).  The inversion runs at 20 and at
    28 nodes (Abate & Valko, IJNME 2004; Weideman & Trefethen, Math. Comp.
    2007) and returns the 20-node value.  If either value is non-finite or
    the two differ by more than 1e-10 * max(1, |value|), raises
    :class:`Unstable`.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"laplace_invert requires t > 0, got {t!r}")
    values = []
    for u, w in _TALBOT_RULES:
        r = 0.4 * len(u) / t
        with np.errstate(all="ignore"):
            values.append(r * float(np.dot(w, np.asarray(F(r * u), dtype=complex)).real))
    coarse, fine = values
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise Unstable(f"Talbot inversion at t={t}: the transform is not finite on the contour")
    gap = abs(coarse - fine)
    if gap > _TALBOT_AGREE * max(1.0, abs(coarse)):
        raise Unstable(
            f"Talbot inversion at t={t}: 20 and 28 nodes differ by {gap:.3g} "
            f"(tolerance {_TALBOT_AGREE:.0e})"
        )
    return coarse


def ode_residual(model, grid: L1Grid, *, levels: int = 3) -> ResidualReport:
    """Grid-refinement residual study for the governing equation of ``model``.

    ``model`` is a law of :mod:`frax.relaxation`, which supplies both its
    exact samples and the residual of its equation on each grid.

    ``grid`` fixes the coarsest level (its samples are ignored; the law is
    re-sampled exactly on each refinement).  Residual max-norms are taken
    over the window t >= 4*h_coarse, which keeps the comparison region
    fixed across levels and away from the t = 0 singularity of the
    weakly singular laws.  The report's ``order`` is the mean of the
    log2 ratios of consecutive max-norms.
    """
    if not hasattr(model, "_residual"):
        raise Unsupported(f"ode_residual has no governing equation for {type(model).__name__}")
    if levels < 2:
        raise DomainError(f"ode_residual needs >= 2 levels, got {levels}")
    h0, n0 = grid.h, grid.n
    window = 4.0 * h0 * (1.0 - 1e-12)
    hs, norms = [], []
    finest_ts: tuple[float, ...] = ()
    finest_res: tuple[float, ...] = ()
    for lv in range(levels):
        h = h0 / 2**lv
        n = n0 * 2**lv
        nodes, res = model._residual(model._sample(h, n))
        pts = [(t, r) for t, r in zip(nodes, res) if t >= window]
        hs.append(h)
        norms.append(max(abs(r) for _t, r in pts))
        finest_ts = tuple(t for t, _r in pts)
        finest_res = tuple(r for _t, r in pts)
    orders = tuple(
        math.log2(norms[i] / norms[i + 1]) if norms[i + 1] > 0.0 else math.inf
        for i in range(len(norms) - 1)
    )
    finite = [o for o in orders if math.isfinite(o)]
    order = sum(finite) / len(finite) if finite else math.inf
    return ResidualReport(
        ts=finest_ts,
        residuals=finest_res,
        hs=tuple(hs),
        max_norms=tuple(norms),
        orders=orders,
        order=order,
    )
