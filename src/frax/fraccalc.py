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
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, Unstable, Unsupported

_LN2 = math.log(2.0)

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


@lru_cache(maxsize=None)
def _salzer_weights(n: int) -> tuple[float, ...]:
    """Summation weights of the n-term Gaver functional (n even).

    Computed in exact rational arithmetic and converted to float once; the
    weights alternate in sign and grow roughly like n^n, which is why the
    usable n is capped and results must be cross-checked across orders.
    """
    half = n // 2
    out = []
    for j in range(1, n + 1):
        acc = Fraction(0)
        for m in range((j + 1) // 2, min(j, half) + 1):
            num = Fraction(m) ** half * Fraction(math.factorial(2 * m))
            den = (
                math.factorial(half - m)
                * math.factorial(m)
                * math.factorial(m - 1)
                * math.factorial(j - m)
                * math.factorial(2 * m - j)
            )
            acc += num / den
        if (half + j) % 2:
            acc = -acc
        out.append(float(acc))
    return tuple(out)


def laplace_invert(
    F: Callable[[float], float],
    t: float,
    *,
    orders: Sequence[int] = (10, 12, 14, 16, 18),
    tol: float = 5e-4,
) -> float:
    """Gaver-Stehfest inversion of the Laplace transform F at time t > 0.

    Runs the summation at each (even) order in ``orders``.  The returned
    value is the middle of the three consecutive orders whose mutual
    disagreement is smallest: requiring agreement on both sides of the
    chosen order guards against a single accidentally close pair on the
    pre-convergent side of the sequence.  If no window agrees to ``tol``
    relative, raises :class:`Unstable`.

    The default ``tol`` is calibrated against transforms with a sqrt
    branch point, where the observed three-order disagreement overstates
    the error of the middle value by roughly a factor of 40; a window gap
    of 5e-4 therefore still bounds the returned error near 1e-5.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"laplace_invert requires t > 0, got {t!r}")
    if len(orders) < 3:
        raise DomainError("laplace_invert needs at least three orders to stabilize")
    for n in orders:
        if n % 2 or n < 4:
            raise DomainError(f"laplace_invert orders must be even and >= 4, got {n}")
    vals = []
    for n in orders:
        w = _salzer_weights(n)
        base = _LN2 / t
        acc = 0.0
        for j in range(1, n + 1):
            acc += w[j - 1] * F(j * base)
        vals.append(base * acc)
    best = None
    best_d = math.inf
    for i in range(len(vals) - 2):
        a, b, c = vals[i], vals[i + 1], vals[i + 2]
        scale = max(abs(a), abs(b), abs(c), 1e-300)
        d = max(abs(b - a), abs(c - b)) / scale
        if d < best_d:
            best_d = d
            best = b
    if best_d > tol:
        raise Unstable(
            f"Gaver-Stehfest orders {tuple(orders)} did not stabilize at t={t}: "
            f"best three-order disagreement {best_d:.3g} exceeds {tol:.3g}"
        )
    return best


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
