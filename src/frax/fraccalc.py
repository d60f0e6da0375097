"""Fractional-calculus numerics: Caputo derivatives, Riemann-Liouville
integrals, numerical Laplace transforms, and residual checks of the
governing equations satisfied by the relaxation laws.

The discrete operators act on samples over a uniform grid; the residual
study refines that grid and reports the observed convergence order, which
is the quantity the equation checks assert on.  Both Laplace directions
run on fixed rules that certify themselves by comparing two levels: the
forward transform on an exp-sinh trapezoid rule whose nodes serve a whole
batch of eta, the inversion on a Talbot contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def _exp_sinh_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit nodes, weights and coarse-level mask of the exp-sinh rule.

    The map t = c*exp((pi/2)*sinh(x)) takes x in R onto t in (0, inf) with
    double-exponential decay at both ends (Takahasi & Mori, Publ. RIMS
    1974); the trapezoid rule in x with step 1/16 over [-4.5, 3.5] gives
    the nodes u = t/c and the weights (dt/dx)/c times the step.  Every other
    node is the step-1/8 rule.  Nodes whose weight times exp(-c*eta_min*t)
    underflows are dropped, so the integrand is never sampled at absurd
    times; with c*eta_min fixed at _ES_SCALE that mask does not depend on c.
    """
    x = np.arange(-72, 57) / 16.0
    u = np.exp(0.5 * np.pi * np.sinh(x))
    w = u * (0.5 * np.pi * np.cosh(x)) / 16.0
    keep = w * np.exp(-_ES_SCALE * u) > 0.0
    coarse = np.arange(x.size) % 2 == 0
    return u[keep], w[keep], coarse[keep]


# One node set serves a span of eta up to 40x wide, scaled so that the
# span's smallest eta sits at c*eta = 2 (below c*eta ~ 1 the step-1/8 level
# resolves the slow tail poorly); over a 1000x span t**2 already errs by 1e-10.
_ES_SCALE = 2.0
_ES_SPAN = 40.0
_ES_RULE = _exp_sinh_rule()
# Gap between the two steps, as a share of the integral of |integrand|.
# The 1/16-step error falls roughly as the square of the gap: exp(-lam*t)
# with lam/eta = 1000 / 2000 / 1e5 reads gap 4.7e-6 / 8.8e-5 / 6e-3 and
# error 2.4e-13 / 3.5e-11 / 1e-6.  The laws of relaxation read gaps below
# 1e-11; a jump or a kink in f leaves 5e-4 to 5e-2.
_ES_AGREE = 1e-5


def laplace_forward(f: Callable[[float], float], eta):
    """Numerical Laplace transform int_0^inf exp(-eta t) f(t) dt.

    ``eta`` is a positive float (a float is returned) or a 1-D array of them
    (an ndarray is returned).  The integral runs on a fixed exp-sinh
    trapezoid rule in t = c*exp((pi/2)*sinh(x)) whose nodes do not depend
    on eta: the etas are grouped into spans at most 40x wide, f is called
    once per node of each span (about 105 calls) and the samples serve
    every eta in it.  Each value is summed at steps 1/8 and 1/16 in x, the
    finer level reusing every coarser sample, and the 1/16 value is
    returned.  If either sum is non-finite, or they differ by more than
    1e-5 of the 1/16 sum of |integrand|, raises :class:`Unstable`.

    The nodes are scaled to eta, so f must vary on the time scale 1/eta or
    slower: exp(-lam*t) certifies up to lam/eta ~ 1000 (error ~1e-13), and
    an f with a jump or a kink, or much faster decay, raises.
    """
    etas = np.asarray(eta, dtype=float)
    if not (etas.ndim <= 1 and etas.size > 0 and np.all(np.isfinite(etas) & (etas > 0.0))):
        raise DomainError(f"laplace_forward requires eta > 0 (a float or a 1-D array), got {eta!r}")
    flat = etas.reshape(-1)
    order = np.argsort(flat)
    ascending = flat[order]
    out = np.empty_like(flat)
    start = 0
    while start < flat.size:
        lo = ascending[start]
        stop = int(np.searchsorted(ascending, _ES_SPAN * lo, side="right"))
        out[order[start:stop]] = _exp_sinh_span(f, ascending[start:stop], _ES_SCALE / lo)
        start = stop
    return float(out[0]) if etas.ndim == 0 else out


def _exp_sinh_span(f: Callable[[float], float], etas: np.ndarray, c: float) -> np.ndarray:
    """The exp-sinh transform at every eta of one span, nodes scaled by c."""
    u, w, coarse = _ES_RULE
    t = c * u
    samples = np.array([f(float(tj)) for tj in t], dtype=float)
    with np.errstate(all="ignore"):
        terms = (c * w * samples) * np.exp(-np.outer(etas, t))
        fine = terms.sum(axis=1)
        gap = np.abs(fine - 2.0 * terms[:, coarse].sum(axis=1))
        scale = np.abs(terms).sum(axis=1)
    for eta, value, g, s in zip(etas, fine, gap, scale):
        if not (math.isfinite(value) and math.isfinite(g)):
            raise Unstable(f"exp-sinh transform at eta={eta:.6g}: the integrand is not finite")
        if g > _ES_AGREE * s:
            raise Unstable(
                f"exp-sinh transform at eta={eta:.6g}: steps 1/8 and 1/16 differ by "
                f"{g / s:.3g} of the integral of |f| (tolerance {_ES_AGREE:.0e})"
            )
    return fine


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

    ``grid`` fixes the coarsest level (its samples are ignored).  The law is
    sampled exactly once, on the finest level: each level halves the step,
    so the nodes of a coarser level are, bit for bit, every 2**k-th finest
    node.  Residual max-norms are taken over the window t >= 4*h_coarse,
    which keeps the comparison region fixed across levels and away from
    the t = 0 singularity of the weakly singular laws.  The report's
    ``order`` is the mean of the log2 ratios of consecutive max-norms.
    """
    if not hasattr(model, "_residual"):
        raise Unsupported(f"ode_residual has no governing equation for {type(model).__name__}")
    if levels < 2:
        raise DomainError(f"ode_residual needs >= 2 levels, got {levels}")
    h0, n0 = grid.h, grid.n
    window = 4.0 * h0 * (1.0 - 1e-12)
    finest = model._sample(h0 / 2 ** (levels - 1), n0 * 2 ** (levels - 1)).values
    hs, norms = [], []
    finest_ts: tuple[float, ...] = ()
    finest_res: tuple[float, ...] = ()
    for lv in range(levels):
        h = h0 / 2**lv
        n = n0 * 2**lv
        nodes, res = model._residual(L1Grid(h, n, finest[:: 2 ** (levels - 1 - lv)]))
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
