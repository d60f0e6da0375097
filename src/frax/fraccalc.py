"""Fractional-calculus numerics: Caputo derivatives, Riemann-Liouville
integrals, numerical Laplace transforms, and residual checks of
fractional relaxation equations.

The two L1 operators take a 1-D array of samples f(0), f(h), ..., f(nh)
and the step h, and return an ndarray of their values at h, ..., nh; each
is one convolution of the samples with a weight vector.  The residual
study takes an equation as data (the form :func:`frax.relaxation.equation`
returns) and a function of t, which it calls once on the 1-D array of
the finest grid's nodes, refines the grid and reports the observed
convergence order, which is the quantity the equation checks assert on.
Both Laplace directions run on fixed rules that certify themselves by
comparing two levels: the forward transform on an exp-sinh trapezoid rule
whose nodes serve a whole batch of eta (f called once on them), the
inversion on a fixed Talbot contour: the 48 node values t*s of its 20-
and 28-node rules and their (48 x 2) weight matrix are module constants,
so one inversion is one call of the transform at those nodes divided by
t and one dot product, for one time or a whole array of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, Unstable, _finite, _integer

__all__ = [
    "ResidualReport",
    "caputo_l1",
    "rl_integral",
    "laplace_forward",
    "laplace_invert",
    "ode_residual",
]


@dataclass(frozen=True)
class ResidualReport:
    """Result of a grid-refinement residual study.

    ``hs`` are the step sizes of the levels (coarse to fine), ``max_norms``
    the residual max-norms measured on the common window t >= 4*hs[0], and
    ``order`` the mean observed convergence order across consecutive
    levels.
    """

    hs: tuple[float, ...]
    max_norms: tuple[float, ...]
    order: float


def _samples(values, h: float) -> np.ndarray:
    """``values`` as a 1-D float array of at least 9 finite samples, h finite and > 0."""
    f = np.asarray(values, dtype=float)
    if not (_finite(h) > 0.0 and f.ndim == 1 and f.size >= 9 and np.all(np.isfinite(f))):
        raise DomainError(f"the L1 operators need h > 0 and >= 9 finite samples in 1-D, got h={h!r}, shape {f.shape}")
    return f


def caputo_l1(values, h: float, nu: float) -> np.ndarray:
    """L1 approximation of the Caputo derivative of order nu in (0, 1].

    ``values`` holds the samples f(0), f(h), ..., f(nh); the result holds
    the derivative at the nodes h, ..., nh.  The scheme integrates the
    piecewise-linear interpolant of the samples against the weakly singular
    kernel exactly: the increments of f are convolved with the weights
    w_j = (j+1)^(1-nu) - j^(1-nu).  At nu = 1 the weights are 1, 0, 0, ...
    and the scheme is the backward difference quotient.
    """
    x = _finite(nu)
    if not 0.0 < x <= 1.0:
        raise DomainError(f"caputo_l1 requires a real nu in (0, 1], got {nu!r}")
    nu = x
    d = np.diff(_samples(values, h))
    # differences of k^(1-nu), k = 0..n, with 0^(1-nu) written as 0: numpy's
    # 0.0**0.0 is 1, which would zero w_0 at nu = 1
    w = np.diff(np.arange(1, d.size + 1) ** (1.0 - nu), prepend=0.0)
    return np.convolve(d, w)[: d.size] / (h**nu * math.gamma(2.0 - nu))


def rl_integral(values, h: float, nu: float) -> np.ndarray:
    """Riemann-Liouville fractional integral of order nu > 0 at the nodes h, ..., nh.

    ``values`` holds the samples f(0), f(h), ..., f(nh).  Product
    discretization: the integrand is taken piecewise constant at the cell
    midpoint value (average of the endpoint samples) and the kernel
    (t-s)^(nu-1) is integrated exactly over each cell.  Constants are
    reproduced exactly; for smooth data the kernel singularity in the final
    cell limits the rate to order 1 + min(nu, 1).
    """
    x = _finite(nu)
    if not x > 0.0:
        raise DomainError(f"rl_integral requires a real nu > 0, got {nu!r}")
    nu = x
    f = _samples(values, h)
    mid = 0.5 * (f[:-1] + f[1:])
    return np.convolve(mid, np.diff((np.arange(f.size) * h) ** nu))[: mid.size] / math.gamma(nu + 1.0)


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


def laplace_forward(f: Callable[[np.ndarray], np.ndarray], eta):
    """Numerical Laplace transform int_0^inf exp(-eta t) f(t) dt.

    ``eta`` is a positive float (a float is returned) or a 1-D array of them
    (an ndarray is returned).  The integral runs on a fixed exp-sinh
    trapezoid rule in t = c*exp((pi/2)*sinh(x)) whose nodes do not depend
    on eta: the etas are grouped into spans at most 40x wide, and f is
    called once per span, with the 1-D float ndarray of its nodes (about
    105 of them), and must return an array of its values there, one per
    node; the samples serve every eta of the span.  Each value is summed
    at steps 1/8 and 1/16 in x, the finer level reusing every coarser
    sample, and the 1/16 value is returned.  If either sum is non-finite,
    or they differ by more than 1e-5 of the 1/16 sum of |integrand|,
    raises :class:`Unstable`.

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


def _exp_sinh_span(f: Callable[[np.ndarray], np.ndarray], etas: np.ndarray, c: float) -> np.ndarray:
    """The exp-sinh transform at every eta of one span, nodes scaled by c."""
    u, w, coarse = _ES_RULE
    t = c * u
    samples = _values(f, t)
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


def _values(f: Callable[[np.ndarray], np.ndarray], t: np.ndarray) -> np.ndarray:
    """f called once on the nodes ``t``, as a float array of one value per node."""
    values = np.asarray(f(t), dtype=float)
    if values.shape != t.shape:
        raise DomainError(f"a sampled function must return one value per node: {t.size} nodes, got shape {values.shape}")
    return values


def _talbot_constants() -> tuple[np.ndarray, np.ndarray]:
    """Node values t*s and weights of the 20- and the 28-node fixed-Talbot rule.

    The m-node contour is s(theta) = r*theta*(cot(theta) + i), 0 <= theta
    < pi, with r = 2m/(5t).  Since t*s = (2m/5)*theta*(cot(theta) + i) does
    not depend on t, the radius, the exponential factor and the 1/m are
    folded into the weights once: f(t) = Re sum_k w_k F(z_k / t) / t, where
    z_0 = 2m/5 is the theta -> 0 end (half weight) and z_k = t*s(k*pi/m).
    Returns the (48,) node vector, the 20-node rule first, and the (48 x 2)
    weight matrix whose column 0 holds the 20-node weights and column 1 the
    28-node weights, each zero on the other rule's nodes.
    """
    nodes = []
    weights = np.zeros((48, 2), dtype=complex)
    start = 0
    for col, m in enumerate((20, 28)):
        theta = np.arange(1, m) * np.pi / m
        cot = 1.0 / np.tan(theta)
        u = np.concatenate(([1.0 + 0j], theta * (cot + 1j)))
        sigma = theta + (theta * cot - 1.0) * cot
        w = np.concatenate(([0.5 + 0j], 1.0 + 1j * sigma)) * np.exp(0.4 * m * u)
        nodes.append(0.4 * m * u)
        weights[start : start + m, col] = 0.4 * w
        start += m
    return np.concatenate(nodes), weights


# Two contour sizes: the smaller one answers (its weights grow less, so it
# carries less round-off), the larger one certifies it.  F at the 48 nodes
# _NODES / t, times _WEIGHTS, divided by t, gives both.
_NODES, _WEIGHTS = _talbot_constants()
_TALBOT_AGREE = 1e-10


def _talbot(F: Callable[[np.ndarray], np.ndarray], ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-Talbot inversion of F at every time of the 1-D array ``ts`` (> 0).

    F is called once, on the (time x 48) matrix of contour nodes
    ``_NODES / t``, flattened; its samples times the (48 x 2) weight
    matrix ``_WEIGHTS``, divided by t, are the 20- and the 28-node values.
    Returns the 20-node values, their gaps to the 28-node values and the
    mask of certified points: both values finite and the gap at most
    1e-10 * max(1, |value|).  A non-finite value gives a non-finite gap.
    """
    with np.errstate(all="ignore"):
        nodes = _NODES / ts[:, None]
        samples = np.asarray(F(nodes.reshape(-1)), dtype=complex).reshape(nodes.shape)
        both = (samples @ _WEIGHTS).real / ts[:, None]
        coarse = both[:, 0]
        gap = np.abs(coarse - both[:, 1])
        # a non-finite value makes the ratio inf or NaN, which fails the test
        ok = gap / np.maximum(1.0, np.abs(coarse)) <= _TALBOT_AGREE
    return coarse, gap, ok


def laplace_invert(F: Callable[[np.ndarray], np.ndarray], t: float | np.ndarray) -> float | np.ndarray:
    """Fixed-Talbot inversion of the Laplace transform F at a real time t > 0.

    F is called once, with the 1-D complex ndarray ``_NODES / t`` of the
    48 contour nodes, all off the closed negative real axis, and must
    return its principal-branch values there (numpy ``sqrt``, ``log`` and
    ``**`` do).  One dot product of the samples with the (48 x 2) weight
    matrix ``_WEIGHTS`` gives the inversion at 20 and at 28 nodes (Abate &
    Valko, IJNME 2004; Weideman & Trefethen, Math. Comp. 2007), and the
    20-node value is returned.  If either value is non-finite or the two
    differ by more than 1e-10 * max(1, |value|), raises :class:`Unstable`.
    ``t`` may also be a 1-D float ndarray of times > 0, inverted by one call
    of F (:func:`_talbot`) into an ndarray; :class:`Unstable` then names the
    first time that does not certify.  A float t is the one-point case on
    Python floats: through the array path it costs half as much again.
    """
    if isinstance(t, np.ndarray):
        if not (t.ndim == 1 and t.dtype.kind == "f" and np.all(np.isfinite(t) & (t > 0.0))):
            raise DomainError(f"laplace_invert requires times > 0 (a 1-D float array), got {t!r}")
        values, gaps, ok = _talbot(F, t)
        if ok.all():
            return values
        first = int(np.argmin(ok))
        t, gap = float(t[first]), float(gaps[first])
    else:
        x = _finite(t)
        if not x > 0.0:
            raise DomainError(f"laplace_invert requires a real t > 0, got {t!r}")
        t = x
        with np.errstate(all="ignore"):
            coarse, fine = (np.asarray(F(_NODES / t), dtype=complex) @ _WEIGHTS).tolist()
        coarse, fine = coarse.real / t, fine.real / t
        gap = abs(coarse - fine)
        if gap / max(1.0, abs(coarse)) <= _TALBOT_AGREE:
            return coarse
    if not math.isfinite(gap):
        raise Unstable(f"Talbot inversion at t={t}: the transform is not finite on the contour")
    raise Unstable(f"Talbot inversion at t={t}: 20 and 28 nodes differ by {gap:.3g} (tolerance {_TALBOT_AGREE:.0e})")


def ode_residual(
    equation, f: Callable[[np.ndarray], np.ndarray], h: float, n: int, *, levels: int = 3
) -> ResidualReport:
    """Grid-refinement residual study of ``f`` in a fractional relaxation equation.

    ``equation`` is ``(terms, c0, f_inf, source)``: f should solve
    sum_i c_i D^{nu_i} f + c0 (f - f_inf) + source(t) = 0, with ``terms``
    the pairs (nu_i, c_i) of Caputo orders in (0, 1] and their coefficients
    and ``source`` a function of t > 0 or None.  Each D^{nu_i} is the L1
    scheme (:func:`caputo_l1`); the terms are added in the order listed,
    then the c0 term, then the source.

    The coarsest level has step ``h`` and ``n`` steps, and each further
    level halves the step.  f and the source are sampled once, on the
    finest level: the nodes of a coarser level are, bit for bit, every
    2**k-th finest node.  f is called once, with the 1-D float ndarray of
    the finest nodes 0, h/2**(levels-1), ..., n*h, and the source once,
    with the same nodes but t = 0; each returns an array of one value per
    node.  Residual max-norms are taken over the window
    t >= 4*h, which keeps the comparison region fixed across levels and
    away from the t = 0 singularity of the weakly singular laws.  The
    report's ``order`` is the mean of the log2 ratios of consecutive
    max-norms.  The orders, h (finite, > 0), n (an integer >= 8) and
    ``levels`` (an integer >= 2) are checked before f is called.
    """
    terms, c0, f_inf, source = equation
    if not all(0.0 < _finite(nu) <= 1.0 for nu, _c in terms):
        raise DomainError(f"ode_residual requires real Caputo orders in (0, 1], got {terms!r}")
    if not (_finite(h) > 0.0 and _integer(n, 8) and _integer(levels, 2)):
        raise DomainError(
            f"ode_residual needs a finite h > 0 and integers n >= 8, levels >= 2; got {h!r}, {n!r}, {levels!r}"
        )
    fine = 2 ** (levels - 1)
    ts = np.arange(n * fine + 1) * (h / fine)
    finest = _samples(_values(f, ts), h / fine)
    forcing = np.zeros(ts.size) if source is None else np.concatenate(([0.0], _values(source, ts[1:])))
    window = 4.0 * h * (1.0 - 1e-12)
    hs = tuple(h / 2**lv for lv in range(levels))
    norms = []
    for lv, step in enumerate(hs):
        stride = fine // 2**lv
        values = finest[::stride]
        derivs = sum(c * caputo_l1(values, step, nu) for nu, c in terms)
        res = derivs + c0 * (values[1:] - f_inf) + forcing[stride::stride]
        norms.append(float(np.max(np.abs(res[ts[stride::stride] >= window]))))
    orders = [
        math.log2(norms[i] / norms[i + 1]) if norms[i + 1] > 0.0 else math.inf
        for i in range(len(norms) - 1)
    ]
    finite = [o for o in orders if math.isfinite(o)]
    order = sum(finite) / len(finite) if finite else math.inf
    return ResidualReport(hs=hs, max_norms=tuple(norms), order=order)
