"""Special-function evaluators used by the relaxation laws.

The Mittag-Leffler and M-Wright evaluators return IEEE double results and
follow one convergence discipline, fixed by module constants rather than
options: a series adds at most 600 terms with compensated (Kahan)
addition, accepts the sum once three consecutive terms fall below 1e-14
relative to the running sum, and carries a cancellation estimate
``eps * sum(|term|)`` so that catastrophic alternating series are detected
instead of silently returned.  When the Mittag-Leffler series cannot
reach the target accuracy, the evaluator switches to the spectral integral
on the negative axis (:func:`_ml_integral`) or raises
:class:`NonConvergence`.  That integral and the quadrature crossings of
:mod:`frax.stochsim` are summed by :func:`quad`: fixed nested
double-exponential nodes, whose value stands when two levels agree to
1e-12 relative (:func:`~frax.fraccalc.laplace_forward` has its own fixed
rule).  The M-Wright density is tried the other way round: first one fixed
product rule for Zolotarev's stable-law integral, tabulated once per
order (:func:`_stable_table`) and certified by two levels agreeing to
1e-12 relative, then the series; when neither certifies it raises.
:func:`_sum_series` applies that discipline to a stream of terms (the
M-Wright series).  The Mittag-Leffler series has its own engine, entered
only through :func:`_ml_series`, for a float or a 1-D ndarray of
arguments: at a float it forms each term and applies the same gates in
place, and on an array it sums one series for all elements, each row
keeping the gates.  Its log-coefficients come in blocks of 32 indices
from :func:`_ml_logs`, one vectorised ``gammaln`` call per coefficient
and block, kept in a bounded LRU cache of 2048 blocks.  Its array rows and
those of :mod:`frax.relaxation`'s degree series are summed, gated and
retired by one driver, :func:`_gated_rows`, from blocks of terms.
Airy Ai and the modified Bessel I are validated wrappers over
:mod:`scipy.special`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from scipy.special import airy, gammaln, ive, rgamma

from .errors import DomainError, NonConvergence, _finite

_EPS = 2.220446049250313e-16
# Partial sums of absolute values beyond this magnitude cannot leave any
# significant digits in a double; treat the series as failed.
_ABSUM_CAP = 1e280
# exp() overflows just above this; used to guard integrand exponents.
_EXP_CAP = 700.0
# A term below this size relative to the running sum counts as negligible.
_REL_TOL = 1e-14
_MAX_TERMS = 600
# mittag_leffler uses the integral representation for z <= -_ML_SWITCH.
_ML_SWITCH = 5.0

__all__ = [
    "MLParams",
    "mittag_leffler",
    "gml",
    "wright_m",
    "airy_ai",
    "bessel_i",
]


@dataclass(frozen=True)
class MLParams:
    """Parameter triple (alpha, beta, gamma) of the Mittag-Leffler family.

    ``alpha`` is the fractional order, ``beta`` the second parameter and
    ``gamma`` the Prabhakar exponent; ``gamma=1`` gives the two-parameter
    function.  All three must be positive and finite.
    """

    alpha: float
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if type(v) is float and 0.0 < v < math.inf:
                continue  # the laws build one per series call: keep this cheap
            x = _finite(v)
            if not x > 0.0:
                raise DomainError(f"MLParams.{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, x)


def _sum_series(terms: Iterable[float], absum_cap: float = _ABSUM_CAP) -> tuple[float, float, bool]:
    """Kahan-sum ``terms`` until three consecutive terms are negligible.

    A term is negligible below ``_REL_TOL`` relative to the running sum;
    at most ``_MAX_TERMS`` terms are drawn.  Returns ``(value,
    cancellation_estimate, converged)``.  The estimate is
    ``eps * sum(|term|)``; a non-finite term or an absolute-value sum beyond
    ``absum_cap`` marks the series as failed (estimate ``inf``).  A caller
    whose error budget a larger sum would break passes a lower cap, so a
    doomed series stops at the first term that breaks it.  Isolated
    zero terms (e.g. at poles of a reciprocal-gamma weight) do not count
    toward the stop criterion on their own: three in a row are required,
    and no stop is accepted before eight terms.
    """
    s = 0.0
    comp = 0.0
    absum = 0.0
    small = 0
    for j, term in enumerate(itertools.islice(terms, _MAX_TERMS)):
        if not math.isfinite(term):
            return s, math.inf, False
        y = term - comp
        tt = s + y
        comp = (tt - s) - y
        s = tt
        absum += abs(term)
        if absum > absum_cap:
            return s, math.inf, False
        if abs(term) <= _REL_TOL * (abs(s) + 1e-300):
            small += 1
            if small >= 3 and j >= 8:
                return s, _EPS * absum, True
        else:
            small = 0
    return s, math.inf, False


# Indices whose log-coefficients _ml_logs computes together; most series
# stop within 20 to 60 terms.
_BLOCK = 32


def _gated_rows(block, size: int, limit, terms: int, scale: float = 1.0, weight: float = 1.0):
    """Sum ``size`` series at once, one row each, deciding each row as the
    float loops of :func:`_ml_series` and ``relaxation._degree_series`` do.

    ``block(n0, live)`` gives the terms n0 .. n0 + 31 of the rows ``live``
    (ascending indices) as (index x row) arrays: |T_n|, T_n and the error
    each term carries, or None.  The partial sums are compensated, in the
    loops' order; the bound after term n, ``scale * (weight * sum|T| + sum
    carried)`` summed in order, fails the row where it is not at most
    ``limit`` (a float or one per row), and the third negligible term in a
    row once n >= 8 ends it, whichever comes first.  Rows still summing
    after ``terms`` terms fail.  Returns ``(values, bounds, converged)``,
    a failed row with value NaN and bound inf.
    """
    values, bounds, ok = np.full(size, np.nan), np.full(size, np.inf), np.zeros(size, dtype=bool)
    live = np.arange(size)
    limit = np.broadcast_to(np.asarray(limit, dtype=float), (size,))
    s = comp = np.zeros(size)
    absum = carried = np.zeros((1, size))
    negl = np.zeros((2, size), dtype=bool)  # were the last two terms negligible
    for n0 in range(0, terms, _BLOCK):
        if live.size == 0:
            break
        mag, signed, errs = block(n0, live)
        with np.errstate(all="ignore"):
            sums = np.empty_like(signed)
            for i in range(len(signed)):
                y = signed[i] - comp
                tt = s + y
                comp = (tt - s) - y
                s = tt
                sums[i] = s
            # cumsum adds in order, as the scalar loops do
            absum = np.cumsum(np.concatenate((absum[-1:], mag)), axis=0)[1:]
            if errs is not None:
                carried = np.cumsum(np.concatenate((carried[-1:], errs)), axis=0)[1:]
            bound = scale * (weight * absum + carried)  # exact for scale = weight = 1 and no errors
            negl = np.concatenate((negl[-2:], mag <= _REL_TOL * (np.abs(sums) + 1e-300)))
        failed = ~(bound <= limit)
        n = np.arange(n0, n0 + len(mag))[:, None]
        event = failed | (negl[2:] & negl[1:-1] & negl[:-2] & (n >= 8))
        stop = event.any(axis=0)
        if stop.any():
            cols = np.flatnonzero(stop)
            at = event[:, cols].argmax(axis=0)
            win = ~failed[at, cols]
            at, cols = at[win], cols[win]
            values[live[cols]], bounds[live[cols]], ok[live[cols]] = sums[at, cols], bound[at, cols], True
            keep = ~stop
            live, limit, s, comp = live[keep], limit[keep], s[keep], comp[keep]
            absum, carried, negl = absum[:, keep], carried[:, keep], negl[:, keep]
    return values, bounds, ok


@functools.lru_cache(maxsize=2048)
def _ml_logs(alpha: float, beta: float, gamma: float, j0: int) -> tuple[tuple, tuple, tuple]:
    """Log-coefficients of the Mittag-Leffler series for the block of indices from ``j0``.

    Term j of the three-parameter series is ``poch(gamma, j) * z**j /
    (j! * Gamma(alpha*j + beta))``.  Returns three tuples over the block's
    indices (at most 32, none past 600): ``gammaln(gamma+j) -
    gammaln(gamma)``, the Pochhammer symbol in log space, ``gammaln(j+1)``
    and ``gammaln(alpha*j+beta)``, each from one vectorised ``gammaln``
    call; tuples, as every caller shares them through the cache.
    A block takes about 3.4 kB, so a full cache holds 7 MB.  One
    ``frax verify --suite all`` run reads 40 distinct blocks 468 times.
    """
    j = np.arange(j0, min(j0 + _BLOCK, _MAX_TERMS), dtype=float)
    pochhammer = gammaln(gamma + j) - gammaln(gamma)
    return tuple(pochhammer.tolist()), tuple(gammaln(j + 1.0).tolist()), tuple(gammaln(alpha * j + beta).tolist())


def _ml_series(
    alpha: float, beta: float, gamma: float, z: "float | np.ndarray", absum_cap: "float | np.ndarray" = _ABSUM_CAP
) -> tuple:
    """The three-parameter Mittag-Leffler series at ``z``, summed: the
    engine's one entry, for a float or a 1-D ndarray ``z``.

    Returns ``(value, cancellation_estimate, converged)`` as
    :func:`_sum_series` would for the series' terms, without an acceptance
    decision, so that a caller which scales the value can gate the error
    it propagates.  Term j is ``exp(((poch + j*log|z|) - log_fact) -
    log_gamma)`` from the :func:`_ml_logs` tables, added in that order so
    that it rounds as the term-by-term form did, and negated for odd j
    when z < 0; the gates are applied as it is added.  A term whose
    logarithm exceeds 700 (it would overflow) or is NaN fails the series,
    as does an absolute sum beyond ``absum_cap``.  z = 0 gives
    ``(1/Gamma(beta), eps, True)``.  An ndarray ``z``, with a float cap or
    one per element, gives three arrays, a failed row with value NaN and
    estimate inf: :func:`_gated_rows` sums the rows at once, each block
    reading the tables once for all of them in the float form's order (a
    term of 1e3 rounded another way moved the laws' values by up to 6e-11).
    """
    if isinstance(z, np.ndarray):
        rows = np.flatnonzero(z)  # z = 0 sums nothing
        loga, neg = np.log(np.abs(z[rows])), z[rows] < 0.0

        def block(j0, live):
            pochhammer, log_fact, log_gamma = _ml_logs(alpha, beta, gamma, j0)
            j = np.arange(j0, j0 + len(pochhammer), dtype=float)[:, None]
            with np.errstate(all="ignore"):
                # the scalar form's order of operations, so both paths round alike
                lg = np.array(pochhammer)[:, None] + j * loga[live]
                lg -= np.array(log_fact)[:, None]
                lg -= np.array(log_gamma)[:, None]
                terms = np.where(lg > _EXP_CAP, np.inf, np.exp(lg))
            terms[1::2, neg[live]] *= -1.0  # j0 is even: the odd rows are the odd j
            return np.abs(terms), terms, None

        cap = np.broadcast_to(np.asarray(absum_cap, dtype=float), z.shape)[rows]
        sums, absums, summed = _gated_rows(block, rows.size, cap, _MAX_TERMS)
        values, est, ok = np.full(z.size, float(rgamma(beta))), np.full(z.size, _EPS), np.ones(z.size, dtype=bool)
        values[rows], est[rows], ok[rows] = sums, _EPS * absums, summed
        return values, est, ok
    if z == 0.0:
        return float(rgamma(beta)), _EPS, True
    loga = math.log(abs(z))
    neg = z < 0.0
    exp = math.exp
    s = 0.0
    comp = 0.0
    absum = 0.0
    small = 0
    for j0 in range(0, _MAX_TERMS, _BLOCK):
        pochhammer, log_fact, log_gamma = _ml_logs(alpha, beta, gamma, j0)
        for j, p, c, d in zip(itertools.count(j0), pochhammer, log_fact, log_gamma):
            lg = p + j * loga - c - d
            if not lg <= _EXP_CAP:  # the term overflows, or is NaN
                return s, math.inf, False
            mag = exp(lg)  # |term|
            y = (-mag if neg and j & 1 else mag) - comp
            tt = s + y
            comp = (tt - s) - y
            s = tt
            absum += mag
            if absum > absum_cap:
                return s, math.inf, False
            if mag <= _REL_TOL * (abs(s) + 1e-300):
                small += 1
                if small >= 3 and j >= 8:
                    return s, _EPS * absum, True
            else:
                small = 0
    return s, math.inf, False


# The nested double-exponential rules of quad: level l adds the nodes
# s = (odd) * 2**(-2 - l) of a fixed range to those of the levels before it,
# and a value stands once two consecutive levels, plus the integrand at the
# two ends of the range and the caller's slack, agree to _DE_TOL relative.
_DE_TOL = 1e-12
_DE_LEVELS = 10


def _de_nodes(lo: float, hi: float, level: int) -> np.ndarray:
    """The nodes in s that ``level`` adds on [lo, hi], ends multiples of 1/4:
    every multiple of 1/4 at level 0, then the odd multiples of the step
    2**(-2 - level) past ``lo``."""
    h = 2.0 ** (-2 - level)
    n = round((hi - lo) / h)
    return lo + h * (np.arange(n + 1) if level == 0 else np.arange(1, n, 2))


def quad(levels: Iterable[tuple[np.ndarray, float]]) -> tuple[float, float]:
    """An integral on a nested double-exponential rule, certified by two levels.

    ``levels`` yields, for each level l = 0, 1, ... of a rule with step
    2**(-2 - l) in s (Takahasi & Mori, Publ. RIMS 9, 1974), the integrand
    times dx/ds at the nodes that level adds (:func:`_de_nodes`), and a
    bound on what the value misses besides the rule's own error (the
    caller's slack).  Level 0 spans the rule's whole range, so its first
    and last values are the integrand at the two ends, which must be
    negligible.  Returns ``(value, gap)`` at the first level whose value
    differs from the level before it by a gap that, with the two ends and
    the slack added, is at most 1e-12 of |value|; after 10 levels, down to
    a step of 2**-11, it raises :class:`NonConvergence`, as it does on a
    NaN.  The levels are summed as they come, so none past the answer is
    evaluated.
    """
    total, value = 0.0, math.nan
    for level, (integrand, slack) in zip(range(_DE_LEVELS), levels):
        if level == 0:
            ends = abs(float(integrand[0])) + abs(float(integrand[-1]))
        total += float(integrand.sum())
        last, value = value, total * 2.0 ** (-2 - level)
        gap = abs(value - last)
        if gap + ends + slack <= _DE_TOL * abs(value):
            return value, gap
    raise NonConvergence(
        f"{_DE_LEVELS} levels, down to a step of 2**-{_DE_LEVELS + 1}, did not agree to {_DE_TOL:g}"
    )


def _sinpi(x: float) -> float:
    """sin(pi * x) with x first reduced exactly to [-1/2, 1/2]: 0 at every integer."""
    y = x - 2.0 * round(0.5 * x)
    if abs(y) > 0.5:
        y = math.copysign(1.0, y) - y
    return math.sin(math.pi * y)


@functools.lru_cache(maxsize=_DE_LEVELS)
def _ml_level(level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """What ``level`` adds to :func:`_ml_integral`'s rule in t, as log t, log
    dt/ds and the number of nodes below t = 1.

    Below 1 it is tanh-sinh, t = 1/(1 + e**-v) with v = pi * sinh(s) and s
    in [-4, 4], so t and 1 - t reach 5.8e-38; above, exp-sinh, t = 1 +
    exp(pi/2 * sinh(s)) with s in [-5, 3], so t - 1 runs from 2.4e-51 to
    6.8e6.  log t is formed through log1p on both sides, so that it keeps
    the distance to t = 1."""
    s = _de_nodes(-4.0, 4.0, level)
    v = math.pi * np.sinh(s)
    x_s = _de_nodes(-5.0, 3.0, level)
    x = np.exp(0.5 * math.pi * np.sinh(x_s))
    log_t = np.concatenate((-np.log1p(np.exp(-v)), np.log1p(x)))
    # dt/ds = pi cosh(s) t (1 - t) below, pi/2 cosh(s) (t - 1) above
    log_w = np.concatenate((np.log(math.pi * np.cosh(s)) + log_t[: s.size] - np.log1p(np.exp(v)),
                            np.log(0.5 * math.pi * np.cosh(x_s) * x)))
    for a in (log_t, log_w):
        a.flags.writeable = False  # shared by every call through the cache
    return log_t, log_w, s.size


def _ml_integral(alpha: float, beta: float, c: float) -> float:
    """Two-parameter Mittag-Leffler on the negative axis by quadrature.

    Evaluates E_{alpha,beta}(-c) for c > 0 and 0 < alpha < 1 from its real
    spectral integral (Gorenflo, Kilbas, Mainardi & Rogosin,
    *Mittag-Leffler Functions*, Springer 2014, section 3):

        (1/pi) int_0^inf r**(alpha-beta) exp(-r)
            * (u*sin(beta*pi) + c*sin((beta-alpha)*pi))
            / (u**2 + 2*u*c*cos(alpha*pi) + c**2) dr,   u = r**alpha.

    With q = u/c and y = q + cos(alpha*pi) the fraction is (q*sin(beta*pi)
    + sin((beta-alpha)*pi)) / (c*(y**2 + sin(alpha*pi)**2)), which peaks at
    u ~ c with width sin(alpha*pi) as alpha -> 1.  There (alpha > 3/4) y
    is formed as the distance q - 1 plus 1 + cos(alpha*pi) =
    2*sin(pi*(1-alpha)/2)**2, and from q > 1/2 on the numerator as
    y*sin(beta*pi) - cos(beta*pi)*sin(alpha*pi); every sine takes an
    exactly reduced argument, so nothing cancels.  The integral is split
    at the peak, r* = c**(1/alpha), or at r = 700 if that comes first, and
    mapped to t = (r/r*)**gamma, gamma = min(1, 1 + alpha - beta), which
    takes the endpoint power into the weights: tanh-sinh on (0, 1) and
    exp-sinh on (1, inf) (:func:`_ml_level`), summed by :func:`quad` with
    the ends of both pieces counted.  Raises :class:`NonConvergence` where
    its levels do not agree to 1e-12 relative.  The power is integrable
    for beta < 1 + alpha, which covers every beta the laws use.
    """
    if not (0.0 < alpha < 1.0):
        raise NonConvergence(
            f"mittag_leffler series failed and the integral representation "
            f"requires 0 < alpha < 1 (alpha={alpha}, z={-c})"
        )
    if beta >= 1.0 + alpha:
        raise NonConvergence(
            f"mittag_leffler integral representation needs beta < 1 + alpha "
            f"(alpha={alpha}, beta={beta}, z={-c})"
        )
    rise = (1.0 - beta) + alpha  # 1 + alpha - beta, to one rounding as beta -> 1 + alpha
    # sin((beta-alpha)*pi) = sin(rise*pi), from the argument nearer 0
    sb, sba, sa = _sinpi(beta), _sinpi(rise if rise < 0.5 else beta - alpha), _sinpi(1.0 - alpha)
    narrow = alpha > 0.75
    # 1 + cos(alpha*pi) for the distance form of y, else cos(alpha*pi)
    lift = 2.0 * _sinpi(0.5 * (1.0 - alpha)) ** 2 if narrow else _sinpi(0.5 - alpha)
    cb_sa = _sinpi(0.5 - beta) * sa
    log_c = math.log(c)
    log_p = min(log_c / alpha, math.log(_EXP_CAP))  # the split, in log r
    off = alpha * log_p - log_c if log_p < log_c / alpha else 0.0  # log q at t = 1
    gamma = min(1.0, rise)
    power = max(0.0, alpha - beta)  # of t, what r**(alpha-beta) dr leaves
    scale = rise * log_p - log_c

    def levels() -> Iterator[tuple[np.ndarray, float]]:
        for level in itertools.count():
            log_t, log_w, below = _ml_level(level)
            log_q = np.minimum(log_t * (alpha / gamma) + off, _EXP_CAP)  # capped where exp(-r) is 0
            q = np.exp(log_q)
            num = q * sb + sba
            if narrow:
                y = np.expm1(log_q) + lift
                num = np.where(q < 0.5, num, y * sb - cb_sa)
            else:
                y = q + lift
            f = np.exp(log_w + scale + power * log_t - np.exp(log_t / gamma + log_p)) * num / (y * y + sa * sa)
            if level == 0:
                inner = abs(float(f[below - 1])) + abs(float(f[below]))  # the pieces' ends at the split
            yield f, inner

    try:
        with np.errstate(over="ignore"):
            value, _gap = quad(levels())
    except NonConvergence as exc:
        raise NonConvergence(
            f"mittag_leffler integral representation at alpha={alpha}, beta={beta}, z={-c}: {exc}"
        ) from None
    return value / (gamma * math.pi)


@functools.lru_cache(maxsize=256)
def _ml_rule(alpha: float, beta: float) -> tuple[bool, float]:
    """What :func:`mittag_leffler` decides once per (alpha, beta): whether
    the integral representation is admissible (0 < alpha < 1 and beta <
    1 + alpha, see :func:`_ml_integral`), and the absolute-sum cap of the
    series on the negative axis.

    Where alpha <= 1 and beta >= alpha, E_{alpha,beta}(-x) is completely
    monotone (Schneider, Expo. Math. 1996), so it lies in (0,
    1/Gamma(beta)]: a series the gate accepts has an absolute sum of at
    most 1e-13 * max(1, 1/Gamma(beta)) / eps.  Twice that stops a series
    that would be dropped for the integral, and never one that passes.
    Elsewhere the cap is the default.
    """
    admissible = 0.0 < alpha < 1.0 and beta < 1.0 + alpha
    if alpha <= 1.0 and beta >= alpha:
        return admissible, 2e-13 * max(1.0, float(rgamma(beta))) / _EPS
    return admissible, _ABSUM_CAP


def mittag_leffler(p: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Requires ``p.gamma == 1``.  E_{1,1}(z) = exp(z) and E_{1,2}(z) =
    expm1(z)/z are returned in closed form below z = 700.  For z <= -5 the
    real integral representation is used when its parameter constraints
    (0 < alpha < 1, beta < 1 + alpha) hold; otherwise the power series is
    summed (:func:`_ml_series`) and, when its cancellation estimate
    exceeds the accuracy target on the negative axis, the evaluator still
    falls back to the integral form (where the function is completely
    monotone, such a series stops at the first term whose absolute sum
    rules it out, :func:`_ml_rule`).  The integral is a fixed nested rule
    whose value stands when two levels agree to 1e-12 relative
    (:func:`_ml_integral`).  A failed series with no admissible integral,
    or an integral whose levels do not agree, raises
    :class:`NonConvergence`.

    ``z`` may also be a 1-D float ndarray: an ndarray is returned, each
    element decided by the rule above, with one series summed for all
    elements that take it (:func:`_ml_series` on the array) and the
    integral per element.
    """
    if p.gamma != 1.0:
        raise DomainError(f"mittag_leffler requires gamma=1, got gamma={p.gamma}")
    if isinstance(z, np.ndarray):
        return _ml_array(p, z)
    x = _finite(z)
    if math.isnan(x):
        raise DomainError(f"mittag_leffler argument must be a finite real, got {z!r}")
    z = x
    if z == 0.0:
        return float(rgamma(p.beta))
    if p.alpha == 1.0 and p.beta in (1.0, 2.0) and z < _EXP_CAP:
        return math.exp(z) if p.beta == 1.0 else math.expm1(z) / z
    admissible, cap = _ml_rule(p.alpha, p.beta)
    if z < 0.0 and -z >= _ML_SWITCH and admissible:
        return _ml_integral(p.alpha, p.beta, -z)
    val, est, ok = _ml_series(p.alpha, p.beta, 1.0, z, cap if z < 0.0 else _ABSUM_CAP)
    if ok and est <= 1e-13 * max(abs(val), 1.0):
        return val
    if z < 0.0:
        return _ml_integral(p.alpha, p.beta, -z)
    raise NonConvergence(
        f"mittag_leffler series did not converge for alpha={p.alpha}, beta={p.beta}, "
        f"z={z} (cancellation estimate {est:.3g})"
    )


def _ml_array(p: MLParams, z: np.ndarray) -> np.ndarray:
    """:func:`mittag_leffler` at every element of the 1-D float array ``z``."""
    if not (z.ndim == 1 and z.dtype.kind == "f" and np.all(np.isfinite(z))):
        raise DomainError(f"mittag_leffler requires finite arguments (a 1-D float array), got {z!r}")
    if p.alpha == 1.0 and p.beta in (1.0, 2.0) and np.all(z < _EXP_CAP):
        if p.beta == 1.0:
            return np.exp(z)
        return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)  # E_{1,2}(0) = 1
    admissible, cap = _ml_rule(p.alpha, p.beta)
    integral = (z <= -_ML_SWITCH) & admissible
    rows = np.flatnonzero(~integral)
    val, est, ok = _ml_series(p.alpha, p.beta, 1.0, z[rows], np.where(z[rows] < 0.0, cap, _ABSUM_CAP))
    good = ok & (est <= 1e-13 * np.maximum(np.abs(val), 1.0))
    positive = rows[~good & (z[rows] > 0.0)]
    if positive.size:
        raise NonConvergence(
            f"mittag_leffler series did not converge for alpha={p.alpha}, beta={p.beta}, z={z[positive[0]]}"
        )
    out = np.empty(z.size)
    out[rows] = val
    redo = np.concatenate((np.flatnonzero(integral), rows[~good]))
    out[redo] = [_ml_integral(p.alpha, p.beta, -x) for x in z[redo].tolist()]
    return out


def gml(p: MLParams, z: float) -> float:
    """Three-parameter (Prabhakar) Mittag-Leffler function E^gamma_{alpha,beta}(z).

    Summed by its power series with the Pochhammer symbol computed in log
    space.  The series is accurate for moderate |z|; when cancellation on
    the negative axis destroys the target accuracy, :class:`NonConvergence`
    is raised.  The relaxation laws built on it stop such a series at the
    first term that breaks their error budget and invert their Laplace
    transform on a Talbot contour instead.
    """
    x = _finite(z)
    if math.isnan(x):
        raise DomainError(f"gml argument must be a finite real, got {z!r}")
    val, est, ok = _ml_series(p.alpha, p.beta, p.gamma, x)
    if ok and est <= 1e-13 * max(abs(val), 1.0):
        return val
    raise NonConvergence(
        f"gml series did not converge for alpha={p.alpha}, beta={p.beta}, "
        f"gamma={p.gamma}, z={z} (cancellation estimate {est:.3g})"
    )


def _wright_terms(nu: float, x: float) -> Iterator[float]:
    """Terms (-x)**j / (j! * Gamma(-nu*j + 1 - nu)) of the M-Wright series.

    The reciprocal gamma is evaluated directly (it is entire, vanishing at
    the poles of gamma), so single zero terms occur at those poles and are
    handled by the three-in-a-row stop rule of :func:`_sum_series`.
    """
    p = 1.0
    for j in itertools.count():
        yield p * float(rgamma(1.0 - nu * (j + 1.0)))
        if abs(p) > 1e250:
            yield math.inf
            return
        p *= -x / (j + 1.0)


# The product rule of wright_m (see _stable_table): Gauss-Legendre orders
# of its two levels, the most log(A/A(0) - 1) may change across one panel,
# and the relative bound at which the levels, with the neglected ends,
# certify a value.
_M_NODES = 16
_M_STEP = 2.5
_M_TOL = 1e-12
# Panel edges are picked from the distances (pi/2) * 2**(-j/64) to each
# end of (0, pi): down to 2**-5 of pi/2 toward 0, where the integrand is a
# bell of width 1/sqrt(u0*nu/2) >= 0.05 (u0 <= 812 wherever the density
# does not underflow), and down to 2**-40 toward pi.
_M_GRID = 64
_M_PANELS = 400


def _zolotarev_logs(nu: float, d: np.ndarray, at_pi: bool) -> tuple[np.ndarray, np.ndarray]:
    """log A(phi) and log(A(phi)/A(0) - 1) at phi = d, or at phi = pi - d.

    A(phi) = sin(nu*phi)**(nu/(1-nu)) * sin((1-nu)*phi) / sin(phi)**(1/(1-nu))
    is increasing on (0, pi), from A(0) = (1-nu) * nu**(nu/(1-nu)) to inf.
    It is formed from log(sin(nu*phi)/sin(phi)) = log1p(cos(delta) - 1 -
    cot(phi) * sin(delta)) with delta = (1-nu)*phi, so that no power
    underflows to a 0/0 and 1/(1-nu) amplifies no cancellation as nu -> 1;
    sin(phi) near pi is sin(d) of the exact distance d.  Where rounding
    puts A at or below A(0), the second log is -inf.
    """
    phi = math.pi - d if at_pi else d
    delta = (1.0 - nu) * phi
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = (-1.0 if at_pi else 1.0) / np.tan(d)
        log_ratio = np.log1p(-2.0 * np.sin(0.5 * delta) ** 2 - cot * np.sin(delta))
        log_a = nu / (1.0 - nu) * log_ratio + np.log(np.sin(delta) / np.sin(d))
        y = log_a - (math.log(1.0 - nu) + nu / (1.0 - nu) * math.log(nu))
        log_d = np.where(y > 0.0, y + np.log(-np.expm1(-y)), -np.inf)
    return log_a, log_d


def _panel_edges(nu: float, at_pi: bool, log_a_cap: float) -> np.ndarray:
    """Panel edges as distances to 0 (or to pi), from pi/2 toward that end.

    Each panel at most quarters the distance, so that A's power law at pi
    costs a 16-node level no more than 3**-32 of its panel, and moves
    log(A/A(0) - 1) by at most ``_M_STEP``.  Toward pi the edges stop
    where log A passes ``log_a_cap``, at 2**-40 of pi/2 or at
    ``_M_PANELS`` panels; toward 0 the last edge is 0 itself, after 2**-5
    of pi/2.
    """
    d = 0.5 * math.pi * 2.0 ** (-np.arange((40 if at_pi else 5) * _M_GRID + 1) / _M_GRID)
    log_a, log_d = _zolotarev_logs(nu, d, at_pi)
    key = log_d if at_pi else -log_d  # increasing along d
    edges = [0]
    while len(edges) <= _M_PANELS:
        i = edges[-1]
        j = int(np.searchsorted(key, key[i] + _M_STEP, side="right")) - 1
        edges.append(max(i + 1, min(j, i + 2 * _M_GRID, d.size - 1)))
        if edges[-1] == d.size - 1 or (at_pi and log_a[edges[-1]] >= log_a_cap):
            break
    out = d[edges]
    return out if at_pi else np.append(out, 0.0)


@dataclass(frozen=True)
class _StableTable:
    """:func:`_stable_table`'s rule for one nu.

    The panels run in increasing phi; panel k lies between boundaries k
    and k + 1.  Each panel holds ``3 * _M_NODES`` node values: the
    coarse level's nodes, then the fine level's.
    """

    log_a0: float  # log A(0)
    log_a: np.ndarray  # log A at every node, panel by panel
    log_d: np.ndarray  # log(A/A(0) - 1) at every node
    weights: np.ndarray  # (nodes, 2): the coarse and the fine level's weights, 0 off its level
    phi: tuple  # phi at each boundary
    bound_log_a: tuple  # log A at each boundary
    bound_log_d: tuple  # log(A/A(0) - 1) at each boundary


@functools.lru_cache(maxsize=1)
def _gauss_levels() -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], ``_M_NODES`` then twice as many."""
    return tuple(np.polynomial.legendre.leggauss(n) for n in (_M_NODES, 2 * _M_NODES))


@functools.lru_cache(maxsize=16)
def _stable_table(nu: float) -> _StableTable:
    """Zolotarev's A(phi) for one nu, tabulated on a graded Gauss-Legendre rule.

    The panels of (0, pi) are graded geometrically toward both ends and
    by log(A/A(0) - 1) (:func:`_panel_edges`); each carries ``_M_NODES``
    and ``2 * _M_NODES`` nodes.  Toward pi they reach log A =
    60 + 0.25/(1-nu): the series covers x below about exp(-0.22/(1-nu))
    as nu -> 1 (its 600 terms), and the rule must reach the x where its
    integrand peaks at A = x**(-1/(1-nu)).  The reach stops at log A = 600,
    so that no exp in :func:`_wright_stable_rule` overflows; from nu =
    0.9995 on, that leaves some x just below 1 to neither method.  Built
    once per nu, in 0.5-1 ms.
    """
    log_a_cap = min(60.0 + 0.25 / (1.0 - nu), 600.0)
    to_0 = _panel_edges(nu, False, log_a_cap)[::-1]  # 0, ..., pi/2
    to_pi = _panel_edges(nu, True, log_a_cap)[1:]  # distances to pi, after pi/2
    near = np.concatenate((to_0[:-1], to_pi))  # each panel's distance range to its end
    far = np.concatenate((to_0[1:], to_0[-1:], to_pi[:-1]))
    at_pi = np.arange(near.size) >= to_0.size - 1
    half, mid = 0.5 * (far - near), 0.5 * (far + near)
    rules = _gauss_levels()
    d = mid[:, None] + half[:, None] * np.concatenate([r[0] for r in rules])
    log_a, log_d = np.empty_like(d), np.empty_like(d)
    for side in (False, True):
        log_a[at_pi == side], log_d[at_pi == side] = _zolotarev_logs(nu, d[at_pi == side], side)
    weights = np.zeros(d.shape + (2,))
    weights[:, :_M_NODES, 0] = half[:, None] * rules[0][1]
    weights[:, _M_NODES:, 1] = half[:, None] * rules[1][1]
    left, right = _zolotarev_logs(nu, to_0, False), _zolotarev_logs(nu, to_pi, True)
    log_a0 = math.log(1.0 - nu) + nu / (1.0 - nu) * math.log(nu)
    bound_log_a = np.concatenate(([log_a0], left[0][1:], right[0]))  # at phi = 0 the logs are 0/0
    bound_log_d = np.concatenate(([-math.inf], left[1][1:], right[1]))
    return _StableTable(
        log_a0=log_a0,
        log_a=log_a.ravel(),
        log_d=log_d.ravel(),
        weights=weights.reshape(-1, 2),
        phi=tuple(np.concatenate((to_0, math.pi - to_pi)).tolist()),
        bound_log_a=tuple(bound_log_a.tolist()),
        bound_log_d=tuple(bound_log_d.tolist()),
    )


def _wright_series(nu: float, x: float) -> "float | None":
    """M_nu(x) by its power series, clamped to [0, inf), or None.

    None unless the series converges with a cancellation estimate within
    1e-13 of its value (and below 1e-4).
    """
    val, est, ok = _sum_series(_wright_terms(nu, x))
    if ok and est <= 1e-13 * abs(val) and est < 1e-4:
        return val if val > 0.0 else 0.0
    return None


def _wright_stable_rule(nu: float, x: float) -> "float | None":
    """M_nu(x) from the one-sided stable density by :func:`_stable_table`'s rule.

    With h = x**(1/(1-nu)) and u = h*A(phi) (Zolotarev, *One-dimensional
    Stable Distributions*, AMS 1986; Mainardi, Mura & Pagnini 2010),

        M_nu(x) = 1/((1-nu)*pi*x) * int_0^pi u * exp(-u) dphi.

    The sum runs over A * exp(-u0*(A/A(0) - 1)), the integrand over
    h*exp(-u0) with u0 = h*A(0), so no term overflows; 0 is returned where
    even the bound u0*exp(-u0)/((1-nu)*x) underflows.  Only the panels
    where log u lies in [-45, log(u0 + 60)] are summed: A increases, so the
    integrand is at most A before them, and decreases after them once
    u >= 1.  The value is returned when the two levels differ, plus those
    two bounds on the ends left out, by at most ``_M_TOL`` of the sum;
    otherwise None (x too small for the table, or a peak the rule does not
    resolve).
    """
    tab = _stable_table(nu)
    log_h = math.log(x) / (1.0 - nu)
    log_u0 = log_h + tab.log_a0
    if log_u0 > 6.7 and log_u0 - math.exp(min(log_u0, 700.0)) - math.log((1.0 - nu) * x) < -746.0:
        return 0.0
    u0 = math.exp(log_u0)
    bound = tab.bound_log_a
    i0 = bisect.bisect_left(bound, -45.0 - log_h, 1) - 1
    i1 = bisect.bisect_left(bound, math.log(u0 + 60.0) - log_h, 0, len(bound) - 1)
    if i1 <= i0 or log_h + bound[i1] < 0.0:
        return None
    nodes = slice(i0 * 3 * _M_NODES, i1 * 3 * _M_NODES)
    f = np.exp(tab.log_a[nodes] - np.exp(log_u0 + tab.log_d[nodes]))
    coarse, fine = (f @ tab.weights[nodes]).tolist()
    head = tab.phi[i0] * math.exp(bound[i0])
    tail = (math.pi - tab.phi[i1]) * math.exp(bound[i1] - math.exp(log_u0 + tab.bound_log_d[i1]))
    if not abs(fine - coarse) + head + tail <= _M_TOL * fine:
        return None
    return fine * math.exp(nu / (1.0 - nu) * math.log(x) - u0) / ((1.0 - nu) * math.pi)


def wright_m(nu: float, x: float) -> float:
    """M-Wright probability density M_nu(x) for nu in (0, 1), x >= 0.

    Tried first is the one-sided stable integral on a fixed product rule,
    tabulated once per nu (:func:`_wright_stable_rule`): it answers when
    its two levels, with bounds on the ends it leaves out, agree to 1e-12
    relative, which holds for all but small x, and returns 0 where the
    density underflows.  Then the power series in x, whose terms
    alternate with reciprocal-gamma weights, is accepted while its
    cancellation estimate stays below 1e-13 relative
    (:func:`_wright_series`).  When neither certifies,
    :class:`NonConvergence` is raised; on 400 log-spaced x in [1e-3, 1e2]
    that happens only from nu = 0.9995 on, at x in [0.83, 0.99].  No
    adaptive quadrature is involved.
    """
    order, y = _finite(nu), _finite(x)
    if not 0.0 < order < 1.0:
        raise DomainError(f"wright_m requires a real nu in (0, 1), got {nu!r}")
    if not y >= 0.0:
        raise DomainError(f"wright_m requires a finite real x >= 0, got {x!r}")
    nu, x = order, y
    if x == 0.0:
        return float(rgamma(1.0 - nu))
    val = _wright_stable_rule(nu, x)
    if val is None:
        val = _wright_series(nu, x)
    if val is None:
        raise NonConvergence(f"wright_m: neither the stable-law rule nor the series certified nu={nu}, x={x}")
    return val


_BESSEL_ORDERS = (0.0, 1.0 / 3.0, -1.0 / 3.0)


def bessel_i(order: float, x: float) -> float:
    """Modified Bessel function I_order(x) for order in {0, 1/3, -1/3}, x >= 0.

    Evaluated as scipy's exponentially scaled ``ive`` times e^x; returns
    inf when e^x overflows the double range.
    """
    o, y = _finite(order), _finite(x)
    if not any(abs(o - b) <= 1e-12 for b in _BESSEL_ORDERS):
        raise DomainError(f"bessel_i supports orders 0 and +/-1/3, got {order!r}")
    if not y >= 0.0:
        raise DomainError(f"bessel_i requires a finite real x >= 0, got {x!r}")
    order, x = o, y
    if x == 0.0:
        return 1.0 if abs(order) <= 1e-12 else (math.inf if order < 0.0 else 0.0)
    if x > _EXP_CAP:
        return math.inf
    return float(ive(order, x)) * math.exp(x)


def airy_ai(w: float) -> float:
    """Airy function Ai(w) for w >= 0, from scipy's ``airy``."""
    x = _finite(w)
    if not x >= 0.0:
        raise DomainError(f"airy_ai requires a finite real w >= 0, got {w!r}")
    return float(airy(x)[0])
