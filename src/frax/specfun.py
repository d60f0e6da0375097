"""Special-function evaluators used by the relaxation laws.

The Mittag-Leffler and M-Wright evaluators return IEEE double results and
follow one convergence discipline, fixed by module constants rather than
options: a series adds at most 600 terms with compensated (Kahan)
addition, accepts the sum once three consecutive terms fall below 1e-14
relative to the running sum, and carries a cancellation estimate
``eps * sum(|term|)`` so that catastrophic alternating series are detected
instead of silently returned.  When the Mittag-Leffler series cannot
reach the target accuracy, the evaluator switches to an integral
representation valid in that regime or raises :class:`NonConvergence`.
The M-Wright density is tried the other way round: first one fixed
product rule for Zolotarev's stable-law integral, tabulated once per
order (:func:`_stable_table`) and certified by two levels agreeing to
1e-12 relative, then the series; when neither certifies it raises.
:func:`_sum_series` applies that discipline to a stream of terms (the
M-Wright series).  The Mittag-Leffler series has its own loop,
:func:`_ml_series`, which forms each term and applies the same gates in
place.  Its log-coefficients come in blocks of 32 indices from
:func:`_ml_logs`, one vectorised ``gammaln`` call per coefficient and
block, kept in a bounded LRU cache of 2048 blocks.  The Mittag-Leffler
evaluators also take a 1-D ndarray of arguments and then sum one series
for all of them (:func:`_ml_rows`) from the same tables, each row keeping
the gates above.
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
from scipy.integrate import quad
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
    ``frax verify --suite all`` run reads 40 distinct blocks 695 times.
    """
    j = np.arange(j0, min(j0 + _BLOCK, _MAX_TERMS), dtype=float)
    pochhammer = gammaln(gamma + j) - gammaln(gamma)
    return tuple(pochhammer.tolist()), tuple(gammaln(j + 1.0).tolist()), tuple(gammaln(alpha * j + beta).tolist())


def _ml_series(
    alpha: float, beta: float, gamma: float, z: float, absum_cap: float = _ABSUM_CAP
) -> tuple[float, float, bool]:
    """The three-parameter Mittag-Leffler series at a float ``z``, summed.

    Returns ``(value, cancellation_estimate, converged)`` as
    :func:`_sum_series` would for the series' terms.  Term j is
    ``exp(((poch + j*log|z|) - log_fact) - log_gamma)`` from the
    :func:`_ml_logs` tables, added in that order so that it rounds as the
    term-by-term form did, and negated for odd j when z < 0; the gates are
    applied as it is added.  A term whose logarithm exceeds 700 (it would
    overflow) or is NaN fails the series, as does an absolute sum beyond
    ``absum_cap``.  z = 0 is left to the caller: its first term is NaN.
    """
    loga = math.log(abs(z)) if z != 0.0 else -math.inf
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


def _ml_rows(
    alpha: float, beta: float, gamma: float, z: np.ndarray, cap: "float | np.ndarray" = _ABSUM_CAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The series of :func:`_ml_series` at every element of the 1-D array ``z``.

    Returns the arrays ``(values, estimates, converged)``, each row decided
    as :func:`_ml_series` decides a scalar series; ``cap`` is the
    absolute-sum cap, a float or one per row.  A zero row is 1/Gamma(beta)
    with estimate eps, and a failed row has value NaN and estimate inf.
    The terms come in blocks of 32 indices, and the log-gammas of their
    logarithm are read from the :func:`_ml_logs` tables once per block for
    every row: only j*log|z| varies by row.  They are added in the scalar
    form's order:
    near the 1e-9 budget of the laws, a term of 1e3 rounded another way
    moved their values by up to 6e-11.  Each row's compensated partial
    sums are formed column by column; the gates are then read off the
    block at once.  A row fails at its first term that is not finite or
    takes its absolute sum past the cap, and converges at its third
    negligible term in a row once j >= 8, whichever comes first; rows left
    after 600 terms fail.
    """
    n = z.size
    zero = z == 0.0
    values = np.where(zero, float(rgamma(beta)), np.nan)
    est = np.where(zero, _EPS, np.inf)
    ok = zero.copy()
    live = np.flatnonzero(~zero)
    caps = np.broadcast_to(np.asarray(cap, dtype=float), (n,))[live]
    loga = np.log(np.abs(z[live]))
    neg = z[live] < 0.0
    s = np.zeros(live.size)
    comp = np.zeros(live.size)
    absum = np.zeros((live.size, 1))
    negl = np.zeros((live.size, 2), dtype=bool)  # were the last two terms negligible
    for j0 in range(0, _MAX_TERMS, _BLOCK):
        if live.size == 0:
            break
        pochhammer, log_fact, log_gamma = _ml_logs(alpha, beta, gamma, j0)
        j = np.arange(j0, j0 + len(pochhammer), dtype=float)
        with np.errstate(all="ignore"):
            # the scalar form's order of operations, so both paths round alike
            lg = np.array(pochhammer) + np.outer(loga, j)
            lg -= np.array(log_fact)
            lg -= np.array(log_gamma)
            terms = np.where(lg > _EXP_CAP, np.inf, np.exp(lg))
            terms[neg, 1::2] *= -1.0  # j0 is even: the odd columns are the odd j
            sums = np.empty_like(terms)
            for c in range(j.size):
                y = terms[:, c] - comp
                tt = s + y
                comp = (tt - s) - y
                s = tt
                sums[:, c] = s
            mag = np.abs(terms)
            # cumsum adds in order, as _sum_series does
            absum = np.cumsum(np.concatenate((absum, mag), axis=1), axis=1)[:, 1:]
            negl = np.concatenate((negl, mag <= _REL_TOL * (np.abs(sums) + 1e-300)), axis=1)
        failed = ~np.isfinite(terms) | (absum > caps[:, None])
        converged = negl[:, 2:] & negl[:, 1:-1] & negl[:, :-2] & (j >= 8.0)
        event = failed | converged
        stop = event.any(axis=1)
        rows = np.flatnonzero(stop)
        col = event[rows].argmax(axis=1)
        win = ~failed[rows, col]
        done = live[rows[win]]
        values[done] = sums[rows[win], col[win]]
        est[done] = _EPS * absum[rows[win], col[win]]
        ok[done] = True
        keep = ~stop
        live, caps, loga, neg = live[keep], caps[keep], loga[keep], neg[keep]
        s, comp = s[keep], comp[keep]
        absum, negl = absum[keep, -1:], negl[keep, -2:]
    return values, est, ok


def _ml_integral(alpha: float, beta: float, c: float) -> float:
    """Two-parameter Mittag-Leffler on the negative axis by quadrature.

    Evaluates E_{alpha,beta}(-c) for c > 0 and 0 < alpha < 1 from its real
    integral representation.  After the substitution u = r**alpha the
    integrand is

        (1/(alpha*pi)) * u**((1-beta)/alpha) * exp(-u**(1/alpha))
            * (u*sin(beta*pi) + c*sin((beta-alpha)*pi))
            / (u**2 + 2*u*c*cos(alpha*pi) + c**2),

    which is smooth on (0, R] and negligible once u**(1/alpha) > 50.  The
    endpoint power is integrable for beta < 1 + alpha, which covers every
    beta used by the relaxation laws.
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
    sb = math.sin(beta * math.pi)
    sba = math.sin((beta - alpha) * math.pi)
    # cos and sin of alpha*pi through (1 - alpha)*pi, exact for alpha >= 1/2:
    # sa keeps its relative accuracy as alpha -> 1
    ca = -math.cos((1.0 - alpha) * math.pi)
    sa = math.sin((1.0 - alpha) * math.pi)
    inv_alpha = 1.0 / alpha
    pw = (1.0 - beta) * inv_alpha

    def f(u: float) -> float:
        e = u**inv_alpha
        if e > _EXP_CAP:
            return 0.0
        num = u * sb + c * sba
        # u**2 + 2*u*c*ca + c**2, without the cancellation of 1 + ca
        # that u = c meets as alpha -> 1
        den = (u + c * ca) ** 2 + (c * sa) ** 2
        return u**pw * math.exp(-e) * num / den

    upper = 50.0**alpha
    val, _err = quad(f, 0.0, upper, limit=200, epsabs=1e-14, epsrel=1e-12)
    return val / (alpha * math.pi)


def mittag_leffler(p: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Requires ``p.gamma == 1``.  For z <= -5 the real integral
    representation is used when its parameter constraints (0 < alpha < 1,
    beta < 1 + alpha) hold;
    otherwise the power series is summed and, when its cancellation
    estimate exceeds the accuracy target on the negative axis, the
    evaluator still falls back to the integral form (where the function is
    completely monotone, such a series stops at the first term whose
    absolute sum rules it out).  A failed series with
    no admissible integral raises :class:`NonConvergence`.

    ``z`` may also be a 1-D float ndarray: an ndarray is returned, each
    element decided by the rule above, with one series summed for all
    elements that take it (:func:`_ml_rows`) and the integral per element.
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
    admissible = 0.0 < p.alpha < 1.0 and p.beta < 1.0 + p.alpha
    if z < 0.0 and -z >= _ML_SWITCH and admissible:
        return _ml_integral(p.alpha, p.beta, -z)
    cap = _ABSUM_CAP
    if z < 0.0 and p.alpha <= 1.0 and p.beta >= p.alpha:
        # E_{alpha,beta}(-x) is completely monotone here (Schneider, Expo.
        # Math. 1996), so it lies in (0, 1/Gamma(beta)]: a series the gate
        # below accepts has an absolute sum of at most
        # 1e-13 * max(1, 1/Gamma(beta)) / eps.  Twice that stops a series
        # that would be dropped for the integral, and never one that passes.
        cap = 2e-13 * max(1.0, float(rgamma(p.beta))) / _EPS
    val, est, ok = _ml_series(p.alpha, p.beta, 1.0, z, cap)
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
    integral = (z <= -_ML_SWITCH) & (0.0 < p.alpha < 1.0 and p.beta < 1.0 + p.alpha)
    monotone = (z < 0.0) & (p.alpha <= 1.0 and p.beta >= p.alpha)
    cap = np.where(monotone, 2e-13 * max(1.0, float(rgamma(p.beta))) / _EPS, _ABSUM_CAP)
    rows = np.flatnonzero(~integral)
    val, est, ok = _ml_rows(p.alpha, p.beta, 1.0, z[rows], cap[rows])
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


def _gml_raw(
    p: MLParams, z: "float | np.ndarray", absum_cap: "float | np.ndarray" = _ABSUM_CAP
) -> tuple:
    """Three-parameter Mittag-Leffler series with its raw error estimate.

    Returns ``(value, error_estimate, converged)`` without an acceptance
    decision, so that a caller which scales the value (the laws' single
    series, the verify identities) can gate the error it propagates.
    ``absum_cap`` is passed on to :func:`_ml_series`.  A 1-D ndarray
    ``z``, with a float cap or one cap per element, gives three arrays from
    :func:`_ml_rows`, which sums the series once for all elements.
    """
    if isinstance(z, np.ndarray):
        return _ml_rows(p.alpha, p.beta, p.gamma, z, absum_cap)
    if z == 0.0:
        return float(rgamma(p.beta)), _EPS, True
    return _ml_series(p.alpha, p.beta, p.gamma, z, absum_cap)


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
    val, est, ok = _gml_raw(p, x)
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
