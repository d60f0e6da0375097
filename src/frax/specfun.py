"""Special-function evaluators used by the relaxation laws.

The Mittag-Leffler and M-Wright evaluators return IEEE double results and
follow one convergence discipline, fixed by module constants rather than
options: a series adds at most 600 terms with compensated (Kahan)
addition, accepts the sum once three consecutive terms fall below 1e-14
relative to the running sum, and carries a cancellation estimate
``eps * sum(|term|)`` so that catastrophic alternating series are detected
instead of silently returned.  When a series cannot reach the target
accuracy, each evaluator either switches to an integral representation
valid in that regime or raises :class:`NonConvergence`.
:func:`_sum_series` applies that discipline to a stream of terms (the
M-Wright series, the outer sums of the relaxation laws).  The
Mittag-Leffler series has its own loop, :func:`_ml_series`, which forms
each term and applies the same gates in place.  Its log-coefficients come
in blocks of 32 indices from :func:`_ml_logs`, one vectorised ``gammaln``
call per coefficient and block, kept in a bounded LRU cache sized to hold
every block one ``frax verify --suite all`` run reads.  The Mittag-Leffler
evaluators also take a 1-D ndarray of arguments and then sum one series
for all of them (:func:`_ml_rows`) from the same tables, each row keeping
the gates above.
Airy Ai and the modified Bessel I are validated wrappers over
:mod:`scipy.special`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from scipy.integrate import quad
from scipy.special import airy, gammaln, ive, rgamma

from .errors import DomainError, NonConvergence, _real

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
                continue  # the laws build one per outer series term: keep this cheap
            if not (_real(v) and math.isfinite(v) and v > 0.0):
                raise DomainError(f"MLParams.{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, float(v))


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
    One ``frax verify --suite all`` run reads 1,298 distinct blocks 5,901
    times, which the cache holds with room to spare.
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
    if not math.isfinite(z):
        raise DomainError(f"mittag_leffler argument must be finite, got {z!r}")
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
    decision, so callers that sum these values against growing outer
    coefficients can accumulate the propagated error honestly.
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
    if not math.isfinite(z):
        raise DomainError(f"gml argument must be finite, got {z!r}")
    val, est, ok = _gml_raw(p, z)
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


def _wright_stable_integral(nu: float, x: float) -> float:
    """M-Wright density for large x via the one-sided stable density.

    M_nu(x) = (1/nu) * x**(-1-1/nu) * g_nu(x**(-1/nu)) where g_nu is the
    unit one-sided stable density of index nu, evaluated by the standard
    trigonometric integral

        g_nu(z) = (e/(pi)) * z**(-1-e) * int_0^pi A(phi) exp(-z**(-e) A(phi)) dphi,
        A(phi) = sin(nu*phi)**e * sin((1-nu)*phi) / sin(phi)**(1/(1-nu)),
        e = nu/(1-nu).

    The integrand is bell-shaped; integrating over four subintervals of
    (0, pi) with an absolute tolerance scaled to the integrand's peak keeps
    the quadrature at machine accuracy for all nu in (0, 1).
    """
    z = x ** (-1.0 / nu)
    e = nu / (1.0 - nu)
    hscale = z ** (-e)
    a0 = (1.0 - nu) * nu**e  # A(0+), the integrand's scale at the left end
    if hscale * a0 >= _EXP_CAP:
        return 0.0
    scale = math.exp(-hscale * a0)

    def f(phi: float) -> float:
        a = (
            math.sin(nu * phi) ** e
            * math.sin((1.0 - nu) * phi)
            / math.sin(phi) ** (1.0 / (1.0 - nu))
        )
        w = hscale * a
        return a * math.exp(-w) if w < _EXP_CAP else 0.0

    knots = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi)
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        v, _err = quad(f, lo, hi, limit=100, epsabs=1e-3 * scale * a0, epsrel=1e-12)
        total += v
    g = e * z ** (-e - 1.0) * total / math.pi
    return (1.0 / nu) * x ** (-1.0 - 1.0 / nu) * g


def wright_m(nu: float, x: float) -> float:
    """M-Wright probability density M_nu(x) for nu in (0, 1), x >= 0.

    The power series in x alternates with reciprocal-gamma weights and is
    used while its cancellation estimate stays below the accuracy target;
    for larger x the evaluator switches to the exact one-sided stable
    integral form, which covers the tail down to (and past) the double
    underflow threshold.  The result is clamped to [0, inf).
    """
    if not (0.0 < nu < 1.0):
        raise DomainError(f"wright_m requires nu in (0, 1), got {nu!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"wright_m requires finite x >= 0, got {x!r}")
    if x == 0.0:
        return float(rgamma(1.0 - nu))
    val, est, ok = _sum_series(_wright_terms(nu, x))
    if ok and est <= 1e-13 * abs(val) and est < 1e-4:
        return val if val > 0.0 else 0.0
    return _wright_stable_integral(nu, x)


_BESSEL_ORDERS = (0.0, 1.0 / 3.0, -1.0 / 3.0)


def bessel_i(order: float, x: float) -> float:
    """Modified Bessel function I_order(x) for order in {0, 1/3, -1/3}, x >= 0.

    Evaluated as scipy's exponentially scaled ``ive`` times e^x; returns
    inf when e^x overflows the double range.
    """
    if not any(abs(order - o) <= 1e-12 for o in _BESSEL_ORDERS):
        raise DomainError(f"bessel_i supports orders 0 and +/-1/3, got {order!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"bessel_i requires finite x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 if abs(order) <= 1e-12 else (math.inf if order < 0.0 else 0.0)
    if x > _EXP_CAP:
        return math.inf
    return float(ive(order, x)) * math.exp(x)


def airy_ai(w: float) -> float:
    """Airy function Ai(w) for w >= 0, from scipy's ``airy``."""
    if not (math.isfinite(w) and w >= 0.0):
        raise DomainError(f"airy_ai requires finite w >= 0, got {w!r}")
    return float(airy(w)[0])
