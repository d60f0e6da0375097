"""Special-function evaluators used by the relaxation laws.

The Mittag-Leffler and M-Wright evaluators return IEEE double results and
follow one convergence discipline, fixed by module constants rather than
options: :func:`_sum_series` adds at most 600 terms with compensated (Kahan)
addition, accepts the sum once three consecutive terms fall below 1e-14
relative to the running sum, and carries a cancellation estimate
``eps * sum(|term|)`` so that catastrophic alternating series are detected
instead of silently returned.  When a series cannot reach the target
accuracy, each evaluator either switches to an integral representation
valid in that regime or raises :class:`NonConvergence`.
Airy Ai and the modified Bessel I are validated wrappers over
:mod:`scipy.special`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

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
            if not (_real(v) and math.isfinite(v) and v > 0.0):
                raise DomainError(f"MLParams.{name} must be positive and finite, got {v!r}")
            if type(v) is not float:
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


def _ml_terms(alpha: float, beta: float, gamma: float, z: float) -> Iterator[float]:
    """Terms of the three-parameter Mittag-Leffler series in log space.

    Term j is ``poch(gamma, j) * z**j / (j! * Gamma(alpha*j + beta))`` with
    the Pochhammer symbol evaluated as a difference of log-gammas, so that
    moderate parameter values never overflow intermediate products.
    """
    lg_gamma0 = gammaln(gamma)
    loga = math.log(abs(z)) if z != 0.0 else -math.inf
    sign_z = 1.0 if z >= 0.0 else -1.0
    for j in itertools.count():
        lg = (
            gammaln(gamma + j)
            - lg_gamma0
            + j * loga
            - gammaln(j + 1.0)
            - gammaln(alpha * j + beta)
        )
        if lg > _EXP_CAP:
            yield math.inf
            return
        yield (sign_z**j) * math.exp(lg)


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
    """
    if p.gamma != 1.0:
        raise DomainError(f"mittag_leffler requires gamma=1, got gamma={p.gamma}")
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
    val, est, ok = _sum_series(_ml_terms(p.alpha, p.beta, 1.0, z), cap)
    if ok and est <= 1e-13 * max(abs(val), 1.0):
        return val
    if z < 0.0:
        return _ml_integral(p.alpha, p.beta, -z)
    raise NonConvergence(
        f"mittag_leffler series did not converge for alpha={p.alpha}, beta={p.beta}, "
        f"z={z} (cancellation estimate {est:.3g})"
    )


def _gml_raw(p: MLParams, z: float, absum_cap: float = _ABSUM_CAP) -> tuple[float, float, bool]:
    """Three-parameter Mittag-Leffler series with its raw error estimate.

    Returns ``(value, error_estimate, converged)`` without an acceptance
    decision, so callers that sum these values against growing outer
    coefficients can accumulate the propagated error honestly.
    ``absum_cap`` is passed on to :func:`_sum_series`.
    """
    if z == 0.0:
        return float(rgamma(p.beta)), _EPS, True
    return _sum_series(_ml_terms(p.alpha, p.beta, p.gamma, z), absum_cap)


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
