"""Relaxation laws: closed forms, frozen references, transforms, asymptotes.

Reference values come from tests/gen_oracles.py (arbitrary precision);
tolerances are frozen from measured deviations with a 10-100x margin.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import i0e

import frax.relaxation as rx
from frax.errors import DomainError, Unsupported
from frax.specfun import MLParams, mittag_leffler

REL = 1e-12


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# frozen references
# ---------------------------------------------------------------------------

PSI_CASES = [
    (rx.Sojourn(lam=1.0), 1.0, 0.645035270449150068108),
    (rx.Elastic(alpha=1.0, lam=1.0), 1.0, 0.7252720229273813874838),  # equal-rate branch
    (rx.Elastic(alpha=0.7, lam=1.3), 2.0, 0.6353767187627403158996),
    (rx.GammaBoundary(k=2, lam=1.0), 1.0, 0.7007955909397055694854),
    (rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0), 1.0, 0.3775168250211103538149),
    (rx.Distributed(nu1=0.5, nu2=1.0, n1=0.2, n2=0.8, lam=1.0), 2.0, 0.1779266574994038840571),
]


@pytest.mark.parametrize("model, t, want", PSI_CASES)
def test_psi_reference_values(model, t, want):
    assert rel_err(rx.psi(model, t), want) < REL


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_standard_is_exponential():
    for t in (0.1, 1.0, 5.0):
        assert rel_err(rx.psi(rx.Standard(lam=1.3), t), math.exp(-1.3 * t)) < 1e-15


def test_fractional_is_mittag_leffler():
    for nu in (0.3, 0.5, 0.8):
        for t in (0.2, 1.0, 3.0):
            got = rx.psi(rx.Fractional(nu=nu, lam=1.1), t)
            want = mittag_leffler(MLParams(nu), -1.1 * t**nu)
            assert rel_err(got, want) < 1e-14


def test_sojourn_is_scaled_bessel():
    # psi = exp(-lam t / 2) I0(lam t / 2), evaluated stably via i0e
    for t in np.geomspace(0.05, 80.0, 30):
        got = rx.psi(rx.Sojourn(lam=1.7), float(t))
        assert rel_err(got, float(i0e(1.7 * t / 2.0))) < 1e-12


def test_first_passage_rate_and_law():
    # one passage layer: rate sqrt(2 lam); each extra layer takes a square
    # root of the previous rate and doubles the base
    assert rel_err(rx.first_passage_rate(2.0, 1), 2.0) < 1e-15
    assert rel_err(rx.first_passage_rate(1.0, 1), math.sqrt(2.0)) < 1e-15
    assert rel_err(rx.first_passage_rate(1.0, 2), 2.0 ** (3.0 / 4.0)) < 1e-15
    for n in (1, 2, 3):
        rate = rx.first_passage_rate(0.9, n)
        for t in (0.5, 2.0):
            got = rx.psi(rx.FirstPassage(lam=0.9, n=n), t)
            assert rel_err(got, math.exp(-rate * t)) < 1e-14


def test_besselsq_power_law():
    for g in (1.0, 2.0, 3.0):
        for t in (0.25, 1.0, 10.0):
            got = rx.psi(rx.BesselSq(gamma=g, lam=0.8), t)
            assert rel_err(got, (2.0 * 0.8 * t + 1.0) ** (-0.5 * g)) < 1e-15


def test_gamma_boundary_k1_is_half_order_relaxation():
    # an Erlang boundary with shape 1 is exponential, so k = 1 must agree
    # with the half-order law; beyond the series reach the Talbot inversion
    # holds it to ~4.4e-11 (measured), frozen at 1e-9
    for t in np.geomspace(0.05, 30.0, 25):
        a = rx.psi(rx.GammaBoundary(k=1, lam=1.3), float(t))
        b = rx.psi(rx.Fractional(nu=0.5, lam=1.3), float(t))
        assert abs(a - b) < 1e-9


def test_elastic_gamma_k1_is_elastic():
    for t in (0.2, 1.0, 4.0):
        a = rx.psi(rx.ElasticGamma(k=1, alpha=0.6, lam=1.4), t)
        b = rx.psi(rx.Elastic(alpha=0.6, lam=1.4), t)
        assert abs(a - b) < 1e-6


def test_elastic_equal_rate_branch_is_continuous():
    # crossing the |alpha - lam| threshold must not move the value:
    # measured jump 3.2e-11 at a relative offset of 3e-8
    lam = 1.0
    eq = rx.psi(rx.Elastic(alpha=lam, lam=lam), 1.0)
    for d in (3e-8, -3e-8):
        v = rx.psi(rx.Elastic(alpha=lam * (1.0 + d), lam=lam), 1.0)
        assert abs(v - eq) < 1e-9


def test_distributed_zero_weight_collapses():
    # n1 = 0 puts all weight on the upper order
    m = rx.Distributed(nu1=0.5, nu2=1.0, n1=0.0, n2=1.0, lam=1.2)
    for t in (0.3, 1.0, 2.5):
        assert rel_err(rx.psi(m, t), math.exp(-1.2 * t)) < 1e-12
    m2 = rx.Distributed(nu1=0.3, nu2=0.7, n1=0.0, n2=1.0, lam=1.2)
    for t in (0.3, 1.0, 2.5):
        want = mittag_leffler(MLParams(0.7), -1.2 * t**0.7)
        assert rel_err(rx.psi(m2, t), want) < 1e-12


# Distributed(1/2, 1, 1/2, 1/2, 1) at large t from tests/gen_oracles.py, now
# answered by contour inversion; the half-line quadrature it replaced once
# integrated over all of (0, t/n2) and returned 1.45e-29, 2.5e-95 and 0.0 here
DISTRIBUTED_LARGE_T = [
    (3e4, 0.001628695398538535119643),
    (1e5, 0.0008920654033300111266029),
    (1e6, 0.00028209489755949117467),
]


@pytest.mark.parametrize("t, want", DISTRIBUTED_LARGE_T)
def test_distributed_half_order_large_t(t, want):
    m = rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0)
    assert abs(rx.psi(m, t) - want) < 1e-10


# ---------------------------------------------------------------------------
# evaluation surface
# ---------------------------------------------------------------------------

def test_psi_grid_matches_pointwise():
    grid = rx.TimeGrid.span(0.25, 4.0, 6)
    m = rx.Fractional(nu=0.5, lam=1.0)
    rows = rx.psi_grid(m, grid)
    assert [t for t, _ in rows] == list(grid.ts)
    for t, v in rows:
        assert v == rx.psi(m, t)


def test_psi_time_validation():
    # t = 0 is the exact unit starting value; negative and non-finite fail
    assert rx.psi(rx.Standard(lam=1.0), 0.0) == 1.0
    assert rx.psi(rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0), 0.0) == 1.0
    with pytest.raises(DomainError):
        rx.psi(rx.Standard(lam=1.0), -1.0)
    with pytest.raises(DomainError):
        rx.psi(rx.Standard(lam=1.0), math.nan)


def test_time_grid_validation():
    with pytest.raises(DomainError):
        rx.TimeGrid(ts=())
    with pytest.raises(DomainError):
        rx.TimeGrid(ts=(1.0, 1.0))
    with pytest.raises(DomainError):
        rx.TimeGrid(ts=(-1.0, 2.0))
    with pytest.raises(DomainError):
        rx.TimeGrid.span(2.0, 1.0, 5)
    with pytest.raises(DomainError):
        rx.TimeGrid.span(1.0, 2.0, 5, scale="cubic")


def test_time_grid_span_endpoints():
    lin = rx.TimeGrid.span(1.0, 3.0, 5)
    assert lin.ts[0] == 1.0 and lin.ts[-1] == 3.0
    log = rx.TimeGrid.span(0.1, 10.0, 5, scale="log")
    assert abs(log.ts[0] - 0.1) < 1e-15 and abs(log.ts[-1] - 10.0) < 1e-12
    assert abs(log.ts[2] - 1.0) < 1e-14
    single = rx.TimeGrid.span(2.0, 2.0, 1)
    assert single.ts == (2.0,)


def test_model_validation():
    with pytest.raises(DomainError):
        rx.Fractional(nu=1.0, lam=1.0)
    with pytest.raises(DomainError):
        rx.Fractional(nu=0.5, lam=0.0)
    with pytest.raises(DomainError):
        rx.GammaBoundary(k=0, lam=1.0)
    with pytest.raises(DomainError):
        rx.Distributed(nu1=0.7, nu2=0.5, n1=0.5, n2=0.5, lam=1.0)
    with pytest.raises(DomainError):
        rx.Distributed(nu1=0.3, nu2=0.7, n1=0.6, n2=0.6, lam=1.0)
    with pytest.raises(DomainError):
        rx.Elastic(alpha=-0.1, lam=1.0)


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

def test_psi_laplace_closed_forms():
    for eta in (0.5, 1.0, 7.0):
        lam = 1.3
        assert rel_err(rx.psi_laplace(rx.Standard(lam=lam), eta), 1.0 / (eta + lam)) < 1e-15
        got = rx.psi_laplace(rx.Sojourn(lam=lam), eta)
        assert rel_err(got, 1.0 / math.sqrt(eta * (eta + lam))) < 1e-14
        nu = 0.6
        got = rx.psi_laplace(rx.Fractional(nu=nu, lam=lam), eta)
        assert rel_err(got, eta ** (nu - 1.0) / (eta**nu + lam)) < 1e-14


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_psi_laplace_matches_numerical_transform():
    # one spot check per family; the verification suite sweeps 20 random
    # eta values per model (worst 4.2e-14).  Worst measured disagreement
    # here 7.4e-16, frozen at 1e-10.
    from frax.fraccalc import laplace_forward

    cases = [
        rx.Elastic(alpha=0.7, lam=1.3),
        rx.GammaBoundary(k=2, lam=1.0),
        rx.ElasticGamma(k=2, alpha=0.8, lam=1.1),
        rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0),
    ]
    for m in cases:
        eta = 4.0
        exact = rx.psi_laplace(m, eta)
        numeric = laplace_forward(lambda t, m=m: rx.psi(m, t), eta)
        assert rel_err(numeric, exact) < 1e-10


def test_psi_laplace_unsupported():
    with pytest.raises(Unsupported):
        rx.psi_laplace(rx.BesselSq(gamma=2.0, lam=1.0), 1.0)


def test_psi_laplace_eta_validation():
    with pytest.raises(DomainError):
        rx.psi_laplace(rx.Standard(lam=1.0), 0.0)


def _mp_transform(m):
    """Laplace transform of psi in mpmath, continued off the positive axis
    with principal-branch roots and powers (cut on the negative axis)."""
    sq2 = mp.sqrt(2)
    if isinstance(m, rx.Standard):
        return lambda s: 1 / (s + m.lam)
    if isinstance(m, rx.FirstPassage):
        return lambda s: 1 / (s + rx.first_passage_rate(m.lam, m.n))
    if isinstance(m, rx.Fractional):
        return lambda s: s ** (m.nu - 1) / (s**m.nu + m.lam)
    if isinstance(m, rx.Sojourn):
        return lambda s: 1 / (mp.sqrt(s) * mp.sqrt(s + m.lam))
    if isinstance(m, rx.Elastic):
        a, lam = m.alpha, m.lam
        return lambda s: (a * lam / s + sq2 * a / mp.sqrt(s) + 2) / (
            (mp.sqrt(2 * s) + a) * (mp.sqrt(2 * s) + lam)
        )
    if isinstance(m, rx.GammaBoundary):
        return lambda s: 1 / s - m.lam**m.k / (s * (mp.sqrt(s) + m.lam) ** m.k)
    if isinstance(m, rx.ElasticGamma):
        return lambda s: 1 / s - sq2 * m.lam**m.k / (
            mp.sqrt(s) * (mp.sqrt(2 * s) + m.alpha) * (mp.sqrt(2 * s) + m.lam) ** m.k
        )
    if isinstance(m, rx.Distributed):
        def F(s):
            w = m.n1 * s**m.nu1 + m.n2 * s**m.nu2
            return w / (s * (m.lam + w))

        return F
    raise AssertionError(type(m))


TRANSFORM_LAWS = [
    rx.Standard(lam=1.3),
    rx.Fractional(nu=0.3, lam=0.8),
    rx.Sojourn(lam=1.7),
    rx.FirstPassage(lam=0.9, n=2),
    rx.Elastic(alpha=0.7, lam=1.3),
    rx.GammaBoundary(k=3, lam=1.2),
    rx.ElasticGamma(k=2, alpha=0.8, lam=1.1),
    rx.Distributed(nu1=0.3, nu2=0.9, n1=0.4, n2=0.6, lam=2.0),
]
# contour-like points, Re s < 0 included, none on the closed negative axis
CONTOUR_S = [0.3 + 1j, 2.0 - 5j, -0.5 + 0.2j, -0.85 - 1e-3j, -3.0 + 1e-6j, -40.0 + 9j, 1e-6 - 1e-7j]


@pytest.mark.parametrize("m", TRANSFORM_LAWS, ids=lambda m: type(m).__name__)
def test_psi_laplace_principal_branch_off_axis(m):
    F = _mp_transform(m)
    with mp.workdps(30):
        want = [complex(F(mp.mpc(s))) for s in CONTOUR_S]
    got = rx.psi_laplace(m, np.array(CONTOUR_S))
    for s, g, w in zip(CONTOUR_S, got, want):
        assert abs(g - w) <= 1e-12 * abs(w), (s, g, w)
        assert abs(rx.psi_laplace(m, s) - w) <= 1e-12 * abs(w), s
    real = rx.psi_laplace(m, 0.7)
    assert type(real) is float
    with mp.workdps(30):
        assert abs(real - float(F(mp.mpf(0.7)))) <= 1e-12 * abs(real)


@pytest.mark.parametrize(
    "s",
    [0.0, -1.0, -1 + 0j, complex(-2.0, -0.0), math.inf, math.nan, complex(math.nan, 1.0),
     complex(1.0, math.inf), np.array([1.0 + 1j, -1.0]), np.array([1.0, math.inf]), "1", None],
    ids=repr,
)
def test_psi_laplace_rejects_negative_axis_and_non_finite(s):
    with pytest.raises(DomainError):
        rx.psi_laplace(rx.Distributed(nu1=0.3, nu2=0.9, n1=0.4, n2=0.6, lam=2.0), s)


def test_psi_raises_no_runtime_warning():
    # numpy-scalar parameters once overflowed the outer coefficient of the
    # double series; reference: mpmath Talbot inversion at 40 digits
    m = rx.Distributed(np.float64(0.22439186717632562), np.float64(0.898845821238952),
                       0.8401688171583896, 0.1598311828416104, 0.16780754469428982)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = rx.psi(m, 45.75772301569235)
    assert abs(v - 0.65567838612997160692) < 1e-10


# ---------------------------------------------------------------------------
# asymptotic regimes
# ---------------------------------------------------------------------------

def test_asymptote_fractional_forms():
    m = rx.Fractional(nu=0.5, lam=1.0)
    t = 1e-4
    want = 1.0 - math.sqrt(t) / math.gamma(1.5)
    assert rel_err(rx.asymptote(m, rx.SmallT, t), want) < 1e-12
    t = 1e4
    want = 1.0 / (math.sqrt(t) * math.gamma(0.5))
    assert rel_err(rx.asymptote(m, rx.LargeT, t), want) < 1e-12


@pytest.mark.parametrize(
    "model",
    [
        rx.Standard(lam=1.0),
        rx.Fractional(nu=0.5, lam=1.0),
        rx.Sojourn(lam=1.0),
        rx.FirstPassage(lam=1.0, n=1),
        rx.BesselSq(gamma=2.0, lam=1.0),
        rx.Elastic(alpha=0.7, lam=1.3),
        rx.GammaBoundary(k=2, lam=1.0),
        rx.ElasticGamma(k=2, alpha=0.8, lam=1.1),
        rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0),
    ],
)
def test_asymptotes_bracket_exact_value(model):
    # at the table extremes both regimes must sit within 2% of the law;
    # gap over max handles the pure-exponential laws whose exact value and
    # asymptote both underflow to 0.0 at t = 1e4
    for regime, t in ((rx.SmallT, 1e-4), (rx.LargeT, 1e4)):
        exact = rx.psi(model, t)
        approx = rx.asymptote(model, regime, t)
        assert abs(exact - approx) / max(abs(approx), 1e-300) < 0.02


def test_regime_aliases():
    assert rx.SmallT is rx.Regime.SmallT
    assert rx.LargeT is rx.Regime.LargeT
