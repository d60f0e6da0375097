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

import frax.fraccalc as fc
import frax.relaxation as rx
from dataclasses import dataclass

from frax.errors import DomainError, NonConvergence, Unstable, Unsupported
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
    # the series evaluator; psi itself inverts the transform first
    for nu in (0.3, 0.5, 0.8):
        for t in (0.2, 1.0, 3.0):
            got = rx._series_psi(rx.Fractional(nu=nu, lam=1.1), t)
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
    # crossing the |alpha - lam| threshold must not move the series value:
    # measured jump 3.2e-11 at a relative offset of 3e-8
    lam = 1.0
    eq = rx._series_psi(rx.Elastic(alpha=lam, lam=lam), 1.0)
    for d in (3e-8, -3e-8):
        v = rx._series_psi(rx.Elastic(alpha=lam * (1.0 + d), lam=lam), 1.0)
        assert abs(v - eq) < 1e-9


# psi(1) of Elastic(alpha = 1 + d, lam = 1) from tests/gen_oracles.py: d -> value
ELASTIC_NEAR_EQUAL = {
    0.0: 0.7252720229273813874838,
    3e-8: 0.725272026653810447128,
    -3e-8: 0.7252720192009522375314,
}


def test_elastic_near_equal_rates_inverts_exactly():
    # the value moves by 3.7e-9 over the 3e-8 offsets; the contour follows
    # it (measured 3.8e-14), where the two-rate series' cancellation does not
    for d, want in ELASTIC_NEAR_EQUAL.items():
        assert abs(rx.psi(rx.Elastic(alpha=1.0 + d, lam=1.0), 1.0) - want) < 1e-12


def test_distributed_zero_weight_collapses():
    # n1 = 0 puts all weight on the upper order of the series; psi, which
    # inverts the transform, holds the same values to 5.1e-14 (measured)
    m = rx.Distributed(nu1=0.5, nu2=1.0, n1=0.0, n2=1.0, lam=1.2)
    for t in (0.3, 1.0, 2.5):
        assert rel_err(rx._series_psi(m, t), math.exp(-1.2 * t)) < 1e-12
        assert abs(rx.psi(m, t) - math.exp(-1.2 * t)) < 1e-12
    m2 = rx.Distributed(nu1=0.3, nu2=0.7, n1=0.0, n2=1.0, lam=1.2)
    for t in (0.3, 1.0, 2.5):
        want = mittag_leffler(MLParams(0.7), -1.2 * t**0.7)
        assert rel_err(rx._series_psi(m2, t), want) < 1e-12
        assert abs(rx.psi(m2, t) - want) < 1e-12


def test_distributed_zero_weight_series_is_pure_series():
    # the n1 = 0 branch sums the Mittag-Leffler series itself rather than
    # call psi, which would answer from the contour
    m = rx.Distributed(nu1=0.3, nu2=0.7, n1=0.0, n2=1.0, lam=0.8)
    for t in (0.25, 1.0, 4.0):
        assert rx._series_psi(m, t) == mittag_leffler(MLParams(0.7), -0.8 * t**0.7)


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

def test_psi_time_validation():
    # t = 0 is the exact unit starting value; negative and non-finite fail
    assert rx.psi(rx.Standard(lam=1.0), 0.0) == 1.0
    assert rx.psi(rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0), 0.0) == 1.0
    with pytest.raises(DomainError):
        rx.psi(rx.Standard(lam=1.0), -1.0)
    with pytest.raises(DomainError):
        rx.psi(rx.Standard(lam=1.0), math.nan)


def test_psi_accepts_numpy_scalar_times():
    m = rx.Fractional(nu=0.5, lam=1.0)
    want = rx.psi(m, 1.0)
    assert rx.psi(m, np.int64(1)) == want
    assert rx.psi(m, np.float32(1.0)) == want
    assert rx.psi(m, 1) == want


def test_psi_rejects_boolean_time():
    # True is an int, but not a time: it must not read as psi(1)
    with pytest.raises(DomainError):
        rx.psi(rx.Standard(lam=1.0), True)


def test_asymptote_rejects_non_numeric_time():
    m = rx.Standard(lam=1.0)
    with pytest.raises(DomainError):
        rx.asymptote(m, rx.SmallT, "1")
    with pytest.raises(DomainError):
        rx.asymptote(m, rx.SmallT, False)
    assert rx.asymptote(m, rx.SmallT, np.int64(1)) == rx.asymptote(m, rx.SmallT, 1.0)


def test_positive_parameters_accept_numpy_scalars():
    # a numpy rate is stored as a float: the law is the plain-float law
    for lam, plain in ((np.float32(1.0), 1.0), (np.int64(2), 2.0), (np.float64(0.7), 0.7)):
        m = rx.Standard(lam=lam)
        assert type(m.lam) is float and m == rx.Standard(lam=plain)
        for t in (0.3, 1.7):
            assert rx.psi(m, t) == rx.psi(rx.Standard(lam=plain), t)


def test_integer_parameters_accept_numpy_integers():
    m = rx.GammaBoundary(k=np.int64(2), lam=1)
    assert type(m.k) is int and m == rx.GammaBoundary(k=2, lam=1.0)
    for t in (0.3, 1.7):
        assert rx.psi(m, t) == rx.psi(rx.GammaBoundary(k=2, lam=1.0), t)
    assert rx.FirstPassage(lam=1.0, n=np.int32(2)) == rx.FirstPassage(lam=1.0, n=2)
    assert rx.ElasticGamma(k=np.uint8(1), alpha=0.8, lam=1.1) == rx.ElasticGamma(k=1, alpha=0.8, lam=1.1)


def test_parameters_reject_bool():
    # True is an int, but neither a rate nor a shape
    for build in (
        lambda: rx.Standard(lam=True),
        lambda: rx.Elastic(alpha=1.0, lam=True),
        lambda: rx.GammaBoundary(k=True, lam=1.0),
        lambda: rx.ElasticGamma(k=True, alpha=0.8, lam=1.1),
        lambda: rx.FirstPassage(lam=1.0, n=True),
    ):
        with pytest.raises(DomainError):
            build()
    with pytest.raises(DomainError, match="integer"):
        rx.GammaBoundary(k=2.0, lam=1.0)


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


def test_order_parameters_are_stored_as_floats():
    # a float32 order would compute t**nu in float32 (3.4e-9 off at t = 0.7)
    nu = np.float32(0.3)
    m = rx.Fractional(nu, 1.0)
    assert type(m.nu) is float and m == rx.Fractional(float(nu), 1.0)
    for t in (0.7, 3.3):
        assert rx.psi(m, t) == rx.psi(rx.Fractional(float(nu), 1.0), t)
    d = rx.Distributed(np.float32(0.25), np.float64(0.75), np.float32(0.5), np.float32(0.5), 1.0)
    assert all(type(getattr(d, f)) is float for f in ("nu1", "nu2", "n1", "n2"))
    assert d == rx.Distributed(0.25, 0.75, 0.5, 0.5, 1.0)


def test_order_parameters_reject_non_reals():
    for build in (
        lambda: rx.Fractional("0.5", 1.0),
        lambda: rx.Fractional(True, 1.0),
        lambda: rx.Distributed("0.25", 0.75, 0.5, 0.5, 1.0),
        lambda: rx.Distributed(0.25, True, 0.5, 0.5, 1.0),
        lambda: rx.Distributed(0.25, 0.75, False, True, 1.0),
    ):
        with pytest.raises(DomainError):
            build()


# ---------------------------------------------------------------------------
# array-valued psi
# ---------------------------------------------------------------------------

ALL_LAWS = [
    rx.Standard(lam=1.0),
    rx.Fractional(nu=0.5, lam=1.0),
    rx.Sojourn(lam=1.0),
    rx.FirstPassage(lam=1.0, n=2),
    rx.BesselSq(gamma=2.0, lam=1.0),
    rx.Elastic(alpha=0.7, lam=1.3),
    rx.GammaBoundary(k=2, lam=1.0),
    rx.ElasticGamma(k=2, alpha=0.8, lam=1.1),
    rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0),
]


@pytest.mark.parametrize("m", ALL_LAWS, ids=lambda m: type(m).__name__)
def test_array_psi_matches_scalar_psi(m):
    ts = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 2000)))
    got = rx.psi(m, ts)
    # the series evaluator, so that the contour is held against the series
    want = np.array([rx._series_psi(m, float(t)) for t in ts])
    assert got.shape == ts.shape and got[0] == 1.0
    gap = np.abs(got - want)
    worst = int(np.argmax(gap))
    # measured: <= 3.2e-11 (GammaBoundary); every other law <= 7e-12
    assert gap[worst] <= 1e-9, f"largest gap {gap[worst]:.3g} at t={ts[worst]!r}"
    scalar = np.array([rx.psi(m, float(t)) for t in ts])
    if m._contour_first:
        # one contour either way; only the rounding of the sums differs
        # with the batch size (measured <= 5e-14)
        assert np.max(np.abs(got - scalar)) <= 1e-12
    else:
        # the elementary laws evaluate their closed form point by point
        assert got.tolist() == want.tolist() == scalar.tolist()


def test_array_psi_keeps_the_shape():
    m = rx.GammaBoundary(k=2, lam=1.0)
    zero_d = rx.psi(m, np.array(2.0))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert abs(float(zero_d) - rx.psi(m, 2.0)) <= 1e-10
    grid = np.array([[0.0, 0.5, 1.0], [2.0, 4.0, 8.0]])
    got = rx.psi(m, grid)
    assert got.shape == (2, 3)
    assert np.array_equal(got.reshape(-1), rx.psi(m, grid.reshape(-1)))
    assert rx.psi(m, np.arange(4)).shape == (4,)  # integer times
    assert rx.psi(m, np.array([])).shape == (0,)


@pytest.mark.parametrize("m", [rx.Standard(lam=1.0), rx.Fractional(nu=0.5, lam=1.0)],
                         ids=lambda m: type(m).__name__)
def test_array_psi_time_validation(m):
    for bad in (
        np.array([1.0, math.nan]),
        np.array([1.0, math.inf]),
        np.array([1.0, -1e-12]),
        np.array([True, False]),
        np.array([1.0 + 0j]),
        np.array(["1.0"]),
    ):
        with pytest.raises(DomainError):
            rx.psi(m, bad)


@dataclass(frozen=True)
class _Poisoned(rx.Fractional):
    """Fractional law whose transform is NaN at the node s = 8, the first
    20-node point of the contour at t = 1."""

    def _laplace(self, s):
        return np.where(s == 8.0, np.nan, super()._laplace(s))


@dataclass(frozen=True)
class _PoisonedNoSeries(_Poisoned):
    def _psi(self, t):
        raise NonConvergence("no series here")


def test_array_psi_falls_back_to_the_scalar_path(monkeypatch):
    sizes = []
    laplace = _Poisoned._laplace
    monkeypatch.setattr(_Poisoned, "_laplace", lambda self, s: sizes.append(s.size) or laplace(self, s))
    ts = np.array([0.5, 1.0, 2.0])
    m = _Poisoned(nu=0.5, lam=1.0)
    got = rx.psi(m, ts)
    # one transform call on both contours of every time; the uncertified
    # point goes straight to the series, not through a second inversion
    assert sizes == [3 * 48]
    # t = 1 is answered by its series, the others by the contour
    assert got[1] == mittag_leffler(MLParams(0.5), -1.0)
    assert np.array_equal(got[[0, 2]], rx.psi(rx.Fractional(nu=0.5, lam=1.0), ts[[0, 2]]))
    # the series fails at t = 1 too: raise, return nothing
    with pytest.raises(Unstable, match="t=1.0"):
        rx.psi(_PoisonedNoSeries(nu=0.5, lam=1.0), ts)
    assert rx.psi(_PoisonedNoSeries(nu=0.5, lam=1.0), ts[[0, 2]]).shape == (2,)


def test_scalar_psi_falls_back_to_the_series():
    # the transform is NaN on the contour at t = 1: the series answers
    assert rx.psi(_Poisoned(nu=0.5, lam=1.0), 1.0) == mittag_leffler(MLParams(0.5), -1.0)
    assert rx.psi(_Poisoned(nu=0.5, lam=1.0), 2.0) == rx.psi(rx.Fractional(nu=0.5, lam=1.0), 2.0)
    with pytest.raises(Unstable, match="t=1.0: the transform is not finite.*no series here"):
        rx.psi(_PoisonedNoSeries(nu=0.5, lam=1.0), 1.0)


@pytest.mark.parametrize("m", [rx.ElasticGamma(k=2, alpha=0.8, lam=1.1),
                               rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0)],
                         ids=lambda m: type(m).__name__)
def test_scalar_psi_inverts_first(monkeypatch, m):
    calls = {"_laplace": 0, "_psi": 0}
    for name in calls:
        original = getattr(type(m), name)

        def counted(self, x, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, x)

        monkeypatch.setattr(type(m), name, counted)
    value = rx.psi(m, 1.0)
    assert calls == {"_laplace": 1, "_psi": 0}
    assert abs(value - rx._series_psi(m, 1.0)) <= 1e-10


@dataclass(frozen=True)
class _Constant(rx.Fractional):
    """A law whose inverted transform is the constant ``value``."""

    value: float = 1.0

    def _laplace(self, s):
        return self.value / s


def test_array_psi_snaps_rounding_onto_the_unit_interval():
    ts = np.array([0.5, 2.0])
    for value, want in ((1.0 + 5e-10, 1.0), (-5e-10, 0.0)):
        assert rx.psi(_Constant(nu=0.5, lam=1.0, value=value), ts).tolist() == [want, want]
    for value in (1.0 + 2e-9, -2e-9):
        assert np.all(np.abs(rx.psi(_Constant(nu=0.5, lam=1.0, value=value), ts) - value) < 1e-12)


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
# contour-like points, Re s < 0 included, none on the closed negative axis,
# and the Talbot nodes where psi's contour samples at the ends of its range:
# the first and last node of each rule at t = 1e-8 and 1e8, |s| ~ 8e-8 to 3e10
CONTOUR_S = [0.3 + 1j, 2.0 - 5j, -0.5 + 0.2j, -0.85 - 1e-3j, -3.0 + 1e-6j, -40.0 + 9j, 1e-6 - 1e-7j] + [
    complex(z) / t for t in (1e-8, 1e8) for z in fc._NODES[[0, 19, 20, 47]]
]


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


@pytest.mark.parametrize("m", TRANSFORM_LAWS, ids=lambda m: type(m).__name__)
def test_psi_laplace_at_large_real_s(m):
    # psi_laplace takes any finite s > 0: no intermediate product may
    # overflow where the transform itself, about 1/s, is a normal float
    F = _mp_transform(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rx.psi_laplace(m, 1e300)
    with mp.workdps(30):
        want = float(F(mp.mpf(1e300)))
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


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
