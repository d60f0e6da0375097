"""Special-function layer: frozen high-precision references and behavior.

Reference constants were produced by tests/gen_oracles.py (arbitrary
precision, 40+ digits, written out to 22 significant figures).  Rerun that
script to regenerate them.  Tolerances are set from measured deviations of
the production code (typically < 2e-14 relative) with a 10-100x margin.
"""

import math

import numpy as np
import pytest
from scipy.special import airy as scipy_airy
from scipy.special import erfcx, iv

from frax import specfun
from frax.errors import DomainError, NonConvergence
from frax.specfun import (
    _ML_SWITCH,
    MLParams,
    _ml_integral,
    _ml_terms,
    _sum_series,
    airy_ai,
    bessel_i,
    gml,
    mittag_leffler,
    wright_m,
)

REL = 1e-12


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# Mittag-Leffler, two-parameter
# ---------------------------------------------------------------------------

ML_CASES = [
    (0.3, 1.0, -(0.5**0.3), 0.5104438286409446648348),
    (0.3, 1.0, -1.0, 0.4565944083296906690069),
    (0.3, 1.0, -(2.0**0.3), 0.4036812190878930821169),
    (0.5, 1.0, -(0.5**0.5), 0.5231565837302467433637),
    (0.5, 1.0, -1.0, 0.4275835761558070044108),
    (0.5, 1.0, -(2.0**0.5), 0.3362040024463412128543),
    (0.7, 1.0, -(0.5**0.7), 0.5458267290599023713599),
    (0.7, 1.0, -1.0, 0.3996119781155993843659),
    (0.7, 1.0, -(2.0**0.7), 0.2631900067990924395467),
    (0.25, 1.0, -1.0, 0.4638527608017132869365),
    (1.0 / 3.0, 1.0, -1.0, 0.4517512323819965260079),
    (1.0 / 3.0, 1.0, -(0.5 ** (1.0 / 3.0)), 0.5120836930395955274704),
    (1.0 / 3.0, 1.0, -(2.0 ** (1.0 / 3.0)), 0.3927008457975658028272),
    (0.5, 2.0, -1.0, 0.5559627432513195783069),
    (0.75, 1.25, -2.0, 0.299376635105035344461),
    # |z| = 8 exercises the integral representation (z <= -_ML_SWITCH)
    (0.5, 1.0, -8.0, 0.06998516620088092772275),
]


@pytest.mark.parametrize("alpha, beta, z, want", ML_CASES)
def test_mittag_leffler_reference_values(alpha, beta, z, want):
    got = mittag_leffler(MLParams(alpha, beta), z)
    assert rel_err(got, want) < REL


# alpha near 1, where the integral's denominator u**2 + 2uc*cos(alpha*pi)
# + c**2 nearly vanishes at u = c: written as a sum of squares it errs by
# <= 2.1e-14 here, where the expanded form lost up to 2.7e-10
NEAR_UNIT_ML = [
    (0.99999, 1.0, -5.0, 0.006741010442136893508268),
    (0.9999, 0.75, -8.0, -0.0312206839816625398039),
    (0.99999, 1.5, -5.0, 0.1305608019029553445673),
]


@pytest.mark.parametrize("alpha, beta, z, want", NEAR_UNIT_ML)
def test_mittag_leffler_integral_near_unit_order(alpha, beta, z, want):
    assert abs(mittag_leffler(MLParams(alpha, beta), z) - want) < 1e-13


def test_mittag_leffler_at_zero_is_reciprocal_gamma():
    for beta in (0.75, 1.0, 2.0, 3.5):
        got = mittag_leffler(MLParams(0.5, beta), 0.0)
        assert rel_err(got, 1.0 / math.gamma(beta)) < 1e-15


def test_mittag_leffler_alpha_one_is_exp():
    for z in (-2.0, -0.5, 0.0, 0.7, 3.0):
        got = mittag_leffler(MLParams(1.0), z)
        assert rel_err(got, math.exp(z)) < 1e-13


def test_mittag_leffler_half_order_positive_axis_erf_form():
    # E_{1/2,1}(x) = exp(x^2) * (1 + erf(x)) for x >= 0
    for x in (0.25, 0.5, 1.0, 2.0):
        got = mittag_leffler(MLParams(0.5), x)
        want = math.exp(x * x) * (1.0 + math.erf(x))
        assert rel_err(got, want) < 1e-13


def test_mittag_leffler_alpha_one_deep_negative_raises():
    # alpha = 1 has no integral representation; the alternating series
    # loses too many digits at z = -8 and the failure must be explicit.
    with pytest.raises(NonConvergence):
        mittag_leffler(MLParams(1.0), -8.0)


def test_mittag_leffler_beta_outside_integral_window_raises():
    with pytest.raises(NonConvergence):
        mittag_leffler(MLParams(0.5, 2.5), -40.0)


def test_mittag_leffler_huge_positive_argument_raises():
    with pytest.raises(NonConvergence):
        mittag_leffler(MLParams(0.5), 60.0)


def test_mittag_leffler_rejects_prabhakar_exponent():
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(0.5, 1.0, 2.0), -1.0)


def test_mittag_leffler_decreasing_on_negative_axis():
    vals = [mittag_leffler(MLParams(0.6), -z) for z in np.linspace(0.0, 12.0, 40)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    assert vals[0] == 1.0
    assert vals[-1] > 0.0


# ---------------------------------------------------------------------------
# generalized (Prabhakar) Mittag-Leffler
# ---------------------------------------------------------------------------

GML_CASES = [
    (0.5, 1.5, 2.0, -1.0, 0.2732120147838985650747, 1e-12),
    # alternating series with cancellation near a sign change: measured
    # deviation 1.9e-12, frozen with ~50x margin
    (0.6, 1.1, 3.0, -1.5, -0.008567646676873291207036, 1e-10),
]


@pytest.mark.parametrize("alpha, beta, gamma, z, want, tol", GML_CASES)
def test_gml_reference_values(alpha, beta, gamma, z, want, tol):
    got = gml(MLParams(alpha, beta, gamma), z)
    assert rel_err(got, want) < tol


def test_gml_unit_exponent_matches_two_parameter():
    for alpha, beta, z in [(0.4, 1.0, -1.5), (0.5, 1.5, -1.0), (0.9, 2.0, -3.0), (0.7, 0.8, 1.5), (0.3, 1.2, -0.8)]:
        a = gml(MLParams(alpha, beta, 1.0), z)
        b = mittag_leffler(MLParams(alpha, beta), z)
        assert rel_err(a, b) < 1e-13


def test_gml_at_zero_is_reciprocal_gamma():
    got = gml(MLParams(0.5, 2.0, 3.0), 0.0)
    assert rel_err(got, 1.0 / math.gamma(2.0)) < 1e-15


def test_gml_deep_negative_raises():
    # no integral representation is wired for gamma != 1, so a cancelled
    # series must fail loudly instead of returning noise
    with pytest.raises(NonConvergence):
        gml(MLParams(0.5, 1.5, 2.0), -300.0)


# ---------------------------------------------------------------------------
# M-Wright density
# ---------------------------------------------------------------------------

WRIGHT_CASES = [
    (0.5, 1.0, 0.4393912894677223970469),
    (1.0 / 3.0, 0.5, 0.5563338386752553216914),
    (0.3, 2.0, 0.1684003062267831245914),
    (0.5, 5.0, 0.001089142115176354860193),
    (0.7, 4.0, 2.526987436081901744532e-06),
    # deep tail: the series is fully cancelled there and the stable-law
    # integral continuation must take over
    (0.3, 20.0, 2.242015544892763221077e-14),
]


@pytest.mark.parametrize("nu, x, want", WRIGHT_CASES)
def test_wright_m_reference_values(nu, x, want):
    assert rel_err(wright_m(nu, x), want) < REL


def test_wright_m_half_order_gaussian_form():
    # M_{1/2}(x) = exp(-x^2/4) / sqrt(pi)
    for x in (0.0, 0.5, 1.0, 2.0, 3.5):
        want = math.exp(-0.25 * x * x) / math.sqrt(math.pi)
        assert rel_err(wright_m(0.5, x), want) < 1e-13


def test_wright_m_at_origin():
    for nu in (0.25, 0.5, 0.75):
        assert rel_err(wright_m(nu, 0.0), 1.0 / math.gamma(1.0 - nu)) < 1e-14


def test_wright_m_is_normalized_density():
    from scipy.integrate import quad

    for nu in (0.3, 0.5, 0.7):
        val, _ = quad(lambda x: wright_m(nu, x), 0.0, 40.0, limit=300)
        assert abs(val - 1.0) < 1e-9


def test_wright_m_domain_errors():
    with pytest.raises(DomainError):
        wright_m(0.0, 1.0)
    with pytest.raises(DomainError):
        wright_m(1.0, 1.0)
    with pytest.raises(DomainError):
        wright_m(0.5, -0.5)


# ---------------------------------------------------------------------------
# Airy, Bessel-I
# ---------------------------------------------------------------------------

AIRY_CASES = [
    (0.0, 0.3550280538878172392601),
    (1.0, 0.1352924163128814155241),
    (5.0, 0.0001083444281360744173499),
]


@pytest.mark.parametrize("x, want", AIRY_CASES)
def test_airy_reference_values(x, want):
    assert rel_err(airy_ai(x), want) < REL


def test_airy_matches_scipy_on_grid():
    for x in np.linspace(0.0, 8.0, 33):
        ref = float(scipy_airy(x)[0])
        assert rel_err(airy_ai(float(x)), ref) < 1e-12


BESSEL_CASES = [
    (0.0, 1.0, 1.266065877752008335598),
    (1.0 / 3.0, 2.0, 2.15878258137286302395),
    # x = 25: e^x is large, so the scaled ive result carries the magnitude
    (-1.0 / 3.0, 25.0, 5761474759.621364697294),
]


@pytest.mark.parametrize("order, x, want", BESSEL_CASES)
def test_bessel_reference_values(order, x, want):
    assert rel_err(bessel_i(order, x), want) < REL


def test_bessel_matches_scipy_across_crossover():
    # the wrapper multiplies scipy's scaled ive by e^x; sweep small to
    # large arguments
    for order in (0.0, 1.0 / 3.0, -1.0 / 3.0):
        for x in np.geomspace(0.1, 60.0, 40):
            ref = float(iv(order, x))
            assert rel_err(bessel_i(order, float(x)), ref) < 1e-12


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_mlparams_validation():
    with pytest.raises(DomainError):
        MLParams(0.0)
    with pytest.raises(DomainError):
        MLParams(0.5, -1.0)
    with pytest.raises(DomainError):
        MLParams(0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        MLParams(math.inf)


def test_mlparams_accept_numpy_scalars():
    p = MLParams(np.float32(0.5), np.int64(1))
    assert p == MLParams(0.5, 1.0) and type(p.alpha) is float and type(p.beta) is float
    for z in (-1.3, 0.7):
        assert mittag_leffler(p, z) == mittag_leffler(MLParams(0.5), z)
    with pytest.raises(DomainError):
        MLParams(True)
    with pytest.raises(DomainError):
        MLParams(0.5, "1")


def test_policy_switch_threshold_consistency():
    # E_{1/2}(z) = erfcx(-z) on both sides of the switch to the integral
    # representation at z = -_ML_SWITCH.  The raw power series is summed
    # there too: its cancellation estimate must fail the 1e-13 gate that
    # sends mittag_leffler to the integral (at z = -4 the series has lost
    # 8 digits, at z = -8 all of them).
    for z in (-4.0, -_ML_SWITCH * (1.0 - 1e-9), -_ML_SWITCH, -6.0, -8.0):
        _val, est, ok = _sum_series(_ml_terms(0.5, 1.0, 1.0, z))
        assert not (ok and est <= 1e-13)
        assert rel_err(mittag_leffler(MLParams(0.5), z), float(erfcx(-z))) < 1e-11


def _ml_reference(alpha: float, z: float) -> float:
    """mittag_leffler(MLParams(alpha), z) as summed without an absolute-sum cap."""
    val, est, ok = _sum_series(_ml_terms(alpha, 1.0, 1.0, z))
    return val if ok and est <= 1e-13 * max(abs(val), 1.0) else _ml_integral(alpha, 1.0, -z)


def test_mittag_leffler_stops_a_discarded_series_early(monkeypatch):
    # on (-5, -2.5) a series the gate drops is stopped by an absolute-sum
    # cap; every value stays bit for bit what the uncapped sum gave
    zs = -np.linspace(2.5, 5.0, 202)[1:-1]
    for alpha in (0.3, 0.5, 0.8):
        got = [mittag_leffler(MLParams(alpha), float(z)) for z in zs]
        assert got == [_ml_reference(alpha, float(z)) for z in zs]
    drawn = []

    def counted(*args):
        for term in _ml_terms(*args):
            drawn.append(term)
            yield term

    _sum_series(counted(0.5, 1.0, 1.0, -4.0))
    uncapped = len(drawn)
    drawn.clear()
    monkeypatch.setattr(specfun, "_ml_terms", counted)
    assert mittag_leffler(MLParams(0.5), -4.0) == _ml_reference(0.5, -4.0)
    assert 0 < len(drawn) < uncapped
