"""Special-function layer: frozen high-precision references and behavior.

Reference constants were produced by tests/gen_oracles.py (arbitrary
precision, 40+ digits, written out to 22 significant figures).  Rerun that
script to regenerate them.  Tolerances are set from measured deviations of
the production code (typically < 2e-14 relative) with a 10-100x margin.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import airy as scipy_airy
from scipy.special import erfcx, gammaln, iv, rgamma

from frax import specfun
from frax.errors import DomainError, NonConvergence
from frax.specfun import (
    _ABSUM_CAP,
    _EPS,
    _ML_SWITCH,
    MLParams,
    _ml_integral,
    _ml_series,
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


# alpha within 1e-6 and 1e-8 of 1, where the peak at u = c has width
# c*pi*(1 - alpha): an adaptive rule stepped over it and read 9.59e-7 for
# E_{0.999999,1}(-8) = 3.356e-4, with no sign but a discarded warning
DEEP_UNIT_ML = [
    (0.999999, 0.5, -5.0, -0.08860623796243386438734),
    (0.999999, 0.5, -8.0, -0.04602945984226888815984),
    (0.999999, 0.5, -20.0, -0.01532540452523050822164),
    (0.999999, 1.0, -5.0, 0.006738253346434909391282),
    (0.999999, 1.0, -8.0, 0.0003356392306540498254032),
    (0.999999, 1.0, -20.0, 5.801695907352593749875e-8),
    (0.999999, 1.5, -5.0, 0.1305593708902037205869),
    (0.999999, 1.5, -8.0, 0.07627751711355058777978),
    (0.999999, 1.5, -20.0, 0.02897580472076045073934),
    (0.99999999, 0.5, -5.0, -0.08860647350758166520263),
    (0.99999999, 0.5, -8.0, -0.04602951005631030957652),
    (0.99999999, 0.5, -20.0, -0.01532540713849962693529),
    (0.99999999, 1.0, -5.0, 0.006737950062562325592609),
    (0.99999999, 1.0, -8.0, 0.0003354643939310130635506),
    (0.99999999, 1.0, -20.0, 2.620711468987350083912e-9),
    (0.99999999, 1.5, -5.0, 0.1305592134769515160426),
    (0.99999999, 1.5, -8.0, 0.07627738806740750391768),
    (0.99999999, 1.5, -20.0, 0.02897575008748416793487),
]


@pytest.mark.parametrize("alpha, beta, z, want", DEEP_UNIT_ML)
def test_mittag_leffler_certifies_or_raises_near_unit_order(alpha, beta, z, want):
    # the relative accuracy quad certifies its integral to (specfun._DE_TOL), or a raise
    try:
        got = mittag_leffler(MLParams(alpha, beta), z)
    except NonConvergence:
        return
    assert rel_err(got, want) <= 1e-12


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


def test_mittag_leffler_alpha_one_deep_negative_is_exp():
    # E_{1,1} = exp and E_{1,2} = expm1(z)/z answer in closed form where
    # their series cancel, on scalars and arrays; other alpha >= 1 have no
    # integral representation, and a series that loses too many digits
    # must fail explicitly
    for z in (-8.0, -30.0, -700.0):
        assert rel_err(mittag_leffler(MLParams(1.0), z), math.exp(z)) < 1e-15
    zs = np.array([-700.0, -30.0, -8.0, 0.0, 3.0])
    assert np.array_equal(mittag_leffler(MLParams(1.0), zs), np.exp(zs))
    for z in (-700.0, -40.0, -8.0, -1e-300, 1e-8, 3.0, 699.0):
        want = float(mp.expm1(mp.mpf(z)) / z)
        assert rel_err(mittag_leffler(MLParams(1.0, 2.0), z), want) < 1e-15, z
    zs = np.array([-700.0, -40.0, -8.0, 0.0, 3.0])
    got = mittag_leffler(MLParams(1.0, 2.0), zs)
    assert got[3] == 1.0 and np.array_equal(np.delete(got, 3), np.expm1(np.delete(zs, 3)) / np.delete(zs, 3))
    for p, z in ((MLParams(1.0), 800.0), (MLParams(1.2), -10.0), (MLParams(1.0, 2.0), 800.0)):
        with pytest.raises(NonConvergence):
            mittag_leffler(p, z)
    with pytest.raises(NonConvergence):
        mittag_leffler(MLParams(1.2), np.array([-10.0]))


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


def test_mittag_leffler_on_an_array_matches_scalar_calls():
    # series rows, integral rows (z <= -5), series rows that fall back to the
    # integral, zero and the positive axis, in one call
    z = np.concatenate((-np.geomspace(1e-6, 60.0, 40), [0.0], np.geomspace(1e-3, 2.0, 9)))
    for p in (MLParams(0.5), MLParams(0.7), MLParams(0.3, 0.9), MLParams(1.0)):
        got = mittag_leffler(p, z)
        want = np.array([mittag_leffler(p, x) for x in z.tolist()])
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    # a row the scalar call raises on raises for the array too
    for p, bad in ((MLParams(0.5), 60.0), (MLParams(1.2), -10.0), (MLParams(0.5, 2.5), -40.0)):
        with pytest.raises(NonConvergence):
            mittag_leffler(p, np.array([-1.0, bad]))
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(0.5), np.array([-1.0, np.nan]))


def _ml_terms(alpha: float, beta: float, gamma: float, z: float):
    """Terms of the three-parameter Mittag-Leffler series, one scalar
    ``gammaln`` call per log-gamma: the independent oracle of the series.

    Term j is ``poch(gamma, j) * z**j / (j! * Gamma(alpha*j + beta))``,
    formed in log space; a term whose logarithm exceeds 700 is inf and ends
    the stream.
    """
    lg_gamma0 = gammaln(gamma)
    loga = math.log(abs(z)) if z != 0.0 else -math.inf
    sign_z = 1.0 if z >= 0.0 else -1.0
    for j in itertools.count():
        lg = gammaln(gamma + j) - lg_gamma0 + j * loga - gammaln(j + 1.0) - gammaln(alpha * j + beta)
        if lg > 700.0:
            yield math.inf
            return
        yield (sign_z**j) * math.exp(lg)


def _bits(result):
    value, est, ok = result
    return float(value).hex(), float(est).hex(), bool(ok)


def test_ml_series_matches_the_generator_oracle_bit_for_bit():
    # _ml_series against _sum_series over _ml_terms, on draws that take
    # every exit: convergence, small caps, positive z, overflowing terms
    # (log > 700) and z = 0, which it answers as 1/Gamma(beta)
    rng = np.random.default_rng(15)
    n = 5000
    half = rng.random((3, n)) < 0.5
    alphas = np.where(half[0], 0.5, rng.uniform(0.05, 1.5, n))
    betas = np.where(half[1], 1.0, rng.uniform(0.1, 6.0, n))
    gammas = np.choose(rng.integers(0, 3, n), [np.ones(n), rng.integers(1, 11, n), rng.uniform(0.2, 8.0, n)])
    sign = rng.choice([-1.0, 1.0], n)
    zs = np.choose(
        rng.integers(0, 4, n),
        [np.zeros(n), rng.uniform(-6.0, 6.0, n), sign * 10.0 ** rng.uniform(-8.0, 1.0, n), sign * 10.0 ** rng.uniform(250.0, 305.0, n)],
    )
    caps = np.where(half[2], _ABSUM_CAP, 10.0 ** rng.uniform(0.0, 12.0, n))
    exits = set()
    for alpha, beta, gamma, z, cap in zip(*(a.astype(float).tolist() for a in (alphas, betas, gammas, zs, caps))):
        drawn = []
        want = _sum_series((drawn.append(t) or t for t in _ml_terms(alpha, beta, gamma, z)), cap)
        raw = (float(rgamma(beta)), _EPS, True) if z == 0.0 else want
        assert _bits(_ml_series(alpha, beta, gamma, z, cap)) == _bits(raw)
        if z == 0.0:
            exits.add("zero")
        elif drawn[-1] == math.inf:
            exits.add("overflow")
        elif want[2]:
            exits.add("positive z" if z > 0.0 else "converged")
        elif len(drawn) < 600:
            exits.add("cap")
    assert exits == {"zero", "overflow", "positive z", "converged", "cap"}


def test_ml_rows_read_the_shared_tables(monkeypatch):
    # the cached block tables hold, bit for bit, the log-gammas of each
    # block, and _ml_series on an array reads them block by block
    rng = np.random.default_rng(16)
    for _ in range(20):
        alpha, beta, gamma = rng.uniform(0.05, 1.5), rng.uniform(0.1, 6.0), rng.uniform(0.2, 8.0)
        for j0 in (0, 32, 576):
            j = np.arange(j0, min(j0 + 32, 600), dtype=float)
            pochhammer, log_fact, log_gamma = specfun._ml_logs(alpha, beta, gamma, j0)
            assert list(pochhammer) == (gammaln(gamma + j) - gammaln(gamma)).tolist()
            assert list(log_fact) == gammaln(j + 1.0).tolist()
            assert list(log_gamma) == gammaln(alpha * j + beta).tolist()
    z = np.array([-0.5, -2.0, 0.0])
    want, _est, _ok = _ml_series(0.5, 1.0, 2.0, z)
    read = []
    logs = specfun._ml_logs

    def doubled(*args):
        read.append(args)
        pochhammer, log_fact, log_gamma = logs(*args)
        return tuple(x + math.log(2.0) for x in pochhammer), log_fact, log_gamma

    monkeypatch.setattr(specfun, "_ml_logs", doubled)
    values, _est, ok = _ml_series(0.5, 1.0, 2.0, z)
    # every term doubles with the tables, and so does every sum but the zero row's
    assert ok.all() and values[2] == want[2] == 1.0
    assert np.all(np.abs(values[:2] - 2.0 * want[:2]) <= 1e-10 * np.abs(want[:2]))
    # the row at -2 takes three blocks, and no block is read twice
    assert read == [(0.5, 1.0, 2.0, 0), (0.5, 1.0, 2.0, 32), (0.5, 1.0, 2.0, 64)]


def test_gml_rows_make_the_scalar_gate_decisions():
    # one cap per row; rows that pass agree within their error estimates,
    # rows that fail are NaN with estimate inf
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = MLParams(rng.uniform(0.3, 1.0), rng.uniform(0.5, 4.0), rng.uniform(0.5, 5.0))
        z = np.concatenate(([0.0], rng.uniform(-12.0, 6.0, 30)))
        cap = 10.0 ** rng.uniform(5.0, 20.0, z.size)
        values, est, ok = _ml_series(p.alpha, p.beta, p.gamma, z, cap)
        for i, zi in enumerate(z.tolist()):
            v, e, good = _ml_series(p.alpha, p.beta, p.gamma, zi, float(cap[i]))
            assert ok[i] == good
            if good:
                # the terms round as in the scalar form but for numpy's exp:
                # measured <= 0.5 times the two estimates
                assert abs(values[i] - v) <= 4.0 * (e + est[i])
                assert abs(est[i] - e) <= 1e-12 * e
            else:
                assert math.isnan(values[i]) and est[i] == math.inf


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
    # small orders, where an adaptive integral at a loose absolute
    # tolerance was off by 6.6e-7, 5.8e-9 and 3.3e-11 relative
    (0.01, 4.6, 0.01025519721237565829947),
    (0.05, 3.19, 0.04366666992062017513106),
    (0.1, 3.63, 0.02996402930308192513447),
    # the peak at nu = 0.95, and nu = 0.99, where both powers of A
    # underflowed to a 0/0 (ZeroDivisionError)
    (0.95, 1.15, 3.126619864430547120776),
    (0.99, 0.88, 0.4564896421878239455546),
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


def test_wright_m_moments_near_both_ends_of_the_order():
    # mass 1 and mean 1/Gamma(1 + nu); measured within 1.6e-15
    from scipy.integrate import quad

    for nu in (0.01, 0.95, 0.99):
        mass, _ = quad(lambda x: wright_m(nu, x), 0.0, 60.0, points=[1.0], limit=400)
        mean, _ = quad(lambda x: x * wright_m(nu, x), 0.0, 60.0, points=[1.0], limit=400)
        assert abs(mass - 1.0) < 1e-12, nu
        assert abs(mean * math.gamma(1.0 + nu) - 1.0) < 1e-12, nu


def test_wright_m_near_unit_order_certifies_or_raises():
    # at nu = 0.999 the adaptive integral raised OverflowError or
    # ZeroDivisionError at 143 of these 400 points
    for x in np.geomspace(1e-3, 1e2, 400):
        try:
            v = wright_m(0.999, float(x))
        except NonConvergence:
            continue
        assert math.isfinite(v) and v >= 0.0, x


def test_wright_m_rule_and_series_agree_where_both_certify():
    # down to x = 1e-14, where the rule leaves out a head (near phi = 0) or
    # a tail (past its table's end near pi) that its bounds must count
    rng = np.random.default_rng(18)
    both = 0
    for nu, x in zip(rng.uniform(0.01, 0.99, 500).tolist(), (10.0 ** rng.uniform(-14.0, 2.0, 500)).tolist()):
        rule, series = specfun._wright_stable_rule(nu, x), specfun._wright_series(nu, x)
        if rule is None or not series:
            continue
        both += 1
        assert rel_err(rule, series) <= 1e-12, (nu, x)
    assert both >= 200


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
    with pytest.raises(DomainError):  # float() of it overflows
        MLParams(10**400)


# each public evaluator with one scalar argument left open
SCALAR_CALLS = {
    "mittag_leffler": lambda v: mittag_leffler(MLParams(0.5), v),
    "gml": lambda v: gml(MLParams(0.5, 1.0, 2.0), v),
    "wright_m-nu": lambda v: wright_m(v, 0.5),
    "wright_m-x": lambda v: wright_m(0.5, v),
    "airy_ai": airy_ai,
    "bessel_i-order": lambda v: bessel_i(v, 1.0),
    "bessel_i-x": lambda v: bessel_i(0.0, v),
}


@pytest.mark.parametrize("bad", [True, "0.5", None, 0.5j, np.array(-1.0), math.nan, math.inf, 10**400],
                         ids=["bool", "str", "None", "complex", "0-d-array", "nan", "inf", "int-past-float"])
@pytest.mark.parametrize("name", list(SCALAR_CALLS))
def test_scalar_arguments_must_be_finite_reals(name, bad):
    # True once counted as 1.0, a 0-d array reached the array path, a
    # string raised TypeError and an int past the float range OverflowError
    with pytest.raises(DomainError):
        SCALAR_CALLS[name](bad)


def test_evaluators_return_python_floats():
    # numpy scalar arguments and every branch included; wright_m's
    # stable-law rule once returned numpy.float64
    values = [
        mittag_leffler(MLParams(0.5), np.float32(-1.0)), mittag_leffler(MLParams(0.5), -8.0),
        mittag_leffler(MLParams(0.5), 0), gml(MLParams(0.5, 1.0, 2.0), np.float64(-1.0)),
        gml(MLParams(0.5, 1.0, 2.0), 0.0), wright_m(np.float32(0.5), 0.7), wright_m(0.5, 0),
        wright_m(0.7, 1e-9), wright_m(0.5, 60.0), airy_ai(np.int64(1)), bessel_i(0.0, np.float32(1.0)),
    ]
    assert [type(v) for v in values] == [float] * len(values)


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
    # the capped series reads one block of 32 log-coefficients, the
    # uncapped sum five
    read = []
    logs = specfun._ml_logs
    monkeypatch.setattr(specfun, "_ml_logs", lambda *args: read.append(args) or logs(*args))
    _ml_series(0.5, 1.0, 1.0, -4.0)
    uncapped = len(read)
    read.clear()
    assert mittag_leffler(MLParams(0.5), -4.0) == _ml_reference(0.5, -4.0)
    assert (len(read), uncapped) == (1, 5)
