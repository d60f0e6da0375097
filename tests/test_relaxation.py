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


# psi(1) of Elastic(alpha = 1 + d, lam = 1) from tests/gen_oracles.py: d -> value
ELASTIC_NEAR_EQUAL = {
    0.0: 0.7252720229273813874838,
    3e-8: 0.725272026653810447128,
    -3e-8: 0.7252720192009522375314,
}
# psi(t) of the same laws from their erfcx closed form (tests/gen_oracles.py): (d, t) -> value
ELASTIC_TWO_RATE = {
    (1e-6, 10.0): 0.8001305840279459996731,
    (-1e-6, 10.0): 0.8001302594607847986143,
    (1e-4, 1.0): 0.7252844438560205318462,
    (-1e-4, 1.0): 0.7252596009953177502298,
    (1e-4, 10.0): 0.8001466488497770682969,
    (-1e-4, 10.0): 0.8001141921334711314927,
    (1e-2, 1.0): 0.7265091672858625446386,
    (-1e-2, 1.0): 0.7240248441973409278557,
    (1e-2, 10.0): 0.8017408207255267215433,
    (-1e-2, 10.0): 0.7984949641198540515483,
}


def test_elastic_series_reference_near_equal_rates():
    # the two-rate series divides a difference of Mittag-Leffler values by
    # lam - alpha: within 2e-3 of equal rates that cancellation can break the
    # budget (2.4e-7 at d = 1e-6, t = 10), so the series refuses there and
    # the reference inverts the transform (measured <= 8.2e-14); at d = 1e-2
    # the series answers (measured <= 1.8e-11)
    cases = {(d, 1.0): want for d, want in ELASTIC_NEAR_EQUAL.items() if d} | ELASTIC_TWO_RATE
    for d in sorted({d for d, _t in cases}):
        m = rx.Elastic(alpha=1.0 + d, lam=1.0)
        ts = sorted(t for dd, t in cases if dd == d)
        wants = np.array([cases[d, t] for t in ts])
        if abs(d) < 2e-3:
            with pytest.raises(NonConvergence, match="cancels"):
                m._psi(ts[0])
            assert np.isnan(m._psi(np.array(ts))).all()
        scalar = np.array([rx._series_psi(m, t) for t in ts])
        assert np.max(np.abs(scalar - wants)) < 1e-10, d
        assert np.max(np.abs(rx._series_psi(m, np.array(ts)) - wants)) < 1e-10, d


# psi(6.3e-4) of Elastic(alpha = 100 * (1 + d), lam = 100) from its erfcx
# closed form (tests/gen_oracles.py): d -> value
ELASTIC_BAND_EDGE = {
    0.99e-10: 0.772381593456679554147,
    -0.99e-10: 0.7723815934229146188425,
    1e-9: 0.7723815936103271053766,
    -1e-9: 0.7723815932692671158431,
}


def test_equal_rate_band_edge():
    # the alpha = lam form errs by ~0.17 times the relative offset: it is
    # used within 1e-10 of equal rates (measured 1.7e-11 at the edge), and
    # beyond it Elastic's two-rate gate hands the point to the contour
    # (measured 4.1e-14); ElasticGamma has no band and sums its one series
    # on both sides (measured 3.2e-14)
    t = 6.3e-4
    for d, want in ELASTIC_BAND_EDGE.items():
        alpha = 100.0 * (1.0 + d)
        for m, tol in ((rx.Elastic(alpha=alpha, lam=100.0), 1e-10), (rx.ElasticGamma(k=1, alpha=alpha, lam=100.0), 1e-13)):
            assert abs(rx._series_psi(m, t) - want) < tol, (m, d)
            assert abs(rx._series_psi(m, np.array([t]))[0] - want) < tol, (m, d)
        elastic = rx.Elastic(alpha=alpha, lam=100.0)
        if abs(d) < 1e-10:
            assert abs(elastic._psi(t) - want) < 1e-10
        else:
            with pytest.raises(NonConvergence, match="cancels"):
                elastic._psi(t)


# psi(t) of ElasticGamma(k, alpha, lam) from tests/gen_oracles.py (mpmath
# Talbot inversion at 40 digits): (k, alpha, lam, t) -> value, at equal
# rates and at alpha/lam = 1e-3 and 1e3, all where the series answers
ELASTIC_GAMMA_SERIES = {
    (1, 1.0, 1.0, 1.0): 0.7252720229273813874838,
    (1, 1.0, 1.0, 5.0): 0.7598436673886462797328,
    (3, 1.0, 1.0, 1.0): 0.9498287754187318176358,
    (3, 1.0, 1.0, 5.0): 0.8857278793849511270009,
    (10, 1.0, 1.0, 1.0): 0.9999871740112239997906,
    (10, 1.0, 1.0, 5.0): 0.9982956240262602647306,
    (1, 1e-3, 1.0, 1.0): 0.5234774460028890712366,
    (1, 1e-3, 1.0, 5.0): 0.3098850688637181326503,
    (3, 1e-3, 1.0, 1.0): 0.9221398697005242831473,
    (3, 1e-3, 1.0, 5.0): 0.7209049576675313200825,
    (10, 1e-3, 1.0, 1.0): 0.999982881790526406083,
    (10, 1e-3, 1.0, 5.0): 0.9968218616596812003584,
    (1, 10.0, 0.01, 0.01): 0.9995234774460028890585,
    (1, 10.0, 0.01, 0.25): 0.9991569725384597175533,
    (3, 10.0, 0.01, 0.01): 0.9999999998213019246954,
    (3, 10.0, 0.01, 0.25): 0.9999999907146024657143,
    (10, 10.0, 0.01, 0.01): 1.0,
    (10, 10.0, 0.01, 0.25): 1.0,
}


def test_elastic_gamma_series_holds_the_oracles():
    # measured <= 1.2e-12 (k = 10, alpha/lam = 1e-3, t = 5; the Cauchy-product
    # recurrence it replaced: 1.9e-13), scalar and array
    for (k, alpha, lam, t), want in ELASTIC_GAMMA_SERIES.items():
        m = rx.ElasticGamma(k=k, alpha=alpha, lam=lam)
        assert abs(m._psi(t) - want) < 1e-10, (m, t)
        assert abs(rx._series_psi(m, t) - want) < 1e-10, (m, t)
        assert abs(rx._series_psi(m, np.array([t, 2.0 * t]))[0] - want) < 1e-10, (m, t)


@pytest.mark.parametrize("alpha", [0.8, 1.1])
def test_elastic_gamma_series_sums_no_mittag_leffler_series(monkeypatch, alpha):
    def refuse(*args, **kwargs):
        raise AssertionError("ElasticGamma summed a Mittag-Leffler or outer series")

    monkeypatch.setattr(rx, "_gml_raw", refuse)
    m = rx.ElasticGamma(k=2, alpha=alpha, lam=1.1)
    ts = np.array([0.25, 1.0, 4.0, 40.0])  # the series fails at t = 40
    scalar = [rx._series_psi(m, t) for t in ts.tolist()]
    assert np.max(np.abs(rx._series_psi(m, ts) - scalar)) <= 1e-13


def test_elastic_gamma_series_agrees_with_psi_over_wide_ranges():
    # k 1-10, alpha and lam log-uniform on [1e-3, 1e3], t on [1e-8, 1e8];
    # measured <= 2.4e-11 wherever both answer, at 1,116 points, where the
    # Cauchy-product recurrence it replaced answered at 1,114
    rng = np.random.default_rng(21)
    answered = 0
    for _ in range(60):
        m = rx.ElasticGamma(k=int(rng.integers(1, 11)), alpha=10.0 ** rng.uniform(-3.0, 3.0),
                            lam=10.0 ** rng.uniform(-3.0, 3.0))
        ts = 10.0 ** rng.uniform(-8.0, 8.0, 40)
        series = m._psi(ts)
        for t, v in zip(ts.tolist(), series.tolist()):
            if math.isnan(v):
                continue
            try:
                want = rx.psi(m, t)
            except Unstable:
                continue
            assert abs(v - want) <= 1e-9, (m, t)
            answered += 1
    assert answered >= 1114


# psi(t) of Distributed(nu1, nu2, n1, 1 - n1, 1) from tests/gen_oracles.py
# (mpmath Talbot inversion at 40 digits): (nu1, nu2, n1, t) -> value, at
# times where its series answers, a close pair (delta = 0.06) included
DISTRIBUTED_SERIES = {
    (0.05, 0.7, 0.1, 0.25): 0.6608568358125938017255,
    (0.05, 0.7, 0.1, 4.0): 0.2022125026556987860079,
    (0.05, 0.7, 0.5, 0.01): 0.9201981789999568522661,
    (0.05, 0.7, 0.5, 0.25): 0.5809429035788430213399,
    (0.05, 0.7, 0.9, 1e-06): 0.9993065153096506139305,
    (0.05, 0.7, 0.9, 0.01): 0.7428887778435259914648,
    (0.05, 0.95, 0.1, 0.25): 0.7441080840667156521184,
    (0.05, 0.95, 0.1, 4.0): 0.109400934032988002249,
    (0.05, 0.95, 0.5, 0.01): 0.9748707450738998384697,
    (0.05, 0.95, 0.5, 0.25): 0.6373327273563780434558,
    (0.05, 0.95, 0.9, 1e-06): 0.9999796383271513740164,
    (0.05, 0.95, 0.9, 0.01): 0.8886624751003281335605,
    (0.05, 1.0, 0.1, 0.25): 0.7610207165704258655283,
    (0.05, 1.0, 0.1, 4.0): 0.09234995738672905769484,
    (0.05, 1.0, 0.5, 0.01): 0.9803280848033445403197,
    (0.05, 1.0, 0.5, 0.25): 0.6525225318023459805025,
    (0.05, 1.0, 0.9, 1e-06): 0.9999900001439784308452,
    (0.05, 1.0, 0.9, 0.01): 0.9101624442261996672537,
    (0.3, 0.7, 0.1, 0.25): 0.666070044549847260093,
    (0.3, 0.7, 0.1, 4.0): 0.1827466173311713211838,
    (0.3, 0.7, 0.5, 0.01): 0.9269972241881896473951,
    (0.3, 0.7, 0.5, 0.25): 0.6160733441574701807798,
    (0.3, 0.7, 0.9, 1e-06): 0.9993269144492895791735,
    (0.3, 0.7, 0.9, 0.01): 0.83616969633959943843,
    (0.3, 0.95, 0.1, 0.25): 0.7470221845150665495351,
    (0.3, 0.95, 0.1, 4.0): 0.08545216932737041319587,
    (0.3, 0.95, 0.5, 0.01): 0.9754894372119709868696,
    (0.3, 0.95, 0.5, 0.25): 0.6656838465307928605026,
    (0.3, 0.95, 0.9, 1e-06): 0.9999796537214351850386,
    (0.3, 0.95, 0.9, 0.01): 0.9083966918859661194361,
    (0.3, 1.0, 0.1, 0.25): 0.7635138916743506751454,
    (0.3, 1.0, 0.1, 4.0): 0.06734037450166417626992,
    (0.3, 1.0, 0.5, 0.01): 0.9806962847247927089349,
    (0.3, 1.0, 0.5, 0.25): 0.6784013951972798169055,
    (0.3, 1.0, 0.9, 1e-06): 0.9999900037251184009075,
    (0.3, 1.0, 0.9, 0.01): 0.9229776862578578523072,
    (0.89, 0.95, 0.1, 0.25): 0.7603086229587420493254,
    (0.89, 0.95, 0.1, 4.0): 0.04415522065210996809705,
    (0.89, 0.95, 0.5, 0.01): 0.9853567489305949358285,
    (0.89, 0.95, 0.5, 0.25): 0.7523318326389790414611,
}


def test_distributed_series_holds_the_oracles():
    # measured <= 4.8e-14, scalar and array (the outer series: 6.4e-14)
    for (nu1, nu2, n1, t), want in DISTRIBUTED_SERIES.items():
        m = rx.Distributed(nu1=nu1, nu2=nu2, n1=n1, n2=1.0 - n1, lam=1.0)
        assert abs(m._psi(t) - want) < 1e-10, (m, t)
        assert abs(m._psi(np.array([t, 2.0 * t]))[0] - want) < 1e-10, (m, t)


def _elastic_gamma_draw(rng):
    # (rule, params, x, q, lead of x and q) for one ElasticGamma law
    k = int(rng.integers(1, 11))
    y, a = 10.0 ** rng.uniform(-3.0, 1.5, (2, 50))
    a[:5] = y[:5]  # equal rates
    return rx._elastic_gamma_logs, (float(k),), a, y, lambda x, q: k * rx._log(q)


def _distributed_draw(rng):
    nu1 = rng.uniform(0.01, 0.95)
    nu2 = nu1 + (1.0 - nu1) * (1.0 - rng.random())
    x, q = 10.0 ** rng.uniform(-3.0, 1.5, (2, 50))
    q[:5] = x[:5]  # both tables give c_n there
    return rx._two_order_logs, (nu1, nu2), x, q, lambda x, q: rx._log(x)


@pytest.mark.parametrize("draw, seed, laws, least, most", [
    (_elastic_gamma_draw, 12, 40, 400, 1900),
    (_distributed_draw, 13, 25, 300, 1000),
], ids=["elastic-gamma", "distributed"])
def test_degree_rows_make_the_scalar_gate_decisions(draw, seed, laws, least, most):
    # rows that pass agree within their bounds, rows that fail are NaN
    # with bound inf, row by row as the scalar series decides
    rng = np.random.default_rng(seed)
    passed = 0
    for _ in range(laws):
        rule, params, x, q, lead = draw(rng)
        values, bounds, ok = rx._degree_series(rule, params, x, q, lead(x, q))
        for i in range(x.size):
            xi, qi = float(x[i]), float(q[i])
            v, b, good = rx._degree_series(rule, params, xi, qi, lead(xi, qi))
            assert ok[i] == good, (params, xi, qi)
            if good:
                # the terms round as in the scalar form but for numpy's exp
                # and log and the order of the table products
                assert abs(values[i] - v) <= b + bounds[i]
                assert abs(bounds[i] - b) <= 1e-12 * b
            else:
                assert math.isnan(values[i]) and bounds[i] == math.inf
        passed += int(ok.sum())
    assert least <= passed <= most  # both gates are exercised


@pytest.mark.parametrize("nu1, nu2", [(0.5, 1.0), (0.3, 0.9), (0.89, 0.95)])
def test_distributed_series_sums_no_mittag_leffler_series(monkeypatch, nu1, nu2):
    def refuse(*args, **kwargs):
        raise AssertionError("Distributed summed a Mittag-Leffler series")

    monkeypatch.setattr(rx, "_gml_raw", refuse)
    monkeypatch.setattr(rx, "mittag_leffler", refuse)
    m = rx.Distributed(nu1=nu1, nu2=nu2, n1=0.4, n2=0.6, lam=1.3)
    ts = np.array([0.25, 1.0, 4.0, 400.0])  # the series fails at t = 400
    scalar = [rx._series_psi(m, t) for t in ts.tolist()]
    assert np.max(np.abs(rx._series_psi(m, ts) - scalar)) <= 1e-13


def test_distributed_series_agrees_with_psi_over_wide_ranges():
    # nu1 on [0.01, 0.95], nu2 on (nu1, 1] (1 for every fourth law), n1 on
    # [0.01, 0.99], lam log-uniform on [1e-3, 1e3], t on [1e-8, 1e8];
    # measured <= 5.0e-11 wherever both answer, at 994 points, where the
    # outer series of Prabhakar series it replaced answered at 993
    rng = np.random.default_rng(21)
    answered = 0
    for i in range(60):
        nu1 = rng.uniform(0.01, 0.95)
        nu2 = 1.0 if i % 4 == 0 else nu1 + (1.0 - nu1) * (1.0 - rng.random())
        n1 = rng.uniform(0.01, 0.99)
        m = rx.Distributed(nu1=nu1, nu2=nu2, n1=n1, n2=1.0 - n1, lam=10.0 ** rng.uniform(-3.0, 3.0))
        ts = 10.0 ** rng.uniform(-8.0, 8.0, 40)
        for t, v in zip(ts.tolist(), m._psi(ts).tolist()):
            if math.isnan(v):
                continue
            try:
                want = rx.psi(m, t)
            except Unstable:
                continue
            assert abs(v - want) <= 1e-9, (m, t)
            answered += 1
    assert answered >= 993


def test_gamma_boundary_series_hands_over_where_its_power_overflows():
    # (lam sqrt(t))**k = 1e400 is past the float range: the series fails its
    # gate, at a float time as on an array, and the contour answers
    m = rx.GammaBoundary(k=10, lam=1e40)
    with pytest.raises(NonConvergence):
        m._psi(1.0)
    assert math.isnan(m._psi(np.array([1.0]))[0])
    assert rx._series_psi(m, 1.0) == rx.psi(m, 1.0) == 0.0


def test_series_arrays_raise_no_overflow_warning():
    # an outer coefficient once overflowed past a row's last gate, and
    # ElasticGamma's double series warned at these points
    calls = [
        (rx.ElasticGamma(k=10, alpha=395.9102775906784, lam=0.001082446359492744), 9.538061637775755e-4),
        (rx.ElasticGamma(k=7, alpha=173.02512206615594, lam=0.01197808485289709), 5.1602969317280116e-3),
        (rx.Distributed(nu1=0.1, nu2=1.0, n1=0.5, n2=0.5, lam=1e-300), 1e6),
        (rx.GammaBoundary(k=10, lam=1e40), 1.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [rx._series_psi(m, np.array([t]))[0] for m, t in calls]
    assert all(abs(v - rx.psi(m, t)) <= 1e-9 for v, (m, t) in zip(values, calls))


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


@pytest.mark.parametrize("call", [
    lambda v: rx.psi(rx.Standard(lam=1.0), v),
    lambda v: rx.psi(rx.Standard(lam=1.0), -v),
    lambda v: rx.asymptote(rx.Fractional(nu=0.5, lam=1.0), rx.LargeT, v),
    lambda v: rx.Standard(lam=v),
    lambda v: rx.Fractional(nu=v, lam=1.0),
    lambda v: rx.Distributed(nu1=0.5, nu2=1.0, n1=v, n2=0.5, lam=1.0),
], ids=["psi", "psi-negative", "asymptote", "Standard-lam", "Fractional-nu", "Distributed-n1"])
def test_an_int_past_the_float_range_is_a_domain_error(call):
    # float(10**400) overflows: these raised OverflowError
    with pytest.raises(DomainError):
        call(10**400)


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
    # the series evaluator, so that the contour is held against the series;
    # its array form agrees with scalar calls (test_array_series_psi_matches_scalar_calls)
    want = rx._series_psi(m, ts)
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


# verify's sample sets: the residual grid (h = 1/16, n = 32, four levels),
# the exp-sinh nodes of laplace_forward at eta = 0.5, and a log grid over
# the range the contour certifies
SERIES_SETS = {
    "residual-grid": np.arange(32 * 8 + 1) * (1.0 / 128.0),
    "exp-sinh-nodes": (fc._ES_SCALE / 0.5) * fc._ES_RULE[0],
    "log-grid": np.geomspace(1e-8, 1e8, 400),
}


@pytest.mark.parametrize("name", sorted(SERIES_SETS))
@pytest.mark.parametrize("m", ALL_LAWS, ids=lambda m: type(m).__name__)
def test_array_series_psi_matches_scalar_calls(monkeypatch, m, name):
    ts = SERIES_SETS[name]
    # the contour answers where the series fails: record where it ran, an
    # ndarray t being the array call and a float a scalar one
    array_calls, scalar_times = [], []
    invert = rx.laplace_invert

    def spy(F, t):
        if isinstance(t, np.ndarray):
            array_calls.append(t.tolist())
        else:
            scalar_times.append(t)
        return invert(F, t)

    monkeypatch.setattr(rx, "laplace_invert", spy)
    got = rx._series_psi(m, ts)
    want = np.array([rx._series_psi(m, t) for t in ts.tolist()])
    # the failed points go to one contour, and they are the scalar path's
    assert len(array_calls) <= 1
    assert sum(array_calls, []) == scalar_times
    # measured: <= 4.2e-13 (GammaBoundary at the exp-sinh nodes)
    assert got.shape == ts.shape
    assert np.max(np.abs(got - want)) <= 1e-11
    if not m._contour_first:
        assert got.tolist() == want.tolist()


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


def _count_calls(monkeypatch, cls, sizes, series_calls):
    """Record the size of each transform call and count the series calls of ``cls``."""
    laplace, series = cls._laplace, cls._psi
    monkeypatch.setattr(cls, "_laplace", lambda self, s: sizes.append(s.size) or laplace(self, s))
    monkeypatch.setattr(cls, "_psi", lambda self, t: series_calls.append(t) or series(self, t))


def test_array_psi_raises_where_the_contour_fails(monkeypatch):
    sizes, series_calls = [], []
    _count_calls(monkeypatch, _Poisoned, sizes, series_calls)
    ts = np.array([0.5, 1.0, 2.0])
    m = _Poisoned(nu=0.5, lam=1.0)
    # t = 1 does not certify: raise, return nothing, and never sum the series
    with pytest.raises(Unstable, match="t=1.0: the transform is not finite"):
        rx.psi(m, ts)
    # one transform call on both contours of every time
    assert sizes == [3 * 48]
    assert series_calls == []
    assert np.array_equal(rx.psi(m, ts[[0, 2]]), rx.psi(rx.Fractional(nu=0.5, lam=1.0), ts[[0, 2]]))


def test_scalar_psi_raises_where_the_contour_fails(monkeypatch):
    # the transform is NaN on the contour at t = 1; the series would answer
    # there, but psi is the contour or Unstable
    m = _Poisoned(nu=0.5, lam=1.0)
    assert rx._series_psi(m, 1.0) == mittag_leffler(MLParams(0.5), -1.0)
    sizes, series_calls = [], []
    _count_calls(monkeypatch, _Poisoned, sizes, series_calls)
    with pytest.raises(Unstable, match="t=1.0: the transform is not finite"):
        rx.psi(m, 1.0)
    assert sizes == [48]
    assert series_calls == []
    assert rx.psi(m, 2.0) == rx.psi(rx.Fractional(nu=0.5, lam=1.0), 2.0)


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
