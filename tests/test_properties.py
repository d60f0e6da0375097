"""Property-based invariants of the laws and evaluators."""

import argparse
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import frax.cli as cli
import frax.relaxation as rx
import frax.stochsim as ss
from frax.errors import NonConvergence
from frax.fraccalc import caputo_l1, laplace_invert
from frax.specfun import MLParams, gml, mittag_leffler, wright_m

COMMON = settings(max_examples=60, deadline=None)

orders = st.floats(min_value=0.1, max_value=1.0)
betas = st.floats(min_value=0.5, max_value=3.0)
args = st.floats(min_value=-5.0, max_value=5.0)
times = st.floats(min_value=1e-3, max_value=50.0)
rates = st.floats(min_value=0.1, max_value=5.0)


@COMMON
@given(alpha=orders, beta=betas, z=args)
def test_unit_exponent_reduction(alpha, beta, z):
    # the three-parameter function at exponent 1 is the two-parameter
    # function: they converge together and agree to 1e-12 * (1 + |v|)
    # (worst measured 2.4e-13 on a dense box scan)
    try:
        a = gml(MLParams(alpha, beta, 1.0), z)
    except NonConvergence:
        a = None
    try:
        b = mittag_leffler(MLParams(alpha, beta), z)
    except NonConvergence:
        b = None
    if a is None:
        assume(False)  # cancelled series: nothing to compare
    assert b is not None, "two-parameter form must cover the series range"
    assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


@COMMON
@given(alpha=st.floats(min_value=0.1, max_value=0.95), x=st.floats(min_value=0.0, max_value=30.0))
def test_ml_negative_axis_stays_in_unit_interval(alpha, x):
    v = mittag_leffler(MLParams(alpha), -x)
    assert 0.0 < v <= 1.0


@COMMON
@given(nu=st.floats(min_value=0.01, max_value=0.98), x=st.floats(min_value=0.0, max_value=50.0))
def test_wright_density_is_nonnegative(nu, x):
    assert wright_m(nu, x) >= 0.0


def distributed_fixed(n1):
    return rx.Distributed(nu1=0.5, nu2=1.0, n1=n1, n2=1.0 - n1, lam=1.0)


MODELS_FOR_BOUNDS = st.one_of(
    st.builds(rx.Standard, lam=rates),
    st.builds(rx.Fractional, nu=st.floats(min_value=0.1, max_value=0.95), lam=rates),
    st.builds(rx.Sojourn, lam=rates),
    st.builds(rx.FirstPassage, lam=rates, n=st.integers(min_value=1, max_value=4)),
    st.builds(rx.BesselSq, gamma=st.floats(min_value=0.5, max_value=4.0), lam=rates),
    st.builds(rx.Elastic, alpha=rates, lam=rates),
    st.builds(rx.GammaBoundary, k=st.integers(min_value=1, max_value=3), lam=rates),
    st.builds(rx.ElasticGamma, k=st.integers(min_value=1, max_value=3), alpha=rates, lam=rates),
    st.builds(distributed_fixed, n1=st.floats(min_value=0.05, max_value=0.95)),
)


@COMMON
@given(model=MODELS_FOR_BOUNDS, t=times)
def test_psi_stays_in_unit_interval(model, t):
    v = rx.psi(model, t)
    assert 0.0 <= v <= 1.0


# the elastic laws are excluded: killing sends paths to the origin, which
# always counts as crossed, so their psi dips and then climbs back to one
MONOTONE_MODELS = st.one_of(
    st.builds(rx.Standard, lam=rates),
    st.builds(rx.Fractional, nu=st.floats(min_value=0.1, max_value=0.95), lam=rates),
    st.builds(rx.Sojourn, lam=rates),
    st.builds(rx.FirstPassage, lam=rates, n=st.integers(min_value=1, max_value=4)),
    st.builds(rx.BesselSq, gamma=st.floats(min_value=0.5, max_value=4.0), lam=rates),
    st.builds(rx.GammaBoundary, k=st.integers(min_value=1, max_value=3), lam=rates),
    st.builds(distributed_fixed, n1=st.floats(min_value=0.05, max_value=0.95)),
)


@COMMON
@given(model=MONOTONE_MODELS, t1=times, t2=times)
def test_psi_is_nonincreasing(model, t1, t2):
    # survival-type laws never increase; allow one part in 1e9 of
    # numerical slack where an inversion fallback engages
    lo, hi = sorted((t1, t2))
    assume(hi > lo * (1.0 + 1e-9))
    assert rx.psi(model, hi) <= rx.psi(model, lo) + 1e-9


def test_elastic_law_dips_then_recovers():
    # the killed mass (endpoint at the origin, always below the boundary)
    # accumulates toward one, so the elastic law is not monotone: it falls
    # to an interior minimum and climbs back toward one
    m = rx.Elastic(alpha=1.0, lam=1.0)
    early, mid, late = rx.psi(m, 0.05), rx.psi(m, 1.0), rx.psi(m, 200.0)
    assert early > mid < late
    assert late > 0.9


@COMMON
@given(c=st.floats(min_value=-10.0, max_value=10.0),
       nu=st.floats(min_value=0.1, max_value=1.0))
def test_caputo_of_constant_vanishes(c, nu):
    assert np.max(np.abs(caputo_l1(np.full(9, c), 0.1, nu))) == 0.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       t=st.floats(min_value=0.1, max_value=4.0))
def test_estimate_deterministic_in_seed(seed, t):
    a = ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), t, 2000, seed=seed)
    b = ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), t, 2000, seed=seed)
    assert a == b


@COMMON
@given(start=st.floats(min_value=1e-3, max_value=10.0),
       factor=st.floats(min_value=1.001, max_value=100.0),
       count=st.integers(min_value=1, max_value=50),
       scale=st.sampled_from(["linear", "log"]))
def test_time_grid_span_is_sorted_within_bounds(start, factor, count, scale):
    stop = start * factor
    args = argparse.Namespace(t=None, t_start=start, t_stop=stop, t_count=count, t_scale=scale)
    ts = cli._time_grid(args)
    assert len(ts) == count
    assert all(b > a for a, b in zip(ts[:-1], ts[1:]))
    assert ts[0] >= start * (1.0 - 1e-12)
    assert ts[-1] <= stop * (1.0 + 1e-12)


@COMMON
@given(t=st.floats(min_value=0.05, max_value=20.0), lam=rates, k=st.integers(min_value=1, max_value=3))
def test_gamma_boundary_below_exponential_boundary(t, lam, k):
    # an Erlang(k) boundary is stochastically larger than its exponential
    # factor, so the crossing probability can only grow with k
    vals = [rx.psi(rx.GammaBoundary(k=j, lam=lam), t) for j in range(1, k + 1)]
    for a, b in zip(vals[:-1], vals[1:]):
        assert b >= a - 1e-7


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0**e)


def near_equal_elastic(lam, offset):
    return rx.Elastic(alpha=lam * (1.0 + offset), lam=lam)


def distributed_law(nu1, spread, n1, lam):
    nu2 = min(1.0, nu1 + spread * (1.0 - nu1))
    return rx.Distributed(nu1=nu1, nu2=nu2, n1=n1, n2=1.0 - n1, lam=lam)


def elastic_gamma_law(k, ratio, lam):
    return rx.ElasticGamma(k=k, alpha=ratio * lam, lam=lam)


# the five laws psi inverts on the contour, over the ranges where a scan of
# 42,400 extreme points found every one certified; ElasticGamma's alpha/lam
# spans [0.01, 100], the ratios eval-scatter draws (600,000 points of k = 1..10,
# lam = 0.01..100 and t = 1e-8..1e8 all certified there)
CONTOUR_LAWS = st.one_of(
    st.builds(rx.Fractional, nu=st.floats(min_value=0.005, max_value=0.999), lam=log_uniform(1e-3, 1e3)),
    st.builds(rx.Elastic, alpha=log_uniform(1e-3, 1e3), lam=log_uniform(1e-3, 1e3)),
    st.builds(near_equal_elastic, lam=log_uniform(1e-2, 1e2), offset=st.floats(min_value=-1e-6, max_value=1e-6)),
    st.builds(rx.GammaBoundary, k=st.integers(min_value=1, max_value=10), lam=log_uniform(1e-2, 1e2)),
    st.builds(elastic_gamma_law, k=st.integers(min_value=1, max_value=10), ratio=log_uniform(0.01, 100.0),
              lam=log_uniform(1e-2, 1e2)),
    st.builds(distributed_law, nu1=st.floats(min_value=0.02, max_value=0.99),
              spread=st.floats(min_value=0.01, max_value=1.0), n1=st.floats(min_value=0.01, max_value=0.99),
              lam=log_uniform(1e-2, 1e2)),
)


@COMMON
@given(model=CONTOUR_LAWS, t1=log_uniform(1e-8, 1e8), t2=log_uniform(1e-8, 1e8))
def test_contour_certifies_over_the_scanned_ranges(model, t1, t2):
    # laplace_invert raises Unstable where the contour does not certify, and
    # so does psi: this sweep is what guards psi's ranges, on the generic
    # path (the transform as a function of s) and on psi's
    for t in (t1, t2):
        laplace_invert(lambda s: rx.psi_laplace(model, s), t)
    batch = rx.psi(model, np.array([t1, t2]))
    assert abs(batch[0] - rx.psi(model, t1)) <= 1e-12
    assert abs(batch[1] - rx.psi(model, t2)) <= 1e-12
