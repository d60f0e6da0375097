"""Crossing estimators: determinism, densities, quadrature, statistics.

Quadrature references come from tests/gen_oracles.py; statistical checks
use the |z| <= 4 gate at 1e5 paths (measured worst |z| = 2.6 at the
default seed, so a failure here signals a real regression, not noise).
"""

import math
import tracemalloc
import typing
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import frax.relaxation as rx
import frax.stochsim as ss
from frax.errors import DomainError, NonConvergence, Unsupported
from frax.specfun import MLParams, mittag_leffler


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_process_spec_validation():
    with pytest.raises(DomainError):
        ss.IteratedBM(n=0)
    with pytest.raises(DomainError):
        ss.BesselSquared(gamma=0.0)
    with pytest.raises(DomainError):
        ss.ElasticBM(alpha=-1.0)
    with pytest.raises(DomainError):
        ss.WrightTime(nu=1.0)
    with pytest.raises(DomainError):
        ss.DistributedTime(n1=0.5, n2=0.6)  # weights must sum to one


@pytest.mark.parametrize("call", [
    lambda v: ss.density(ss.ReflectedBM(), v, 1.0),
    lambda v: ss.density(ss.ReflectedBM(), 1.0, v),
    lambda v: ss.elastic_atom(ss.ElasticBM(alpha=1.0), v),
    lambda v: ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), v, 1000),
    lambda v: ss.quadrature_crossing(ss.WrightTime(nu=0.5), ss.Exponential(lam=1.0), v),
    lambda v: ss.WrightTime(nu=v),
    lambda v: ss.Exponential(lam=v),
], ids=["density-y", "density-t", "elastic_atom", "estimate_crossing", "quadrature_crossing",
        "WrightTime-nu", "Exponential-lam"])
def test_an_int_past_the_float_range_is_a_domain_error(call):
    # float(10**400) overflows: these raised OverflowError
    with pytest.raises(DomainError):
        call(10**400)


def test_wright_order_is_a_real_stored_as_float():
    for nu in ("0.5", True):
        with pytest.raises(DomainError):
            ss.WrightTime(nu=nu)
    spec = ss.WrightTime(nu=np.float32(0.3))
    assert type(spec.nu) is float and spec == ss.WrightTime(nu=float(np.float32(0.3)))


def test_boundary_spec_validation():
    with pytest.raises(DomainError):
        ss.Exponential(lam=0.0)
    with pytest.raises(DomainError):
        ss.Gamma(k=0, lam=1.0)


def test_estimate_argument_validation():
    with pytest.raises(DomainError):
        ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0, 999)
    with pytest.raises(DomainError):
        ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 0.0, 10_000)
    with pytest.raises(DomainError):
        # density-only process: no exact path sampler
        ss.estimate_crossing(ss.WrightTime(nu=0.5), ss.Exponential(lam=1.0), 1.0, 10_000)


@pytest.mark.parametrize("call, message", [
    (lambda: ss.quadrature_crossing(ss.WrightTime(0.5), "x", 1.0),
     "quadrature_crossing requires a boundary spec, got str"),
    (lambda: ss.estimate_crossing(ss.ReflectedBM(), None, 1.0, 1000),
     "estimate_crossing requires a boundary spec, got NoneType"),
    (lambda: ss.density("x", 0.5, 1.0), "density requires a process spec, got str"),
    (lambda: ss.elastic_atom(ss.ReflectedBM(), 1.0), "elastic_atom requires an ElasticBM, got ReflectedBM"),
], ids=["quadrature_crossing", "estimate_crossing", "density", "elastic_atom"])
def test_a_spec_of_the_wrong_type_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_all_survive_estimate_keeps_a_nonzero_stderr():
    est = ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1e-12, 1000)
    assert est.p_hat == 1.0
    # half a count: p = 1 - 0.5/1000
    assert math.isclose(est.stderr, math.sqrt(0.5 / 1000 * (1.0 - 0.5 / 1000) / 1000), rel_tol=1e-14)
    assert abs(est.z_score(rx.psi(rx.Fractional(nu=0.5, lam=1.0), 1e-12))) < 1e-2
    assert abs(est.z_score(0.5)) > 4.0
    none = ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1e9), 1e9, 1000)
    assert none.p_hat == 0.0
    assert math.isclose(none.stderr, est.stderr, rel_tol=1e-14)
    assert none.z_score(0.5) < -4.0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_estimate_is_deterministic():
    a = ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0, 50_000, seed=7)
    b = ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0, 50_000, seed=7)
    assert a == b
    c = ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0, 50_000, seed=8)
    assert c.p_hat != a.p_hat


def test_estimate_independent_of_thread_count(monkeypatch):
    # paths are processed in fixed 2**18 blocks with per-block streams, so
    # the count must not depend on the executor layout
    n = 300_000  # spans two blocks
    monkeypatch.setenv("FRAX_THREADS", "1")
    a = ss.estimate_crossing(ss.SojournTime(), ss.Exponential(lam=1.0), 1.0, n)
    monkeypatch.setenv("FRAX_THREADS", "4")
    b = ss.estimate_crossing(ss.SojournTime(), ss.Exponential(lam=1.0), 1.0, n)
    assert a == b


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**64, "1", None], ids=repr)
def test_estimate_rejects_a_seed_that_is_not_a_64_bit_integer(seed):
    with pytest.raises(DomainError, match="seed"):
        ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0, 1000, seed=seed)


def test_estimate_takes_any_64_bit_seed():
    def run(seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0, 1000, seed=seed)

    est = run(np.uint64(2**64 - 1))
    assert type(est.seed) is int and est.seed == 2**64 - 1
    assert est == run(2**64 - 1)
    # seeds above 2**63 key their own streams (not rounded through a float)
    assert run(2**63).p_hat != run(2**63 + 1).p_hat
    assert type(run(np.int64(0)).seed) is int


def test_estimate_fields():
    est = ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0, 10_000, seed=3)
    assert est.n_paths == 10_000
    assert est.seed == 3
    assert est.method == "monte_carlo"
    assert 0.0 <= est.p_hat <= 1.0
    assert est.stderr > 0.0


# ---------------------------------------------------------------------------
# several times in one call
# ---------------------------------------------------------------------------

SAMPLED = [row for row in ss.PAIRINGS if hasattr(row[1], "_sample")]
MULTI_PATHS = 2 * 2**18 + 1000  # three blocks, the last one partial
MULTI_TIMES = (1e-12, 0.7, 1e9)


@pytest.mark.parametrize("name, spec, boundary", SAMPLED, ids=[row[0] for row in SAMPLED])
def test_one_draw_per_block_gives_every_single_time_estimate(name, spec, boundary, monkeypatch):
    # a multi-time call maps one draw per block to each time, so each of
    # its estimates must be bit-for-bit the single-time estimate
    monkeypatch.setenv("FRAX_THREADS", "2")
    want = tuple(ss.estimate_crossing(spec, boundary, t, MULTI_PATHS, seed=9) for t in MULTI_TIMES)
    draws = []
    real_draw = type(boundary)._draw

    def spy(self, rng, size):
        draws.append(size)
        return real_draw(self, rng, size)

    monkeypatch.setattr(type(boundary), "_draw", spy)
    for threads in ("1", "2"):
        monkeypatch.setenv("FRAX_THREADS", threads)
        draws.clear()
        assert ss.estimate_crossing(spec, boundary, MULTI_TIMES, MULTI_PATHS, seed=9) == want
        assert sorted(draws) == [1000, 2**18, 2**18]  # once per block, not per block and time


def test_multi_time_peak_memory_does_not_grow_with_the_number_of_times(monkeypatch):
    monkeypatch.setenv("FRAX_THREADS", "1")
    spec, boundary = ss.ReflectedBM(), ss.Exponential(lam=1.0)

    def peak(ts):
        tracemalloc.start()
        try:
            ss.estimate_crossing(spec, boundary, ts, 2**18)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(1.0)
    assert one > 3 * 2**18 * 8  # the draw and the bounds are traced
    assert peak(np.linspace(0.5, 50.0, 200)) <= 2 * one


def test_multi_time_forms_and_their_results():
    spec, boundary = ss.ReflectedBM(), ss.Exponential(lam=1.0)
    one = ss.estimate_crossing(spec, boundary, 1.0, 1000)
    assert isinstance(one, ss.CrossingEstimate)
    for ts in ((1.0,), [1.0], np.array([1.0])):
        assert ss.estimate_crossing(spec, boundary, ts, 1000) == (one,)
    assert ss.crossing(spec, boundary, [np.float32(0.5), np.int64(2)], 1000) == (
        ss.estimate_crossing(spec, boundary, 0.5, 1000), ss.estimate_crossing(spec, boundary, 2.0, 1000))
    wright = ss.WrightTime(nu=0.3)
    assert ss.crossing(wright, boundary, (0.25, 4.0), 1000) == (
        ss.quadrature_crossing(wright, boundary, 0.25), ss.quadrature_crossing(wright, boundary, 4.0))
    assert ss.crossing(wright, boundary, 4.0, 1000) == ss.quadrature_crossing(wright, boundary, 4.0)


@pytest.mark.parametrize("ts", [(), [], np.array([]), [1.0, True], (1.0, "2"), [1.0, 0],
                                [0.5, math.nan], (math.inf,), np.array([1.0, -1.0]), np.ones((2, 2))],
                         ids=repr)
def test_multi_time_arguments_are_checked_before_any_draw(ts, monkeypatch):
    drawn = []
    monkeypatch.setattr(ss.ReflectedBM, "_sample", lambda self, rng, size: drawn.append(size))
    with pytest.raises(DomainError, match="^estimate_crossing requires"):
        ss.estimate_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), ts, 1000)
    with pytest.raises(DomainError, match="^quadrature_crossing requires"):
        ss.crossing(ss.WrightTime(nu=0.3), ss.Exponential(lam=1.0), ts, 1000)
    assert drawn == []


# ---------------------------------------------------------------------------
# the exact draws, checked without psi
# ---------------------------------------------------------------------------

DRAW_SIZE = 2**16


def draw_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def settled(spec, draw, bounds, t) -> int:
    """How many paths end below their bounds at t, by the threshold hook."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return int(spec._settle(draw, bounds)(t))


def within_ulps(spec, draw, t, centre, k) -> bool:
    """Whether the threshold hook puts every endpoint at t within k ulps of
    ``centre``: each lies below centre + k ulps, and none below centre - k."""
    step = k * np.spacing(centre)
    return settled(spec, draw, centre + step, t) == centre.size and settled(spec, draw, centre - step, t) == 0


def test_sojourn_draw_follows_the_arcsine_law():
    u = ss.SojournTime()._sample(draw_rng(1), DRAW_SIZE)
    assert stats.kstest(u, lambda x: 2.0 / math.pi * np.arcsin(np.sqrt(x))).pvalue > 1e-3
    # the endpoint at t is t * u, to the rounding of the threshold
    for t in (3.0, 1e-300, 1e300):
        assert within_ulps(ss.SojournTime(), u, t, t * u, 2)


def test_elastic_maximum_and_its_gap_are_half_normal():
    # at t = 1, S and S - B each have the law of |B|
    s, rest, _clock = ss.ElasticBM(alpha=1.0)._sample(draw_rng(2), DRAW_SIZE)
    assert stats.kstest(s, stats.halfnorm.cdf).pvalue > 1e-3
    assert stats.kstest(rest, stats.halfnorm.cdf).pvalue > 1e-3


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 100.0])
@pytest.mark.parametrize("t", [1e-6, 1.0, 1e4])
def test_elastic_killed_fraction_matches_the_atom(alpha, t):
    # a killed path ends at 0, below the least positive bound; a surviving
    # one almost surely above it
    spec = ss.ElasticBM(alpha=alpha)
    killed = settled(spec, spec._sample(draw_rng(3), DRAW_SIZE), np.full(DRAW_SIZE, 5e-324), t)
    p = ss.elastic_atom(spec, t)
    z = (killed - DRAW_SIZE * p) / math.sqrt(DRAW_SIZE * p * (1.0 - p))
    assert abs(z) < 4.0, (killed, DRAW_SIZE * p)


def sequential_endpoints(zs, t, dtype):
    """The map s -> |Z| sqrt(2s) from s = t that IteratedBM's fold replaces."""
    s = dtype(t)
    for z in zs:
        s = np.abs(z.astype(dtype)) * np.sqrt(2 * s)
    return s


def ulps(a, b):
    return np.abs(a - b) / np.spacing(b)


# at n = 1 the fold is the step map but for pow(2t, 1/2) in place of sqrt(2t);
# the threshold bound / draw rounds once more, so every bracket gains an ulp
@pytest.mark.parametrize("n, to_sequential", [(1, 1), (2, 4)])
def test_folded_iterated_chain_matches_the_step_by_step_map(n, to_sequential):
    spec = ss.IteratedBM(n=n)
    folded = spec._sample(draw_rng(4), DRAW_SIZE)
    rng = draw_rng(4)
    zs = [rng.standard_normal(DRAW_SIZE) for _ in range(n)]
    for t in MULTI_TIMES:
        want = sequential_endpoints(zs, t, np.float64)
        exact = sequential_endpoints(zs, t, np.longdouble).astype(np.float64)
        assert within_ulps(spec, folded, t, want, to_sequential + 1)
        # and the fold is as accurate as the map it replaces, to 2 ulps
        assert within_ulps(spec, folded, t, exact, ulps(want, exact).max() + 2.0)
    ones = np.ones(DRAW_SIZE)
    for t in (1e-300, 1e300):
        assert settled(spec, folded, ones, t) == np.count_nonzero(sequential_endpoints(zs, t, np.float64) < 1.0)


# ---------------------------------------------------------------------------
# the thresholds against the per-time endpoint maps they replaced
# ---------------------------------------------------------------------------

def first_passage_endpoints(spec, zs, t):
    s = t
    for z in zs:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = (s / z) ** 2
    return s


def elastic_endpoints(spec, draw, t):
    s, rest, clock = draw
    root = math.sqrt(t)
    return np.where(clock <= root * s, 0.0, root * rest)


# each sampled process's endpoints at time t, as a map of its draw
ENDPOINTS = {
    ss.ReflectedBM: lambda spec, draw, t: draw * math.sqrt(2.0 * t),
    ss.IteratedBM: lambda spec, draw, t: draw * (2.0 * t) ** 0.5**spec.n,
    ss.SojournTime: lambda spec, draw, t: t * draw,
    ss.BesselSquared: lambda spec, draw, t: 2.0 * t * draw,
    ss.FirstPassageChain: first_passage_endpoints,
    ss.ElasticBM: elastic_endpoints,
}
EDGE_TIMES = (1e-300, 1e-12, 0.7, 1e9, 1e300)


def mapped(spec, draw, bounds, t) -> int:
    return int(np.count_nonzero(ENDPOINTS[type(spec)](spec, draw, t) < bounds))


def steps_of(spec, rng, size):
    """What the endpoint map of ``spec`` takes: its draw, or the chain's
    steps |Z_1| .. |Z_n| in draw order, which its draw folds."""
    if isinstance(spec, ss.FirstPassageChain):
        return [np.abs(rng.standard_normal(size)) for _ in range(spec.n)]
    return spec._sample(rng, size)


def folded(spec, steps):
    """What the threshold hook of ``spec`` takes of ``steps_of``."""
    if isinstance(spec, ss.FirstPassageChain):
        return ss.FirstPassageChain._fold([z.copy() for z in steps])
    return steps


@pytest.mark.parametrize("name, spec, boundary", SAMPLED, ids=[row[0] for row in SAMPLED])
def test_thresholds_count_what_the_endpoint_maps_count(name, spec, boundary):
    for seed in (5, 6):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0,))))
        steps = steps_of(spec, rng, DRAW_SIZE)
        bounds = boundary._draw(rng, DRAW_SIZE)
        for t in EDGE_TIMES:
            assert settled(spec, folded(spec, steps), bounds, t) == mapped(spec, steps, bounds, t), (seed, t)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_first_passage_draw_folds_its_steps_in_draw_order(n):
    # step i of the chain is the i-th normal draw; at n = 1 the draw is |Z|
    spec = ss.FirstPassageChain(n=n)
    steps = steps_of(spec, draw_rng(7), DRAW_SIZE)
    draw = spec._sample(draw_rng(7), DRAW_SIZE)
    assert np.array_equal(draw, folded(spec, steps))
    exponents = 0.5 ** np.arange(n)
    assert np.allclose(draw, np.prod(np.array(steps) ** exponents[:, None], axis=0), rtol=4 * n * 2.0**-52, atol=0.0)


def test_first_passage_block_memory_does_not_grow_with_n(monkeypatch):
    # each step is folded into the draw as it comes: a 2**18-path block
    # holds a few arrays of 2 MiB at n = 64 (measured 4.0; 66 when the
    # steps were kept)
    monkeypatch.setenv("FRAX_THREADS", "1")

    def peak(n):
        tracemalloc.start()
        try:
            ss.estimate_crossing(ss.FirstPassageChain(n=n), ss.Exponential(lam=1.0), 1.0, 2**18)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) <= 6 * 2**18 * 8


def one_path(draw, i):
    """Path i of a draw: an array, or a list or tuple of arrays."""
    if isinstance(draw, np.ndarray):
        return draw[i:i + 1]
    return type(draw)(part[i:i + 1] for part in draw)


def assert_each_path_agrees(spec, draw, bounds):
    with np.errstate(divide="ignore", invalid="ignore"):
        paths = [spec._settle(folded(spec, one_path(draw, i)), bounds[i:i + 1]) for i in range(bounds.size)]
    for t in EDGE_TIMES:
        want = ENDPOINTS[type(spec)](spec, draw, t) < bounds
        assert [bool(below(t)) for below in paths] == want.tolist(), (spec, t)


EDGE_BOUNDS = [0.0, 1e-200, 0.5, 2.0, 30.0]


@pytest.mark.parametrize("spec", [ss.ReflectedBM(), ss.IteratedBM(n=1), ss.IteratedBM(n=3), ss.SojournTime(),
                                  ss.BesselSquared(gamma=1.0)], ids=repr)
def test_thresholds_agree_on_zero_and_extreme_draws(spec):
    # a zero draw (|Z| = 0, sin**2 = 0, a zero gamma) ends at 0 at every t
    draw, bounds = (a.ravel() for a in np.meshgrid([0.0, 1e-200, 0.3, 1.0, 8.0], EDGE_BOUNDS))
    assert_each_path_agrees(spec, draw, bounds)


def test_elastic_thresholds_agree_on_zero_draws_and_clocks():
    # rest = 0 ends at 0 unkilled, a zero clock kills at once, and s = 0
    # never accrues local time
    s, rest, clock, bounds = (a.ravel() for a in np.meshgrid([0.0, 0.3, 2.0], [0.0, 0.3, 2.0], [0.0, 0.2, 3.0],
                                                              EDGE_BOUNDS))
    assert_each_path_agrees(ss.ElasticBM(alpha=1.0), (s, rest, clock), bounds)


@pytest.mark.parametrize("n", [8, 1024, 1100])  # 0.5**1099 underflows to 0
def test_first_passage_thresholds_agree_where_the_chain_leaves_the_float_range(n):
    # columns: unit steps (the level is t**(2**n)), a zero step first or
    # last (inf from there), a huge first step (the level underflows), a
    # huge last step, a tiny first step (it overflows) and seeded draws
    rng = np.random.default_rng(n)
    columns = [np.ones(n) for _ in range(6)] + list(np.abs(rng.standard_normal((4, n))))
    columns[1][0] = columns[2][-1] = 0.0
    columns[3][0], columns[4][-1], columns[5][0] = 1e200, 1e200, 1e-200
    zs = np.repeat(np.array(columns).T, len(EDGE_BOUNDS), axis=1)
    bounds = np.tile(EDGE_BOUNDS, len(columns))
    assert_each_path_agrees(ss.FirstPassageChain(n=n), list(zs), bounds)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_block_b_draws_the_sfc64_stream_spawned_with_key_b(seed, monkeypatch):
    # the streams are part of every pinned estimate: changing the generator
    # or its keying must fail here, not only in the parity rows
    monkeypatch.setenv("FRAX_THREADS", "1")
    spec, boundary = ss.ReflectedBM(), ss.Exponential(lam=1.0)
    n_paths, t = 2**18 + 1000, 0.7
    drawn = []

    def spy(real):
        def draw(self, rng, size):
            drawn.append(real(self, rng, size))
            return drawn[-1]
        return draw

    monkeypatch.setattr(ss.ReflectedBM, "_sample", spy(ss.ReflectedBM._sample))
    monkeypatch.setattr(ss.Exponential, "_draw", spy(ss.Exponential._draw))
    est = ss.estimate_crossing(spec, boundary, t, n_paths, seed=seed)
    below = 0
    for b, m in enumerate((2**18, 1000)):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))
        draw = np.abs(rng.standard_normal(m))
        bounds = rng.exponential(1.0, m)
        assert np.array_equal(drawn[2 * b], draw) and np.array_equal(drawn[2 * b + 1], bounds)
        below += np.count_nonzero(draw * math.sqrt(2.0 * t) < bounds)
    assert len(drawn) == 4
    assert est.p_hat == below / n_paths


# ---------------------------------------------------------------------------
# endpoint densities
# ---------------------------------------------------------------------------

def test_densities_are_normalized():
    t = 2.0
    cases = [
        (ss.ReflectedBM(), 60.0),
        (ss.BesselSquared(gamma=2.0), 200.0),
        (ss.WrightTime(nu=0.6), 30.0),
        (ss.AiryTime(), 60.0),
    ]
    for spec, hi in cases:
        val, _ = quad(lambda y: ss.density(spec, y, t), 0.0, hi, limit=300)
        assert abs(val - 1.0) < 1e-10
    # the arcsine density is singular at both endpoints
    val, _ = quad(lambda y: ss.density(ss.SojournTime(), y, t), 0.0, t,
                  limit=300, points=[0.0, t])
    assert abs(val - 1.0) < 1e-10
    for n1, n2 in ((0.2, 0.8), (0.5, 0.5), (0.8, 0.2)):
        spec = ss.DistributedTime(n1=n1, n2=n2)
        val, _ = quad(lambda y: ss.density(spec, y, t), 0.0, t / n2, limit=300)
        assert abs(val - 1.0) < 1e-10


def test_elastic_density_plus_atom_is_one():
    spec = ss.ElasticBM(alpha=0.8)
    t = 2.0
    val, _ = quad(lambda y: ss.density(spec, y, t), 0.0, 60.0, limit=300)
    assert abs(val + ss.elastic_atom(spec, t) - 1.0) < 1e-10


def test_elastic_atom_closed_form():
    # killed mass 1 - exp(a^2 t / 2) erfc(a sqrt(t/2))
    for alpha, t in ((0.5, 1.0), (1.5, 2.0)):
        x = alpha * math.sqrt(0.5 * t)
        want = 1.0 - math.exp(x * x) * math.erfc(x)
        assert abs(ss.elastic_atom(ss.ElasticBM(alpha=alpha), t) - want) < 1e-12


def test_time_validation_matches_psi():
    spec = ss.ElasticBM(alpha=0.7)
    want = ss.elastic_atom(spec, 1.0)
    assert ss.elastic_atom(spec, np.int64(1)) == want
    assert ss.elastic_atom(spec, np.float32(1.0)) == want
    for t in (True, "1", 0.0, math.inf):
        with pytest.raises(DomainError):
            ss.elastic_atom(spec, t)
    with pytest.raises(DomainError):
        ss.quadrature_crossing(ss.WrightTime(nu=0.5), ss.Exponential(lam=1.0), True)


def test_integer_specs_reject_bool_and_accept_numpy_integers():
    for build in (
        lambda: ss.Gamma(k=True, lam=1.0),
        lambda: ss.IteratedBM(n=True),
        lambda: ss.FirstPassageChain(n=True),
        lambda: ss.Exponential(lam=True),
    ):
        with pytest.raises(DomainError):
            build()
    g = ss.Gamma(k=np.int64(2), lam=np.float32(1.0))
    assert g == ss.Gamma(k=2, lam=1.0) and type(g.k) is int and type(g.lam) is float
    assert ss.ReflectedBM().law(g) == ss.ReflectedBM().law(ss.Gamma(k=2, lam=1.0))


def test_density_y_follows_the_time_rule():
    spec = ss.ReflectedBM()
    y = np.float32(0.5)
    assert ss.density(spec, y, 1.0) == ss.density(spec, float(y), 1.0)
    assert ss.density(spec, np.int64(1), 2.0) == ss.density(spec, 1.0, 2.0)
    for bad in (True, "0.5", math.nan):
        with pytest.raises(DomainError):
            ss.density(spec, bad, 1.0)


def test_estimate_path_count_is_an_integer():
    spec, boundary = ss.ReflectedBM(), ss.Exponential(lam=1.0)
    for bad in (1e4, True, 999, "10000"):
        with pytest.raises(DomainError):
            ss.estimate_crossing(spec, boundary, 1.0, bad)
    est = ss.estimate_crossing(spec, boundary, 1.0, np.int64(10_000))
    assert est == ss.estimate_crossing(spec, boundary, 1.0, 10_000)
    assert type(est.n_paths) is int


def test_density_outside_support_is_zero():
    assert ss.density(ss.ReflectedBM(), -0.5, 1.0) == 0.0
    assert ss.density(ss.SojournTime(), 1.5, 1.0) == 0.0
    assert ss.density(ss.DistributedTime(n1=0.5, n2=0.5), 2.1, 1.0) == 0.0


def test_density_is_a_python_float():
    # WrightTime's density once returned wright_m's numpy.float64
    specs = (ss.ReflectedBM(), ss.SojournTime(), ss.BesselSquared(gamma=3.0), ss.ElasticBM(alpha=0.8),
             ss.WrightTime(nu=0.3), ss.AiryTime(), ss.DistributedTime(n1=0.5, n2=0.5))
    for spec in specs:
        for y in (0.0, 0.3, 1.5):
            assert type(ss.density(spec, y, 1.0)) is float, (spec, y)


def test_density_unsupported():
    with pytest.raises(Unsupported):
        ss.density(ss.FirstPassageChain(n=1), 1.0, 1.0)


# ---------------------------------------------------------------------------
# quadrature crossing
# ---------------------------------------------------------------------------

def test_quadrature_wright_matches_relaxation():
    # measured agreement ~6e-15; frozen at 1e-9
    for nu in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0):
            est = ss.quadrature_crossing(ss.WrightTime(nu=nu), ss.Exponential(lam=1.0), t)
            want = mittag_leffler(MLParams(nu), -t**nu)
            assert abs(est.p_hat - want) < 1e-9
            assert est.method == "quadrature"


def test_quadrature_airy_is_one_third_order():
    est = ss.quadrature_crossing(ss.AiryTime(), ss.Exponential(lam=1.0), 1.0)
    # E_{1/3}(-1) from tests/gen_oracles.py
    assert abs(est.p_hat - 0.4517512323819965260079) < 1e-9


def test_quadrature_distributed_matches_relaxation():
    est = ss.quadrature_crossing(
        ss.DistributedTime(n1=0.5, n2=0.5), ss.Exponential(lam=1.0), 1.0
    )
    # two-order law at t = 1 from tests/gen_oracles.py
    assert abs(est.p_hat - 0.3775168250211103538149) < 1e-9


@pytest.mark.parametrize("t, want", [
    # two-order law at large t from tests/gen_oracles.py; integrating over
    # all of (0, t/n2) once returned 2.5e-95 and 0.0 at the last two
    (3e4, 0.001628695398538535119643),
    (1e5, 0.0008920654033300111266029),
    (1e6, 0.00028209489755949117467),
])
def test_quadrature_distributed_large_t(t, want):
    est = ss.quadrature_crossing(
        ss.DistributedTime(n1=0.5, n2=0.5), ss.Exponential(lam=1.0), t
    )
    assert abs(est.p_hat - want) < 1e-10


def test_quadrature_stderr_covers_requested_tolerance():
    # the gap between the two agreeing levels (~1e-15 here) understates the
    # real error; the reported stderr is floored at 1e-10
    est = ss.quadrature_crossing(ss.WrightTime(nu=0.3), ss.Exponential(lam=1.0), 4.0)
    assert est.stderr >= 1e-10


def test_quadrature_wright_gamma_boundary():
    # Erlang boundary: survivor gammaincc against the half-order density
    # must reproduce the gamma-boundary law
    for t in (0.5, 2.0):
        est = ss.quadrature_crossing(ss.WrightTime(nu=0.5), ss.Gamma(k=2, lam=1.0), t)
        want = rx.psi(rx.GammaBoundary(k=2, lam=1.0), t)
        assert abs(est.p_hat - want) < 1e-9


@pytest.mark.parametrize("spec, boundary, want", [
    # integrals of density * P(boundary > y) at 30 digits from tests/gen_oracles.py
    (ss.AiryTime(), ss.Gamma(k=2, lam=1.3),
     {0.25: 0.7654295778677947456084, 1.0: 0.6333726805750340811367, 4.0: 0.4884469149130433126926}),
    (ss.DistributedTime(n1=0.5, n2=0.5), ss.Gamma(k=2, lam=1.0),
     {0.25: 0.9447680182265946476728, 1.0: 0.6920356249916947121054, 4.0: 0.3202732503552425662615}),
], ids=["airytime", "distributedtime"])
def test_quadrature_gamma_boundary_without_a_closed_form(spec, boundary, want):
    for t, value in want.items():
        assert abs(ss.quadrature_crossing(spec, boundary, t).p_hat - value) < 1e-12


def test_quadrature_unsupported_combinations():
    with pytest.raises(Unsupported):
        ss.quadrature_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0)


def test_every_process_has_a_crossing_method():
    # crossing() simulates a process with a sampler and integrates the
    # others on their quadrature rule: each has exactly one of the two
    for cls in typing.get_args(ss.ProcessSpec):
        assert hasattr(cls, "_sample") != hasattr(cls, "_levels"), cls.__name__
    assert not hasattr(ss._Process, "_levels")


# the quadrature pairings, and a shape-10 gamma boundary, from t = 1e-10 to 1e8
SWEEP = [row[1:] for row in ss.PAIRINGS if not hasattr(row[1], "_sample")]
SWEEP.append((ss.WrightTime(nu=0.5), ss.Gamma(k=10, lam=1.0)))
# the ends of the order: at nu = 0.01 an adaptive density integral missed
# psi by up to 7.2e-11 (now 1.1e-13); nu = 0.98 is where a fixed rule
# must resolve the narrowest peak
SWEEP += [(ss.WrightTime(nu=nu), ss.Exponential(lam=1.0)) for nu in (0.01, 0.98)]
# near nu = 1 the shape density narrows to a peak at x = 1 and the rule's
# map narrows with it; an adaptive quad answered every time within 5e-14
SWEEP += [(ss.WrightTime(nu=nu), ss.Exponential(lam=1.0)) for nu in (0.9, 0.99, 0.999)]


@pytest.mark.parametrize("spec, boundary", SWEEP, ids=lambda v: repr(v).replace(" ", ""))
def test_quadrature_certifies_or_raises_over_wide_times(spec, boundary):
    # WrightTime once kept its limit at x = t**nu past the boundary's reach,
    # and read 2.5e-22 for 3.57e-4; DistributedTime returned 0.88 for
    # 0.999998 at t = 1e-6 with no warning, and later raised below t ~ 1e-5.
    # Every pairing must now answer at every t, and be right.
    law = spec.law(boundary)
    for t in np.geomspace(1e-10, 1e8, 10):
        got = ss.quadrature_crossing(spec, boundary, t).p_hat
        assert abs(got - rx.psi(law, t)) <= 1e-9, t


def _clear_shape_tables():
    ss._shape_range.cache_clear()
    ss._shape_level.cache_clear()


def test_quadrature_pairings_match_their_laws_from_fresh_shape_tables():
    # every quadrature pairing, its shape table built afresh, runs on fixed
    # rules alone (specfun.quad): an adaptive quad per M-Wright node once
    # made a point cost 6-28 ms.  That no adaptive rule can run is held by
    # test_cli.py::test_importing_the_cli_loads_no_adaptive_quadrature
    rows = [row for row in ss.PAIRINGS if not hasattr(row[1], "_sample")]
    assert len(rows) == 5
    _clear_shape_tables()
    for name, spec, boundary in rows:
        for t in (0.25, 1.0, 4.0):
            got = ss.quadrature_crossing(spec, boundary, t).p_hat
            assert abs(got - rx.psi(spec.law(boundary), t)) <= 1e-9, (name, t)


@pytest.mark.parametrize("spec", [ss.WrightTime(nu=0.3), ss.WrightTime(nu=0.5), ss.AiryTime()],
                         ids=repr)
def test_a_scale_family_evaluates_its_shape_once(spec, monkeypatch):
    # the shape density does not depend on t or the boundary: the first
    # call tabulates it, and a call at another time and boundary that needs
    # no finer level evaluates none of it
    calls = []
    wright_m, airy_ai = ss.wright_m, ss.airy_ai
    monkeypatch.setattr(ss, "wright_m", lambda nu, x: calls.append(x) or wright_m(nu, x))
    monkeypatch.setattr(ss, "airy_ai", lambda x: calls.append(x) or airy_ai(x))
    _clear_shape_tables()
    ss.quadrature_crossing(spec, ss.Exponential(lam=1.0), 1.0)
    assert len(calls) > 100
    del calls[:]
    boundary = ss.Gamma(k=2, lam=1.3)
    got = ss.quadrature_crossing(spec, boundary, 4.0).p_hat
    assert calls == []
    _clear_shape_tables()
    assert got == ss.quadrature_crossing(spec, boundary, 4.0).p_hat


def test_wright_quadrature_near_unit_order_leaves_out_only_negligible_nodes():
    # from nu = 0.9995 on, M_nu certifies by neither method at some x in
    # [0.83, 0.99]; the rule bounds those nodes by the boundary's survival
    # there, answers where that is far below the value, and raises the
    # density's own reason elsewhere
    spec, boundary = ss.WrightTime(nu=0.9995), ss.Exponential(lam=1.0)
    law = spec.law(boundary)
    for t in (100.0, 1e4, 1e6):  # psi is 5.1e-6 to 5.0e-10 here; measured gaps <= 4.0e-14
        assert abs(ss.quadrature_crossing(spec, boundary, t).p_hat - rx.psi(law, t)) <= 1e-11, t
    with pytest.raises(NonConvergence, match=r" at t=1\.0: wright_m: "):
        ss.quadrature_crossing(spec, boundary, 1.0)


def test_distributed_quadrature_raises_on_an_unresolved_spike():
    # the mass sits in a spike at a gap ~t**2 below y = t/n2: beyond the
    # rule's last node (5.8e-38 of t) at t = 1e-40, and past the float range
    # at t = 1e-300
    spec, boundary = ss.DistributedTime(n1=0.5, n2=0.5), ss.Exponential(lam=1.0)
    for t in (1e-40, 1e-300):
        with pytest.raises(NonConvergence, match=f"DistributedTime.*at t={t!r}"):
            ss.quadrature_crossing(spec, boundary, t)


@pytest.mark.parametrize("t", [1e-6, 1e-12, 1e-30])
def test_distributed_quadrature_resolves_the_spike_at_small_t(t):
    # an adaptive quad over (0, t/n2) raised below t ~ 1e-5; the tanh-sinh
    # nodes crowd toward the end of the support, where the spike is
    spec, boundary = ss.DistributedTime(n1=0.5, n2=0.5), ss.Exponential(lam=1.0)
    got = ss.quadrature_crossing(spec, boundary, t).p_hat
    assert abs(got - rx.psi(spec.law(boundary), t)) <= 1e-9


@pytest.mark.parametrize("t", [1e200, 1e250, 1e300])
def test_distributed_density_does_not_overflow_at_large_t(t):
    # gap**1.5 raised OverflowError from t ~ 1e205; the density is now
    # formed in logs.  Reference: the closed form in mpmath at 40 digits,
    # log n1 (t - n2 y/2) - log(pi)/2 - 3/2 log(gap) - n1**2 y**2 / (4 gap);
    # measured <= 1.7e-13 relative
    n1 = n2 = 0.5
    spec = ss.DistributedTime(n1=n1, n2=n2)
    for y in (1.0, 1e-3 * t, 1.9 * t):
        got = ss.density(spec, y, t)
        with mp.workdps(40):
            yy, tt = mp.mpf(y), mp.mpf(t)
            gap = tt - n2 * yy
            want = float(mp.exp(mp.log(n1 * (tt - n2 * yy / 2)) - mp.log(mp.pi) / 2 - 1.5 * mp.log(gap)
                                - n1**2 * yy**2 / (4 * gap)))
        assert math.isfinite(got) and got >= 0.0
        assert abs(got - want) <= 1e-12 * want, (y, got, want)


def test_distributed_density_holds_where_the_gap_is_tiny():
    # gap**1.5 underflows at both points (the gap t - n2*y is 7.5e-301 and
    # a subnormal 1.5e-316), where the density once returned 0.  Reference:
    # the closed form in mpmath at 50 digits; measured <= 2.8e-13 relative
    spec = ss.DistributedTime(n1=0.5, n2=0.5)
    for y, want in ((5e-301, 3.8002417592449326758e149), (math.nextafter(2e-300, 0.0), 6.6078967681266874948e172)):
        assert abs(ss.density(spec, y, 1e-300) - want) <= 1e-12 * want, y


def test_distributed_density_is_finite_at_subnormal_times():
    # the largest density of a float y and t sits one unit in the last
    # place of t from the support's end, below 1e177 (measured 5.7e176)
    for n1 in (0.5, 0.999999):
        spec = ss.DistributedTime(n1=n1, n2=1.0 - n1)
        for t in (5e-324, 1.5e-323, 1e-320, 2.2250738585072014e-308):
            end = t / spec.n2
            for y in (5e-324, 0.5 * end, math.nextafter(end, 0.0)):
                assert 0.0 <= ss.density(spec, y, t) < 1e177, (n1, y, t)


# ---------------------------------------------------------------------------
# statistical agreement (1e5 paths, |z| <= 4)
# ---------------------------------------------------------------------------

MC_CASES = [
    (ss.ReflectedBM(), ss.Exponential(lam=1.0), rx.Fractional(nu=0.5, lam=1.0)),
    (ss.IteratedBM(n=2), ss.Exponential(lam=1.0), rx.Fractional(nu=0.25, lam=1.0)),
    (ss.SojournTime(), ss.Exponential(lam=1.0), rx.Sojourn(lam=1.0)),
    (ss.FirstPassageChain(n=1), ss.Exponential(lam=1.0), rx.FirstPassage(lam=1.0, n=1)),
    (ss.BesselSquared(gamma=2.0), ss.Exponential(lam=1.0), rx.BesselSq(gamma=2.0, lam=1.0)),
    (ss.ElasticBM(alpha=1.0), ss.Exponential(lam=1.0), rx.Elastic(alpha=1.0, lam=1.0)),
    (ss.ReflectedBM(), ss.Gamma(k=2, lam=1.0), rx.GammaBoundary(k=2, lam=1.0)),
    (ss.ElasticBM(alpha=0.8), ss.Gamma(k=2, lam=1.1), rx.ElasticGamma(k=2, alpha=0.8, lam=1.1)),
]


@pytest.mark.parametrize("spec, boundary, model", MC_CASES,
                         ids=lambda v: type(v).__name__)
def test_monte_carlo_matches_closed_form(spec, boundary, model):
    for t in (0.25, 1.0):
        est = ss.estimate_crossing(spec, boundary, t, 100_000)
        want = rx.psi(model, t)
        z = (est.p_hat - want) / est.stderr
        assert abs(z) <= 4.0


@pytest.mark.parametrize("n, t, n_paths", [(8, 0.03, 100_000), (1024, 1.0, 4096)])
def test_deep_first_passage_chain_matches_its_law(n, t, n_paths):
    # the chain's level leaves the float range within a few steps; at inf or
    # 0 it stays there, on the side of the boundary its exact value lies
    est = ss.estimate_crossing(ss.FirstPassageChain(n=n), ss.Exponential(lam=1.0), t, n_paths)
    assert abs(est.z_score(rx.psi(rx.FirstPassage(lam=1.0, n=n), t))) <= 4.0
