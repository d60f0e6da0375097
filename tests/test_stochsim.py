"""Crossing estimators: determinism, densities, quadrature, statistics.

Quadrature references come from tests/gen_oracles.py; statistical checks
use the |z| <= 4 gate at 1e5 paths (measured worst |z| = 2.6 at the
default seed, so a failure here signals a real regression, not noise).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import frax.relaxation as rx
import frax.stochsim as ss
from frax.errors import DomainError, Unsupported
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
    # quad's own error estimate (~5e-15 here) understates its real error;
    # the reported stderr is floored at the tolerance quad was asked for
    est = ss.quadrature_crossing(ss.WrightTime(nu=0.3), ss.Exponential(lam=1.0), 4.0)
    assert est.stderr >= 1e-10


def test_quadrature_wright_gamma_boundary():
    # Erlang boundary: survivor gammaincc against the half-order density
    # must reproduce the gamma-boundary law
    for t in (0.5, 2.0):
        est = ss.quadrature_crossing(ss.WrightTime(nu=0.5), ss.Gamma(k=2, lam=1.0), t)
        want = rx.psi(rx.GammaBoundary(k=2, lam=1.0), t)
        assert abs(est.p_hat - want) < 1e-9


def test_quadrature_unsupported_combinations():
    with pytest.raises(Unsupported):
        ss.quadrature_crossing(ss.AiryTime(), ss.Gamma(k=2, lam=1.0), 1.0)
    with pytest.raises(Unsupported):
        ss.quadrature_crossing(ss.ReflectedBM(), ss.Exponential(lam=1.0), 1.0)


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
]


@pytest.mark.parametrize("spec, boundary, model", MC_CASES,
                         ids=lambda v: type(v).__name__)
def test_monte_carlo_matches_closed_form(spec, boundary, model):
    for t in (0.25, 1.0):
        est = ss.estimate_crossing(spec, boundary, t, 100_000)
        want = rx.psi(model, t)
        z = (est.p_hat - want) / est.stderr
        assert abs(z) <= 4.0
