"""Fractional-calculus toolbox: L1 scheme, product integral, transforms.

Reference coefficients come from tests/gen_oracles.py; tolerances are
frozen from measured deviations with a 10-100x margin.
"""

import math

import numpy as np
import pytest

from frax.errors import DomainError, Unstable, Unsupported
from frax.fraccalc import (
    caputo_l1,
    laplace_forward,
    laplace_invert,
    ode_residual,
    rl_integral,
)
import frax.fraccalc as fc
import frax.relaxation as rx
from frax.relaxation import (
    Distributed,
    Elastic,
    ElasticGamma,
    Fractional,
    GammaBoundary,
    Sojourn,
    Standard,
)

# Gamma(2) / Gamma(2.5): exact coefficient of t^1.5 in the half-order
# integral of f(t) = t (tests/gen_oracles.py)
HALF_INTEGRAL_OF_T = 0.7522527780636750492641


def _nodes(h, n):
    """The nodes 0, h, ..., n*h, each computed as i*h."""
    return np.arange(n + 1) * h


def _direct_caputo(f, h, nu):
    # the L1 sum written out node by node, for nu < 1 (0 ** 0.0 is 1)
    w = [(j + 1.0) ** (1.0 - nu) - j ** (1.0 - nu) for j in range(len(f) - 1)]
    scale = h ** (-nu) / math.gamma(2.0 - nu)
    return [
        scale * sum(w[j] * (f[m - j] - f[m - j - 1]) for j in range(m))
        for m in range(1, len(f))
    ]


# ---------------------------------------------------------------------------
# sample arrays
# ---------------------------------------------------------------------------

def test_grid_validation():
    # the samples f(0), f(h), ..., f(nh) need h > 0 and n >= 8, all finite, in 1-D
    for op in (caputo_l1, rl_integral):
        assert op(np.zeros(9), 0.1, 0.5).shape == (8,)
        for values, h in (
            (np.zeros(9), 0.0),
            (np.zeros(9), math.nan),
            (np.zeros(8), 0.1),  # n = 7, below the minimum of 8
            (np.array([0.0] * 8 + [math.nan]), 0.1),
            (np.zeros((3, 9)), 0.1),
        ):
            with pytest.raises(DomainError):
                op(values, h, 0.5)


def test_operator_orders_are_reals():
    # True is an int, but not an order: it must not read as order 1
    for op in (caputo_l1, rl_integral):
        for nu in (True, "0.5", None):
            with pytest.raises(DomainError):
                op(np.arange(9.0), 0.1, nu)
    with pytest.raises(DomainError):
        ode_residual((((True, 1.0),), 1.0, 0.0, None), lambda t: 1.0, 1.0 / 16, 32)
    # a numpy order is the plain float order
    assert np.array_equal(caputo_l1(np.arange(9.0) ** 2, 0.1, np.float32(0.5)),
                          caputo_l1(np.arange(9.0) ** 2, 0.1, float(np.float32(0.5))))


# ---------------------------------------------------------------------------
# Caputo L1 derivative
# ---------------------------------------------------------------------------

def test_caputo_of_constant_is_zero():
    for nu in (0.2, 0.5, 0.8, 1.0):
        got = caputo_l1(np.full(13, 3.7), 0.1, nu)
        assert isinstance(got, np.ndarray) and got.shape == (12,)
        assert np.max(np.abs(got)) == 0.0


def test_caputo_exact_for_linear_data():
    # the scheme integrates the piecewise-linear interpolant exactly, so a
    # linear sample is differentiated to rounding: D^nu t = t^(1-nu)/Gamma(2-nu)
    f = 2.0 * _nodes(1.0 / 16, 32)
    for nu in (0.3, 0.5, 0.9):
        got = caputo_l1(f, 1.0 / 16, nu)
        scale = 2.0 / math.gamma(2.0 - nu)
        worst = max(
            abs(got[m - 1] - scale * (m / 16.0) ** (1.0 - nu)) for m in range(1, 33)
        )
        assert worst < 1e-13


def test_caputo_order_one_is_backward_difference():
    s = _nodes(0.125, 8)
    f = s * s
    got = caputo_l1(f, 0.125, 1.0)
    want = [(f[m] - f[m - 1]) / 0.125 for m in range(1, 9)]
    assert got.tolist() == want


def test_caputo_matches_the_direct_sum():
    # the convolution sums the same terms as the node-by-node L1 sum
    rng = np.random.default_rng(7)
    f = np.cumsum(rng.standard_normal(257))
    for nu in (0.1, 0.5, 0.9):
        got = caputo_l1(f, 1.0 / 64, nu)
        want = np.array(_direct_caputo(f.tolist(), 1.0 / 64, nu))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_caputo_converges_on_smooth_data():
    # f(t) = t^2: D^0.5 f = 2 t^1.5 / Gamma(2.5); L1 error should shrink
    # at roughly h^(2-nu) = h^1.5
    errs = []
    for lv in range(3):
        h, n = 1.0 / 16 / 2**lv, 16 * 2**lv
        s = _nodes(h, n)
        got = caputo_l1(s * s, h, 0.5)
        worst = max(
            abs(got[m - 1] - 2.0 * (m * h) ** 1.5 / math.gamma(2.5))
            for m in range(1, n + 1)
        )
        errs.append(worst)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(e1 > e2 for e1, e2 in zip(errs[:-1], errs[1:]))
    assert all(1.2 < o < 1.8 for o in orders)


def test_caputo_order_validation():
    for nu in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            caputo_l1(_nodes(0.1, 8), 0.1, nu)


# ---------------------------------------------------------------------------
# Riemann-Liouville integral
# ---------------------------------------------------------------------------

def test_rl_integral_exact_for_constants():
    for nu in (0.5, 1.0, 1.5):
        got = rl_integral(np.full(17, 4.0), 0.125, nu)
        assert isinstance(got, np.ndarray) and got.shape == (16,)
        worst = max(
            abs(got[m - 1] - 4.0 * (0.125 * m) ** nu / math.gamma(nu + 1.0))
            for m in range(1, 17)
        )
        assert worst < 1e-13


def test_rl_integral_matches_the_direct_sum():
    rng = np.random.default_rng(11)
    f = np.cumsum(rng.standard_normal(257)).tolist()
    h = 1.0 / 64
    for nu in (0.3, 1.0, 1.7):
        got = rl_integral(f, h, nu)
        want = np.array([
            sum(
                0.5 * (f[j] + f[j + 1]) * (((m - j) * h) ** nu - ((m - j - 1) * h) ** nu)
                for j in range(m)
            ) / math.gamma(nu + 1.0)
            for m in range(1, 257)
        ])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rl_integral_half_order_of_linear():
    # I^0.5 t = Gamma(2)/Gamma(2.5) t^1.5; the singular kernel in the last
    # cell limits the observed rate to about 1 + nu = 1.5
    errs = []
    for lv in range(3):
        h, n = 1.0 / 16 / 2**lv, 16 * 2**lv
        got = rl_integral(_nodes(h, n), h, 0.5)
        worst = max(
            abs(got[m - 1] - HALF_INTEGRAL_OF_T * (m * h) ** 1.5)
            for m in range(1, n + 1)
        )
        errs.append(worst)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(e1 > e2 for e1, e2 in zip(errs[:-1], errs[1:]))
    assert all(1.3 < o < 1.8 for o in orders)


def test_rl_integral_order_validation():
    with pytest.raises(DomainError):
        rl_integral(_nodes(0.1, 8), 0.1, 0.0)


# ---------------------------------------------------------------------------
# forward Laplace transform
# ---------------------------------------------------------------------------

def test_laplace_forward_of_exponential():
    for lam in (0.5, 1.0, 2.0):
        for eta in (0.5, 1.0, 4.0, 15.0):
            got = laplace_forward(lambda t, lam=lam: np.exp(-lam * t), eta)
            assert abs(got - 1.0 / (eta + lam)) < 1e-10


def test_laplace_forward_of_power():
    # t -> sqrt(t) transforms to Gamma(1.5) / eta^1.5
    for eta in (1.0, 3.0):
        got = laplace_forward(np.sqrt, eta)
        assert abs(got - math.gamma(1.5) / eta**1.5) < 1e-9


# (f, exact transform), each held at 1e-12 relative over eta in [1e-3, 1e3]
ELEMENTARY_TRANSFORMS = {
    "exp(-t/2)": (lambda t: np.exp(-0.5 * t), lambda e: 1.0 / (e + 0.5)),
    "exp(-t)": (lambda t: np.exp(-t), lambda e: 1.0 / (e + 1.0)),
    "sqrt(t)": (np.sqrt, lambda e: math.gamma(1.5) / e**1.5),
    "1/sqrt(t)": (lambda t: 1.0 / np.sqrt(t), lambda e: math.sqrt(math.pi / e)),
    "1": (np.ones_like, lambda e: 1.0 / e),
    "t^2": (lambda t: t * t, lambda e: 2.0 / e**3),
}
WIDE_ETAS = np.geomspace(1e-3, 1e3, 19)


@pytest.mark.parametrize("name", sorted(ELEMENTARY_TRANSFORMS))
def test_laplace_forward_elementary_transforms(name):
    f, exact = ELEMENTARY_TRANSFORMS[name]
    batch = laplace_forward(f, WIDE_ETAS)
    assert isinstance(batch, np.ndarray) and batch.shape == WIDE_ETAS.shape
    for eta, got in zip(WIDE_ETAS, batch):
        want = exact(float(eta))
        scalar = laplace_forward(f, float(eta))
        assert isinstance(scalar, float)
        assert abs(scalar - want) < 1e-12 * want
        assert abs(got - want) < 1e-12 * want


def test_laplace_forward_batch_matches_scalar_calls():
    model = Fractional(nu=0.5, lam=1.0)
    etas = np.random.default_rng(7).uniform(0.5, 20.0, size=20)
    batch = laplace_forward(lambda t: rx.psi(model, t), etas)
    for eta, got in zip(etas, batch):
        scalar = laplace_forward(lambda t: rx.psi(model, t), float(eta))
        assert abs(got - scalar) < 1e-13 * scalar


def test_laplace_forward_calls_f_once_per_span():
    # one 40x span: one call, on the rule's distinct nodes scaled by 2/eta_min,
    # whose samples serve every eta of the batch
    calls = []

    def f(t):
        calls.append(t.copy())
        return np.exp(-t)

    laplace_forward(f, np.linspace(0.5, 20.0, 20))
    assert len(calls) == 1
    nodes = fc._ES_RULE[0]
    assert calls[0].ndim == 1 and np.array_equal(calls[0], (fc._ES_SCALE / 0.5) * nodes)
    assert np.unique(calls[0]).size == nodes.size <= 150
    # two spans: one call each, in ascending eta
    calls.clear()
    laplace_forward(f, np.array([100.0, 0.5]))
    assert len(calls) == 2
    assert np.array_equal(calls[0], (fc._ES_SCALE / 0.5) * nodes)
    assert np.array_equal(calls[1], (fc._ES_SCALE / 100.0) * nodes)


def test_laplace_forward_detects_instability():
    with pytest.raises(Unstable, match="differ"):
        laplace_forward(lambda t: np.where(t < 1.0, 1.0, 0.0), 1.0)
    with pytest.raises(Unstable, match="not finite"):
        laplace_forward(lambda t: np.full_like(t, np.nan), np.array([0.5, 2.0]))


def test_laplace_forward_argument_validation():
    f = lambda t: 1.0  # noqa: E731
    bad = (0.0, -1.0, math.nan, math.inf, np.array([]), np.array([1.0, 0.0]), np.ones((2, 2)))
    for eta in bad:
        with pytest.raises(DomainError):
            laplace_forward(f, eta)
    # f answers the whole node array: one value is not one per node
    with pytest.raises(DomainError, match="one value per node"):
        laplace_forward(f, 1.0)


# ---------------------------------------------------------------------------
# fixed-Talbot inversion
# ---------------------------------------------------------------------------

def _inverts_an_array_as_scalar_calls(F, ts):
    """The array form of laplace_invert at ``ts``, checked against scalar calls."""
    got = laplace_invert(F, np.array(ts))
    assert isinstance(got, np.ndarray) and got.shape == (len(ts),)
    assert np.max(np.abs(got - [laplace_invert(F, t) for t in ts])) <= 1e-12
    return got


def test_invert_constant_transform():
    ts = (1e-6, 0.25, 1.0, 7.0, 1e6)
    for t in ts:
        assert abs(laplace_invert(lambda s: 1.0 / s, t) - 1.0) < 1e-10
    assert np.all(np.abs(_inverts_an_array_as_scalar_calls(lambda s: 1.0 / s, ts) - 1.0) < 1e-10)


def test_invert_exponential_transform():
    # t = 4 and t = 300 lie far into the decayed regime
    ts = (0.25, 0.5, 1.0, 2.0, 4.0, 300.0)
    for t in ts:
        got = laplace_invert(lambda s: 1.0 / (s + 1.0), t)
        assert abs(got - math.exp(-t)) < 1e-10
    got = _inverts_an_array_as_scalar_calls(lambda s: 1.0 / (s + 1.0), ts)
    assert np.all(np.abs(got - np.exp(-np.array(ts))) < 1e-10)


def test_invert_sqrt_branch_transform():
    # s^(-1/2) / (s^(1/2) + 1) inverts to the half-order relaxation
    from frax.specfun import MLParams, mittag_leffler

    F = lambda s: 1.0 / (np.sqrt(s) * (np.sqrt(s) + 1.0))  # noqa: E731
    ts = (0.25, 1.0, 4.0, 100.0)
    want = [mittag_leffler(MLParams(0.5), -math.sqrt(t)) for t in ts]
    for t, w in zip(ts, want):
        assert abs(laplace_invert(F, t) - w) < 1e-10
    assert np.all(np.abs(_inverts_an_array_as_scalar_calls(F, ts) - want) < 1e-10)


def test_invert_detects_instability():
    # a transform that is not finite on the contour
    with pytest.raises(Unstable, match="not finite"):
        laplace_invert(lambda s: np.full(s.shape, np.nan), 1.0)
    # a transform whose inverse is not smooth enough for the contour: the
    # two contour sizes disagree (unit step at t = 1, evaluated at the jump)
    with pytest.raises(Unstable, match="differ"):
        laplace_invert(lambda s: np.exp(-s) / s, 1.0)
    # on an array the message names the first time that does not certify:
    # s = 8 and s = 4 are the first 20-node points at t = 1 and t = 2
    poisoned = lambda s: np.where((s == 8.0) | (s == 4.0), np.nan, 1.0 / (s + 1.0))  # noqa: E731
    with pytest.raises(Unstable, match=r"at t=2\.0: the transform is not finite"):
        laplace_invert(poisoned, np.array([0.5, 2.0, 1.0]))
    with pytest.raises(Unstable, match=r"at t=1\.0: 20 and 28 nodes differ"):
        laplace_invert(lambda s: np.exp(-s) / s, np.array([1.0, 0.5]))
    assert laplace_invert(poisoned, np.array([0.5, 3.0])).shape == (2,)


def test_invert_names_the_nodes_that_leave_the_float_range():
    # the generic path divides the nodes (|z| up to 303) by t, so below t =
    # 1.68e-306 some are not finite: the call still raises, and says why
    for t in (1e-310, np.array([1.0, 1e-310])):
        with pytest.raises(Unstable, match=r"^Talbot inversion at t=1e-310: the nodes z/t are not finite"):
            laplace_invert(lambda s: 1.0 / s, t)
    with pytest.raises(Unstable, match=r"at t=1\.0: the transform is not finite on the contour$"):
        laplace_invert(lambda s: np.full(s.shape, np.nan), 1.0)
    assert abs(laplace_invert(lambda s: 1.0 / s, 1.7e-306) - 1.0) <= 1e-10
    # psi's transform is written in z = s*t, and no node is divided by t
    assert abs(rx.psi(rx.Fractional(nu=0.5, lam=1.0), 1e-310) - 1.0) <= 1e-10


def test_invert_argument_validation():
    F = lambda s: 1.0 / s  # noqa: E731
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            laplace_invert(F, t)
    # the array form takes a 1-D float array of finite times > 0
    for ts in (
        np.array([[1.0, 2.0]]),
        np.array([True, True]),
        np.array([1, 2]),
        np.array([1.0, 0.0]),
        np.array([1.0, -1.0]),
        np.array([1.0, math.nan]),
        np.array([1.0, math.inf]),
    ):
        with pytest.raises(DomainError):
            laplace_invert(F, ts)


@pytest.mark.parametrize("call", [
    lambda v: laplace_invert(lambda s: 1.0 / (s + 1.0), v),
    lambda v: caputo_l1(np.arange(9.0), v, 0.5),
    lambda v: caputo_l1(np.arange(9.0), 0.1, v),
    lambda v: rl_integral(np.arange(9.0), v, 0.5),
    lambda v: rl_integral(np.arange(9.0), 0.1, v),
    lambda v: ode_residual((((0.5, 1.0),), 1.0, 0.0, None), lambda t: t, v, 32),
    lambda v: ode_residual((((v, 1.0),), 1.0, 0.0, None), lambda t: t, 1.0 / 16, 32),
], ids=["laplace_invert-t", "caputo_l1-h", "caputo_l1-nu", "rl_integral-h", "rl_integral-nu",
        "ode_residual-h", "ode_residual-order"])
def test_an_int_past_the_float_range_is_a_domain_error(call):
    # float(10**400) overflows: the step and time checks raised OverflowError
    with pytest.raises(DomainError):
        call(10**400)


def test_invert_takes_a_real_time():
    # t is checked by type, as psi checks it: bool, 0-d arrays and strings
    # are refused, numpy scalars accepted
    F = lambda s: 1.0 / (s + 1.0)  # noqa: E731
    for t in (True, np.array(1.0), "1.0"):
        with pytest.raises(DomainError):
            laplace_invert(F, t)
    assert laplace_invert(F, np.float64(1.0)) == laplace_invert(F, 1.0)
    assert laplace_invert(F, 1) == laplace_invert(F, 1.0)


def test_invert_calls_the_transform_once():
    sizes = []

    def F(s):
        sizes.append(s.size)
        return 1.0 / (s + 1.0)

    assert abs(laplace_invert(F, 2.0) - math.exp(-2.0)) < 1e-10
    # the 20- and the 28-node contour in one call, for one time or three
    assert sizes == [48]
    laplace_invert(F, np.array([0.5, 1.0, 2.0]))
    assert sizes == [48, 3 * 48]


@pytest.mark.parametrize("m", [
    rx.Fractional(nu=0.3, lam=1.0),
    rx.Elastic(alpha=0.7, lam=1.3),
    rx.GammaBoundary(k=10, lam=1.0),
    rx.ElasticGamma(k=2, alpha=0.8, lam=1.1),
    rx.Distributed(nu1=0.3548, nu2=0.4209, n1=0.5, n2=0.5, lam=1.0),
], ids=lambda m: type(m).__name__)
def test_talbot_matches_the_per_rule_sums(m):
    # the radius r = 2m/(5t) folded into one (48 x 2) weight matrix gives,
    # to rounding, the textbook form: one sum per rule over the unit nodes
    # u_k scaled by r, times r (Abate & Valko 2004); the transform is the
    # law's, called as a function of s
    F = lambda s: rx.psi_laplace(m, s)  # noqa: E731
    ts = np.geomspace(1e-8, 1e8, 2000)
    values = []
    with np.errstate(all="ignore"):
        for n in (20, 28):
            theta = np.arange(1, n) * np.pi / n
            cot = 1.0 / np.tan(theta)
            u = np.concatenate(([1.0 + 0j], theta * (cot + 1j)))
            sigma = theta + (theta * cot - 1.0) * cot
            w = np.concatenate(([0.5 + 0j], 1.0 + 1j * sigma)) * np.exp(0.4 * n * u) / n
            r = 0.4 * n / ts
            samples = np.asarray(F((r[:, None] * u).reshape(-1)), dtype=complex)
            values.append(r * (samples.reshape(ts.size, n) @ w).real)
    want_gap = np.abs(values[0] - values[1])
    want_ok = want_gap / np.maximum(1.0, np.abs(values[0])) <= 1e-10
    # the contour certifies every one of these times, on both forms
    assert want_ok.all()
    coarse = laplace_invert(F, ts)
    assert np.max(np.abs(coarse - values[0])) <= 1e-13
    for t, want in zip(ts.tolist(), values[0].tolist()):
        assert abs(laplace_invert(F, t) - want) <= 1e-13, t


# ---------------------------------------------------------------------------
# residual refinement study
# ---------------------------------------------------------------------------

def _psi_of(model):
    return lambda t: rx.psi(model, t)


# (model, expected order); measured at three levels: 1.01, 1.53, 1.19,
# 1.53, 1.32 and 1.49.  Elastic has no verify check, GammaBoundary at
# lam != 1 runs coefficients the verify suite only meets at lam = 1, and
# Sojourn at lam != 1 scales its source.
@pytest.mark.parametrize(
    "model, expected",
    [
        (Standard(lam=1.0), 1.0),
        (Fractional(nu=0.5, lam=1.0), 1.5),
        (Elastic(alpha=0.7, lam=1.3), 1.0),
        (GammaBoundary(k=1, lam=1.7), 1.5),
        (Distributed(nu1=0.3, nu2=0.8, n1=0.4, n2=0.6, lam=1.2), 1.2),
        (Sojourn(lam=2.5), 1.5),
    ],
    ids=["standard", "fractional", "elastic", "gamma-boundary-k1", "distributed", "sojourn"],
)
def test_residual_order(model, expected):
    report = ode_residual(rx.equation(model), _psi_of(model), 1.0 / 16, 32, levels=3)
    assert all(a > b for a, b in zip(report.max_norms[:-1], report.max_norms[1:]))
    assert abs(report.order - expected) < 0.4


def test_residual_pins_the_normalisation():
    # the source term fixes the scale of psi: 1.001 * psi reads order 0.58
    # at the verify suite's grid, far outside its 1.5 +/- 0.4 band
    model = Sojourn(lam=1.0)
    exact = ode_residual(rx.equation(model), _psi_of(model), 1.0 / 16, 32, levels=4)
    scaled = ode_residual(rx.equation(model), lambda t: 1.001 * rx.psi(model, t), 1.0 / 16, 32, levels=4)
    assert abs(exact.order - 1.5) <= 0.4
    assert abs(scaled.order - 1.5) > 0.4


def test_residual_calls_f_and_source_once_on_the_finest_nodes():
    # Elastic has two orders, c0, f_inf and a source: every part of the form
    model = Elastic(alpha=0.7, lam=1.3)
    terms, c0, f_inf, source = rx.equation(model)
    h0, n0 = 1.0 / 16, 32
    # reference: every level sampled on its own grid, residual term by term
    norms = []
    for lv in range(4):
        h, n = h0 / 2**lv, n0 * 2**lv
        values = [rx.psi(model, i * h) for i in range(n + 1)]
        derivs = [(c, caputo_l1(values, h, nu)) for nu, c in terms]
        res = []
        for m in range(1, n + 1):
            t = m * h
            r = 0.0
            for c, d in derivs:
                r += c * d[m - 1]
            r += c0 * (values[m] - f_inf)
            r += source(t)
            if t >= 4.0 * h0 * (1.0 - 1e-12):
                res.append(abs(r))
        norms.append(max(res))
    f_calls, source_calls = [], []

    def f(t):
        f_calls.append(t.copy())
        return np.array([rx.psi(model, tj) for tj in t.tolist()])

    def counted_source(t):
        source_calls.append(t.copy())
        return source(t)

    report = ode_residual((terms, c0, f_inf, counted_source), f, h0, n0, levels=4)
    assert report.hs == tuple(h0 / 2**lv for lv in range(4))
    assert report.max_norms == tuple(norms)
    finest = [i * (h0 / 8) for i in range(n0 * 8 + 1)]
    assert len(f_calls) == 1 and f_calls[0].tolist() == finest
    assert len(source_calls) == 1 and source_calls[0].tolist() == finest[1:]
    # f answers the whole node array: one value is not one per node
    with pytest.raises(DomainError, match="one value per node"):
        ode_residual((terms, c0, f_inf, source), lambda t: 0.5, h0, n0, levels=4)


def test_residual_report_shape():
    model = Sojourn(lam=1.0)
    report = ode_residual(rx.equation(model), _psi_of(model), 1.0 / 16, 32, levels=3)
    assert report.hs == (1.0 / 16, 1.0 / 32, 1.0 / 64)
    assert len(report.max_norms) == 3
    assert math.isfinite(report.order)


def test_residual_unsupported_shapes():
    for model in (
        GammaBoundary(k=3, lam=1.0),
        ElasticGamma(k=2, alpha=0.8, lam=1.1),
        rx.FirstPassage(lam=1.0),
        rx.BesselSq(gamma=2.0, lam=1.0),
    ):
        with pytest.raises(Unsupported, match="equation"):
            rx.equation(model)
    calls = []

    def f(t):
        calls.append(t)
        return 1.0

    half = (((0.5, 1.0),), 1.0, 0.0, None)
    for equation, levels in (((((1.5, 1.0),), 1.0, 0.0, None), 3), (half, 1), (half, 2.5)):
        with pytest.raises(DomainError):
            ode_residual(equation, f, 1.0 / 16, 32, levels=levels)
    # the step and the step count are checked before f is sampled
    for h, n in ((0.0, 32), (math.nan, 32), (1.0 / 16, 4), (1.0 / 16, 32.0), (1.0 / 16, True)):
        with pytest.raises(DomainError):
            ode_residual(half, f, h, n, levels=4)
    assert calls == []
