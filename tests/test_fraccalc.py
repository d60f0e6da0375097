"""Fractional-calculus toolbox: L1 scheme, product integral, transforms.

Reference coefficients come from tests/gen_oracles.py; tolerances are
frozen from measured deviations with a 10-100x margin.
"""

import math

import numpy as np
import pytest

from frax.errors import DomainError, Unstable, Unsupported
from frax.fraccalc import (
    L1Grid,
    caputo_l1,
    laplace_forward,
    laplace_invert,
    ode_residual,
    rl_integral,
)
import frax.relaxation as rx
from frax.relaxation import Fractional, GammaBoundary, ElasticGamma, Sojourn, Standard

# Gamma(2) / Gamma(2.5): exact coefficient of t^1.5 in the half-order
# integral of f(t) = t (tests/gen_oracles.py)
HALF_INTEGRAL_OF_T = 0.7522527780636750492641


# ---------------------------------------------------------------------------
# grid container
# ---------------------------------------------------------------------------

def test_grid_nodes_and_sampling():
    g = L1Grid.sample(lambda s: 2.0 * s, h=0.25, n=8)
    assert g.ts == tuple(0.25 * i for i in range(9))
    assert g.values[4] == 2.0


def test_grid_validation():
    with pytest.raises(DomainError):
        L1Grid(h=0.0, n=8, values=(0.0,) * 9)
    with pytest.raises(DomainError):
        L1Grid(h=0.1, n=4, values=(0.0,) * 5)  # n below the minimum of 8
    with pytest.raises(DomainError):
        L1Grid(h=0.1, n=8, values=(0.0,) * 5)  # wrong length
    with pytest.raises(DomainError):
        L1Grid(h=0.1, n=8, values=(0.0,) * 8 + (math.nan,))


# ---------------------------------------------------------------------------
# Caputo L1 derivative
# ---------------------------------------------------------------------------

def test_caputo_of_constant_is_zero():
    g = L1Grid.sample(lambda s: 3.7, h=0.1, n=12)
    for nu in (0.2, 0.5, 0.8, 1.0):
        assert max(abs(v) for v in caputo_l1(g, nu)) == 0.0


def test_caputo_exact_for_linear_data():
    # the scheme integrates the piecewise-linear interpolant exactly, so a
    # linear sample is differentiated to rounding: D^nu t = t^(1-nu)/Gamma(2-nu)
    g = L1Grid.sample(lambda s: 2.0 * s, h=1.0 / 16, n=32)
    for nu in (0.3, 0.5, 0.9):
        got = caputo_l1(g, nu)
        scale = 2.0 / math.gamma(2.0 - nu)
        worst = max(
            abs(got[m - 1] - scale * (m / 16.0) ** (1.0 - nu)) for m in range(1, 33)
        )
        assert worst < 1e-13


def test_caputo_order_one_is_backward_difference():
    g = L1Grid.sample(lambda s: s * s, h=0.125, n=8)
    got = caputo_l1(g, 1.0)
    want = [(g.values[m] - g.values[m - 1]) / g.h for m in range(1, 9)]
    assert got == want


def test_caputo_converges_on_smooth_data():
    # f(t) = t^2: D^0.5 f = 2 t^1.5 / Gamma(2.5); L1 error should shrink
    # at roughly h^(2-nu) = h^1.5
    errs = []
    for lv in range(3):
        h, n = 1.0 / 16 / 2**lv, 16 * 2**lv
        g = L1Grid.sample(lambda s: s * s, h=h, n=n)
        got = caputo_l1(g, 0.5)
        worst = max(
            abs(got[m - 1] - 2.0 * (m * h) ** 1.5 / math.gamma(2.5))
            for m in range(1, n + 1)
        )
        errs.append(worst)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(e1 > e2 for e1, e2 in zip(errs[:-1], errs[1:]))
    assert all(1.2 < o < 1.8 for o in orders)


def test_caputo_order_validation():
    g = L1Grid.sample(lambda s: s, h=0.1, n=8)
    for nu in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            caputo_l1(g, nu)


# ---------------------------------------------------------------------------
# Riemann-Liouville integral
# ---------------------------------------------------------------------------

def test_rl_integral_exact_for_constants():
    g = L1Grid.sample(lambda s: 4.0, h=0.125, n=16)
    for nu in (0.5, 1.0, 1.5):
        got = rl_integral(g, nu)
        worst = max(
            abs(got[m - 1] - 4.0 * (0.125 * m) ** nu / math.gamma(nu + 1.0))
            for m in range(1, 17)
        )
        assert worst < 1e-13


def test_rl_integral_half_order_of_linear():
    # I^0.5 t = Gamma(2)/Gamma(2.5) t^1.5; the singular kernel in the last
    # cell limits the observed rate to about 1 + nu = 1.5
    errs = []
    for lv in range(3):
        h, n = 1.0 / 16 / 2**lv, 16 * 2**lv
        g = L1Grid.sample(lambda s: s, h=h, n=n)
        got = rl_integral(g, 0.5)
        worst = max(
            abs(got[m - 1] - HALF_INTEGRAL_OF_T * (m * h) ** 1.5)
            for m in range(1, n + 1)
        )
        errs.append(worst)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(e1 > e2 for e1, e2 in zip(errs[:-1], errs[1:]))
    assert all(1.3 < o < 1.8 for o in orders)


def test_rl_integral_order_validation():
    g = L1Grid.sample(lambda s: s, h=0.1, n=8)
    with pytest.raises(DomainError):
        rl_integral(g, 0.0)


# ---------------------------------------------------------------------------
# forward Laplace transform
# ---------------------------------------------------------------------------

def test_laplace_forward_of_exponential():
    for lam in (0.5, 1.0, 2.0):
        for eta in (0.5, 1.0, 4.0, 15.0):
            got = laplace_forward(lambda t, lam=lam: math.exp(-lam * t), eta)
            assert abs(got - 1.0 / (eta + lam)) < 1e-10


def test_laplace_forward_of_power():
    # t -> sqrt(t) transforms to Gamma(1.5) / eta^1.5
    for eta in (1.0, 3.0):
        got = laplace_forward(lambda t: math.sqrt(t), eta)
        assert abs(got - math.gamma(1.5) / eta**1.5) < 1e-9


# (f, exact transform), each held at 1e-12 relative over eta in [1e-3, 1e3]
ELEMENTARY_TRANSFORMS = {
    "exp(-t/2)": (lambda t: math.exp(-0.5 * t), lambda e: 1.0 / (e + 0.5)),
    "exp(-t)": (lambda t: math.exp(-t), lambda e: 1.0 / (e + 1.0)),
    "sqrt(t)": (math.sqrt, lambda e: math.gamma(1.5) / e**1.5),
    "1/sqrt(t)": (lambda t: 1.0 / math.sqrt(t), lambda e: math.sqrt(math.pi / e)),
    "1": (lambda t: 1.0, lambda e: 1.0 / e),
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


def test_laplace_forward_samples_f_once_per_node():
    # one 40x span: the nodes are shared by every eta of the batch
    calls = []

    def f(t):
        calls.append(t)
        return math.exp(-t)

    laplace_forward(f, np.linspace(0.5, 20.0, 20))
    assert len(calls) <= 150
    assert len(set(calls)) == len(calls)


def test_laplace_forward_detects_instability():
    with pytest.raises(Unstable, match="differ"):
        laplace_forward(lambda t: 1.0 if t < 1.0 else 0.0, 1.0)
    with pytest.raises(Unstable, match="not finite"):
        laplace_forward(lambda t: math.nan, np.array([0.5, 2.0]))


def test_laplace_forward_argument_validation():
    f = lambda t: 1.0  # noqa: E731
    bad = (0.0, -1.0, math.nan, math.inf, np.array([]), np.array([1.0, 0.0]), np.ones((2, 2)))
    for eta in bad:
        with pytest.raises(DomainError):
            laplace_forward(f, eta)


# ---------------------------------------------------------------------------
# fixed-Talbot inversion
# ---------------------------------------------------------------------------

def test_invert_constant_transform():
    for t in (1e-6, 0.25, 1.0, 7.0, 1e6):
        assert abs(laplace_invert(lambda s: 1.0 / s, t) - 1.0) < 1e-10


def test_invert_exponential_transform():
    # t = 4 and t = 300 lie far into the decayed regime
    for t in (0.25, 0.5, 1.0, 2.0, 4.0, 300.0):
        got = laplace_invert(lambda s: 1.0 / (s + 1.0), t)
        assert abs(got - math.exp(-t)) < 1e-10


def test_invert_sqrt_branch_transform():
    # s^(-1/2) / (s^(1/2) + 1) inverts to the half-order relaxation
    from frax.specfun import MLParams, mittag_leffler

    for t in (0.25, 1.0, 4.0, 100.0):
        got = laplace_invert(lambda s: 1.0 / (np.sqrt(s) * (np.sqrt(s) + 1.0)), t)
        want = mittag_leffler(MLParams(0.5), -math.sqrt(t))
        assert abs(got - want) < 1e-10


def test_invert_detects_instability():
    # a transform that is not finite on the contour
    with pytest.raises(Unstable, match="not finite"):
        laplace_invert(lambda s: np.full(s.shape, np.nan), 1.0)
    # a transform whose inverse is not smooth enough for the contour: the
    # two contour sizes disagree (unit step at t = 1, evaluated at the jump)
    with pytest.raises(Unstable, match="differ"):
        laplace_invert(lambda s: np.exp(-s) / s, 1.0)


def test_invert_argument_validation():
    F = lambda s: 1.0 / s  # noqa: E731
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            laplace_invert(F, t)


# ---------------------------------------------------------------------------
# residual refinement study
# ---------------------------------------------------------------------------

def test_residual_order_fractional():
    report = ode_residual(Fractional(nu=0.5, lam=1.0), L1Grid.sample(lambda s: 0.0, h=1.0 / 16, n=32), levels=3)
    assert all(a > b for a, b in zip(report.max_norms[:-1], report.max_norms[1:]))
    assert abs(report.order - 1.5) < 0.4


def test_residual_samples_the_finest_level_once(monkeypatch):
    model = GammaBoundary(k=2, lam=1.0)
    g = L1Grid.sample(lambda s: 0.0, h=1.0 / 16, n=32)
    # reference: every level sampled on its own grid
    norms = []
    for lv in range(4):
        nodes, res = model._residual(model._sample(g.h / 2**lv, g.n * 2**lv))
        norms.append(max(abs(r) for t, r in zip(nodes, res) if t >= 4.0 * g.h * (1.0 - 1e-12)))
    calls = []
    real_psi = rx.psi
    monkeypatch.setattr(rx, "psi", lambda m, t: calls.append(t) or real_psi(m, t))
    report = ode_residual(model, g, levels=4)
    assert report.max_norms == tuple(norms)
    assert len(calls) == 32 * 8 + 1


def test_residual_order_standard():
    report = ode_residual(Standard(lam=1.0), L1Grid.sample(lambda s: 0.0, h=1.0 / 16, n=32), levels=3)
    assert abs(report.order - 1.0) < 0.4


def test_residual_report_shape():
    report = ode_residual(Sojourn(lam=1.0), L1Grid.sample(lambda s: 0.0, h=1.0 / 16, n=32), levels=3)
    assert len(report.hs) == 3
    assert len(report.max_norms) == 3
    assert len(report.orders) == 2
    assert len(report.ts) == len(report.residuals)
    # residuals are reported on the common window t >= 4 * coarse h
    assert report.ts[0] >= 4.0 / 16 - 1e-12


def test_residual_unsupported_shapes():
    g = L1Grid.sample(lambda s: 0.0, h=1.0 / 16, n=32)
    with pytest.raises(Unsupported):
        ode_residual(GammaBoundary(k=3, lam=1.0), g, levels=3)
    with pytest.raises(Unsupported):
        ode_residual(ElasticGamma(k=2, alpha=0.8, lam=1.1), g, levels=3)
