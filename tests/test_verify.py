"""Self-verification suites: dispatch, record shape, and the fast suite."""

import dataclasses
import json
import math
from typing import get_args

import pytest

import frax.cli as cli
import frax.fraccalc as fraccalc
import frax.relaxation as rx
import frax.stochsim as ss
import frax.verify as vf
from frax import specfun
from frax.errors import Unsupported


def test_identities_suite_passes():
    records = vf.run_suite("identities")
    assert records, "identities suite must contain checks"
    failed = [r["check"] for r in records if not r["passed"]]
    assert failed == []


@pytest.mark.parametrize("suite", ["identities", "laplace"])
def test_record_shape_and_names(suite):
    records = vf.run_suite(suite)
    names = [r["check"] for r in records]
    assert len(names) == len(set(names)), "check names must be unique"
    for r in records:
        assert set(r) == {"check", "passed", "error", "detail", "seconds"}
        assert isinstance(r["passed"], bool)
        assert isinstance(r["error"], float)
        assert r["detail"]
        assert isinstance(r["seconds"], float) and math.isfinite(r["seconds"]) and r["seconds"] >= 0.0


def test_suite_catalog(capsys):
    assert list(vf.SUITES) == ["identities", "laplace", "residuals", "asymptotics", "crossing"]
    with pytest.raises(KeyError):
        vf.run_suite("nonsense")
    # the command line offers the catalog and "all"
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "nonsense"])
    err = capsys.readouterr().err
    assert all(name in err for name in (*vf.SUITES, "all"))
    # "all" leaves out the seconds-long crossing suite
    assert [r["check"] for r in vf.run_suite("all")] == [
        name for key in ("identities", "laplace", "residuals", "asymptotics") for name, _ in vf._CHECKS[key]
    ]


def test_crossing_suite_fails_every_pairing_of_a_shifted_psi(monkeypatch, crossing_run):
    # 1e-2 is ~20 stderr of a 2**20-path estimate at p ~ 1/2; 1e-3 would be ~2
    real_psi = rx.psi
    monkeypatch.setattr(rx, "psi", lambda model, t: real_psi(model, t) + 1e-2)
    # replay the unshifted run's Monte Carlo estimates instead of drawing them again
    drawn = crossing_run["estimates"]
    monkeypatch.setattr(ss, "estimate_crossing", lambda spec, boundary, t, n_paths, seed=ss.DEFAULT_SEED:
                        drawn[spec, boundary, t, n_paths, seed])
    records = vf.run_suite("crossing")
    assert [r["check"] for r in records] == [name for name, _, _ in ss.PAIRINGS]
    for r, (_, spec, _) in zip(records, ss.PAIRINGS):
        assert not r["passed"], r
        if hasattr(spec, "_sample"):
            assert r["error"] >= 4.0, r
        else:
            assert r["error"] > 1e-9, r


def test_report_is_json_with_summary():
    records = [
        {"check": "a", "passed": True, "error": 0.0, "detail": "x"},
        {"check": "b", "passed": False, "error": 1.0, "detail": "y"},
    ]
    doc = json.loads(vf.report(records))
    assert doc["passed"] is False
    assert doc["checks_run"] == 2
    assert doc["checks_failed"] == ["b"]
    assert doc["records"] == records


# every check fed by the series, mittag_leffler or gml; the half-derivative
# and forward-transform checks raise on NaN samples (see the next test)
NAN_FED = {
    "gml-index-recursion", "gml-derivative-ladder", "gml-unit-parameter-collapse", "gamma-boundary-unit-shape",
    "ml-half-erfcx-chain", "elastic-vanishing-killing", "elastic-gamma-unit-shape",
    "elastic-gamma-vanishing-killing", "first-passage-chain-rate", "distributed-zero-weight",
    "elastic-equal-rate-branch", "inversion-elastic", "inversion-gamma-boundary",
    "inversion-elastic-gamma", "inversion-distributed", "inversion-sojourn", "inversion-fractional",
    "inversion-standard", "inversion-first-passage", "inversion-first-passage-2",
}


def _nan(*args, **kwargs):
    return math.nan


def test_nan_evaluators_fail_every_check_they_feed(monkeypatch):
    # max(0.0, nan) is 0.0 in Python: a NaN-blind reduction passes these checks
    monkeypatch.setattr(rx, "_series_psi", _nan)
    monkeypatch.setattr(vf, "gml", _nan)
    monkeypatch.setattr(vf, "mittag_leffler", _nan)
    checks = {"gml-derivative-ladder": vf._check_gml_derivative, **dict(vf._pairs(*vf._PAIRS))}
    assert set(checks) == NAN_FED
    for name, check in checks.items():
        record = vf._run(name, check)  # a check that raises fails too
        assert record["check"] == name
        assert not record["passed"], f"{name} passed on NaN evaluators (error {record['error']})"


def _off_by(f, rel: float):
    """``f`` with its value, or the first element of its tuple, scaled by 1 + ``rel``."""
    def off(*args):
        out = f(*args)
        return (out[0] * (1.0 + rel), *out[1:]) if isinstance(out, tuple) else out * (1.0 + rel)
    return off


# (row, owner, attribute, relative error); the Mittag-Leffler engine is
# specfun._ml_series, which mittag_leffler and gml look up in specfun and
# GammaBoundary as relaxation._ml_series; the array rows of both series
# engines are summed by one driver, which _ml_series looks up as
# specfun._gated_rows and _degree_series as relaxation._gated_rows
OFF_BY_CASES = [
    ("gml-unit-parameter-collapse", specfun, "_ml_series", 1e-9),
    ("distributed-zero-weight", rx.Fractional, "_psi", 1e-9),
    # both sides once called E_{1/2} at the same argument; at alpha = 1e-13
    # the row reads 1.35e-13, and 8.5e-10 under the fault
    ("elastic-vanishing-killing", specfun, "_ml_series", 1e-9),
    # the equal-rate elastic law and the elastic gamma law sum the degree
    # series; their references do not
    ("elastic-equal-rate-branch", rx, "_degree_series", 1e-9),
    ("elastic-gamma-vanishing-killing", rx, "_degree_series", 1e-9),
    # E_{1/2} reads 1.25e-13 from erfcx, and 9.5e-10 under the fault
    ("ml-half-erfcx-chain", specfun, "_ml_series", 1e-9),
    # a factor common to the three gml values cancels in the relative gap,
    # but for k = 1, where E^0_{1/2,b} = 1/Gamma(b) sums no series
    ("gml-index-recursion", specfun, "_ml_series", 1e-9),
    ("gamma-boundary-unit-shape", rx, "_ml_series", 1e-9),
    # of the rows of all, only this one catches the fault (it reads 2.5e-10)
    ("transform-gamma-boundary", specfun, "_gated_rows", 1e-9),
    ("transform-distributed", rx, "_gated_rows", 1e-9),
    # the contour of psi, at a float time or on an array of times: the
    # inversion rows and the series reference's fallback run it too
    ("inversion-sojourn", fraccalc, "_talbot", 1e-9),
    # the transforms psi inverts for the two-order and the order-1/2 law
    ("inversion-distributed", rx.Distributed, "_transform", 1e-9),
    ("inversion-fractional", rx.Fractional, "_transform", 1e-9),
    # transforms that psi never inverts, as the two laws are exponentials
    ("inversion-standard", rx.Standard, "_transform", 1e-9),
    ("inversion-first-passage", rx.FirstPassage, "_transform", 1e-9),
    ("inversion-first-passage-2", rx.FirstPassage, "_transform", 1e-9),
    # the exp-sinh rule under every transform-* row, which each read 1.0e-9
    ("transform-standard", vf, "laplace_forward", 1e-9),
    # the M-Wright shape tables and the level quadrature of the crossing
    # quadrature rows, which read 5e-10 to 8.7e-10 under the faults
    ("wrighttime-0.5-gamma-2-1", ss, "wright_m", 1e-9),
    ("airytime-exponential-1.3", ss, "quad", 1e-9),
    # the contour as relaxation looks it up, for psi and the series
    # reference's fallback: this row holds psi against its quadrature, and
    # reads 7.0e-10 under the fault
    ("distributedtime-0.5-0.5-exponential-1", rx, "laplace_invert", 1e-9),
]
ALL_CHECKS = {name: check for checks in vf._CHECKS.values() for name, check in checks}


def _clear_shape_tables():
    # stochsim tabulates each process's shape once, so a faulted table would
    # be reused by the row, or outlive the fault
    ss._shape_level.cache_clear()
    ss._shape_range.cache_clear()


@pytest.mark.parametrize("name, owner, attr, rel", OFF_BY_CASES, ids=[case[0] for case in OFF_BY_CASES])
def test_a_row_fails_when_the_code_under_it_is_off(monkeypatch, name, owner, attr, rel):
    # a row whose two sides both ran the shared code would pass such an
    # error in it, many times the row's tolerance
    monkeypatch.setattr(owner, attr, _off_by(getattr(owner, attr), rel))
    _clear_shape_tables()
    try:
        record = vf._run(name, ALL_CHECKS[name])
    finally:
        _clear_shape_tables()
    assert not record["passed"], record


# (field of the contour's node table, a row that its fault fails); at
# 1 + 1e-9 the rows read 5.8e-10, 8.9e-10, 7.0e-11 and 9.5e-11 (both against
# 1e-12) and 8.7e-10
NODE_TABLE_CASES = [
    ("z", "inversion-standard"),
    ("root", "inversion-sojourn"),
    ("log", "distributed-zero-weight"),
    ("log", "inversion-fractional"),
    ("inv", "inversion-gamma-boundary"),
]


@pytest.mark.parametrize("field, name", NODE_TABLE_CASES, ids=[f"{f}-{n}" for f, n in NODE_TABLE_CASES])
def test_a_row_fails_when_the_node_table_is_off(monkeypatch, field, name):
    # the nodes, their roots, logs and reciprocals are tabulated once, at
    # import, and every contour inversion of psi reads them
    table = fraccalc._TABLE
    monkeypatch.setattr(fraccalc, "_TABLE", table._replace(**{field: getattr(table, field) * (1.0 + 1e-9)}))
    record = vf._run(name, ALL_CHECKS[name])
    assert not record["passed"], record


def test_a_crossing_row_fails_when_its_estimates_are_off(monkeypatch):
    # every estimate 6 of its stderr high reads |z| ~ 6 against the limit of 4;
    # the row asks for its three times in one call, so it gets a tuple back
    real, name = ss.estimate_crossing, "reflectedbm-exponential-1"
    monkeypatch.setattr(ss, "estimate_crossing", lambda *args, **kwargs: tuple(
        dataclasses.replace(est, p_hat=est.p_hat + 6.0 * est.stderr) for est in real(*args, **kwargs)))
    record = vf._run(name, ALL_CHECKS[name])
    assert not record["passed"] and record["error"] >= 4.0, record


# each residual row's order and its max-norm at every level, which the
# series reference on whole arrays of times must reproduce digit for digit
RESIDUAL_DETAILS = [
    ("residual-standard", "order 1.009, expected 1.0 +/- 0.4 with decreasing max-norms "
     "2.485e-02 1.230e-02 6.116e-03 3.050e-03"),
    ("residual-fractional", "order 1.526, expected 1.5 +/- 0.4 with decreasing max-norms "
     "1.551e-02 5.297e-03 1.848e-03 6.498e-04"),
    ("residual-sojourn", "order 1.477, expected 1.5 +/- 0.4 with decreasing max-norms "
     "1.037e-03 3.743e-04 1.344e-04 4.804e-05"),
    ("residual-elastic", "order 1.159, expected 1.0 +/- 0.4 with decreasing max-norms "
     "6.898e-02 2.938e-02 1.326e-02 6.191e-03"),
    ("residual-gamma-boundary", "order 1.108, expected 1.0 +/- 0.4 with decreasing max-norms "
     "2.860e-02 1.282e-02 5.980e-03 2.859e-03"),
    ("residual-elastic-gamma-1", "order 1.154, expected 1.0 +/- 0.4 with decreasing max-norms "
     "7.601e-02 3.251e-02 1.473e-02 6.896e-03"),
    ("residual-distributed", "order 1.068, expected 1.0 +/- 0.4 with decreasing max-norms "
     "3.574e-02 1.663e-02 7.965e-03 3.879e-03"),
]


def test_residual_rows_report_their_order_and_max_norms():
    records = vf.run_suite("residuals")
    assert [(r["check"], r["detail"]) for r in records] == RESIDUAL_DETAILS
    assert all(r["passed"] for r in records)


# the rows a law of the catalogue gets for each thing it can do
CAPABILITIES = [
    (("transform", "inversion"), lambda model: rx.psi_laplace(model, 1.0)),
    (("residual",), rx.equation),
    (("asymptote-small-t", "asymptote-large-t"), lambda model: rx.asymptote(model, rx.SmallT, 1.0)),
]


def test_every_law_of_the_catalogue_is_checked_for_what_it_can_do():
    assert {type(model) for _, model in rx.EXAMPLES} == set(get_args(rx.RelaxationModel))
    assert len(dict(rx.EXAMPLES)) == len(rx.EXAMPLES)
    exempted = set()
    for name, model in rx.EXAMPLES:
        for prefixes, capability in CAPABILITIES:
            rows = [f"{prefix}-{name}" for prefix in prefixes]
            try:
                capability(model)
            except Unsupported as exc:  # the reason it has none
                assert str(exc) and not set(rows) & (set(ALL_CHECKS) | set(vf._EXEMPT)), rows
                continue
            for row in rows:
                assert (row in ALL_CHECKS) != (row in vf._EXEMPT), row
            exempted.update(set(rows) & set(vf._EXEMPT))
    # every exemption names a row some law could have, and says why it has none
    assert exempted == set(vf._EXEMPT) and all(vf._EXEMPT.values())


@pytest.mark.parametrize("suite, raising", [
    ("identities", {"half-derivative-shape-recursion"}),
    ("laplace", {name for name, _ in vf._TRANSFORMS}),
])
def test_a_raising_check_fails_alone(monkeypatch, capsys, suite, raising):
    # a NaN series makes these checks raise; the suite still reports every
    # check, and verify exits 1 (failed checks), not 2 or 3 (an error)
    monkeypatch.setattr(rx, "_series_psi", _nan)
    rc = cli.main(["verify", "--suite", suite])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    records = {r["check"]: r for r in doc["records"]}
    assert list(records) == [name for name, _ in vf._CHECKS[suite]]
    for name in raising:
        r = records[name]
        assert not r["passed"] and math.isnan(r["error"])
        assert r["detail"].startswith("DomainError: ")
        assert math.isfinite(r["seconds"]) and r["seconds"] >= 0.0
    assert set(doc["checks_failed"]) >= raising


def test_no_unit_shape_draw_lies_in_the_equal_rate_band(monkeypatch):
    # there Elastic sums ElasticGamma's k = 1 series, and the two sides of
    # elastic-gamma-unit-shape would run one code path (the closest draw is
    # 1.45e-2 from equal rates, relative to lam)
    calls, real = [], rx._degree_series
    monkeypatch.setattr(rx, "_degree_series", lambda *args: calls.append(args) or real(*args))
    for alpha, lam, t in vf._UNIT_SHAPE_DRAWS.tolist():
        rx.Elastic(alpha=alpha, lam=lam)._psi(t)
    assert calls == []
    rx.Elastic(alpha=1.0, lam=1.0)._psi(1.0)
    assert len(calls) == 1  # the spy sees the band
