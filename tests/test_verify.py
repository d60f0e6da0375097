"""Self-verification suites: dispatch, record shape, and the fast suite."""

import json
import math

import pytest

import frax.cli as cli
import frax.relaxation as rx
import frax.stochsim as ss
import frax.verify as vf
from frax import specfun


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


# every check fed by the series, mittag_leffler or gml; gml-index-recursion
# reads the raw series accessor instead, and the half-derivative and
# forward-transform checks raise on NaN samples (see the next test)
NAN_FED = {
    "gml-derivative-ladder", "gml-unit-parameter-collapse", "gamma-boundary-unit-shape",
    "ml-half-erfcx-chain", "elastic-vanishing-killing", "elastic-gamma-unit-shape",
    "elastic-gamma-vanishing-killing", "first-passage-chain-rate", "distributed-zero-weight",
    "elastic-equal-rate-branch", "inversion-elastic", "inversion-gamma-boundary",
    "inversion-elastic-gamma", "inversion-distributed", "inversion-sojourn",
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


def _off_by_1e9(f):
    """``f`` with its value, or the first element of its tuple, scaled by 1 + 1e-9."""
    def off(*args):
        out = f(*args)
        return (out[0] * (1.0 + 1e-9), *out[1:]) if isinstance(out, tuple) else out * (1.0 + 1e-9)
    return off


@pytest.mark.parametrize("name, owner, attr", [
    ("gml-unit-parameter-collapse", specfun, "_ml_series"),
    ("distributed-zero-weight", rx.Fractional, "_psi"),
], ids=["gml-unit-parameter-collapse", "distributed-zero-weight"])
def test_a_row_fails_when_the_code_under_it_is_off(monkeypatch, name, owner, attr):
    # a row whose two sides both ran the shared code would pass an error
    # of 1e-9 in it, 1000 times the row's tolerance
    monkeypatch.setattr(owner, attr, _off_by_1e9(getattr(owner, attr)))
    record = vf._run(name, dict(vf._CHECKS["identities"])[name])
    assert not record["passed"], record


@pytest.mark.parametrize("suite, raising", [
    ("identities", {"half-derivative-shape-recursion"}),
    ("laplace", {f"transform-{name}" for name, _ in vf._TRANSFORM_MODELS}),
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
