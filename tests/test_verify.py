"""Self-verification suites: dispatch, record shape, and the fast suite."""

import functools
import json
import math

import pytest

import frax.relaxation as rx
import frax.verify as vf
from frax.errors import FraxError


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
        assert set(r) == {"check", "passed", "error", "detail"}
        assert isinstance(r["passed"], bool)
        assert isinstance(r["error"], float)
        assert r["detail"]


def test_suite_catalog():
    assert set(vf.SUITES) == {"identities", "laplace", "residuals", "asymptotics"}
    with pytest.raises(KeyError):
        vf.run_suite("nonsense")


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
# forward-transform checks already raise on NaN samples
NAN_FED = {
    "gml-derivative-ladder", "gml-unit-parameter-collapse", "gamma-boundary-unit-shape",
    "ml-half-erfcx-chain", "elastic-vanishing-killing", "elastic-gamma-unit-shape",
    "elastic-gamma-vanishing-killing", "first-passage-chain-rate", "distributed-zero-weight",
    "elastic-equal-rate-branch", "inversion-elastic", "inversion-gamma-boundary",
    "inversion-elastic-gamma", "inversion-distributed", "inversion-sojourn",
}


def test_nan_evaluators_fail_every_check_they_feed(monkeypatch):
    # max(0.0, nan) is 0.0 in Python: a NaN-blind reduction passes these checks
    def nan(*args, **kwargs):
        return math.nan

    monkeypatch.setattr(rx, "_series_psi", nan)
    monkeypatch.setattr(vf, "gml", nan)
    monkeypatch.setattr(vf, "mittag_leffler", nan)
    checks = {
        "gml-derivative-ladder": vf._check_gml_derivative,
        "gml-unit-parameter-collapse": vf._check_gml_single_parameter,
        "gamma-boundary-unit-shape": vf._check_gamma_boundary_collapse,
        **{name: functools.partial(vf._pair, name) for name in vf._PAIRS},
    }
    assert set(checks) == NAN_FED
    for name, check in checks.items():
        try:
            record = check()
        except FraxError:
            continue  # raising is as good as failing
        assert record["check"] == name
        assert not record["passed"], f"{name} passed on NaN evaluators (error {record['error']})"
