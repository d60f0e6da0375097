"""Command-line surface: formats, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import frax
import frax.cli as cli
import frax.relaxation as rx
import frax.stochsim as ss
from frax.errors import NonConvergence


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_half_order_value(capsys):
    rc = run_cli("eval", "--model", "fractional", "--nu", "0.5", "--lambda", "1", "--t", "1")
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,psi,asymptote_small,asymptote_large"
    row = lines[1].split(",")
    assert len(row) == 4
    # E_{1/2,1}(-1) from tests/gen_oracles.py
    assert abs(float(row[1]) - 0.4275835761558070044108) < 1e-12


def test_eval_csv_shape(capsys):
    rc = run_cli("eval", "--model", "standard", "--lambda", "2",
                 "--t-start", "0.5", "--t-stop", "2.0", "--t-count", "4")
    out = capsys.readouterr().out
    assert rc == 0
    assert "\r" not in out
    assert out.endswith("\n")
    lines = out.strip().split("\n")
    assert len(lines) == 5  # header + 4 rows
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == [0.5, 1.0, 1.5, 2.0]
    for line in lines[1:]:
        t, psi, small, large = map(float, line.split(","))
        assert abs(psi - math.exp(-2.0 * t)) < 1e-15


def test_eval_numbers_round_trip(capsys):
    # %.17g formatting must reproduce the binary doubles exactly; eval
    # evaluates the grid as one array
    rc = run_cli("eval", "--model", "fractional", "--nu", "0.7", "--lambda", "1.1",
                 "--t", "0.3", "1.7")
    out = capsys.readouterr().out
    assert rc == 0
    rows = [tuple(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]
    want = rx.psi(rx.Fractional(nu=0.7, lam=1.1), np.array([0.3, 1.7]))
    assert [t for t, *_ in rows] == [0.3, 1.7]
    assert [psi for _, psi, _, _ in rows] == want.tolist()


def test_eval_makes_one_contour_call_per_grid(monkeypatch, capsys):
    # every point of the grid is certified on the contour: the transform is
    # called once, on both contour sizes at once, and the series never runs
    calls = {"_laplace": 0, "_psi": 0}
    for name in calls:
        original = getattr(rx.ElasticGamma, name)

        def counted(self, x, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, x)

        monkeypatch.setattr(rx.ElasticGamma, name, counted)
    rc = run_cli("eval", "--model", "elasticgamma", "--k", "2", "--alpha", "0.8", "--lambda", "1.1",
                 "--t-start", "1e-4", "--t-stop", "1e4", "--t-count", "64", "--t-scale", "log")
    assert rc == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 65
    assert calls == {"_laplace": 1, "_psi": 0}


def test_eval_json_format(capsys):
    rc = run_cli("eval", "--model", "sojourn", "--lambda", "1", "--t", "1", "2",
                 "--format", "json")
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["comments"] == []
    assert len(doc["rows"]) == 2
    assert set(doc["rows"][0]) == {"t", "psi", "asymptote_small", "asymptote_large"}


def test_eval_out_file(tmp_path, capsys):
    p = tmp_path / "out.csv"
    rc = run_cli("eval", "--model", "standard", "--lambda", "1", "--t", "1",
                 "--out", str(p))
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = p.read_text(encoding="utf-8")
    assert text.startswith("t,psi,")
    # exp(-1)
    assert "0.36787944117144233" in text


def test_eval_log_grid(capsys):
    rc = run_cli("eval", "--model", "standard", "--lambda", "1",
                 "--t-start", "0.1", "--t-stop", "10", "--t-count", "3",
                 "--t-scale", "log")
    out = capsys.readouterr().out
    assert rc == 0
    ts = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert abs(ts[1] - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_quadrature_path(capsys):
    rc = run_cli("simulate", "--process", "wrighttime", "--nu", "0.5",
                 "--boundary", "exponential", "--lambda", "1", "--t", "1")
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == f"# seed={ss.DEFAULT_SEED}"
    assert lines[1] == "t,p_hat,stderr,analytic,z_score"
    t, p_hat, stderr, analytic, z = map(float, lines[2].split(","))
    assert abs(p_hat - 0.4275835761558070044108) < 1e-9
    assert abs(p_hat - analytic) < 1e-9


def test_simulate_monte_carlo_and_determinism(tmp_path):
    args = ("simulate", "--process", "reflectedbm", "--boundary", "exponential",
            "--lambda", "1", "--t", "0.25", "1", "--paths", "50000")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 4
    for line in lines[2:]:
        t, p_hat, stderr, analytic, z = map(float, line.split(","))
        assert abs(z) <= 4.0
        assert abs(p_hat - analytic) <= 4.0 * stderr + 1e-15


def test_simulate_seed_changes_output(tmp_path):
    base = ("simulate", "--process", "sojourntime", "--boundary", "exponential",
            "--lambda", "1", "--t", "1", "--paths", "20000")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*base, "--seed", "1", "--out", str(a)) == 0
    assert run_cli(*base, "--seed", "2", "--out", str(b)) == 0
    assert a.read_bytes() != b.read_bytes()
    assert a.read_text(encoding="utf-8").splitlines()[0] == "# seed=1"


def test_simulate_gamma_boundary(capsys):
    rc = run_cli("simulate", "--process", "reflectedbm", "--boundary", "gamma",
                 "--k", "2", "--lambda", "1", "--t", "1", "--paths", "50000")
    out = capsys.readouterr().out
    assert rc == 0
    t, p_hat, stderr, analytic, z = map(float, out.strip().split("\n")[2].split(","))
    assert abs(analytic - rx.psi(rx.GammaBoundary(k=2, lam=1.0), 1.0)) < 1e-12
    assert abs(z) <= 4.0


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_parameter_is_usage_error(capsys):
    rc = run_cli("eval", "--model", "fractional", "--lambda", "1", "--t", "1")
    err = capsys.readouterr().err
    assert rc == 2
    assert "--nu" in err


# one valid instance of every class a name on the command line builds
FLAG_CASES = [m for _, m in cli._TABLE_MODELS] + [
    ss.ReflectedBM(), ss.IteratedBM(n=2), ss.SojournTime(), ss.FirstPassageChain(n=1),
    ss.BesselSquared(gamma=2.0), ss.ElasticBM(alpha=1.0), ss.WrightTime(nu=0.5),
    ss.AiryTime(), ss.DistributedTime(n1=0.5, n2=0.5),
    ss.Exponential(lam=1.0), ss.Gamma(k=2, lam=1.0),
]


def _flag(field_name):
    return {"lam": "lambda", "n": "k"}.get(field_name, field_name)


def _options():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {o for a in sub.choices["simulate"]._actions for o in a.option_strings}


def _argv(obj, omit=None):
    """(command line that builds ``obj`` without flag ``omit``, CLI owner name)."""
    name = type(obj).__name__.lower()
    if name in cli._MODELS:
        head, owner = ["eval", "--model", name], name
    elif name in cli._PROCESSES:
        head = ["simulate", "--process", name, "--boundary", "exponential", "--lambda", "1"]
        owner = name
    else:
        head, owner = ["simulate", "--process", "reflectedbm", "--boundary", name], f"boundary {name}"
    options = _options()
    flags = []
    for f in dataclasses.fields(obj):
        flag = _flag(f.name)
        if f"--{flag}" in options and flag != omit:
            flags += [f"--{flag}", repr(getattr(obj, f.name))]
    return head + flags + ["--t", "1"], owner


def test_cli_names_cover_every_class():
    assert tuple(cli._MODELS) == (
        "standard", "fractional", "sojourn", "firstpassage", "besselsq",
        "elastic", "gammaboundary", "elasticgamma", "distributed")
    assert tuple(cli._PROCESSES) == (
        "reflectedbm", "iteratedbm", "sojourntime", "firstpassagechain",
        "besselsquared", "elasticbm", "wrighttime", "airytime", "distributedtime")
    assert tuple(cli._BOUNDARIES) == ("exponential", "gamma")
    covered = {type(obj) for obj in FLAG_CASES}
    assert covered == {*cli._MODELS.values(), *cli._PROCESSES.values(), *cli._BOUNDARIES.values()}


@pytest.mark.parametrize("obj", FLAG_CASES, ids=lambda o: type(o).__name__)
def test_every_field_has_a_flag_or_a_default(obj):
    options = _options()
    for f in dataclasses.fields(obj):
        assert f"--{_flag(f.name)}" in options or f.default is not dataclasses.MISSING, f.name
    argv, owner = _argv(obj)
    args = cli._build_parser().parse_args(argv)
    assert cli._build(type(obj), args, owner) == obj


@pytest.mark.parametrize(
    "obj, flag",
    [(obj, _flag(f.name)) for obj in FLAG_CASES for f in dataclasses.fields(obj)
     if f.default is dataclasses.MISSING],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_omitting_a_required_flag_is_usage_error(obj, flag, capsys):
    argv, owner = _argv(obj, omit=flag)
    assert run_cli(*argv) == 2
    assert f"error: {owner} requires --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5", "true"])
def test_simulate_seed_out_of_range_is_usage_error(seed, capsys):
    argv = ("simulate", "--process", "reflectedbm", "--boundary", "exponential", "--lambda", "1",
            "--t", "1", "--paths", "1000", "--seed", seed)
    try:
        rc = run_cli(*argv)
    except SystemExit as exc:  # argparse: not an integer
        rc = exc.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_grid_is_usage_error(capsys):
    rc = run_cli("eval", "--model", "standard", "--lambda", "1")
    assert rc == 2


def test_conflicting_grid_is_usage_error(capsys):
    rc = run_cli("eval", "--model", "standard", "--lambda", "1", "--t", "1",
                 "--t-start", "0.5", "--t-stop", "2")
    assert rc == 2


def _grid(*flags):
    args = cli._build_parser().parse_args(["eval", "--model", "standard", "--lambda", "1", *flags])
    return cli._time_grid(args)


def test_time_grid_validation(capsys):
    span = ("--t-start", "1", "--t-stop", "2")
    for flags in (
        ("--t", "2", "1"),
        ("--t", "1", "1"),
        ("--t", "-1"),
        ("--t", "inf"),
        ("--t",),  # argparse: no times
        ("--t-start", "2", "--t-stop", "1"),
        (*span, "--t-count", "0"),
        ("--t-start", "1", "--t-stop", "1", "--t-count", "3"),
        (*span, "--t-scale", "cubic"),  # argparse: not a choice
    ):
        try:
            rc = run_cli("eval", "--model", "standard", "--lambda", "1", *flags)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2, flags
        assert "error:" in capsys.readouterr().err
    rc = run_cli("eval", "--model", "standard", "--lambda", "1",
                 "--t-start", "2", "--t-stop", "2", "--t-count", "1")
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert rc == 0
    assert [float(row.split(",")[0]) for row in rows] == [2.0]


def test_time_grid_span_endpoints():
    lin = _grid("--t-start", "1", "--t-stop", "3", "--t-count", "5")
    assert lin[0] == 1.0 and lin[-1] == 3.0
    log = _grid("--t-start", "0.1", "--t-stop", "10", "--t-count", "5", "--t-scale", "log")
    assert abs(log[0] - 0.1) < 1e-15 and abs(log[-1] - 10.0) < 1e-12
    assert abs(log[2] - 1.0) < 1e-14
    single = _grid("--t-start", "2", "--t-stop", "2", "--t-count", "1")
    assert single == (2.0,)


def test_unpaired_combination_is_usage_error(capsys):
    rc = run_cli("simulate", "--process", "besselsquared", "--gamma", "2",
                 "--boundary", "gamma", "--k", "2", "--lambda", "1", "--t", "1")
    err = capsys.readouterr().err
    assert rc == 2
    assert "no closed form" in err


def test_simulate_wright_half_gamma_boundary(capsys):
    # WrightTime(1/2) is the reflected motion with Var = 2t, so a gamma
    # boundary pairs it with the gamma-boundary law
    rc = run_cli("simulate", "--process", "wrighttime", "--nu", "0.5",
                 "--boundary", "gamma", "--k", "2", "--lambda", "1", "--t", "1")
    out = capsys.readouterr().out
    assert rc == 0
    t, p_hat, stderr, analytic, z = map(float, out.strip().split("\n")[2].split(","))
    # gamma-boundary psi(1), k=2 lam=1 from tests/gen_oracles.py
    assert abs(analytic - 0.7007955909397055694854) < 1e-12
    assert abs(p_hat - analytic) < 1e-9


def test_simulate_wright_gamma_other_orders_unpaired(capsys):
    rc = run_cli("simulate", "--process", "wrighttime", "--nu", "0.3",
                 "--boundary", "gamma", "--k", "2", "--lambda", "1", "--t", "1")
    assert rc == 2
    assert "no closed form pairs WrightTime with Gamma" in capsys.readouterr().err


def test_bad_parameter_value_is_usage_error(capsys):
    rc = run_cli("eval", "--model", "fractional", "--nu", "1.5", "--lambda", "1", "--t", "1")
    assert rc == 2


def test_too_few_paths_is_usage_error(capsys):
    rc = run_cli("simulate", "--process", "reflectedbm", "--boundary", "exponential",
                 "--lambda", "1", "--t", "1", "--paths", "10")
    assert rc == 2


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_successive_calls_do_not_share_options(capsys):
    # the parser is kept between calls; the options of one call must not
    # leak into the next
    head = ("eval", "--model", "standard", "--lambda", "1", "--t-start", "1", "--t-stop", "2")
    assert run_cli(*head, "--t-count", "5", "--format", "json") == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 5
    assert run_cli(*head) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,psi,asymptote_small,asymptote_large"
    assert len(lines) == 11  # header + the default 10 points


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(model, t):
        raise NonConvergence("synthetic failure")

    monkeypatch.setattr(cli.rx, "psi", boom)
    rc = run_cli("eval", "--model", "standard", "--lambda", "1", "--t", "1", "2")
    err = capsys.readouterr().err
    assert rc == 3
    assert "evaluation failed at t=1" in err


def test_strict_statistical_failure_exit_code(monkeypatch, capsys):
    def biased(spec, boundary, t, n_paths, seed=0):
        return ss.CrossingEstimate(p_hat=0.9, stderr=1e-6, n_paths=n_paths,
                                   seed=seed, method="monte_carlo")

    monkeypatch.setattr(cli.ss, "estimate_crossing", biased)
    rc = run_cli("simulate", "--process", "reflectedbm", "--boundary", "exponential",
                 "--lambda", "1", "--t", "1", "--strict")
    err = capsys.readouterr().err
    assert rc == 4
    assert "exceeds 4" in err


def test_strict_quadrature_passes_on_roundoff_gap(capsys):
    # the value matches the closed form to ~3e-14; quad's own error
    # estimate (~5e-15) once turned that into |z| = 5.48
    rc = run_cli("simulate", "--strict", "--process", "wrighttime", "--nu", "0.3",
                 "--boundary", "exponential", "--lambda", "1", "--t", "4")
    capsys.readouterr()
    assert rc == 0


def test_strict_quadrature_fails_on_wrong_analytic(monkeypatch, capsys):
    real_psi = rx.psi
    monkeypatch.setattr(cli.rx, "psi", lambda model, t: real_psi(model, t) + 1e-6)
    rc = run_cli("simulate", "--strict", "--process", "wrighttime", "--nu", "0.3",
                 "--boundary", "exponential", "--lambda", "1", "--t", "4")
    assert rc == 4
    assert "exceeds 4" in capsys.readouterr().err


def test_strict_zero_stderr_gap_fails(monkeypatch, capsys):
    # a zero stderr must not zero the z-score of a wrong value
    def exact_but_wrong(spec, boundary, t):
        return ss.CrossingEstimate(p_hat=0.5, stderr=0.0, n_paths=1, seed=0,
                                   method="quadrature")

    monkeypatch.setattr(cli.ss, "quadrature_crossing", exact_but_wrong)
    rc = run_cli("simulate", "--strict", "--process", "airytime",
                 "--boundary", "exponential", "--lambda", "1", "--t", "1")
    assert rc == 4
    assert "exceeds 4" in capsys.readouterr().err


def test_strict_passes_when_consistent(capsys):
    rc = run_cli("simulate", "--process", "reflectedbm", "--boundary", "exponential",
                 "--lambda", "1", "--t", "1", "--paths", "20000", "--strict")
    capsys.readouterr()
    assert rc == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_identities_report(tmp_path):
    p = tmp_path / "report.json"
    rc = run_cli("verify", "--suite", "identities", "--out", str(p))
    assert rc == 0
    doc = json.loads(p.read_text(encoding="utf-8"))
    assert doc["passed"] is True
    assert doc["checks_failed"] == []
    assert doc["checks_run"] == len(doc["records"])
    for record in doc["records"]:
        assert set(record) == {"check", "passed", "error", "detail"}


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(
        cli.vf.SUITES, "identities",
        lambda: [{"check": "synthetic", "passed": False, "error": 1.0, "detail": ""}],
    )
    rc = run_cli("verify", "--suite", "identities")
    out = capsys.readouterr().out
    assert rc == 1
    assert json.loads(out)["passed"] is False


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_written(tmp_path, capsys):
    rc = run_cli("tables", "--out-dir", str(tmp_path))
    assert rc == 0
    for fname in ("small_time.csv", "large_time.csv"):
        text = (tmp_path / fname).read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "model,t,exact,asymptote,ratio"
        assert len(lines) == 1 + 9 * 3  # nine laws, three times each
        for line in lines[1:]:
            parts = line.split(",")
            ratio = float(parts[-1])
            assert abs(ratio - 1.0) < 0.05


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_module_entry_point():
    # the child imports the same frax as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(frax.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "frax.cli", "eval", "--model", "standard",
         "--lambda", "1", "--t", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert "0.36787944117144233" in proc.stdout
