"""The scripts under scripts/ run in process against the package API."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the script's output at three levels, which the series reference on whole
# arrays of times must reproduce digit for digit
RESIDUAL_ORDER_ROWS = """\
standard               order 1.011   max-norms 2.485e-02  1.230e-02  6.116e-03
fractional             order 1.534   max-norms 1.551e-02  5.297e-03  1.848e-03
sojourn                order 1.474   max-norms 1.037e-03  3.743e-04  1.344e-04
elastic                order 1.190   max-norms 6.898e-02  2.938e-02  1.326e-02
gamma-boundary         order 1.129   max-norms 2.860e-02  1.282e-02  5.980e-03
elastic-gamma-1        order 1.184   max-norms 7.601e-02  3.251e-02  1.473e-02
distributed            order 1.083   max-norms 3.574e-02  1.663e-02  7.965e-03
"""


def test_residual_orders_script(capsys):
    assert _load("residual_orders").main(["--levels", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 7
    assert all(" order " in row and "max-norms" in row for row in rows)
    assert rows == RESIDUAL_ORDER_ROWS.splitlines()


def test_make_tables_script(tmp_path, capsys):
    assert _load("make_tables").main(["--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "small_time.csv").is_file()
    assert (tmp_path / "large_time.csv").is_file()
    assert "worst |ratio - 1|" in capsys.readouterr().out

