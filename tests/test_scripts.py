"""The scripts under scripts/ run in process against the package API."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_residual_orders_script(capsys):
    assert _load("residual_orders").main(["--levels", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 8
    assert all(" order " in row and "max-norms" in row for row in rows)


def test_make_tables_script(tmp_path, capsys):
    assert _load("make_tables").main(["--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "small_time.csv").is_file()
    assert (tmp_path / "large_time.csv").is_file()
    assert "worst |ratio - 1|" in capsys.readouterr().out


def test_run_mc_suite_script(capsys):
    assert _load("run_mc_suite").main(["--paths", "20000"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert sum("worst |z| = " in row for row in rows) == 13
    assert rows[-1].endswith("20000 paths x 3 times x 13 combos")
