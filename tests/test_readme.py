"""The README's library quickstart and command examples must run as written."""

import contextlib
import importlib
import io
import pathlib
import re
import shlex

import frax.cli as cli
import frax.verify as vf

REPO = pathlib.Path(__file__).resolve().parents[1]
README = REPO / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_eval_and_simulate_blocks_print_as_shown():
    # a text block is "$ frax <command> ...", continued by trailing
    # backslashes, followed by exactly what the command prints
    blocks = re.findall(r"```text\n\$ (frax (?:eval|simulate) .*?)```", TEXT, re.S)
    assert {b.split()[1] for b in blocks} == {"eval", "simulate"}
    for block in blocks:
        command, output = re.match(r"((?:[^\n]*\\\n)*[^\n]*\n)(.*)", block, re.S).groups()
        argv = shlex.split(command.replace("\\\n", " "))[1:]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, command
        assert buf.getvalue() == output, command


def test_readme_cites_only_names_its_modules_have():
    # `specfun._ml_series`, `frax.fraccalc.laplace_invert`, or a name under
    # an alias the README imports (`rx.psi(model, 1.0)`), each resolved to
    # an attribute of its module, so that a rename cannot leave it stale
    modules = {p.stem: p.stem for p in (README.parent / "src" / "frax").glob("*.py") if p.stem != "__init__"}
    modules.update((alias, module) for module, alias in re.findall(r"^import frax\.(\w+) as (\w+)$", TEXT, re.M))
    cited = re.findall(rf"`(?:frax\.)?({'|'.join(modules)})\.(\w+)", TEXT)
    assert len(set(cited)) >= 6
    for m, name in cited:
        assert hasattr(importlib.import_module(f"frax.{modules[m]}"), name), f"{m}.{name}"


def test_readme_verify_counts_match_the_suites():
    # the per-suite counts, the total of `all` and each "checks_run" shown
    sizes = {name: len(checks) for name, checks in vf._CHECKS.items()}
    names = [r["check"] for r in vf.run_suite("all")]
    listed = re.search(r"The suites are (.*?)\. `all` runs the first four, (\d+)\s+checks", TEXT, re.S)
    assert {name: int(n) for name, n in re.findall(r"`(\w+)` \((\d+)", listed[1])} == sizes
    assert int(listed[2]) == len(names)
    assert re.search(rf"\({len(names)} checks in `all`,\s+{sizes['crossing']} more in `crossing`\)", TEXT)
    shown = re.findall(r"\$ frax verify --suite (\w+)\n\{\n  \"passed\": true,\n  \"checks_run\": (\d+)", TEXT)
    assert shown and all(int(n) == sizes[name] for name, n in shown)
    # the verify-suite benchmark refuses a run of fewer checks than its floor
    floor = int(re.search(r"MIN_CHECKS = (\d+)", (REPO / "perfbench" / "workloads.py").read_text())[1])
    assert len(set(names)) == len(names) >= floor
