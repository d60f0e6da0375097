"""The benchmark's span tracer (perfbench/tracing.py) against the package.

The tracer reaches frax functions by name, so renaming or deleting one
breaks ``perfbench/run.py --trace 1`` while every other test passes.
"""

import importlib.util
import pathlib
import sys

import scipy.integrate

import frax.cli  # noqa: F401  (the tracer patches every frax module it names)
import frax.relaxation as rx
import frax.verify as vf

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("frax_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_name_it_patches_and_restores_them():
    tracing = load_tracing()
    modules = [sys.modules[f"frax.{name}"] for name in tracing.MODULES]
    before = [dict(vars(module)) for module in modules]
    suites, quad = dict(vf.SUITES), scipy.integrate.quad
    tracer = tracing.Tracer()
    original = before[tracing.MODULES.index("fraccalc")]["laplace_invert"]
    with tracer.installed():  # an AttributeError here names a function the tracer lost
        for module, name in tracing.FUNCTIONS:
            assert getattr(sys.modules[f"frax.{module}"], name) is not before[tracing.MODULES.index(module)][name]
        assert rx.laplace_invert is vf.laplace_invert is not original  # imported copies are wrapped too
        rx.psi(rx.GammaBoundary(k=2, lam=1.0), 1e4)
    for module, names in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in names.items()), module.__name__
    assert vf.SUITES == suites and scipy.integrate.quad is quad
    metrics = tracing.layer_metrics(tracer.names, tracer.arrays())
    assert metrics["relaxation.psi.gammaboundary.calls"] == 1
    assert metrics["fraccalc.laplace_invert.calls"] >= 1
