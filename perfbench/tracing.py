"""Span tracing of the frax layers, applied from outside the package.

``Tracer.install()`` replaces each public function of interest with a
wrapper that records a span (name, start, end, parent, operation id).
Because ``from .x import y`` binds a copy of ``y`` in the importing module,
every ``frax`` module attribute that *is* the original function is replaced,
not only the defining one.  Spans live in flat arrays until the run ends.

Layer names follow the module names: ``specfun.mittag_leffler``,
``relaxation.psi.<law>``, ``stochsim.estimate_crossing.<process>`` and so on.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("specfun", "fraccalc", "relaxation", "stochsim", "verify", "cli")

# (module, function) pairs wrapped under the span name "<module>.<function>".
FUNCTIONS = (
    ("specfun", "mittag_leffler"),
    ("specfun", "gml"),
    ("specfun", "wright_m"),
    ("specfun", "airy_ai"),
    ("specfun", "bessel_i"),
    ("fraccalc", "laplace_invert"),
    ("fraccalc", "laplace_forward"),
    ("fraccalc", "caputo_l1"),
    ("fraccalc", "rl_integral"),
    ("fraccalc", "ode_residual"),
    ("relaxation", "psi"),
    ("relaxation", "psi_laplace"),
    ("relaxation", "asymptote"),
    ("stochsim", "estimate_crossing"),
    ("stochsim", "quadrature_crossing"),
    ("cli", "main"),
)

# Functions whose span name carries the type of their first argument.
TAGGED = {"relaxation.psi", "stochsim.estimate_crossing", "stochsim.quadrature_crossing"}

LAWS = ("standard", "fractional", "sojourn", "firstpassage", "besselsq",
        "elastic", "gammaboundary", "elasticgamma", "distributed")
MC_PROCESSES = ("reflectedbm", "iteratedbm", "sojourntime", "firstpassagechain",
                "besselsquared", "elasticbm")
QUAD_PROCESSES = ("wrighttime", "airytime", "distributedtime")
SUITES = ("identities", "laplace", "residuals", "asymptotics")

PLAIN_LAYERS = (
    "cli.main",
    "specfun.mittag_leffler", "specfun.gml", "specfun.wright_m", "specfun.airy_ai",
    "specfun.bessel_i", "specfun.quad",
    "fraccalc.laplace_invert", "fraccalc.laplace_forward", "fraccalc.caputo_l1",
    "fraccalc.rl_integral", "fraccalc.ode_residual",
    "relaxation.psi", "relaxation.psi_laplace", "relaxation.asymptote", "relaxation.quad",
    "stochsim.estimate_crossing", "stochsim.quadrature_crossing",
)

# Per-layer metric names in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    [(f"{layer}.{kind}", unit) for layer in PLAIN_LAYERS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("relaxation.psi.fallback_share", "fraction"), ("relaxation.psi.wasted_s", "s")]
    + [(f"relaxation.psi.{law}.{kind}", unit) for law in LAWS
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"stochsim.estimate_crossing.{p}.paths_per_s", "1/s") for p in MC_PROCESSES]
    + [(f"stochsim.quadrature_crossing.{p}.self_s", "s") for p in QUAD_PROCESSES]
    + [("stochsim.estimate_crossing.scaling_eff", "fraction")]
    + [(f"verify.{s}.s", "s") for s in SUITES]
    + [("verify.checks_failed", "count")]
    + [("trace.overhead_frac", "fraction"), ("trace.harness_share", "fraction")]
    + [("check.max_abs_err", "abs"), ("check.fail_frac", "fraction")]
)

FALLBACK_LAYERS = ("fraccalc.laplace_invert", "relaxation.quad")


class Tracer:
    """In-memory span recorder with a patch/unpatch life cycle."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_idx = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = -1
        self.paths = {}  # process name -> Monte Carlo paths drawn
        self.checks_failed = 0  # failed records in verify reports
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name(self, name: str) -> int:
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn, tagged: bool = False):
        start, end, parent, op, name_idx = self.start, self.end, self.parent, self.op, self.name_idx
        stack, clock = self._stack, time.perf_counter
        base = self._name(name)

        def traced(*args, **kwargs):
            i = len(start)
            nid = self._name(f"{name}.{type(args[0]).__name__.lower()}") if tagged and args else base
            name_idx.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function under every name that refers to it."""
        import scipy.integrate

        mods = [sys.modules[f"frax.{m}"] for m in MODULES]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"frax.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self.wrap(name, original, tagged=name in TAGGED)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
        verify = sys.modules["frax.verify"]
        for suite, fn in list(verify.SUITES.items()):
            self._undo.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = self.wrap(f"verify.{suite}", fn)
        # specfun binds scipy's quad at import; relaxation imports it inside a
        # function body, so that one is caught on scipy.integrate by caller.
        specfun = sys.modules["frax.specfun"]
        self._replace(specfun, "quad", self.wrap("specfun.quad", specfun.quad))
        real_quad = scipy.integrate.quad
        relax_quad = self.wrap("relaxation.quad", real_quad)

        def quad_by_caller(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "frax.relaxation":
                return relax_quad(*args, **kwargs)
            return real_quad(*args, **kwargs)

        self._replace(scipy.integrate, "quad", quad_by_caller)
        stochsim = sys.modules["frax.stochsim"]
        real_estimate = stochsim.estimate_crossing

        def count_paths(spec, boundary, t, n_paths, *args, **kwargs):
            key = type(spec).__name__.lower()
            self.paths[key] = self.paths.get(key, 0) + n_paths
            return real_estimate(spec, boundary, t, n_paths, *args, **kwargs)

        self._replace(stochsim, "estimate_crossing", count_paths)
        real_report = verify.report

        def count_failed(records):
            self.checks_failed += sum(not r["passed"] for r in records)
            return real_report(records)

        self._replace(verify, "report", count_failed)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_idx, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def _has_descendant(parent: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Mark every span that has a span flagged in ``hit`` below it.

    Children are always recorded after their parent, so one backward pass
    propagates marks from each span to its parent.
    """
    below = np.zeros(len(parent), dtype=bool)
    for i in range(len(parent) - 1, -1, -1):
        p = parent[i]
        if p >= 0 and (hit[i] or below[i]):
            below[p] = True
    return below


def layer_metrics(names: list[str], a: dict) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans."""
    self_s = self_times(a["start"], a["end"], a["parent"])
    idx = a["name"]
    by_name: dict[str, tuple[int, float, float]] = {}
    for i, name in enumerate(names):
        sel = idx == i
        by_name[name] = (int(sel.sum()), float(self_s[sel].sum()),
                         float((a["end"][sel] - a["start"][sel]).sum()))

    def total(prefix: str, k: int) -> float:
        return sum(v[k] for n, v in by_name.items() if n == prefix or n.startswith(prefix + "."))

    out: dict[str, float] = {}
    for layer in PLAIN_LAYERS:
        out[f"{layer}.calls"] = total(layer, 0)
        out[f"{layer}.self_s"] = total(layer, 1)
    psi_ids = [i for i, n in enumerate(names) if n.startswith("relaxation.psi.")
               and n.split(".")[-1] in LAWS]
    is_psi = np.isin(idx, psi_ids)
    hit = np.isin(idx, [i for i, n in enumerate(names) if n in FALLBACK_LAYERS])
    fell_back = is_psi & _has_descendant(a["parent"], hit)
    n_psi = int(is_psi.sum())
    out["relaxation.psi.fallback_share"] = int(fell_back.sum()) / n_psi if n_psi else 0.0
    out["relaxation.psi.wasted_s"] = float(self_s[fell_back].sum())
    for law in LAWS:
        out[f"relaxation.psi.{law}.calls"] = by_name.get(f"relaxation.psi.{law}", (0, 0.0, 0.0))[0]
        out[f"relaxation.psi.{law}.self_s"] = by_name.get(f"relaxation.psi.{law}", (0, 0.0, 0.0))[1]
    for proc in QUAD_PROCESSES:
        key = f"stochsim.quadrature_crossing.{proc}"
        out[f"{key}.self_s"] = by_name.get(key, (0, 0.0, 0.0))[1]
    for suite in SUITES:
        out[f"verify.{suite}.s"] = by_name.get(f"verify.{suite}", (0, 0.0, 0.0))[2]
    return out


def process_rates(names: list[str], a: dict, paths: dict) -> dict[str, float]:
    """Monte Carlo paths per second of each process over its estimate spans."""
    out = {}
    for proc in MC_PROCESSES:
        name = f"stochsim.estimate_crossing.{proc}"
        busy = 0.0
        if name in names:
            sel = a["name"] == names.index(name)
            busy = float((a["end"][sel] - a["start"][sel]).sum())
        out[f"{name}.paths_per_s"] = paths.get(proc, 0) / busy if busy > 0 else 0.0
    return out
