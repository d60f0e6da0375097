"""Command-line front end: evaluate laws, simulate crossings, verify, tabulate.

Subcommands:

- ``eval``      evaluate a relaxation law on a time grid with its asymptotes
- ``simulate``  estimate crossing probabilities (Monte Carlo or quadrature)
              and compare them against the matching closed form
- ``verify``    run a self-verification suite of ``verify.SUITES`` (or
              ``all`` of them but ``crossing``), JSON report, exit 0/1
- ``tables``    write the small- and large-time comparison tables as CSV

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error
(or an output path that cannot be written), 3 numerical failure
(non-convergence or unstable inversion), 4 statistical failure
(``--strict`` with any |z| > 4), 141 the reader closed standard output
before it was all written (128 + SIGPIPE, the status a shell reports for a
writer that signal ends); the rest of the output is dropped.

Output is deterministic: CSV is comma-separated with a header row, LF line
endings, UTF-8, and 17-significant-digit numbers; ``simulate`` prefixes a
``# seed=...`` comment line so reports are self-describing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Sequence, get_args

import numpy as np

from . import relaxation as rx
from . import stochsim as ss
from . import verify as vf
from .errors import DomainError, NonConvergence, Unstable, Unsupported

__all__ = ["main"]


def _names(union) -> dict[str, type]:
    """CLI name (the lowercased class name) of each class of a union."""
    return {cls.__name__.lower(): cls for cls in get_args(union)}


_MODELS = _names(rx.RelaxationModel)
_PROCESSES = _names(ss.ProcessSpec)
_BOUNDARIES = _names(ss.BoundarySpec)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _row_format(n: int) -> str:
    """A %-format of ``n`` comma-separated numbers, each as ``_fmt`` writes it."""
    return ",".join(["%.17g"] * n)


# dataclass field -> parameter flag, where the names differ
_FIELD_FLAG = {"lam": "lambda", "n": "k"}
_FLAG_DEST = {"lambda": "lam"}


def _build(cls: type, args: argparse.Namespace, owner: str):
    """Construct a law, process or boundary from its parameter flags.

    Every dataclass field is read from its flag; a field whose flag is
    omitted, or that has no flag, keeps its default.  ``--lambda`` is
    checked first, so that it is the flag an error names when several are
    missing.
    """
    kwargs = {}
    for f in sorted(dataclasses.fields(cls), key=lambda f: f.name != "lam"):
        flag = _FIELD_FLAG.get(f.name, f.name)
        value = getattr(args, _FLAG_DEST.get(flag, flag), None)
        if value is not None:
            kwargs[f.name] = value
        elif f.default is dataclasses.MISSING:
            raise DomainError(f"{owner} requires --{flag}")
    return cls(**kwargs)


def _time_grid(args: argparse.Namespace) -> tuple[float, ...]:
    start, stop, count = args.t_start, args.t_stop, args.t_count
    if args.t is not None and (start is not None or stop is not None):
        raise DomainError("give either --t or --t-start/--t-stop, not both")
    if args.t is not None:
        ts = tuple(args.t)
    elif start is None and stop is None:
        raise DomainError("a time grid is required: --t or --t-start/--t-stop")
    elif start is None or stop is None:
        raise DomainError("--t-start and --t-stop must be given together")
    elif not (count >= 1 and 0.0 < start <= stop and (count == 1 or start < stop)):
        raise DomainError(f"a span needs count >= 1 and 0 < start <= stop (< if count > 1), got {count}, {start}, {stop}")
    elif count == 1:
        ts = (start,)
    else:
        to, back = (math.log, math.exp) if args.t_scale == "log" else (float, float)
        lo, step = to(start), (to(stop) - to(start)) / (count - 1)
        ts = tuple(back(lo + i * step) for i in range(count))
    if not all(math.isfinite(t) and t > 0.0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("grid times must be finite, > 0 and strictly increasing")
    return ts


def _emit(
    columns: Sequence[str],
    rows: Sequence[Sequence[float]],
    args: argparse.Namespace,
    comments: Sequence[str] = (),
) -> None:
    if args.format == "json":
        doc = [{c: r[i] for i, c in enumerate(columns)} for r in rows]
        payload = {"comments": list(comments), "rows": doc}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        row = _row_format(len(columns))
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(columns))
        lines.extend(row % tuple(r) for r in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args: argparse.Namespace) -> int:
    model = _build(_MODELS[args.model], args, args.model)
    ts = _time_grid(args)
    values = rx.psi(model, np.asarray(ts)).tolist()
    # the grid and the law are checked: the asymptotes need no public call per point
    asymptotes = rx._asymptotes(model, (True, False), ts)
    rows = list(zip(ts, values, asymptotes[0::2], asymptotes[1::2]))
    _emit(("t", "psi", "asymptote_small", "asymptote_large"), rows, args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    # checked for every process, though only Monte Carlo ones draw from it
    ss._seed(args.seed, "simulate")
    spec = _build(_PROCESSES[args.process], args, args.process)
    boundary = _build(_BOUNDARIES[args.boundary], args, f"boundary {args.boundary}")
    model = spec.law(boundary)
    ts = _time_grid(args)
    try:
        estimates = ss.crossing(spec, boundary, ts, args.paths, seed=args.seed)
    except (NonConvergence, Unstable) as exc:  # the message names the time
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3
    rows = []
    worst_z = 0.0
    for t, est in zip(ts, estimates):
        try:
            analytic = rx.psi(model, t)
        except (NonConvergence, Unstable) as exc:
            print(f"simulation failed at t={_fmt(t)}: {exc}", file=sys.stderr)
            return 3
        z = est.z_score(analytic)
        worst_z = max(worst_z, abs(z))
        rows.append((t, est.p_hat, est.stderr, analytic, z))
    _emit(
        ("t", "p_hat", "stderr", "analytic", "z_score"),
        rows,
        args,
        comments=(f"seed={args.seed}",),
    )
    if args.strict and worst_z > 4.0:
        print(f"strict mode: worst |z| = {worst_z:.3g} exceeds 4", file=sys.stderr)
        return 4
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    records = vf.run_suite(args.suite)
    text = vf.report(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if all(r["passed"] for r in records) else 1


def _label(model: rx.RelaxationModel) -> str:
    """A law's name in the tables: its CLI name, then each field as name=%g, ``lam`` last."""
    fields = sorted(dataclasses.fields(model), key=lambda f: f.name == "lam")
    return " ".join([type(model).__name__.lower(), *(f"{f.name}={getattr(model, f.name):g}" for f in fields)])


# the first law of each class in the catalogue
_TABLE_MODELS = tuple((_label(model), model) for i, (_, model) in enumerate(rx.EXAMPLES)
                      if type(model) not in {type(m) for _, m in rx.EXAMPLES[:i]})


def _cmd_tables(args: argparse.Namespace) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    grids = {
        "small_time.csv": (rx.SmallT, (1e-2, 1e-3, 1e-4)),
        "large_time.csv": (rx.LargeT, (1e2, 1e3, 1e4)),
    }
    row = _row_format(4)
    for fname, (regime, ts) in grids.items():
        path = os.path.join(args.out_dir, fname)
        lines = ["model,t,exact,asymptote,ratio"]
        for name, model in _TABLE_MODELS:
            for t in ts:
                try:
                    exact = rx.psi(model, t)
                    approx = rx.asymptote(model, regime, t)
                except (NonConvergence, Unstable) as exc:
                    print(f"table row failed at t={_fmt(t)}: {exc}", file=sys.stderr)
                    return 3
                ratio = exact / approx if approx != 0.0 else math.nan
                if approx == 0.0 and exact == 0.0:
                    ratio = 1.0
                lines.append(f"{name}," + row % (t, exact, approx, ratio))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(path)
    return 0


def _add_parameter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", type=float, help="fractional order in (0, 1)")
    p.add_argument("--lambda", dest="lam", type=float, help="rate of the (boundary) law")
    p.add_argument("--alpha", type=float, help="killing rate of the elastic motion")
    p.add_argument("--gamma", type=float, help="dimension of the squared Bessel process")
    p.add_argument(
        "--k",
        type=int,
        help="integer shape of a gamma law, or iteration depth of a chained process",
    )
    p.add_argument("--nu1", type=float, help="lower order of the two-order law")
    p.add_argument("--nu2", type=float, help="upper order of the two-order law")
    p.add_argument("--n1", type=float, help="weight of the lower order")
    p.add_argument("--n2", type=float, help="weight of the upper order")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, nargs="+", help="explicit evaluation times")
    p.add_argument("--t-start", type=float, help="first grid time")
    p.add_argument("--t-stop", type=float, help="last grid time")
    p.add_argument("--t-count", type=int, default=10, help="number of grid times")
    p.add_argument(
        "--t-scale", choices=("linear", "log"), default="linear", help="grid spacing"
    )


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``frax`` argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="frax",
        description="Relaxation laws as Brownian crossing probabilities: "
        "evaluation, simulation, verification, tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a relaxation law on a time grid")
    pe.add_argument("--model", choices=tuple(_MODELS), required=True)
    _add_parameter_flags(pe)
    _add_grid_flags(pe)
    _add_output_flags(pe)
    pe.set_defaults(func=_cmd_eval)

    ps = sub.add_parser("simulate", help="estimate crossing probabilities")
    ps.add_argument("--process", choices=tuple(_PROCESSES), required=True)
    ps.add_argument("--boundary", choices=tuple(_BOUNDARIES), required=True)
    _add_parameter_flags(ps)
    _add_grid_flags(ps)
    _add_output_flags(ps)
    ps.add_argument("--paths", type=int, default=1_000_000, help="Monte Carlo paths")
    ps.add_argument("--seed", type=int, default=ss.DEFAULT_SEED)
    ps.add_argument(
        "--strict", action="store_true", help="exit 4 if any |z_score| exceeds 4"
    )
    ps.set_defaults(func=_cmd_simulate)

    pv = sub.add_parser("verify", help="run the self-verification suites")
    pv.add_argument(
        "--suite",
        choices=(*vf.SUITES, "all"),
        default="all",
    )
    pv.add_argument("--out", help="write the JSON report here instead of stdout")
    pv.set_defaults(func=_cmd_verify)

    pt = sub.add_parser("tables", help="write the asymptotic comparison tables")
    pt.add_argument("--out-dir", required=True)
    pt.set_defaults(func=_cmd_tables)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (DomainError, Unsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, Unstable) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the flush at exit
        # does not fail on the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
