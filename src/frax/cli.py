"""Command-line front end: evaluate laws, simulate crossings, verify, tabulate.

Subcommands:

- ``eval``      evaluate a relaxation law on a time grid with its asymptotes
- ``simulate``  estimate crossing probabilities (Monte Carlo or quadrature)
              and compare them against the matching closed form
- ``verify``    run the self-verification suites, JSON report, exit 0/1
- ``tables``    write the small- and large-time comparison tables as CSV

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 numerical failure (non-convergence or unstable inversion), 4 statistical
failure (``--strict`` with any |z| > 4).

Output is deterministic: CSV is comma-separated with a header row, LF line
endings, UTF-8, and 17-significant-digit numbers; ``simulate`` prefixes a
``# seed=...`` comment line so reports are self-describing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Sequence, get_args

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
    explicit = args.t is not None
    spanned = args.t_start is not None or args.t_stop is not None
    if explicit and spanned:
        raise DomainError("give either --t or --t-start/--t-stop, not both")
    if explicit:
        return rx.TimeGrid(ts=tuple(args.t)).ts
    if spanned:
        if args.t_start is None or args.t_stop is None:
            raise DomainError("--t-start and --t-stop must be given together")
        grid = rx.TimeGrid.span(args.t_start, args.t_stop, args.t_count, args.t_scale)
        return grid.ts
    raise DomainError("a time grid is required: --t or --t-start/--t-stop")


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
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in r) for r in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args: argparse.Namespace) -> int:
    model = _build(_MODELS[args.model], args, args.model)
    ts = _time_grid(args)
    rows = []
    for t in ts:
        try:
            value = rx.psi(model, t)
            small = rx.asymptote(model, rx.SmallT, t)
            large = rx.asymptote(model, rx.LargeT, t)
        except (NonConvergence, Unstable) as exc:
            print(f"evaluation failed at t={_fmt(t)}: {exc}", file=sys.stderr)
            return 3
        rows.append((t, value, small, large))
    _emit(("t", "psi", "asymptote_small", "asymptote_large"), rows, args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _build(_PROCESSES[args.process], args, args.process)
    boundary = _build(_BOUNDARIES[args.boundary], args, f"boundary {args.boundary}")
    model = spec.law(boundary)
    ts = _time_grid(args)
    rows = []
    worst_z = 0.0
    for t in ts:
        try:
            if hasattr(spec, "_sample"):
                est = ss.estimate_crossing(spec, boundary, t, args.paths, seed=args.seed)
            else:
                est = ss.quadrature_crossing(spec, boundary, t)
            analytic = rx.psi(model, t)
        except (NonConvergence, Unstable) as exc:
            print(f"simulation failed at t={_fmt(t)}: {exc}", file=sys.stderr)
            return 3
        gap = est.p_hat - analytic
        if est.stderr > 0.0:
            z = gap / est.stderr
        else:
            # a zero stderr claims an exact value: any gap fails it
            z = math.copysign(math.inf, gap) if gap else 0.0
        worst_z = max(worst_z, abs(z))
        rows.append((t, est.p_hat, est.stderr, analytic, z))
    _emit(
        ("t", "p_hat", "stderr", "analytic", "z_score"),
        rows,
        args,
        comments=(f"seed={args.seed}",),
    )
    if args.strict and worst_z > 4.0:
        print(f"strict mode: worst |z| = {worst_z:.3f} exceeds 4", file=sys.stderr)
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


_TABLE_MODELS: tuple[tuple[str, rx.RelaxationModel], ...] = (
    ("standard lam=1", rx.Standard(lam=1.0)),
    ("fractional nu=0.5 lam=1", rx.Fractional(nu=0.5, lam=1.0)),
    ("sojourn lam=1", rx.Sojourn(lam=1.0)),
    ("firstpassage n=1 lam=1", rx.FirstPassage(lam=1.0, n=1)),
    ("besselsq gamma=2 lam=1", rx.BesselSq(gamma=2.0, lam=1.0)),
    ("elastic alpha=0.7 lam=1.3", rx.Elastic(alpha=0.7, lam=1.3)),
    ("gammaboundary k=2 lam=1", rx.GammaBoundary(k=2, lam=1.0)),
    ("elasticgamma k=2 alpha=0.8 lam=1.1", rx.ElasticGamma(k=2, alpha=0.8, lam=1.1)),
    ("distributed nu1=0.5 nu2=1 n1=0.5 n2=0.5 lam=1", rx.Distributed(nu1=0.5, nu2=1.0, n1=0.5, n2=0.5, lam=1.0)),
)


def _cmd_tables(args: argparse.Namespace) -> int:
    import os

    os.makedirs(args.out_dir, exist_ok=True)
    grids = {
        "small_time.csv": (rx.SmallT, (1e-2, 1e-3, 1e-4)),
        "large_time.csv": (rx.LargeT, (1e2, 1e3, 1e4)),
    }
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
                lines.append(
                    f"{name},{_fmt(t)},{_fmt(exact)},{_fmt(approx)},{_fmt(ratio)}"
                )
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


def _build_parser() -> argparse.ArgumentParser:
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
        choices=("identities", "laplace", "residuals", "asymptotics", "all"),
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
        return args.func(args)
    except (DomainError, Unsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, Unstable) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
