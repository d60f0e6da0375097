#!/usr/bin/env python3
"""Run one frax benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload eval-scatter --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs the same operations untraced and then traced
and prints the per-layer metrics.  The last line of standard output is the
result object; the line before it holds provenance and check details.
Results, spans and the reference cache go to ``.bench_build/perfbench/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT = 120


def _root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "frax" / "__init__.py").is_file():
        sys.exit(f"perfbench: no frax sources under {root / 'src'}; run from a checkout root")
    return root


def _import_frax(root: Path):
    sys.path.insert(0, str(root / "src"))
    import frax
    import frax.cli
    import frax.relaxation

    if Path(frax.__file__).resolve().parent != (root / "src" / "frax").resolve():
        sys.exit(f"perfbench: imported frax from {frax.__file__}, not from the checkout")
    return frax


def tail(values: list[float], q: float) -> float:
    """Mean of the sample ranked between q - (1-q)/2 and q + (1-q)/2: the
    q-th percentile smoothed over the tail's own width (p99 is the mean of
    ranks 98.5%-99.5%).  The tail of a mix of cheap and rare expensive
    operations is sparse, and one order statistic there moved by ~10%
    between runs of the same inputs; the window mean moved by ~3%.
    """
    s = sorted(values)
    n, h = len(s), 0.5 * (1.0 - q)
    lo = min(n - 1, math.floor((q - h) * n))
    hi = max(lo + 1, math.ceil((q + h) * n))
    return statistics.fmean(s[lo:hi])


def measure_setup(root: Path, code: str, kind: str) -> tuple[float, float]:
    """Median set-up time of fresh processes that import frax and call once.

    Returns (at reference speed, as measured).  Each process is scaled by
    the speed kernel timed in this process just before and after it: timed
    inside a fresh process, the kernel read between 1.0x and 1.7x at
    random while the set-up it was meant to scale varied by +-15%.
    """
    script = (
        "import time\n_t0 = time.perf_counter()\n"
        f"import sys\nsys.path.insert(0, {str(root / 'src')!r})\n"
        + code
        + "print(time.perf_counter() - _t0)\n"
    )
    clock_speed = speed.Speed(kind)
    clock_speed.sample(speed.NEAREST)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=root, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT,
        )
        t1 = time.perf_counter()
        clock_speed.sample(speed.NEAREST)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
        setup = float(proc.stdout.strip().splitlines()[-1])
        scaled.append(setup * clock_speed.scaled(t0, t1) / (t1 - t0))
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def timed_loop(work, seconds: float, clock_speed: speed.Speed) -> tuple[list, list]:
    """Run operations in pool order for ``seconds`` while sampling machine
    speed; returns the results and each operation's (start, end).

    An operation is not started when the mean so far says it would end past
    the deadline, so a run of long operations does not overshoot by one.
    """
    results, spans = [], []
    clock = time.perf_counter
    busy = 0.0
    with clock_speed:
        begin = clock()
        while True:
            prepared = work.prepare(len(results))
            t0 = clock()
            results.append(work.run(prepared))
            t1 = clock()
            spans.append((t0, t1))
            busy += t1 - t0
            if t1 - begin + busy / len(results) > seconds:
                break
    return results, spans


def _cache_path(root: Path, name: str, digest: str) -> Path:
    return root / ".bench_build" / "perfbench" / "refs" / f"{name}-{digest[:20]}.json"


def references(root: Path, work, digest: str, n_ops: int) -> dict[int, list[float]]:
    """Reference values for the pool entries used, cached per input digest."""
    path = _cache_path(root, work.name, digest)
    try:
        cached = {int(k): v for k, v in json.loads(path.read_text()).items()}
    except (OSError, ValueError):
        cached = {}
    need = [i for i in range(min(n_ops, len(work.pool))) if i not in cached]
    for i in need:
        cached[i] = work.references(i)
    if need:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cached))
        tmp.replace(path)
    return cached


def check_all(work, results, refs) -> tuple[list, int, bool, float, list[str]]:
    outcomes = [work.check(i, r, refs[i % len(work.pool)]) for i, r in enumerate(results)]
    failed = sum(o.failed for o in outcomes)
    wrong = [f"op {i}: {o.why}" for i, o in enumerate(outcomes) if o.wrong]
    notes = [f"op {i}: {o.why}" for i, o in enumerate(outcomes) if o.failed and not o.wrong]
    max_err = max((o.err for o in outcomes), default=0.0)
    return outcomes, failed, not wrong, max_err, wrong + notes


def end_to_end(work, durations: list[float], setup_s: float) -> dict[str, float]:
    n = len(durations)
    units = [work.units(i) for i in range(n)]
    busy = sum(d for d, u in zip(durations, units) if u)
    is_latency = getattr(work, "is_latency_op", lambda i: True)
    lat = [d * 1e3 for i, d in enumerate(durations) if is_latency(i)]
    return {
        "setup_s": setup_s,
        "work_per_s": sum(units) / busy,
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail(lat, work.tail_q),
    }


UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: Path, seed: int, digest: str) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((root / "src" / "frax").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "inputs_sha256": digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def scaling_efficiency(frax) -> float:
    """Paths/s at FRAX_THREADS=nproc over nproc x paths/s at one worker."""
    ss = frax.stochsim
    nproc = os.cpu_count() or 1
    spec, boundary, n = ss.ReflectedBM(), ss.Exponential(lam=1.0), 8 << 18
    saved = os.environ.get("FRAX_THREADS")
    rates = {}
    try:
        for w in (1, nproc, 1, nproc):
            os.environ["FRAX_THREADS"] = str(w)
            t0 = time.perf_counter()
            ss.estimate_crossing(spec, boundary, 1.0, n, seed=7)
            rates.setdefault(w, []).append(n / (time.perf_counter() - t0))
    finally:
        if saved is None:
            os.environ.pop("FRAX_THREADS", None)
        else:
            os.environ["FRAX_THREADS"] = saved
    return max(rates[nproc]) / (nproc * max(rates[1]))


def traced_metrics(root, frax, work, seconds, seed) -> tuple[dict, list]:
    """Run the workload untraced, replay the same operations traced, and
    derive the per-layer metrics from the spans."""
    import tracing

    plain_speed = speed.Speed(work.speed_kernel)
    plain, plain_spans = timed_loop(work, seconds, plain_speed)
    # The traced pass samples speed between operations only, so no kernel
    # time lands inside a span; that time is left out of the wall time.
    traced_speed = speed.Speed(work.speed_kernel)
    tracer = tracing.Tracer()
    clock = time.perf_counter
    results, spans, next_sample = [], [], 0.0
    with tracer.installed():
        traced_speed.sample(speed.NEAREST)
        begin = clock()
        for i in range(len(plain)):
            if clock() >= next_sample:
                traced_speed.sample()
                next_sample = clock() + traced_speed.every_s
            prepared = work.prepare(i)
            tracer.current_op = i
            t0 = clock()
            results.append(work.run(prepared))
            spans.append((t0, clock()))
        end = clock()
        wall = end - begin - traced_speed.inside(begin, end)
        traced_speed.sample(speed.NEAREST)
    arrays = tracer.arrays()
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(str(out_dir / f"spans-{work.name}-seed{seed}.npz"))
    metrics = tracing.layer_metrics(tracer.names, arrays)
    metrics.update(tracing.process_rates(tracer.names, arrays, tracer.paths))
    metrics["verify.checks_failed"] = tracer.checks_failed
    self_sum = float(tracing.self_times(arrays["start"], arrays["end"], arrays["parent"]).sum())
    roots = arrays["parent"] < 0
    harness = wall - float((arrays["end"][roots] - arrays["start"][roots]).sum())
    if abs(self_sum + harness - wall) > 1e-6 * wall:
        sys.exit("perfbench: span self times and harness time do not add up to the wall time")
    metrics["trace.harness_share"] = harness / wall
    traced_s = sum(traced_speed.scaled(t0, t1) for t0, t1 in spans)
    plain_s = sum(plain_speed.scaled(t0, t1) for t0, t1 in plain_spans)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["stochsim.estimate_crossing.scaling_eff"] = scaling_efficiency(frax)
    return metrics, results


def main(argv=None) -> int:
    import tracing
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = _root()
    frax = _import_frax(root)
    work = workloads.WORKLOADS[args.workload](frax, args.seed)
    digest = hashlib.sha256(json.dumps(work.pool).encode()).hexdigest()

    if args.trace:
        metrics, results = traced_metrics(root, frax, work, args.seconds, args.seed)
    else:
        setup_s, setup_raw = measure_setup(root, work.setup_code, work.speed_kernel)
        clock_speed = speed.Speed(work.speed_kernel)
        results, spans = timed_loop(work, args.seconds, clock_speed)
    refs = references(root, work, digest, len(results))
    _, failed, correct, max_err, notes = check_all(work, results, refs)
    attempted = len(results)
    if args.trace:
        metrics["check.max_abs_err"] = max_err
        metrics["check.fail_frac"] = failed / attempted
        values = {name: (metrics[name], unit) for name, unit in tracing.LAYER_METRICS}
    else:
        durations = [t1 - t0 - clock_speed.inside(t0, t1) for t0, t1 in spans]
        scaled = [clock_speed.scaled(t0, t1) for t0, t1 in spans]
        e2e = end_to_end(work, scaled, setup_s)
        values = {name: (v, UNITS[name]) for name, v in e2e.items()}
        raw = end_to_end(work, durations, setup_raw)
    detail = {
        "workload": work.name,
        "unit_of_work": work.unit,
        "provenance": provenance(root, args.seed, digest),
        "fail_frac": failed / attempted,
        "max_abs_err": max_err,
        "failures": notes[:20],
    }
    if not args.trace:
        detail["speed_factor"] = sum(scaled) / sum(durations)
        detail["as_measured"] = raw
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
    }
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
