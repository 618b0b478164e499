"""Benchmark of the stringcones engine: one workload per run, closed loop.

    python3 perfbench/run.py --workload cone_sweep_a4 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.  A
run sets the program up afresh (new import, inputs made from ``--seed``)
before every pass and at least `MIN_SETUPS` times in all, then times
``--seconds // pass_s`` passes (at least one; ``pass_s`` is the workload's
nominal pass time) over the items, one item after the other on one thread.
Outputs are checked outside the timed region: those of the first pass by the
workload's check, those of a later pass by equality with the first (and by
the check again if they differ).  Times are reported in reference-speed
seconds (see speed.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
untraced passes, then runs the same passes again with every layer's public
functions wrapped (see tracing.py), checks that both give the same outputs,
and reports the per-layer metrics.  The last line of standard output is one
JSON object; a record with the inputs, outputs and times (and in a traced
run the spans) is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
PACKAGE = "stringcones"
MIN_SETUPS = 5
TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import the program afresh from ``src/``; its caches start empty."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} package under {SRC}")
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ProgramMissing(f"{PACKAGE} was imported from {package.__file__}, not {SRC}")
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in tracing.LAYER_MODULES}
    return SimpleNamespace(package=package, **modules)


def setup(workload, seed: int, small: bool, tracer):
    """Fresh import plus inputs; returns (program, items, wall interval, spans)."""
    start = len(tracer.spans) if tracer else 0
    t0 = time.perf_counter()
    with tracer.span("setup") if tracer else nullcontext():
        prog = load_program()
        if tracer:
            tracer.install(prog)
        items = workload.inputs(prog, random.Random(seed), small)
    interval = (t0, time.perf_counter())
    return prog, items, interval, tracer.spans_since(start) if tracer else None


def run_pass(workload, prog, items, tracer):
    """One timed pass; returns (ctx, item wall intervals, outputs, pass wall
    interval, spans)."""
    intervals, outputs = [], []
    start = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.polytopes.clear()
    t0 = time.perf_counter()
    with tracer.span("pass") if tracer else nullcontext():
        ctx = workload.prepare(prog, items)
        for item in items:
            a = time.perf_counter()
            try:
                with tracer.span("item") if tracer else nullcontext():
                    out = (workload.run(prog, ctx, item), None)
            except Exception as exc:  # an item that raises counts as failed
                out = (None, f"{type(exc).__name__}: {exc}")
            intervals.append((a, time.perf_counter()))
            outputs.append(out)
    wall = (t0, time.perf_counter())
    return ctx, intervals, outputs, wall, tracer.spans_since(start) if tracer else None


def check_pass(workload, prog, ctx, items, outputs, full: bool):
    """Canonical outputs and failure messages of one pass; ``full`` runs the
    workload's check on every output."""
    canon, failures = [], []
    for item, (out, err) in zip(items, outputs):
        if err is not None:
            failures.append(f"{workload.label(item)}: raised {err}")
            canon.append(None)
            continue
        if full:
            try:
                workload.check(prog, ctx, item, out)
            except Exception as exc:
                failures.append(f"{workload.label(item)}: {type(exc).__name__}: {exc}")
        canon.append(workload.canon(item, out))
    return canon, failures


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def measure(workload, seed: int, seconds: float, small: bool, tracer=None):
    """Set-ups and passes of one phase (traced or not).  Times are kept as
    wall seconds (``raw_*``) and as reference-speed seconds (see speed.py)."""
    phase = SimpleNamespace(failures=[], attempted=0, canon=None, consistent=True, labels=None,
                            layer=[], setup_spans=[], pass_spans=[])
    setups, walls, items_wall = [], [], []
    passes = max(1, int(seconds // workload.pass_s[small]))
    with SpeedProbe() as probe:
        while len(walls) < passes:
            prog, items, interval, spans = setup(workload, seed, small, tracer)
            setups.append(interval)
            phase.setup_spans.append(spans)
            if len(setups) < MIN_SETUPS and not walls:
                continue
            ctx, intervals, outputs, wall, spans = run_pass(workload, prog, items, tracer)
            canon, failures = check_pass(workload, prog, ctx, items, outputs, full=not walls)
            if phase.canon is None:
                phase.canon, phase.labels = canon, [workload.label(i) for i in items]
                first_failures = failures
            elif canon == phase.canon:
                failures = first_failures
            else:
                phase.consistent = False
                _, failures = check_pass(workload, prog, ctx, items, outputs, full=True)
            walls.append(wall)
            items_wall.extend(intervals)
            phase.failures.extend(failures)
            phase.attempted += len(items)
            if tracer:
                phase.layer.append(tracing.layer_metrics(spans, len(tracer.polytopes)))
                phase.pass_spans.append(spans)
    # Layer times get the speed adjustment of their whole pass.
    for metrics, (a, b) in zip(phase.layer, walls):
        factor = probe.adjusted(a, b) / (b - a)
        for key in metrics:
            if key.endswith("_s"):
                metrics[key] *= factor
    for name, intervals in (("setups", setups), ("walls", walls), ("times", items_wall)):
        setattr(phase, name, [probe.adjusted(a, b) for a, b in intervals])
        setattr(phase, "raw_" + name, [b - a for a, b in intervals])
    return phase


def tail(times):
    """The highest percentile with at least `TAIL_BEYOND` samples above it,
    or the maximum when there are too few samples: (value, percentile, count)."""
    s = sorted(times)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def end_to_end(phase) -> dict:
    t_value, _, _ = tail(phase.times)
    return {
        "setup_s": (statistics.median(phase.setups), "s"),
        "run_s": (statistics.median(phase.walls), "s"),
        "item_p50_s": (statistics.median(phase.times), "s"),
        "item_tail_s": (t_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def per_layer(untraced, traced) -> dict:
    keys = traced.layer[0].keys()
    out = {k: (statistics.fmean(m[k] for m in traced.layer), _unit(k)) for k in keys}
    out["weyl.setup_busy_s"] = (
        statistics.median(tracing.layer_metrics(s, 0)["weyl.busy_s"] for s in traced.setup_spans),
        "s",
    )
    out["trace_overhead_ratio"] = (
        statistics.median(traced.walls) / statistics.median(untraced.walls),
        "ratio",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: A3/C2 inputs that run in seconds, for the benchmark's own tests")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    small = args.size == "small"

    try:
        untraced = measure(workload, args.seed, args.seconds, small)
        traced = measure(workload, args.seed, args.seconds, small, tracing.Tracer()) if args.trace else None
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = list(untraced.failures)
    attempted = untraced.attempted
    correct = untraced.consistent
    if traced:
        failures += traced.failures
        attempted += traced.attempted
        if not traced.consistent or traced.canon != untraced.canon:
            correct = False
            print("traced outputs differ from untraced outputs")
        for spans in traced.pass_spans:
            root = spans[0][4] - spans[0][3]
            total = sum(tracing.self_times(spans))
            if abs(total - root) > 1e-6 * max(root, 1.0):
                correct = False
                print(f"self times sum to {total} s, traced pass took {root} s")
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced)
    correct = correct and not failures
    fail_ratio = len(failures) / attempted

    _, pct, count = tail(untraced.times)
    size = "" if args.size == "full" else f"-{args.size}"
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}{size}"
    inputs_sha, outputs_sha = digest(untraced.labels), digest(untraced.canon)
    print(f"workload {args.workload} ({args.size}) seed {args.seed}: {len(untraced.labels)} items, "
          f"{len(untraced.walls)} pass(es), inputs {inputs_sha}, outputs {outputs_sha}")
    print(f"item_tail_s is p{pct:.1f} of {count} item times")
    print(f"wall clock (not speed-adjusted): run_s {statistics.median(untraced.raw_walls):.6g} s, "
          f"setup_s {statistics.median(untraced.raw_setups):.6g} s")
    print(f"fail_ratio {fail_ratio:.6g} ratio ({len(failures)} of {attempted})")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "inputs": untraced.labels, "inputs_sha": inputs_sha, "outputs_sha": outputs_sha,
        "pass_s": untraced.walls, "setup_s": untraced.setups, "item_s": untraced.times,
        "raw_pass_s": untraced.raw_walls, "raw_setup_s": untraced.raw_setups,
        "raw_item_s": untraced.raw_times,
        "tail": {"percentile": pct, "samples": count}, "fail_ratio": fail_ratio,
        "failures": failures, "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (RESULTS / f"{record_name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (RESULTS / f"{record_name}-spans.json").write_text(json.dumps(traced.pass_spans) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
