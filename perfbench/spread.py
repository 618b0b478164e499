"""Run one workload once per seed and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload cone_sweep_a4 --seeds 1-10 [--json out.json]

Prints, per metric, the median and the spread (distance between the first
and third quartile from ``statistics.quantiles(values, n=4)``, as a share of
the median) next to the metric's bound from BENCHMARK.json, plus the item
tail pooled over all the runs' item times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, tail


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    pooled: list[float] = []
    for seed in args.seeds:
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        record = BENCH_DIR / "results" / f"{args.workload}-seed{seed}-trace0.json"
        pooled += json.loads(record.read_text())["item_s"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "metrics": {}}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        summary["metrics"][m["name"]] = {"median": med, "spread": share, "values": vals, "unit": m["unit"]}
        print(f"{m['name']:<12} median {med:.5g} {m['unit']:<3} spread {share:.4f} "
              f"bound {m['bound']} ({'ok' if share < m['bound'] / 3 else 'WIDE'})")
    value, pct, count = tail(pooled)
    summary["pooled_tail"] = {"value": value, "percentile": pct, "samples": count}
    print(f"pooled item tail: p{pct:.1f} of {count} = {value:.4g} s")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
