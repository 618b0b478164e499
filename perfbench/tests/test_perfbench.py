"""Tests of the benchmark itself, on its small inputs (a few seconds in all).

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def small_run(workload: str, trace: int, seed: int = 3):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--size", "small",
        ])
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines, result, spec_key):
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split(" ")[0] == name and line.endswith(f" {unit}") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = small_run(workload, 0)
    assert_metrics(lines, result, "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_ratio 0 ratio") for line in lines)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_same_outputs(workload):
    lines, result = small_run(workload, 1)
    assert_metrics(lines, result, "per_layer")
    # correct covers: checks pass, traced outputs equal untraced outputs, and
    # the self times of each traced pass add up to its duration
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["redundancy.calls"]["value"] > 0


def _off_by_one_facets(prog):
    real = prog.cones.irredundant_facets

    def wrong(t, w):
        cone, n = real(t, w)
        return cone, n + 1

    prog.cones.irredundant_facets = wrong


def _shifted_map(prog):
    real = prog.polyhedra.search_unimodular_equivalence

    def wrong(p, q, **kwargs):
        verdict = real(p, q, **kwargs)
        if verdict.shift is None:
            return verdict
        return type(verdict)(verdict.status, verdict.matrix, (verdict.shift[0] + 1,) + verdict.shift[1:])

    prog.polyhedra.search_unimodular_equivalence = wrong


@pytest.mark.parametrize("workload, corrupt", [
    ("cone_sweep_a4", _off_by_one_facets),
    ("cone_classes_c4", _off_by_one_facets),
    ("gt_equivalence_c2", _shifted_map),
])
def test_wrong_answer_raises_fail_ratio(monkeypatch, workload, corrupt):
    real = run.load_program

    def corrupted():
        prog = real()
        corrupt(prog)
        return prog

    monkeypatch.setattr(run, "load_program", corrupted)
    lines, result = small_run(workload, 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    ratio = next(float(line.split()[1]) for line in lines if line.startswith("fail_ratio "))
    assert ratio == result["failed"] / result["attempted"] > 0


def test_seed_fixes_the_inputs():
    def inputs(seed):
        lines, _ = small_run("cone_sweep_a4", 0, seed)
        return next(line for line in lines if line.startswith("workload ")).split("inputs ")[1]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
