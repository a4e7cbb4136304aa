"""The benchmark's own checks, on tiny versions of its workloads.

    python3 -m pytest perfbench

Each test starts run.py in a subprocess, the way the benchmark is driven.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORKLOADS = ("fuse-m256", "frozen-v6", "ablate-402")


def run_bench(workload, trace, seed=5, cwd=ROOT, script=None):
    script = script or HERE / "run.py"
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [parse(run_bench(workload, trace=1)) for _ in range(2)]
    for report, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert report["determinism_problems"] == []
        for name, unit, better, moves in spec.LAYERS:
            assert result["metrics"][name]["unit"] == unit
            layer = report["per_layer"][name]
            assert (layer["unit"], layer["better"], layer["moves"]) == (unit, better, moves)
    (rep_a, res_a), (rep_b, res_b) = runs
    for name in spec.EXACT:
        assert res_a["metrics"][name]["value"] == res_b["metrics"][name]["value"], name
    assert rep_a["end_to_end"]["acc"]["value"] == rep_b["end_to_end"]["acc"]["value"]
    assert res_a["metrics"]["solver.outer_iters"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_unit_and_direction(workload):
    report, result = parse(run_bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0
    for name, unit, better, bound in spec.END_TO_END:
        entry = report["end_to_end"][name]
        assert (entry["unit"], entry["better"], entry["bound"]) == (unit, better, bound)
    gated = {name: unit for name, unit, _, _ in spec.END_TO_END_GATED}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["end_to_end"]["failed_frac"]["value"] == 0.0
    env = report["environment"]
    assert env["blas_thread_pin"] >= 1 and env["blas_thread_pin"] <= env["nproc"]
    for key in ("numpy", "python", "seed", "iteration_cap"):
        assert env[key] is not None


def test_benchmark_json_matches_spec():
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in spec.END_TO_END_GATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in spec.LAYERS
    ]
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("fuse-m256", trace=0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_without_thread_pin():
    # numpy is loaded before run.py gets the chance to pin BLAS threads
    code = (
        "import runpy, sys, numpy; sys.argv = ['run.py', '--workload', 'fuse-m256', "
        "'--seed', '0', '--seconds', '0.01', '--small']; "
        f"runpy.run_path({str(HERE / 'run.py')!r}, run_name='__main__')"
    )
    env = {**os.environ, "PYTHONPATH": str(HERE)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "thread pin" in proc.stderr
    assert proc.stdout.strip() == ""
