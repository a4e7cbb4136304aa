"""scripts/output_digest.py: repeatable digests that see a changed output."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_small(*extra):
    cmd = [sys.executable, str(SCRIPT), "--tree", str(ROOT), "--seeds", "0",
           "--problems", "1", "--small", *map(str, extra)]
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout


def against_lines(stdout):
    """{workload: {stat: value}} from the --against lines of a run."""
    out = {}
    for line in stdout.splitlines():
        name, kind, *fields = line.split()
        if kind == "against":
            out[name] = {k: float(v) for k, v in (f.split("=") for f in fields)}
    return out


def test_small_runs_repeat_and_name_every_workload():
    first = run_small()
    assert first == run_small()
    names = [line.split()[0] for line in first.splitlines()]
    assert names == ["fuse-m256", "frozen-v6", "ablate-402"]
    for line in first.splitlines():
        assert line.split()[-1] == "baselines=1"


def solve_result(rng):
    """A SolveResult stand-in with one diagnostics record of every field."""
    record = {
        "iteration": 1, "h": 1.0, "primal_residual_fro": 0.2,
        "primal_residual_inf": 0.1, "delta_F": 0.01, "alpha": [0.5, 0.5],
        "eta": 0.02, "seconds": 0.5,
        "step_seconds": {"impute": 0.1, "fusion": 0.4},
        "line_search": {"steps": 2, "thetas": [0.5], "evaluated": 1,
                        "bound_rejected": 3},
    }
    return SimpleNamespace(
        F=rng.random((5, 3)), alpha=np.array([0.5, 0.5]), P=rng.random((5, 4)),
        Q=rng.random((4, 3)), Zs=rng.random((2, 5, 4)),
        diagnostics=[record], n_iter=1, converged=False,
    )


def test_perturbed_F_changes_the_digest():
    od = load_script()
    result = solve_result(np.random.default_rng(0))
    before = od.digest([result])
    assert od.digest([result]) == before
    result.F[2, 1] = np.nextafter(result.F[2, 1], 2.0)
    assert od.digest([result]) != before


def test_results_that_differ_only_in_Q_digest_differently():
    od = load_script()
    a = solve_result(np.random.default_rng(3))
    b = solve_result(np.random.default_rng(3))
    assert od.digest([a]) == od.digest([b])
    b.Q[1, 2] = np.nextafter(b.Q[1, 2], 2.0)
    assert od.digest([a]) != od.digest([b])


def test_line_search_record_enters_the_digest_and_the_clock_does_not():
    od = load_script()
    result = solve_result(np.random.default_rng(1))
    before = od.digest([result])
    record = result.diagnostics[0]
    record["seconds"] = 9.0
    record["step_seconds"]["fusion"] = 8.0
    assert od.digest([result]) == before
    record["line_search"]["steps"] = 3
    assert od.digest([result]) != before


def test_changed_baseline_prediction_changes_the_digest():
    od = load_script()
    pred = np.array([0, 2, 1, 1, 0])
    before = od.digest([pred])
    assert od.digest([pred.copy()]) == before
    pred[3] = 2
    assert od.digest([pred]) != before


def test_against_reads_zero_on_the_same_tree_and_reports_a_moved_F(tmp_path):
    saved = tmp_path / "parent.npz"
    run_small("--save", saved)
    same = against_lines(run_small("--against", saved))
    assert list(same) == ["fuse-m256", "frozen-v6", "ablate-402"]
    for stats in same.values():
        assert stats["solves"] >= 1
        assert {k: v for k, v in stats.items() if k != "solves"} == {
            "unpaired": 0, "max_dF": 0, "max_dalpha": 0, "flipped": 0,
            "n_iter_differ": 0, "converged_differ": 0,
        }
    # move one F entry of the first ablate-402 solve past its row's maximum
    arrays = dict(np.load(saved))
    F = arrays["ablate-402/0/F"]
    F[0, np.argmin(F[0])] = F[0].max() + 1.0
    np.savez(saved, **arrays)
    moved = against_lines(run_small("--against", saved))
    assert moved["ablate-402"]["flipped"] == 1
    assert moved["ablate-402"]["max_dF"] >= 1.0
    assert moved["ablate-402"]["n_iter_differ"] == 0
    assert moved["fuse-m256"]["max_dF"] == 0


def test_compare_counts_iterations_and_convergence_that_differ():
    od = load_script()
    rng = np.random.default_rng(2)
    a, b = solve_result(rng), solve_result(rng)
    b.F, b.alpha = a.F.copy(), a.alpha + np.array([1e-9, -1e-9])
    b.n_iter, b.converged = 2, True
    moved = od.compare("w", od.solve_arrays("w", [a]), od.solve_arrays("w", [b, a]))
    assert moved == {"solves": 1, "unpaired": 1, "max_dF": 0.0,
                     "max_dalpha": pytest.approx(1e-9), "flipped": 0,
                     "n_iter_differ": 1, "converged_differ": 1}
