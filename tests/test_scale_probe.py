"""scripts/scale_probe.py: one solve or one repetition grid, timed and measured."""

import json
import subprocess
import sys
from pathlib import Path

from agfti.solver import STEPS

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "scale_probe.py"
SMALL = ["--n-per-class", "20", "--views", "2", "--anchors", "8", "--iters", "3",
         "--vmr", "0.5", "--lar", "0.1"]


def probe(*args):
    cmd = [sys.executable, str(SCRIPT), *SMALL, *args]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_one_solve_reports_its_steps_iterations_accuracy_and_memory():
    report = probe()
    assert list(report["step_seconds"]) == list(STEPS)
    assert all(s > 0.0 for s in report["step_seconds"].values())
    assert report["setup_s"] > 0.0
    # the solve builds its graphs before its first step
    assert report["setup_s"] + sum(report["step_seconds"].values()) <= report["wall_s"]
    assert report["n_iter"] == [3]
    assert 0.0 <= report["acc"] <= 1.0
    assert report["peak_rss_mb"] > 0.0


def test_reps_run_the_grid_and_sum_every_solve():
    report = probe("--reps", "2", "--variants", "full,wo_tv,baseline")
    # the baseline makes no solve
    assert report["n_iter"] == [3] * 4
    assert set(report["acc"]) == {"full", "wo_tv", "baseline"}
    assert report["setup_s"] > 0.0
    assert all(0.0 <= a <= 1.0 for a in report["acc"].values())
    for args, message in (
        (["--reps", "1", "--variants", "nope"], "unknown variants ['nope']"),
        # one solve runs the full variant and would leave the list unread
        (["--variants", "wo_tv,baseline"], "--variants needs --reps"),
        # a grid of no repetition, or solves of no iteration, time nothing
        (["--reps", "0"], "--reps must be at least 1, got 0"),
        (["--iters", "0"], "--iters must be at least 1, got 0"),
        (["--reps", "2", "--iters", "-1"], "--iters must be at least 1, got -1"),
        # sizes the library would reject with a traceback
        (["--n-per-class", "0"], "--n-per-class must be at least 1, got 0"),
        (["--views", "0"], "--views must be at least 1, got 0"),
        (["--classes", "0"], "--classes must be at least 1, got 0"),
        (["--anchors", "0"], "--anchors must be at least 1, got 0"),
        (["--anchors", "3"], "--anchors must be a power of two, got 3"),
        (["--anchors", "12"], "--anchors must be a power of two, got 12"),
        (["--anchors", "4"], "--anchors must exceed the solver's 7 neighbours, got 4"),
        (["--n-per-class", "5", "--anchors", "32"],
         "--anchors 32 exceeds the 11 rows the sparsest view holds"),
        (["--vmr", "1.5"], "--vmr must lie in [0, 1), got 1.5"),
        (["--lar", "0"], "--lar must lie in (0, 1], got 0.0"),
        (["--views", "1"], "--vmr must be 0 with --views 1"),
    ):
        refused = subprocess.run([sys.executable, str(SCRIPT), *SMALL, *args],
                                 capture_output=True, text=True)
        assert refused.returncode == 2
        assert message in refused.stderr
