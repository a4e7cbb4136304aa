"""scripts/step_peaks.py: a traced peak for every solver step."""

import subprocess
import sys
from pathlib import Path

from agfti.solver import STEPS

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "step_peaks.py"


def test_small_run_gives_every_step_a_peak_above_the_held_stacks():
    cmd = [sys.executable, str(SCRIPT), "--tree", str(ROOT), "--workload",
           "frozen-v6", "--seed", "1", "--small"]
    stdout = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    peaks = dict(line.split() for line in stdout.splitlines())
    assert list(peaks) == list(STEPS) and len(STEPS) == 6
    # the float32 graphs Z and multiplier W are live through every step:
    # one float64 stack together
    assert all(float(p) >= 1.0 for p in peaks.values())


def test_max_outer_iters_replaces_the_workloads_cap():
    # fuse-m256 caps its solves at one outer iteration (two when small);
    # the option lets every step run past it, and reaches the solver's check
    cmd = [sys.executable, str(SCRIPT), "--tree", str(ROOT), "--workload",
           "fuse-m256", "--seed", "1", "--small", "--max-outer-iters"]
    stdout = subprocess.run(cmd + ["3"], capture_output=True, text=True,
                            check=True).stdout
    peaks = dict(line.split() for line in stdout.splitlines())
    assert list(peaks) == list(STEPS)
    assert all(float(p) >= 1.0 for p in peaks.values())
    refused = subprocess.run(cmd + ["0"], capture_output=True, text=True)
    assert refused.returncode != 0
    assert "max_outer_iters must be at least 1, got 0" in refused.stderr
