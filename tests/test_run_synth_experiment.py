"""scripts/run_synth_experiment.py: argument checks."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synth_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_synth_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_fewer_than_one_repetition_is_refused(monkeypatch, capsys, reps):
    script = load_script()
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--reps", reps])
    with pytest.raises(SystemExit) as exc:
        script.parse_args()
    assert exc.value.code == 2
    assert f"--reps must be at least 1, got {reps}" in capsys.readouterr().err
