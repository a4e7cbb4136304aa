"""The benchmark tracer's lookup sites resolve on the package.

perfbench/tracing.py times layers by replacing module globals of agfti; a
site that no longer resolves would otherwise surface only in the slow
benchmark suite. The tracer is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

import agfti.agf
import agfti.harness.experiment
import agfti.solver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the module keys perfbench/run.py maps its sites onto
MODULES = {
    "solver": agfti.solver,
    "agf": agfti.agf,
    "experiment": agfti.harness.experiment,
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_key, attr", [site[:2] for site in load_tracing().LAYER_SITES]
)
def test_layer_site_resolves(module_key, attr):
    assert callable(getattr(MODULES[module_key], attr, None)), f"{module_key}.{attr}"
