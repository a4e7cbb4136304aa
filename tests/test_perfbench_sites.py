"""The benchmark tracer's lookup sites resolve on the package, and its hooks
read what the package passes them.

perfbench/tracing.py times layers by replacing module globals of agfti; a
site that no longer resolves, or a hook that no longer understands a
signature, would otherwise surface only in the slow benchmark suite. The
tracer is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

import agfti.agf
import agfti.harness.experiment
import agfti.solver
from agfti.harness import (
    BASELINE,
    STANDARD_VARIANTS,
    MaskSpec,
    generate_masks,
    missing_per_view,
    run_experiment,
    synth_scp,
)

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


def test_traced_solve_counts_the_shrinkage_slices():
    tracing = load_tracing()
    container = synth_scp(0, n_per_class=20)
    missing, labeled = generate_masks(
        container, MaskSpec(vmr=0.3, lar=0.1, seed=0)
    )
    tracer = tracing.Tracer()
    with tracer.patched(MODULES, tracing.LAYER_SITES):
        result = agfti.solver.admm_solve(
            container.views, container.labels, labeled,
            missing_per_view(missing, container.V),
            agfti.solver.SolverConfig(n_anchors=8, max_outer_iters=5),
        )
    assert [s for s in tracer.spans if s[4]] == []
    shrinks = tracer.calls("tensor3.tubal_shrink")
    assert shrinks == result.n_iter == 5
    # one half-spectrum slice per frequency 0 .. n//2 of the sample axis
    assert tracer.counts["tensor3.svd_slices"] == (container.n // 2 + 1) * shrinks


def test_traced_frozen_solve_fuses_inside_agf_minmax():
    tracing = load_tracing()
    container = synth_scp(0, n_per_class=20)
    missing, labeled = generate_masks(
        container, MaskSpec(vmr=0.3, lar=0.1, seed=0)
    )
    tracer = tracing.Tracer()
    with tracer.patched(MODULES, tracing.LAYER_SITES):
        result = agfti.solver.admm_solve(
            container.views, container.labels, labeled,
            missing_per_view(missing, container.V),
            agfti.solver.SolverConfig(
                n_anchors=8, max_outer_iters=5, freeze_weights=True
            ),
        )
    assert [s for s in tracer.spans if s[4]] == []
    assert tracer.calls("agf.agf_minmax") == result.n_iter == 5
    refreshes = [s for s in tracer.spans if s[0] == "agf.compute_H"]
    assert len(refreshes) == 5
    for span in refreshes:
        parent = span[3]
        assert parent >= 0 and tracer.spans[parent][0] == "agf.agf_minmax"


@pytest.mark.parametrize("V", [2, 3])
def test_traced_solve_records_one_setup_span_per_view(V):
    # setup_s is the time of these spans; a solve that stopped calling the
    # graph builders through solver would read a setup time of 0
    tracing = load_tracing()
    container = synth_scp(0, V=V, n_per_class=20)
    missing, labeled = generate_masks(
        container, MaskSpec(vmr=0.3, lar=0.1, seed=0)
    )
    tracer = tracing.Tracer()
    with tracer.patched(MODULES, tracing.LAYER_SITES):
        agfti.solver.admm_solve(
            container.views, container.labels, labeled,
            missing_per_view(missing, container.V),
            agfti.solver.SolverConfig(n_anchors=8, max_outer_iters=1),
        )
    assert tracer.calls("graphs.bkhk_anchors") == V
    assert tracer.calls("graphs.build_bipartite") == V


@pytest.mark.parametrize("V", [2, 3])
def test_untraced_experiment_keeps_every_solve_and_its_setup(V):
    # the benchmark's untraced run_experiment call: one SolveResult kept per
    # solver column and repetition, and one anchor build per view per
    # repetition, shared by the columns, the baseline's included
    tracing = load_tracing()
    container = synth_scp(0, V=V, n_per_class=20)
    config = agfti.solver.SolverConfig(n_anchors=8, k_neighbors=3, max_outer_iters=3)
    variants = {**STANDARD_VARIANTS, BASELINE: {}}
    tracer = tracing.Tracer()
    with tracer.patched(MODULES, tracing.SOLVE_SITES + tracing.SETUP_SITES):
        out = run_experiment(container, 0.3, 0.1, 2, solver_config=config,
                             variants=variants)
    assert [s for s in tracer.spans if s[4]] == []
    # solves run repetition by repetition, columns in order
    columns = [(name, r) for r in range(2) for name in STANDARD_VARIANTS]
    assert [res.n_iter for res in tracer.results] == [
        out["variants"][name]["records"][r]["n_iter"] for name, r in columns
    ]
    assert tracer.calls("graphs.bkhk_anchors") == V * 2
    assert tracer.calls("graphs.build_bipartite") == V * 2
