"""Memory of the graph shrinkage, the multiplier step, the fusion, the projection and the repetition harness: how many large arrays live at once.

The solver's largest allocations are (V, n, m) stacks. These tests pin how
many of them the shrinkage and multiplier steps hold, how many n x m arrays
a fusion call and a simplex projection hold, by tracemalloc (numpy reports
its array buffers to it), and by weak references which arrays the loop has
dropped by the time a fusion runs, and which solves and graph stacks the
harness has dropped by the time it starts the next one.

A "stack" is the bytes of a float64 (V, n, m) array, the unit of
scripts/step_peaks.py, wherever a test builds its stacks in float64. The
solver stores its own stacks in float32; the tests of that storage count
in float32 stacks, half that unit, and say so.
"""

import tracemalloc
import weakref
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

import agfti.agf
import agfti.harness.experiment
import agfti.solver
from agfti.agf import agf_minmax, solve_inner_P
from agfti.harness import (MaskSpec, generate_masks, missing_per_view,
                           run_experiment, synth_scp)
from agfti.harness.experiment import STANDARD_VARIANTS
from agfti.simplex import prox_rows
from agfti.tensor3 import tubal_shrink


@contextmanager
def traced():
    """Trace allocations for the block, leaving an outer trace running."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        yield
    finally:
        if not outer:
            tracemalloc.stop()


def assert_all_live_shrinkage_holds_one_stack(A):
    # every one of the n//2+1 frequency slices is live; the packed spectrum
    # is stored in the output, one input in size, beside one column's
    # transform and a batch's factors: measured at 1.75 and 1.55 inputs,
    # where a separate spectrum added about one more (2.37 and 2.11)
    with traced():
        entry, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = tubal_shrink(A, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    assert np.abs(out - A).max() > 0
    assert peak - entry <= 2.0 * A.nbytes


def test_all_live_shrinkage_holds_the_spectrum_and_the_output():
    assert_all_live_shrinkage_holds_one_stack(
        np.random.default_rng(0).standard_normal((1000, 16, 4))
    )


def test_all_live_shrinkage_of_a_solver_shaped_stack():
    # the (n, m, V) view of a (V, n, m) stack of six 64-anchor graphs, as
    # update_G shrinks it: 64 x 6 frequency slices
    Z = np.random.default_rng(0).standard_normal((6, 1000, 64))
    assert_all_live_shrinkage_holds_one_stack(Z.transpose(1, 2, 0))


def peak_above_entry(call):
    """(call's result, its traced peak above the memory live when it starts)."""
    with traced():
        entry, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    return result, peak - entry


def assert_all_live_graph_shrinkage_peaks_below(dtype, bound):
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((6, 1000, 64)).astype(dtype)
    W = rng.standard_normal(Z.shape).astype(dtype)
    G, peak = peak_above_entry(lambda: agfti.solver.update_G(Z, W, 1.0, 1e-3))
    assert G.dtype == dtype
    assert np.abs(G - (Z + W)).max() > 0
    assert peak <= bound * Z.nbytes


def test_all_live_graph_shrinkage_writes_G_over_M():
    # M = Z + W/eta holds its own packed spectrum, then G; beside it one
    # view's float64 transform and one batch's factors: measured at 1.55
    # stacks, where a separate spectrum added about one more (2.41)
    assert_all_live_graph_shrinkage_peaks_below(np.float64, 1.75)


def test_all_live_graph_shrinkage_of_float32_stacks():
    # the solver's storage: the same, with one view's float64 transform
    # twice as large against a float32 stack, measured at 2.17 float32
    # stacks, where a separate complex64 spectrum added about one more (2.91)
    assert_all_live_graph_shrinkage_peaks_below(np.float32, 2.4)


def test_multiplier_step_holds_one_gap():
    rng = np.random.default_rng(0)
    Z, G, W = rng.standard_normal((3, 6, 1000, 64))
    stack = Z.nbytes
    gap = Z - G
    _, peak = peak_above_entry(lambda: agfti.solver.update_multiplier(W, gap, 0.5))
    assert peak <= 0.1 * stack
    # the step allocates G's rows at the missing samples and nothing else:
    # the gap takes over G's buffer, which the step consumes
    missing = [rng.choice(1000, size, replace=False)
               for size in (700, 0, 350, 500, 10, 600)]
    rows = sum(idx.size for idx in missing) * 64 * 8
    G_rows = [G[v, idx] for v, idx in enumerate(missing)]
    prim_inf = np.abs(Z - G).max()
    state = SimpleNamespace(Z=Z, G=G, W=W, eta=0.5, missing=missing)
    fields, peak = peak_above_entry(
        lambda: agfti.solver._multiply(state, agfti.solver.SolverConfig())
    )
    assert peak <= rows + 0.01 * stack
    assert fields["primal_residual_inf"] == prim_inf
    assert state.G is None
    assert all(np.array_equal(a, b) for a, b in zip(state.G_rows, G_rows, strict=True))


def test_multiplier_step_keeps_no_rows_without_imputation():
    rng = np.random.default_rng(0)
    Z, G, W = rng.standard_normal((3, 6, 1000, 64))
    state = SimpleNamespace(Z=Z, G=G, W=W, eta=0.5, G_rows=None,
                            missing=[np.arange(500)] * 6)
    config = agfti.solver.SolverConfig(skip_imputation=True)
    _, peak = peak_above_entry(lambda: agfti.solver._multiply(state, config))
    assert peak <= 0.01 * Z.nbytes
    assert state.G is None and state.G_rows is None


def test_solve_drops_the_previous_G_and_the_last_gap_before_the_shrinkage(
    monkeypatch,
):
    container = synth_scp(0, V=6, c=3, n_per_class=20)
    missing, labeled = generate_masks(container, MaskSpec(vmr=0.5, lar=0.1, seed=0))
    update_G = agfti.solver.update_G
    update_multiplier = agfti.solver.update_multiplier
    # weak references to the G each shrinkage returned and each gap the
    # multiplier read; all must be dead when the next shrinkage starts
    dropped = []
    shrinks = []

    def watched_update_G(Z, W, eta, rho):
        shrinks.append([name for name, ref in dropped if ref() is not None])
        G = update_G(Z, W, eta, rho)
        dropped.append(("G", weakref.ref(G)))
        return G

    def watched_update_multiplier(W, gap, eta):
        dropped.append(("gap", weakref.ref(gap)))
        return update_multiplier(W, gap, eta)

    monkeypatch.setattr(agfti.solver, "update_G", watched_update_G)
    monkeypatch.setattr(agfti.solver, "update_multiplier", watched_update_multiplier)
    result = agfti.solver.admm_solve(
        container.views, container.labels, labeled,
        missing_per_view(missing, container.V),
        agfti.solver.SolverConfig(n_anchors=8, max_outer_iters=4, freeze_weights=True),
    )
    assert result.n_iter == len(shrinks) == 4
    assert shrinks == [[]] * 4


def test_solve_holds_no_replaced_fused_graph_or_target(monkeypatch):
    # each n x m fused graph the solve was handed, and the initial inner
    # solve's target, must be dead when a fusion call starts, except the P it
    # starts from: a name left bound to one holds an n x m array for the solve
    container = synth_scp(0, V=2, c=3, n_per_class=20)
    missing, labeled = generate_masks(container, MaskSpec(vmr=0.5, lar=0.1, seed=0))
    solve_inner_P = agfti.solver.solve_inner_P
    agf_minmax = agfti.solver.agf_minmax
    made = []
    alive = []

    def watched_solve_inner_P(*args, **kwargs):
        P, t = solve_inner_P(*args, **kwargs)
        made.extend((weakref.ref(P), weakref.ref(t)))
        return P, t

    def watched_agf_minmax(*args, P0, **kwargs):
        alive.append(sum(ref() is not None and ref() is not P0 for ref in made))
        res = agf_minmax(*args, P0=P0, **kwargs)
        made.append(weakref.ref(res.P))
        return res

    monkeypatch.setattr(agfti.solver, "solve_inner_P", watched_solve_inner_P)
    monkeypatch.setattr(agfti.solver, "agf_minmax", watched_agf_minmax)
    result = agfti.solver.admm_solve(
        container.views, container.labels, labeled,
        missing_per_view(missing, container.V),
        agfti.solver.SolverConfig(n_anchors=8, max_outer_iters=4),
    )
    assert result.n_iter == len(alive) == 4
    assert alive == [0] * 4


@pytest.mark.parametrize("freeze_weights", [False, True])
def test_weighted_fusion_holds_no_fused_graph_or_product_temporaries(freeze_weights):
    # the fuse-m256 benchmark's shape: n=1000, 256 anchors, two views, four
    # weight steps. Each candidate holds its target and its projection
    # beside H / (2 beta) and the current P; with explicit alignments the
    # product stack adds V arrays, at identity alignments nothing. A frozen
    # call holds the same stack for its one solve, under the same bound
    container = synth_scp(1, V=2, c=3, class_sizes=(334, 333, 333))
    missing, labeled = generate_masks(container, MaskSpec(vmr=0.5, lar=0.05, seed=1))
    m = 256
    Z = agfti.solver.anchor_graphs(
        container.views, missing_per_view(missing, container.V), m, 7, 1
    )
    V, n, _ = Z.shape
    alpha = np.full(V, 1.0 / V)
    P0, _ = solve_inner_P(Z, alpha, 0.0, 4.0, 4.0)
    Y = agfti.solver.one_hot_labels(container.labels, labeled, container.c)
    F, Q = agfti.solver.update_labels(P0, Y, 100.0)
    array = n * m * 8
    for Ts, held in ((None, 0), (np.tile(np.eye(m), (V, 1, 1)), V)):
        with traced():
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            res = agf_minmax(Z, Ts, F, Q, 4.0, 4.0, alpha, P0, tol=0.0, max_iter=4,
                             freeze_weights=freeze_weights)
            _, peak = tracemalloc.get_traced_memory()
        assert (res.evaluated > 0) != freeze_weights
        assert peak - entry <= (held + 5.5) * array


@pytest.mark.parametrize("config", [
    {"max_outer_iters": 4},
    {"max_outer_iters": 3, "max_inner_iters": 3, "inner_tol": 0.0},
    {"max_outer_iters": 4, "freeze_weights": True},
])
def test_no_G_outside_shrink_and_multiplier_and_no_P_past_its_H(monkeypatch, config):
    # weak references to every G a shrinkage returned, and to the fused
    # graph each H refresh read: at each H refresh and each alignment no G
    # may be alive, and the P an H refresh read must be dead when the inner
    # solve after it starts
    container = synth_scp(0, V=2, c=3, n_per_class=20)
    missing, labeled = generate_masks(container, MaskSpec(vmr=0.5, lar=0.1, seed=0))
    update_G = agfti.solver.update_G
    update_alignment = agfti.solver.update_alignment
    compute_H = agfti.agf.compute_H
    solve_inner_P = agfti.agf.solve_inner_P
    made_G = []
    G_alive = {"fusion": [], "align": []}
    read_by_H = []
    P_alive = []

    def watched_update_G(*args):
        G = update_G(*args)
        made_G.append(weakref.ref(G))
        return G

    def live_G():
        return sum(ref() is not None for ref in made_G)

    def watched_update_alignment(*args):
        G_alive["align"].append(live_G())
        return update_alignment(*args)

    def watched_compute_H(F, Q, P):
        G_alive["fusion"].append(live_G())
        read_by_H.append(weakref.ref(P))
        return compute_H(F, Q, P)

    def watched_solve_inner_P(*args):
        if read_by_H:
            P_alive.append(read_by_H.pop()() is not None)
        return solve_inner_P(*args)

    monkeypatch.setattr(agfti.solver, "update_G", watched_update_G)
    monkeypatch.setattr(agfti.solver, "update_alignment", watched_update_alignment)
    monkeypatch.setattr(agfti.agf, "compute_H", watched_compute_H)
    monkeypatch.setattr(agfti.agf, "solve_inner_P", watched_solve_inner_P)
    result = agfti.solver.admm_solve(
        container.views, container.labels, labeled,
        missing_per_view(missing, container.V),
        agfti.solver.SolverConfig(n_anchors=8, **config),
    )
    assert len(made_G) == len(G_alive["align"]) + 1 == result.n_iter > 1
    assert len(P_alive) == len(G_alive["fusion"]) >= result.n_iter
    assert G_alive == {name: [0] * len(seen) for name, seen in G_alive.items()}
    assert P_alive == [False] * len(P_alive)


def test_all_partial_projection_holds_its_output_and_one_block():
    # an all-partial target, as imputation projects: the sort path's work
    # arrays are SORT_BLOCK rows, so the output is the only full-size array
    target = np.random.default_rng(0).standard_normal((2000, 256))
    x, peak = peak_above_entry(lambda: prox_rows(target))
    assert (x == 0).any(axis=1).all()
    assert peak <= 1.5 * target.nbytes


def watch_experiment(monkeypatch, name, alive):
    """Wrap experiment.<name>: at each call, append to alive how many of the
    arrays its earlier calls returned (a SolveResult's graphs Zs, or the stack
    itself) are still alive."""
    original = getattr(agfti.harness.experiment, name)
    made = []

    def watched(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        out = original(*args, **kwargs)
        made.append(weakref.ref(out.Zs if name == "admm_solve" else out))
        return out

    monkeypatch.setattr(agfti.harness.experiment, name, watched)


def test_experiment_holds_one_solve_and_one_stack_at_a_time(monkeypatch):
    # two repetitions of the four solver variants: no solve may start with an
    # earlier solve's graphs alive, nor a build with the last repetition's
    solves, builds = [], []
    watch_experiment(monkeypatch, "admm_solve", solves)
    watch_experiment(monkeypatch, "anchor_graphs", builds)
    container = synth_scp(0, V=2, c=3, n_per_class=20)
    out = run_experiment(container, 0.5, 0.1, 2,
                         agfti.solver.SolverConfig(n_anchors=8, max_outer_iters=3),
                         variants=STANDARD_VARIANTS)
    assert all(block["failed_reps"] == 0 for block in out["variants"].values())
    assert solves == [0] * 8
    assert builds == [0] * 2



def float32_step_peaks(monkeypatch, config, graphs=None):
    """(result, setup peak, {step: peak}) of a small V=6 solve, in float32 stacks.

    graphs None lets the solve build its graphs; a dtype hands it the stack
    anchor_graphs builds, in that dtype.
    A step's peak is the largest traced memory while it ran, over every
    iteration, counting everything the solve has allocated and holds; the
    setup peak is the largest before the first step. The unit is the bytes
    of the solve's float32 (V, n, m) graph stack.
    """
    container = synth_scp(0, V=6, c=3, n_per_class=300)
    missing, labeled = generate_masks(container, MaskSpec(vmr=0.5, lar=0.1, seed=0))
    per_view = missing_per_view(missing, container.V)
    if graphs is not None:
        graphs = agfti.solver.anchor_graphs(container.views, per_view,
                                            config.n_anchors, 7, 0).astype(graphs)
    peaks = dict.fromkeys(agfti.solver.STEPS, 0.0)
    setup = []

    def watched(name, step):
        def run(s, config):
            if not setup:
                setup.append(tracemalloc.get_traced_memory()[1] / s.Z.nbytes)
            tracemalloc.reset_peak()
            fields = step(s, config)
            peak = tracemalloc.get_traced_memory()[1] / s.Z.nbytes
            peaks[name] = max(peaks[name], peak)
            return fields

        return run

    monkeypatch.setattr(agfti.solver, "_STEP_TABLE", tuple(
        (name, watched(name, step), skip)
        for name, step, skip in agfti.solver._STEP_TABLE
    ))
    with traced():
        tracemalloc.clear_traces()
        result = agfti.solver.admm_solve(container.views, container.labels,
                                         labeled, per_view, config, graphs=graphs)
    return result, setup[0], peaks


# each step's traced peak on float32_step_peaks' problem, in float32 stacks:
# measured at 3.21, 3.41, 4.75, 3.73, 3.76 and 4.00 with weight steps (a
# frozen solve's fusion 4.39), each bound about 0.5 above. The float32
# graphs Z and multiplier W are two of each; any whole stack promoted to
# float64 adds two more, where it happens. The shrinkage's threshold skips
# the transform in all four iterations here, so the float32 update_G test
# above bounds its spectrum
FLOAT32_STEP_PEAKS = {"align": 3.75, "impute": 4.0, "fusion": 5.25,
                      "labels": 4.25, "shrink": 4.25, "multiplier": 4.5}


@pytest.mark.parametrize("freeze_weights", [False, True])
def test_steps_hold_float32_stacks(monkeypatch, freeze_weights):
    config = agfti.solver.SolverConfig(n_anchors=32, max_outer_iters=4,
                                       freeze_weights=freeze_weights)
    result, _, peaks = float32_step_peaks(monkeypatch, config)
    assert result.Zs.dtype == np.float32
    assert result.n_iter == 4
    over = {name: round(peak, 2) for name, peak in peaks.items()
            if peak > FLOAT32_STEP_PEAKS[name]}
    assert over == {}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_given_graph_stack_is_converted_once(monkeypatch, dtype):
    # the solve given a stack holds the float32 copy it works on, never a
    # float64 copy beside it: its setup peaks where a stack it builds leaves
    # it, and its outputs are that solve's bit for bit
    config = agfti.solver.SolverConfig(n_anchors=32, max_outer_iters=2)
    built, built_setup, _ = float32_step_peaks(monkeypatch, config)
    given, given_setup, _ = float32_step_peaks(monkeypatch, config, dtype)
    assert given.Zs.dtype == np.float32
    assert abs(given_setup - built_setup) <= 0.1
    assert np.array_equal(given.F, built.F) and np.array_equal(given.Zs, built.Zs)


def test_baseline_reads_a_float32_stack_without_a_copy():
    # its mean graph is one float32 stack, and the label solve reads it in
    # float64 blocks of LABEL_BLOCK entries: measured at 2.08 stacks with
    # the n x c arrays. A float64 copy or promotion of the stack would add two
    container = synth_scp(0, V=2, c=4, n_per_class=1000)
    missing, labeled = generate_masks(container, MaskSpec(vmr=0.5, lar=0.1, seed=0))
    per_view = missing_per_view(missing, container.V)
    stack = agfti.solver.anchor_graphs(container.views, per_view, 64, 7, 0)
    before = stack.copy()
    assert stack.dtype == np.float32

    def baseline(graphs):
        return agfti.harness.experiment.baseline_label_propagation(
            container.views, container.labels, labeled, per_view, m=64,
            graphs=graphs)

    pred, peak = peak_above_entry(lambda: baseline(stack))
    assert peak <= 2.75 * stack.nbytes
    assert np.array_equal(stack, before)
    assert np.array_equal(pred, baseline(None))
