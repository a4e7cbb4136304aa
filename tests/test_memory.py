"""Memory of the graph shrinkage, the multiplier step and the fusion: how many large arrays live at once.

The solver's largest allocations are (V, n, m) stacks. These tests pin how
many of them the shrinkage and multiplier steps hold, and how many n x m
arrays a fusion call holds, by tracemalloc (numpy reports its array buffers
to it) and by weak references to the stacks the loop drops.
"""

import tracemalloc
import weakref
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import agfti.solver
from agfti.agf import agf_minmax, solve_inner_P
from agfti.harness import MaskSpec, generate_masks, missing_per_view, synth_scp
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


def assert_all_live_shrinkage_holds_two_stacks(A):
    # every one of the n//2+1 frequency slices is live; the spectrum and the
    # output are about one input each, and a batch's factors are small
    with traced():
        entry, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = tubal_shrink(A, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    assert np.abs(out - A).max() > 0
    assert peak - entry <= 2.5 * A.nbytes


def test_all_live_shrinkage_holds_the_spectrum_and_the_output():
    assert_all_live_shrinkage_holds_two_stacks(
        np.random.default_rng(0).standard_normal((1000, 16, 4))
    )


def test_all_live_shrinkage_of_a_solver_shaped_stack():
    # the (n, m, V) view of a (V, n, m) stack of six 64-anchor graphs, as
    # update_G shrinks it: 64 x 6 frequency slices
    Z = np.random.default_rng(0).standard_normal((6, 1000, 64))
    assert_all_live_shrinkage_holds_two_stacks(Z.transpose(1, 2, 0))


def peak_above_entry(call):
    """(call's result, its traced peak above the memory live when it starts)."""
    with traced():
        entry, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    return result, peak - entry


def test_all_live_graph_shrinkage_writes_G_over_M():
    # M = Z + W/eta, its spectrum and one batch's factors; G takes over M
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((6, 1000, 64))
    W = rng.standard_normal(Z.shape)
    G, peak = peak_above_entry(lambda: agfti.solver.update_G(Z, W, 1.0, 1e-3))
    assert np.abs(G - (Z + W)).max() > 0
    assert peak <= 2.6 * Z.nbytes


def test_multiplier_step_holds_one_gap():
    rng = np.random.default_rng(0)
    Z, G, W = rng.standard_normal((3, 6, 1000, 64))
    stack = Z.nbytes
    gap = Z - G
    _, peak = peak_above_entry(lambda: agfti.solver.update_multiplier(W, gap, 0.5))
    assert peak <= 0.1 * stack
    state = SimpleNamespace(Z=Z, G=G, W=W, eta=0.5)
    _, peak = peak_above_entry(lambda: agfti.solver._multiply(state, None))
    assert peak <= 1.1 * stack
    assert state.prim_inf == np.abs(Z - G).max()


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


def test_weighted_fusion_holds_no_fused_graph_or_product_temporaries():
    # the fuse-m256 benchmark's shape: n=1000, 256 anchors, two views, four
    # weight steps. Each candidate holds its target and its projection
    # beside H / (2 beta) and the current P; with explicit alignments the
    # product stack adds V arrays, at identity alignments nothing
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
            res = agf_minmax(Z, Ts, F, Q, 4.0, 4.0, alpha, P0, tol=0.0, max_iter=4)
            _, peak = tracemalloc.get_traced_memory()
        assert res.evaluated > 0
        assert peak - entry <= (held + 5.5) * array
