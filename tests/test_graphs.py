import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agfti.harness
import agfti.solver
from agfti.agf import fuse_aligned, weighted_fusion_input
from agfti.graphs import _left_halves, bkhk_anchors, build_bipartite, pairwise_sq_dists

from oracles import (
    _sq_dists,
    bkhk_anchors_recursive,
    build_bipartite_full_sort,
    fusion_input_per_view,
    rand_orthogonal,
    rand_row_stochastic,
    simplex_qp_oracle,
)


class TestPairwiseSqDists:
    def test_the_three_term_formula_bit_for_bit(self):
        # formed in the product's buffer, as the oracle forms it out of place;
        # repeated and zero rows put distances at the clamp
        rng = np.random.default_rng(2)
        A = np.vstack([rng.standard_normal((40, 7)), np.zeros((2, 7))])
        B = np.vstack([A[:10], rng.standard_normal((20, 7)), np.zeros((1, 7))])
        d = pairwise_sq_dists(A, B)
        ref = _sq_dists(A, B)
        assert np.array_equal(d, ref) and np.array_equal(np.signbit(d), np.signbit(ref))
        stacked = pairwise_sq_dists(np.stack([A, -A]), np.stack([B, 2.0 * B]))
        assert np.array_equal(stacked[0], d)
        assert np.array_equal(stacked[1], _sq_dists(-A, 2.0 * B))


class TestBkhkAnchors:
    def test_single_anchor_is_mean(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((17, 3))
        anchors = bkhk_anchors(X, 1, seed=5)
        assert np.allclose(anchors[0], X.mean(axis=0), atol=1e-12)

    def test_recovers_repeated_generators(self):
        rng = np.random.default_rng(1)
        gens = rng.standard_normal((4, 2)) * 5
        X = np.repeat(gens, 8, axis=0)
        anchors = bkhk_anchors(X, 4, seed=9)
        # each generator matched by exactly one anchor, up to ordering
        d = pairwise_sq_dists(gens, anchors)
        assert d.min(axis=1).max() < 1e-8
        assert len(set(d.argmin(axis=1))) == 4

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(8, 60),
        t=st.integers(0, 3),
        seed=st.integers(0, 2**31),
    )
    def test_leaf_sizes_balanced(self, n, t, seed):
        m = 2**t
        if m > n:
            return
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3))
        # the leaves are the reference recursion's, whose anchors the
        # package's equal bit for bit
        ref, leaves = bkhk_anchors_recursive(X, m, seed, return_assignment=True)
        assert bkhk_anchors(X, m, seed=seed).tobytes() == ref.tobytes()
        assert ref.shape == (m, 3)
        sizes = np.bincount(leaves, minlength=m)
        assert set(sizes) <= {n // m, -(-n // m)}

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 4))
        a1 = bkhk_anchors(X, 8, seed=77)
        a2 = bkhk_anchors(X, 8, seed=77)
        a3 = bkhk_anchors(X, 8, seed=78)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)

    def test_errors(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError):
            bkhk_anchors(X, 8, seed=0)  # m > |X|
        with pytest.raises(ValueError):
            bkhk_anchors(X, 3, seed=0)  # not a power of two


class TestBuildBipartite:
    def test_sample_on_anchor_k1(self):
        anchors = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        X = np.array([[3.0, 0.0]])
        Z = build_bipartite(X, anchors, k=1)
        assert np.array_equal(Z[0], [0.0, 1.0, 0.0])

    def test_hand_worked_closed_form(self):
        # anchors on a line at 0,1,2,3; sample at the origin has squared
        # distances (0,1,4,9); with k=2 the closed form gives (4/7, 3/7, 0, 0)
        anchors = np.array([[0.0], [1.0], [2.0], [3.0]])
        X = np.array([[0.0]])
        Z = build_bipartite(X, anchors, k=2)
        assert np.allclose(Z[0], [4 / 7, 3 / 7, 0.0, 0.0], atol=1e-12)

    def test_solves_perrow_qp(self):
        # row weights minimize sum_j d_j z_j + gamma ||z||^2 over the simplex
        # with gamma = (k*d_(k+1) - sum_{h<=k} d_h) / 2
        rng = np.random.default_rng(4)
        k = 2
        for _ in range(25):
            anchors = rng.standard_normal((4, 2))
            X = rng.standard_normal((3, 2))
            Z = build_bipartite(X, anchors, k=k)
            d = pairwise_sq_dists(X, anchors)
            for i in range(3):
                ds = np.sort(d[i])
                gamma = 0.5 * (k * ds[k] - ds[:k].sum())
                if gamma < 1e-12:
                    continue
                ref = simplex_qp_oracle(-d[i] / (2 * gamma))
                assert np.abs(Z[i] - ref).max() < 1e-10

    def test_support_size(self):
        rng = np.random.default_rng(5)
        anchors = rng.standard_normal((6, 2))
        X = rng.standard_normal((20, 2))
        Z = build_bipartite(X, anchors, k=3)
        assert np.all((Z > 0).sum(axis=1) == 3)
        assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        anchors = rng.standard_normal((5, 3))
        X = rng.standard_normal((7, 3))
        Z1 = build_bipartite(X, anchors, k=2)
        Z2 = build_bipartite(2.5 * X, 2.5 * anchors, k=2)
        assert np.abs(Z1 - Z2).max() < 1e-9

    def test_uniform_fallback_when_degenerate(self):
        # sample equidistant from all four anchors: k+1 nearest distances equal
        anchors = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        )
        X = np.array([[0.0, 0.0]])
        Z = build_bipartite(X, anchors, k=2)
        row = Z[0]
        assert np.isclose(row.sum(), 1.0)
        assert np.isclose(row[row > 0].min(), 0.5)
        assert (row > 0).sum() == 2

    def test_k_bounds(self):
        anchors = np.zeros((4, 2))
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            build_bipartite(X, anchors, k=0)
        with pytest.raises(ValueError):
            build_bipartite(X, anchors, k=4)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_graphs_match_references(X, m, k, seed, index=0):
    """Anchors and Z equal the recursive, full-sort references' bits."""
    anchors = bkhk_anchors(X, m, seed, index=index)
    ref = bkhk_anchors_recursive(X, m, seed, index=index)
    assert anchors.tobytes() == ref.tobytes()
    if k is not None:
        Z = build_bipartite(X, anchors, k)
        assert Z.tobytes() == build_bipartite_full_sort(X, anchors, k).tobytes()


class TestLevelwiseMatchesRecursion:
    """The level-at-a-time tree and the partial kNN give the references' bits."""

    @pytest.mark.parametrize("name", ["fuse-m256", "frozen-v6", "ablate-402"])
    def test_small_workload_views(self, name):
        workloads = load_workloads()
        w = workloads.get(name, small=True)
        problem = workloads.Problem(w, workloads.problem_seed(0, 0), agfti)
        views = problem.container.views
        config = problem.config
        for per_view, _ in problem.masks:
            for v, X in enumerate(views):
                present = np.setdiff1d(np.arange(X.shape[0]), per_view[v])
                assert_graphs_match_references(
                    X[present], config.n_anchors, config.k_neighbors,
                    config.seed, index=v,
                )

    @pytest.mark.parametrize("d", [2, 30, 100])
    def test_random_data(self, d):
        X = np.random.default_rng(d).standard_normal((300, d))
        assert_graphs_match_references(X, 32, 7, seed=11, index=1)

    @pytest.mark.parametrize("n, m, k", [
        (203, 16, 7),   # leaves of 12 and 13 samples
        (37, 32, 7),    # leaves of 1 and 2 samples
        (17, 1, None),  # no split; Z needs m > k >= 1
        (64, 64, 7),    # one sample per leaf
        (48, 16, 15),   # k = m - 1
    ])
    def test_tree_shapes(self, n, m, k):
        X = np.random.default_rng(n + m).standard_normal((n, 3))
        assert_graphs_match_references(X, m, k, seed=5)

    @pytest.mark.parametrize("distinct", [1, 3, 40])
    def test_duplicated_rows(self, distinct):
        # ties in the farthest-pair seeding, the split order and the kNN
        rng = np.random.default_rng(distinct)
        rows = rng.standard_normal((distinct, 4))
        X = rows[rng.integers(0, distinct, 150)]
        assert_graphs_match_references(X, 16, 7, seed=2)
        assert_graphs_match_references(X, 16, 15, seed=2)

    def test_degenerate_row_takes_the_lowest_tied_anchors(self):
        # the sample at the origin has squared distances 2, 1, 2, 1, ...: its
        # k+1 = 4 nearest anchors are equidistant, so it gets uniform weight
        # on anchors 1, 3 and 5, the lowest indices among the four tied ones
        anchors = np.array([
            [1.0, 1.0], [1.0, 0.0], [-1.0, 1.0], [0.0, 1.0],
            [-1.0, -1.0], [-1.0, 0.0], [1.0, -1.0], [0.0, -1.0],
        ])
        X = np.array([[0.0, 0.0], [0.3, 0.1]])
        Z = build_bipartite(X, anchors, k=3)
        assert Z.tobytes() == build_bipartite_full_sort(X, anchors, k=3).tobytes()
        assert np.array_equal(np.flatnonzero(Z[0]), [1, 3, 5])
        assert np.allclose(Z[0, [1, 3, 5]], 1 / 3)


class TestScoreSplit:
    """One score per sample and a partition give the stable sort's halves."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4), s=st.integers(1, 40))
    def test_halves_are_a_stable_argsorts_first_positions(self, data, k, s):
        # a few distinct values (-0.0 among them), so ties are common; NaN,
        # which overflowing features give, sorts last
        values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0, np.nan])
        score = np.array(data.draw(st.lists(
            st.lists(values, min_size=s, max_size=s), min_size=k, max_size=k
        )))
        order = np.argsort(score, axis=1, kind="stable")
        for n_left in range(1, s + 1):
            expected = np.zeros((k, s), dtype=bool)
            np.put_along_axis(expected, order[:, :n_left], True, axis=1)
            assert np.array_equal(_left_halves(score, n_left), expected)

    @pytest.mark.parametrize("d", [17, 76])
    def test_duplicated_wide_rows(self, d):
        # copies of one row tie only if each gets the same score bits; a
        # BLAS matrix-vector product can round copies apart at these widths
        rng = np.random.default_rng(d)
        X = rng.standard_normal((40, d))[rng.integers(0, 40, 300)]
        assert_graphs_match_references(X, 32, 7, seed=3)


class TestWeightedFusionInput:
    def test_single_view_identity(self):
        rng = np.random.default_rng(7)
        Z = rand_row_stochastic(rng, 6, 4)
        out = weighted_fusion_input([Z], [np.eye(4)], np.array([1.0]))
        assert np.allclose(out, Z, atol=1e-15)

    def test_zero_weight_view_ignored(self):
        rng = np.random.default_rng(8)
        Z1 = rand_row_stochastic(rng, 5, 3)
        Z2 = rand_row_stochastic(rng, 5, 3)
        T = [np.eye(3), np.eye(3)]
        out = weighted_fusion_input([Z1, Z2], T, np.array([1.0, 0.0]))
        assert np.allclose(out, Z1, atol=1e-15)

    def test_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(9)
        n, m, V = 4, 3, 3
        Zs = [rand_row_stochastic(rng, n, m) for _ in range(V)]
        Ts = [rand_orthogonal(rng, m) for _ in range(V)]
        alpha = rng.dirichlet(np.ones(V))
        out = weighted_fusion_input(Zs, Ts, alpha)
        ref = np.zeros((n, m))
        for v in range(V):
            for i in range(n):
                for j in range(m):
                    ref[i, j] += alpha[v] ** 2 * float(Zs[v][i] @ Ts[v][:, j])
        assert np.abs(out - ref).max() < 1e-12

    def test_bitwise_equal_to_per_view_products(self):
        rng = np.random.default_rng(10)
        for V in (2, 3, 5):
            Zs = [rand_row_stochastic(rng, 40, 16) for _ in range(V)]
            Ts = [rand_orthogonal(rng, 16) for _ in range(V)]
            alpha = rng.dirichlet(np.ones(V))
            assert np.array_equal(
                weighted_fusion_input(Zs, Ts, alpha),
                fusion_input_per_view(Zs, Ts, alpha),
            )

    @pytest.mark.parametrize(
        "V, n, m", [(2, 402, 64), (6, 2000, 64), (2, 1000, 256)]
    )
    def test_identity_alignments_fuse_the_graphs_unmultiplied(self, V, n, m):
        rng = np.random.default_rng(11)
        Z = np.stack([rand_row_stochastic(rng, n, m) for _ in range(V)])
        alpha = rng.dirichlet(np.ones(V))
        assert np.array_equal(
            fuse_aligned(Z, alpha),
            weighted_fusion_input(Z, np.tile(np.eye(m), (V, 1, 1)), alpha),
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_fusion_input(
                [np.zeros((3, 2))], [np.eye(3)], np.array([1.0])
            )
