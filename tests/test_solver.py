import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import agfti.agf
import agfti.solver
from agfti.graphs import ZeroDegreeWarning, floored_anchor_degrees, zero_degree_anchors
from agfti.harness import (
    DatasetContainer,
    MaskSpec,
    baseline_label_propagation,
    generate_masks,
    missing_per_view,
    synth_scp,
)
from agfti.harness.experiment import STANDARD_VARIANTS, draw_repetition
from agfti.solver import (
    STEPS,
    SolverConfig,
    admm_solve,
    anchor_graphs,
    one_hot_labels,
    predict,
    update_alignment,
    update_G,
    update_labels,
    update_missing_rows,
    update_multiplier,
)
from agfti.simplex import prox_rows
from agfti.tensor3 import phi, tubal_shrink

from oracles import (
    Tensor3,
    dense_bipartite_pieces,
    dense_label_solve,
    label_weights,
    missing_rows,
    perf_gain_dense,
    performance_gain,
    rand_orthogonal,
    rand_row_stochastic,
    simplex_qp_oracle,
    tnn,
)


def blob_views(rng, n_per_class=20, c=3, V=2):
    """Small well-separated multi-view blobs for integration tests."""
    centers = rng.standard_normal((c, 2)) * 8.0
    X = np.vstack(
        [centers[j] + rng.standard_normal((n_per_class, 2)) for j in range(c)]
    )
    y = np.repeat(np.arange(c), n_per_class)
    views = []
    for _ in range(V):
        theta = rng.uniform(0, 2 * np.pi)
        R = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        views.append(X @ R.T + 0.05 * rng.standard_normal(X.shape))
    return views, y


class TestOneHot:
    def test_basic(self):
        Y = one_hot_labels(np.array([0, 2, 1, 0]), np.array([0, 2]), 3)
        assert Y.shape == (4, 3)
        assert np.array_equal(Y[0], [1, 0, 0])
        assert np.array_equal(Y[2], [0, 1, 0])
        assert np.all(Y[[1, 3]] == 0)


class TestUpdateLabels:
    def _instance(self, rng, n=40, m=6, c=3):
        P = rand_row_stochastic(rng, n, m)
        y = rng.integers(0, c, size=n)
        labeled_idx = np.arange(0, n, 4)
        Y = one_hot_labels(y, labeled_idx, c)
        return P, Y

    def test_rejects_nonpositive_weight_and_unlabeled_Y(self):
        # either would make F identically zero: every sample class 0
        rng = np.random.default_rng(0)
        P, Y = self._instance(rng)
        for b in (0.0, -1.0, np.nan, -np.inf):
            with pytest.raises(ValueError, match="b_labeled must be positive"):
                update_labels(P, Y, b)
        # an infinite weight turns the system's entries non-finite
        with pytest.raises(ValueError, match="b_labeled must be finite, got inf"):
            update_labels(P, Y, np.inf)
        with pytest.raises(ValueError, match="no labeled row"):
            update_labels(P, np.zeros_like(Y), 100.0)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        P, Y = self._instance(rng)
        bn, bm = label_weights(Y, P.shape[1])
        F, Q = update_labels(P, Y, 100.0)
        F_ref, Q_ref = dense_label_solve(P, bn, bm, Y)
        assert np.abs(F - F_ref).max() < 1e-8
        assert np.abs(Q - Q_ref).max() < 1e-8

    def test_stationarity_residual(self):
        rng = np.random.default_rng(2)
        P, Y = self._instance(rng, n=60, m=8)
        bn, bm = label_weights(Y, P.shape[1])
        F, Q = update_labels(P, Y, 100.0)
        _, _, Lt = dense_bipartite_pieces(P)
        Bhat = np.diag(np.concatenate([bn, bm]))
        Fhat = np.vstack([F, Q])
        Yhat = np.vstack([Y, np.zeros((P.shape[1], Y.shape[1]))])
        rhs = Bhat @ Yhat
        resid = np.linalg.norm((Lt + Bhat) @ Fhat - rhs)
        assert resid <= 1e-8 * np.linalg.norm(rhs)

    def test_stiff_fit_limit(self):
        rng = np.random.default_rng(3)
        n, m, c = 30, 4, 3
        P = rand_row_stochastic(rng, n, m)
        Y = one_hot_labels(np.array([1] + [0] * (n - 1)), np.array([0]), c)
        F, _ = update_labels(P, Y, 1e8)
        assert np.abs(F[0] - Y[0]).max() < 1e-3

    def test_zero_degree_anchor_is_floored_silently_and_counted(self):
        rng = np.random.default_rng(4)
        P = rand_row_stochastic(rng, 10, 3)
        P[:, 2] = 0.0
        P /= P.sum(axis=1, keepdims=True)
        Y = one_hot_labels(np.zeros(10, dtype=int), np.array([0]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F, Q = update_labels(P, Y, 100.0)
        assert np.all(np.isfinite(F))
        assert floored_anchor_degrees(P)[2] == 1e-12
        assert zero_degree_anchors(P) == 1


class TestPerformanceGain:
    def test_blockwise_equals_dense(self):
        rng = np.random.default_rng(5)
        for n, m, c in [(20, 4, 2), (60, 8, 3), (100, 16, 4)]:
            P = rand_row_stochastic(rng, n, m)
            F = rng.standard_normal((n, c))
            Q = rng.standard_normal((m, c))
            Y = one_hot_labels(
                rng.integers(0, c, n), np.arange(0, n, 3), c
            )
            bn = np.where(Y.any(axis=1), 100.0, 0.0)
            bm = np.zeros(m)
            ours = performance_gain(F, Q, P, bn, bm, Y)
            ref = perf_gain_dense(F, Q, P, bn, bm, Y)
            assert abs(ours - ref) <= 1e-8 * max(1.0, abs(ref))


def rand_stack(rng, V, n, m):
    """(V, n, m) stack of row-stochastic graphs."""
    return np.stack([rand_row_stochastic(rng, n, m) for _ in range(V)])


class TestUpdateMissingRows:
    def _state(self, rng, n=6, m=3, V=2):
        Z = rand_stack(rng, V, n, m)
        G = rand_stack(rng, V, n, m)
        W = 0.1 * rng.standard_normal((V, n, m))
        P = rand_row_stochastic(rng, n, m)
        Ts = np.stack([rand_orthogonal(rng, m) for _ in range(V)])
        alpha = np.array([0.6, 0.4])
        missing = [np.array([1, 4]), np.array([0, 2, 5])]
        return Z, missing, G, W, P, Ts, alpha

    def test_observed_rows_untouched(self):
        rng = np.random.default_rng(6)
        Z, missing, G, W, P, Ts, alpha = self._state(rng)
        before = Z.copy()
        G_rows = missing_rows(G, missing)
        update_missing_rows(Z, missing, G_rows, W, P, Ts, alpha, 2.0, 0.5)
        for v in range(2):
            keep = np.setdiff1d(np.arange(6), missing[v])
            assert np.array_equal(Z[v, keep], before[v, keep])

    def test_writes_only_missing_rows_in_place(self):
        rng = np.random.default_rng(18)
        Z, missing, G, W, P, Ts, alpha = self._state(rng)
        # view 1 has no missing rows and must come through bit for bit
        missing[1] = np.array([], dtype=np.int64)
        before = Z.copy()
        address = Z.__array_interface__["data"][0]
        G_rows = missing_rows(G, missing)
        assert update_missing_rows(Z, missing, G_rows, W, P, Ts, alpha, 2.0, 0.5) is None
        assert Z.__array_interface__["data"][0] == address
        changed = np.any(Z != before, axis=2)
        expected = np.zeros((2, 6), dtype=bool)
        expected[0, missing[0]] = True
        assert np.array_equal(changed, expected)

    def test_matches_full_product_form(self):
        # only the missing rows of P are multiplied; below about 33 rows the
        # gathered product can round differently from the rows of P @ T^T
        rng = np.random.default_rng(20)
        n, m, V = 400, 32, 3
        Z, _, G, W, P, Ts, _ = self._state(rng, n=n, m=m, V=V)
        alpha = np.array([0.5, 0.3, 0.2])
        missing = [rng.choice(n, size, replace=False) for size in (7, 20, 150)]
        lam, eta = 9.0, 1.0
        G_rows = missing_rows(G, missing)
        update_missing_rows(Z, missing, G_rows, W, P, Ts, alpha, lam, eta)
        for v, idx in enumerate(missing):
            lin = lam * alpha[v] ** 2 * (P @ Ts[v].T)[idx]
            ref = prox_rows(G[v, idx] - (W[v, idx] - lin) / eta)
            assert np.abs(Z[v, idx] - ref).max() <= 1e-15

    @pytest.mark.parametrize("V, n, m", [(2, 60, 16), (3, 400, 64)])
    def test_identity_alignments_read_P_unmultiplied(self, V, n, m):
        # Ts None equals explicit identities bit for bit: P @ I is exact
        rng = np.random.default_rng(21)
        Z, _, G, W, P, _, _ = self._state(rng, n=n, m=m, V=V)
        alpha = rng.dirichlet(np.ones(V))
        missing = [rng.choice(n, n // (v + 2), replace=False) for v in range(V)]
        Z_eye = Z.copy()
        G_rows = missing_rows(G, missing)
        update_missing_rows(Z, missing, G_rows, W, P, None, alpha, 9.0, 0.5)
        update_missing_rows(Z_eye, missing, G_rows, W, P,
                            np.tile(np.eye(m), (V, 1, 1)), alpha, 9.0, 0.5)
        assert np.array_equal(Z, Z_eye)

    def test_lambda_zero_projects_G_rows(self):
        rng = np.random.default_rng(7)
        Z, missing, G, _, P, Ts, alpha = self._state(rng)
        W = np.zeros((2, 6, 3))
        G_rows = missing_rows(G, missing)
        update_missing_rows(Z, missing, G_rows, W, P, Ts, alpha, 0.0, 0.5)
        for v in range(2):
            for i in missing[v]:
                ref = simplex_qp_oracle(G[v, i])
                assert np.abs(Z[v, i] - ref).max() < 1e-10

    def test_rows_match_qp_oracle(self):
        rng = np.random.default_rng(8)
        Z, missing, G, W, P, Ts, alpha = self._state(rng)
        lam, eta = 2.0, 0.5
        G_rows = missing_rows(G, missing)
        update_missing_rows(Z, missing, G_rows, W, P, Ts, alpha, lam, eta)
        for v in range(2):
            lin = lam * alpha[v] ** 2 * (P @ Ts[v].T)
            for i in missing[v]:
                target = G[v, i] - (W[v, i] - lin[i]) / eta
                ref = simplex_qp_oracle(target)
                assert np.abs(Z[v, i] - ref).max() < 1e-10

    def test_minimizes_row_objective(self):
        rng = np.random.default_rng(9)
        Z, missing, G, W, P, Ts, alpha = self._state(rng)
        lam, eta = 2.0, 0.5
        G_rows = missing_rows(G, missing)
        update_missing_rows(Z, missing, G_rows, W, P, Ts, alpha, lam, eta)

        def row_obj(z, i, v):
            lin = lam * alpha[v] ** 2 * (P @ Ts[v].T)[i]
            return float(
                W[v, i] @ z - lin @ z + 0.5 * eta * ((z - G[v, i]) ** 2).sum()
            )

        for v in range(2):
            for i in missing[v]:
                best = row_obj(Z[v, i], i, v)
                for _ in range(50):
                    cand = rng.dirichlet(np.ones(3))
                    assert best <= row_obj(cand, i, v) + 1e-12


class TestUpdateG:
    def test_rho_zero_identity(self):
        rng = np.random.default_rng(10)
        Z = rand_stack(rng, 3, 5, 4)
        W = rng.standard_normal((3, 5, 4))
        G = update_G(Z, W, eta=2.0, rho=0.0)
        assert np.array_equal(G, Z + W / 2.0)

    def test_huge_rho_zeroes(self):
        rng = np.random.default_rng(11)
        Z = rand_stack(rng, 2, 5, 4)
        W = np.zeros((2, 5, 4))
        G = update_G(Z, W, eta=1.0, rho=1e6)
        assert np.abs(G).max() == 0.0

    def test_perturbation_optimality(self):
        rng = np.random.default_rng(12)
        n, m, V = 6, 4, 3
        Z = rand_stack(rng, V, n, m)
        W = 0.3 * rng.standard_normal((V, n, m))
        eta, rho = 0.7, 0.4
        M = Z + W / eta
        G = update_G(Z, W, eta=eta, rho=rho)

        def objective(T):
            # rho/eta times the plain (unaveraged) sum of per-frequency
            # nuclear norms, which is n3 * tnn
            shrinkage = (rho / eta) * n * tnn(Tensor3(T.transpose(1, 2, 0)))
            return shrinkage + 0.5 * float(((T - M) ** 2).sum())

        base = objective(G)
        for _ in range(100):
            delta = rng.standard_normal(G.shape)
            delta *= rng.uniform(1e-3, 0.3) / np.linalg.norm(delta)
            assert base <= objective(G + delta) + 1e-10

    def test_stack_equals_shrink_of_view_stacked_tensor(self):
        rng = np.random.default_rng(19)
        for V, n, m in [(2, 7, 4), (3, 8, 5), (6, 9, 3)]:
            Z = rand_stack(rng, V, n, m)
            W = 0.3 * rng.standard_normal((V, n, m))
            eta, rho = 0.7, 0.4
            G = update_G(Z, W, eta=eta, rho=rho)
            # phi of the views is the (n, m, V) tensor the shrinkage sees
            ref = tubal_shrink(phi(list(Z + W / eta)), rho / eta)
            assert G.shape == (V, n, m)
            assert np.array_equal(G, ref.transpose(2, 0, 1))


class TestUpdateAlignment:
    def test_identity_cross_product(self):
        Z = np.eye(4)
        P = np.eye(4)
        T = update_alignment(Z, P)
        assert np.abs(T - np.eye(4)).max() < 1e-12

    def test_orthogonal_input_returned(self):
        rng = np.random.default_rng(13)
        R = rand_orthogonal(rng, 4)
        # Z^T P = R exactly when Z = I, P = R
        T = update_alignment(np.eye(4), R)
        assert np.abs(T - R).max() < 1e-10

    def test_trace_equals_nuclear_norm_and_beats_random(self):
        rng = np.random.default_rng(14)
        Z = rand_row_stochastic(rng, 10, 4)
        P = rand_row_stochastic(rng, 10, 4)
        T = update_alignment(Z, P)
        assert np.abs(T.T @ T - np.eye(4)).max() < 1e-10
        cross = Z.T @ P
        tr = float(np.trace(T.T @ cross))
        nuc = float(np.linalg.svd(cross, compute_uv=False).sum())
        assert abs(tr - nuc) <= 1e-8 * max(1.0, nuc)
        for _ in range(100):
            R = rand_orthogonal(rng, 4)
            assert tr >= float(np.trace(R.T @ cross)) - 1e-10

    def test_stack_equals_per_view_calls(self):
        rng = np.random.default_rng(20)
        for V, n, m in [(1, 10, 4), (2, 30, 8), (6, 40, 16)]:
            Z = rand_stack(rng, V, n, m)
            P = rand_row_stochastic(rng, n, m)
            Ts = update_alignment(Z, P)
            assert Ts.shape == (V, m, m)
            for v in range(V):
                assert np.array_equal(Ts[v], update_alignment(Z[v], P))


class TestUpdateMultiplier:
    def test_no_gap_keeps_W(self):
        rng = np.random.default_rng(15)
        W = rng.standard_normal((2, 4, 3))
        W2, eta2 = update_multiplier(W, np.zeros((2, 4, 3)), eta=0.01)
        assert np.array_equal(W2, W)
        assert eta2 == pytest.approx(0.02)

    def test_gap_scales_with_eta(self):
        W = np.zeros((2, 2, 2))
        W2, eta2 = update_multiplier(W, np.ones((2, 2, 2)), eta=0.5)
        assert np.all(W2 == 0.5)
        assert eta2 == 1.0

    def test_eta_capped(self):
        _, eta2 = update_multiplier(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), eta=1e10)
        assert eta2 == 1e10

    def test_updates_W_in_place(self):
        rng = np.random.default_rng(16)
        W, gap = rng.standard_normal((2, 2, 3, 4))
        eta = 0.37
        expected = W + eta * gap
        W2, _ = update_multiplier(W, gap, eta)
        assert W2 is W
        assert np.array_equal(W, expected)


class TestPredict:
    def test_one_hot_rows(self):
        F = np.eye(3)[[2, 0, 1, 1]]
        assert np.array_equal(predict(F), [2, 0, 1, 1])

    def test_uniform_ties_to_class_zero(self):
        F = np.full((2, 4), 0.25)
        assert np.array_equal(predict(F), [0, 0])

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(16)
        F = rng.standard_normal((20, 5))
        ref = np.array([int(np.argmax(row)) for row in F])
        assert np.array_equal(predict(F), ref)


class TestAdmmSolve:
    def _solve(self, seed=0, missing=None, **cfg_kwargs):
        rng = np.random.default_rng(seed)
        views, y = blob_views(rng)
        n = y.size
        labeled_idx = np.concatenate([np.where(y == j)[0][:2] for j in range(3)])
        if missing is None:
            missing = [np.array([], dtype=int), np.array([], dtype=int)]
        config = SolverConfig(
            n_anchors=8, k_neighbors=3, seed=seed, **cfg_kwargs
        )
        result = admm_solve(views, y, labeled_idx, missing, config)
        return result, y, labeled_idx

    def test_complete_data_runs_and_state_valid(self, monkeypatch):
        aligned = []

        def counting(Z, P, original=agfti.solver.update_alignment):
            aligned.append(1)
            return original(Z, P)

        monkeypatch.setattr(agfti.solver, "update_alignment", counting)
        result, y, labeled_idx = self._solve(seed=0)
        # the last iteration's alignment is made only when Ts is read
        assert len(aligned) == result.n_iter - 1
        n, c = y.size, 3
        assert result.F.shape == (n, c)
        assert np.all(np.isfinite(result.F))
        assert abs(result.alpha.sum() - 1.0) <= 1e-10
        assert result.alpha.min() >= 0.0
        assert np.allclose(result.P.sum(axis=1), 1.0, atol=1e-10)
        for Z in result.Zs:
            assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-10)
            assert Z.min() >= -1e-15
        for T in result.Ts:
            assert np.abs(T.T @ T - np.eye(T.shape[0])).max() < 1e-8
        assert len(result.diagnostics) == result.n_iter
        row = result.diagnostics[-1]
        for key in (
            "iteration",
            "h",
            "primal_residual_fro",
            "primal_residual_inf",
            "delta_F",
            "zero_degree_anchors",
            "alpha",
            "eta",
            "seconds",
            "step_seconds",
        ):
            assert key in row
        names = ["align", "impute", "fusion", "labels", "shrink", "multiplier"]
        for row in result.diagnostics:
            steps = row["step_seconds"]
            assert list(steps) == names
            assert min(steps.values()) >= 0.0
            assert sum(steps.values()) <= row["seconds"]

    def test_first_shrinkage_is_exact_zeros_without_a_transform(self, monkeypatch):
        # with the default rho, the first threshold n * rho / PENALTY_START
        # dominates the norm bound of the whole graph stack
        import agfti.solver as solver

        outs = []

        def recording_update_G(Z, W, eta, rho):
            G = update_G(Z, W, eta, rho)
            outs.append(G.copy())
            return G

        def no_rfft(*args, **kwargs):
            raise AssertionError("rfft called although the threshold dominates")

        monkeypatch.setattr(solver, "update_G", recording_update_G)
        monkeypatch.setattr(np.fft, "rfft", no_rfft)
        result, _, _ = self._solve(seed=0, max_outer_iters=1)
        assert len(outs) == 1
        assert not outs[0].any()
        assert result.n_iter == 1

    def test_classifies_easy_blobs(self):
        result, y, labeled_idx = self._solve(seed=1)
        pred = predict(result.F)
        unlabeled = np.setdiff1d(np.arange(y.size), labeled_idx)
        acc = float(np.mean(pred[unlabeled] == y[unlabeled]))
        assert acc >= 0.9

    def test_missing_rows_imputed_on_simplex(self):
        missing = [np.arange(0, 12), np.arange(30, 42)]
        result, _, _ = self._solve(seed=2, missing=missing)
        assert result.converged or result.n_iter == 50
        for v, idx in enumerate(missing):
            Z = result.Zs[v]
            assert np.allclose(Z[idx].sum(axis=1), 1.0, atol=1e-10)
            assert Z[idx].min() >= -1e-15
            # imputation moved the rows off the uniform initialization
            assert np.abs(Z[idx] - 1.0 / Z.shape[1]).max() > 1e-6

    def test_skip_imputation_keeps_uniform_rows(self):
        missing = [np.arange(0, 12), np.array([], dtype=int)]
        result, _, _ = self._solve(seed=3, missing=missing, skip_imputation=True)
        Z = result.Zs[0]
        assert np.all(Z[np.arange(0, 12)] == 1.0 / Z.shape[1])

    def test_freeze_weights_keeps_uniform_alpha(self):
        result, _, _ = self._solve(seed=4, freeze_weights=True)
        assert np.all(result.alpha == 0.5)
        # no line search runs, so every record reports none
        for row in result.diagnostics:
            assert row["line_search"] == {
                "steps": 0, "thetas": [], "evaluated": 0, "bound_rejected": 0,
            }

    def test_freeze_alignment_keeps_identity(self):
        result, _, _ = self._solve(seed=5, freeze_alignment=True)
        for T in result.Ts:
            assert np.array_equal(T, np.eye(T.shape[0]))

    def test_deterministic(self):
        r1, _, _ = self._solve(seed=6)
        r2, _, _ = self._solve(seed=6)
        assert np.array_equal(r1.F, r2.F)
        assert np.array_equal(r1.alpha, r2.alpha)

    def test_given_graphs_are_copied_and_solved_as_built(self):
        rng = np.random.default_rng(2)
        views, y = blob_views(rng)
        labeled_idx = np.concatenate([np.where(y == j)[0][:2] for j in range(3)])
        missing = [np.arange(0, 12), np.arange(30, 42)]
        config = SolverConfig(n_anchors=8, k_neighbors=3, seed=2, max_outer_iters=10)
        graphs = anchor_graphs(views, missing, 8, 3, 2)
        before = graphs.copy()
        given = admm_solve(views, y, labeled_idx, missing, config, graphs=graphs)
        built = admm_solve(views, y, labeled_idx, missing, config)
        # imputation rewrote the missing rows of the solve's copy only
        assert np.array_equal(graphs, before)
        assert not np.array_equal(given.Zs, graphs)
        for name in ("F", "Q", "P", "alpha", "Zs", "Ts"):
            assert np.array_equal(getattr(given, name), getattr(built, name)), name
        assert given.n_iter == built.n_iter

    @pytest.mark.parametrize("shape", [(2, 60, 4), (2, 59, 8), (1, 60, 8), (60, 8)])
    def test_rejects_graphs_of_another_shape(self, shape):
        rng = np.random.default_rng(0)
        views, y = blob_views(rng)
        labeled_idx = np.concatenate([np.where(y == j)[0][:2] for j in range(3)])
        missing = [np.array([], dtype=int)] * 2
        config = SolverConfig(n_anchors=8, k_neighbors=3)
        graphs = np.full(shape, 1.0 / shape[-1])
        with pytest.raises(ValueError, match="expected the .* stack \\(2, 60, 8\\)"):
            admm_solve(views, y, labeled_idx, missing, config, graphs=graphs)
        # the inputs are checked before the graphs
        with pytest.raises(ValueError, match="labeled_idx must be a 1-d array"):
            admm_solve(views, y, labeled_idx + 0.5, missing, config, graphs=graphs)

    def test_rejects_class_without_labels(self):
        rng = np.random.default_rng(17)
        views, y = blob_views(rng)
        labeled_idx = np.where(y == 0)[0][:2]  # classes 1, 2 unlabeled
        config = SolverConfig(n_anchors=8, k_neighbors=3)
        with pytest.raises(ValueError):
            admm_solve(
                views,
                y,
                labeled_idx,
                [np.array([], dtype=int)] * 2,
                config,
            )

    def test_rejects_sample_missing_everywhere(self):
        rng = np.random.default_rng(18)
        views, y = blob_views(rng)
        labeled_idx = np.concatenate(
            [np.where(y == j)[0][:2] for j in range(3)]
        )
        missing = [np.array([5]), np.array([5])]
        config = SolverConfig(n_anchors=8, k_neighbors=3)
        with pytest.raises(ValueError):
            admm_solve(views, y, labeled_idx, missing, config)

    def test_rejects_labeled_index_out_of_range(self):
        # -1 used to wrap silently to the last sample
        rng = np.random.default_rng(19)
        views, y = blob_views(rng)
        labeled_base = np.concatenate([np.where(y == j)[0][:2] for j in range(3)])
        complete = [np.array([], dtype=int)] * 2
        config = SolverConfig(n_anchors=8, k_neighbors=3)
        for bad in (-1, y.size):
            labeled_idx = np.append(labeled_base, bad)
            with pytest.raises(ValueError, match=f"labeled index {bad} "):
                admm_solve(views, y, labeled_idx, complete, config)

    def test_rejects_repeated_labeled_index(self):
        # a repeat used to count twice in the reported number of labels
        rng = np.random.default_rng(20)
        views, y = blob_views(rng)
        labeled_idx = np.concatenate([np.where(y == j)[0][:2] for j in range(3)])
        complete = [np.array([], dtype=int)] * 2
        config = SolverConfig(n_anchors=8, k_neighbors=3)
        repeated = int(labeled_idx[3])
        with pytest.raises(ValueError, match=f"labeled index {repeated} is listed more"):
            admm_solve(views, y, np.append(labeled_idx, repeated), complete, config)

    def test_rejects_non_integer_index_arrays(self):
        # a fraction used to be truncated, a boolean mask read as indices 0, 1
        rng = np.random.default_rng(21)
        views, y = blob_views(rng)
        labeled_idx = np.concatenate([np.where(y == j)[0][:2] for j in range(3)])
        complete = [np.array([], dtype=int)] * 2
        config = SolverConfig(n_anchors=8, k_neighbors=3)
        for name, labeled, missing in [
            ("labeled_idx", labeled_idx + 0.5, complete),
            ("labeled_idx", np.isin(np.arange(y.size), labeled_idx), complete),
            ("labeled_idx", labeled_idx[None, :], complete),
            (r"missing\[1\]", labeled_idx, [complete[0], np.array([4.0])]),
            (r"missing\[0\]", labeled_idx, [np.array([[4]]), complete[1]]),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be a 1-d array "
                                                 "of integer indices"):
                admm_solve(views, y, labeled, missing, config)

    def test_rejects_label_outside_class_range(self):
        # used to surface as a bare IndexError from one_hot_labels
        rng = np.random.default_rng(20)
        views, y = blob_views(rng)
        labeled_idx = np.concatenate([np.where(y == j)[0][:2] for j in range(3)])
        y = y.copy()
        y[labeled_idx[-1]] = 3
        config = SolverConfig(n_anchors=8, k_neighbors=3)
        with pytest.raises(ValueError, match=f"labeled sample {labeled_idx[-1]} has label 3"):
            admm_solve(
                views, y, labeled_idx, [np.array([], dtype=int)] * 2, config,
                n_classes=3,
            )

    @pytest.mark.parametrize("length", [50, 65])
    @pytest.mark.parametrize("solve", [admm_solve, baseline_label_propagation],
                             ids=["admm_solve", "baseline"])
    def test_rejects_labels_of_another_length(self, solve, length):
        # a short y used to raise IndexError, a long one a broadcast error
        cont = synth_scp(0, n_per_class=20)
        y = np.resize(cont.labels, length)
        labeled_idx = np.arange(0, 60, 10)
        complete = [np.array([], dtype=int)] * cont.V
        with pytest.raises(ValueError,
                           match=rf"y has shape \({length},\), expected \(60,\)"):
            solve(cont.views, y, labeled_idx, complete, n_classes=cont.c)

    def test_rejects_zero_label_weight(self):
        # F would be identically zero and every sample predicted as class 0
        with pytest.raises(ValueError, match="b_labeled must be positive"):
            self._solve(seed=8, b_labeled=0.0)

    @pytest.mark.parametrize("max_outer_iters", [0, -3])
    def test_rejects_a_solve_without_iterations(self, max_outer_iters):
        # with no iteration the initial propagation would pass for a solve
        with pytest.raises(ValueError, match="max_outer_iters must be at least 1"):
            self._solve(seed=8, max_outer_iters=max_outer_iters)

    @pytest.mark.parametrize("field, value", [
        ("lam", -1.0), ("lam", float("nan")), ("rho", -1.0), ("rho", float("nan")),
        ("lam", float("inf")),
        *(("beta", value) for value in (0.0, -1.0, float("nan"), float("inf"))),
        ("tol", float("nan")), ("tol", -1.0),
    ])
    def test_rejects_a_negative_or_nan_penalty_before_any_step(
        self, monkeypatch, field, value
    ):
        # a negative lam rewards disagreement between the views, and a
        # negative rho used to fail only inside the first shrinkage; an
        # infinite lam or a NaN beta used to fail in prox_rows on non-finite
        # entries, and an infinite beta to finish with every h NaN; a NaN or
        # negative tol used to run every iteration, since no solve can stop
        called = []
        for name in ("solve_inner_P", "update_missing_rows", "agf_minmax",
                     "update_labels", "update_G", "update_alignment",
                     "update_multiplier"):
            monkeypatch.setattr(agfti.solver, name,
                                lambda *a, name=name, **k: called.append(name))
        with pytest.raises(ValueError) as info:
            self._solve(seed=8, **{field: value})
        rule = ("finite and positive" if field == "beta"
                else "finite" if value == np.inf else "nonnegative")
        assert str(info.value) == f"{field} must be {rule}, got {value}"
        assert called == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("v", [0, 1])
    @pytest.mark.parametrize("solve", [admm_solve, baseline_label_propagation],
                             ids=["admm_solve", "baseline"])
    def test_non_finite_feature_is_refused_only_on_a_held_row(self, solve, v, value):
        # a NaN on a held row used to fail deep in the solve in prox_rows,
        # and to send the baseline's every prediction to class 0
        cont = synth_scp(0, V=2, c=3, n_per_class=30)
        _, per_view, labeled = draw_repetition(cont, 0.3, 0.1, 0, 0)
        kwargs = {"n_classes": cont.c, **(
            {"config": SolverConfig(n_anchors=8)} if solve is admm_solve else {"m": 8}
        )}

        def run(row):
            views = [X.copy() for X in cont.views]
            views[v][row, 1] = value
            return solve(views, cont.labels, labeled, per_view, **kwargs)

        held = np.setdiff1d(np.arange(cont.n), per_view[v])[3]
        with pytest.raises(ValueError, match=rf"^view {v} has a non-finite "
                           rf"feature on sample {held}, which it holds$"):
            run(held)
        clean = solve(cont.views, cont.labels, labeled, per_view, **kwargs)
        dropped = run(per_view[v][0])
        if solve is admm_solve:
            clean, dropped = clean.F, dropped.F
        assert dropped.tobytes() == clean.tobytes()

    def test_lambda_defaults_to_V_squared(self):
        result, _, _ = self._solve(seed=7)
        assert result.lam == pytest.approx(4.0)


class TestCarriedLineSearchLevel:
    """Each fusion call starts its search one level above the last accepted step."""

    def _solve(self, monkeypatch, fail_call=None, fail_from_step=1, **config):
        # (start level, accepted level, steps, candidates tried) of each call
        calls = []
        original = agfti.solver.agf_minmax
        compute_H, target_value = agfti.agf.compute_H, agfti.agf.target_value

        def recording(*args, **kwargs):
            if len(calls) == fail_call:
                # every candidate of this call's weight steps from
                # fail_from_step on fails the Armijo test; a step starts
                # with its one H refresh
                refreshes = []

                def counting(*a):
                    refreshes.append(1)
                    return compute_H(*a)

                def failing(*a):
                    fails = len(refreshes) >= fail_from_step
                    return target_value(*a) + (1e6 if fails else 0.0)

                with monkeypatch.context() as m:
                    m.setattr(agfti.agf, "compute_H", counting)
                    m.setattr(agfti.agf, "target_value", failing)
                    res = original(*args, **kwargs)
            else:
                res = original(*args, **kwargs)
            calls.append((kwargs["start_level"], res.level, res.steps,
                          res.evaluated + res.bound_rejected))
            return res

        monkeypatch.setattr(agfti.solver, "agf_minmax", recording)
        views, y = blob_views(np.random.default_rng(1), c=3, V=3)
        labeled = np.concatenate([np.flatnonzero(y == j)[:2] for j in range(3)])
        none = [np.array([], dtype=int)] * 3
        admm_solve(views, y, labeled, none,
                   SolverConfig(n_anchors=16, k_neighbors=3, max_outer_iters=12,
                                **config))
        return calls

    def test_no_step_tries_a_level_above_the_carried_one(self, monkeypatch):
        calls = self._solve(monkeypatch)
        assert calls[0][0] == 0
        carried = 0
        for (_, prev, steps, _), (start, level, now, tries) in zip(calls, calls[1:]):
            assert steps[-1] > 0
            assert start == max(0, prev - 1)
            # one step a call: its tries run from its start to its level
            assert now[-1] > 0
            assert level - tries + 1 == start
            carried += start > 0
        assert carried > 0

    def test_a_search_without_decrease_resets_the_level(self, monkeypatch):
        calls = self._solve(monkeypatch, fail_call=3)
        start, level, steps, tries = calls[3]
        assert start > 0
        assert steps == [0.0]
        assert tries == agfti.agf._MAX_BACKTRACKS + 1 - start
        assert calls[4][0] == 0

    def test_an_accepted_step_then_no_decrease_resets_the_level(self, monkeypatch):
        calls = self._solve(monkeypatch, fail_call=3, fail_from_step=2,
                            max_inner_iters=2, inner_tol=0.0)
        start, level, steps, tries = calls[3]
        # the accepted step alone would carry level - 1 > 0 to the next call
        assert steps[0] > 0 and steps[1] == 0.0
        assert level >= 2
        # the failed second step searched every level from the top
        assert tries == (level - start + 1) + agfti.agf._MAX_BACKTRACKS + 1
        assert calls[4][0] == 0


class TestStepTable:
    """The ablation variants' flags select the steps each iteration runs."""

    @pytest.mark.parametrize("variant, skipped", [
        ("full", ()),
        ("wo_ti", ("impute",)),
        ("wo_tv", ("align",)),
        ("wo_alpha", ()),
    ])
    def test_a_flag_drops_its_step(self, monkeypatch, variant, skipped):
        # the update function of each step a flag can drop
        functions = {"impute": "update_missing_rows", "align": "update_alignment"}
        calls = dict.fromkeys(functions, 0)
        for step, name in functions.items():
            def counting(*args, step=step, original=getattr(agfti.solver, name)):
                calls[step] += 1
                return original(*args)

            monkeypatch.setattr(agfti.solver, name, counting)
        container = synth_scp(0, V=2, c=3, n_per_class=20)
        missing, labeled = generate_masks(
            container, MaskSpec(vmr=0.5, lar=0.1, seed=0)
        )
        result = admm_solve(
            container.views, container.labels, labeled,
            missing_per_view(missing, container.V),
            SolverConfig(n_anchors=8, max_outer_iters=5,
                         **STANDARD_VARIANTS[variant]),
        )
        # iteration 1 aligns nothing, and the last alignment waits for Ts
        runs = {"impute": result.n_iter, "align": result.n_iter - 1}
        assert calls == {
            step: 0 if step in skipped else runs[step] for step in functions
        }
        for row in result.diagnostics:
            seconds = row["step_seconds"]
            assert list(seconds) == list(STEPS)
            for step in STEPS:
                if step in skipped:
                    assert seconds[step] == 0.0
                else:
                    assert seconds[step] > 0.0


class TestFinalAlignment:
    """The last iteration's alignment, which no step reads, is made when Ts is read."""

    def _solve(self, monkeypatch, alignment=None, **config):
        # every update_alignment call the solve and its result make, by output
        made = []
        original = agfti.solver.update_alignment

        def recording(Z, P):
            Ts = (alignment or original)(Z, P)
            made.append(Ts)
            return Ts

        monkeypatch.setattr(agfti.solver, "update_alignment", recording)
        container = synth_scp(0, V=2, c=3, n_per_class=20)
        missing, labeled = generate_masks(
            container, MaskSpec(vmr=0.5, lar=0.1, seed=0)
        )
        result = admm_solve(
            container.views, container.labels, labeled,
            missing_per_view(missing, container.V),
            SolverConfig(n_anchors=8, tol=0.0, **config),
        )
        return result, made

    def test_reading_Ts_aligns_the_returned_graphs_once(self, monkeypatch):
        result, made = self._solve(monkeypatch, max_outer_iters=4)
        assert result.n_iter == 4 and len(made) == 3
        Ts = result.Ts
        assert len(made) == 4 and Ts is made[-1]
        assert result.Ts is Ts and len(made) == 4
        expected = update_alignment(result.Zs, result.P)
        assert Ts.tobytes() == expected.tobytes()

    def test_Ts_is_the_alignment_the_next_iteration_starts_from(self, monkeypatch):
        result, _ = self._solve(monkeypatch, max_outer_iters=4)
        _, made = self._solve(monkeypatch, max_outer_iters=5)
        # the fifth iteration opens with the fourth alignment
        assert len(made) == 4
        assert result.Ts.tobytes() == made[3].tobytes()

    def test_freeze_alignment_gives_the_identity_without_a_call(self, monkeypatch):
        def refused(Z, P):
            raise AssertionError("an alignment under freeze_alignment")

        result, made = self._solve(monkeypatch, alignment=refused,
                                   max_outer_iters=3, freeze_alignment=True)
        V, _, m = result.Zs.shape
        assert np.array_equal(result.Ts, np.tile(np.eye(m), (V, 1, 1)))
        assert made == []

    def test_a_one_iteration_solve_runs_no_alignment(self, monkeypatch):
        result, made = self._solve(monkeypatch, max_outer_iters=1)
        assert result.n_iter == 1 and made == []
        # the record still times the step, which found no fused graph yet
        assert result.diagnostics[0]["step_seconds"]["align"] >= 0.0
        result.Ts
        assert len(made) == 1

    def test_a_failing_last_alignment_is_raised_when_Ts_is_read(self, monkeypatch):
        calls = []

        def failing_third(Z, P):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return update_alignment(Z, P)

        # the solve's two alignments succeed, so the solve returns
        result, made = self._solve(monkeypatch, alignment=failing_third,
                                   max_outer_iters=3)
        assert result.n_iter == 3 and len(made) == 2
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            result.Ts


class TestZeroDegreeSummary:
    """A solve reports the anchors it floored in one warning, at its end."""

    def _solve(self):
        # 64 anchors for 90 samples: under weights settled by up to 50 weight
        # steps an iteration, the fused graph leaves anchors unused (under one
        # step an iteration it floors none)
        container = synth_scp(0, V=3, c=3, n_per_class=30)
        missing, labeled = generate_masks(
            container, MaskSpec(vmr=0.5, lar=0.05, seed=0)
        )
        return admm_solve(
            container.views, container.labels, labeled,
            missing_per_view(missing, container.V),
            SolverConfig(n_anchors=64, max_outer_iters=10, max_inner_iters=50),
        )

    def test_one_warning_per_solve(self, monkeypatch):
        # the zero-degree anchors of each fused graph the label step reads:
        # the initial one and each iteration's
        counts = []

        def recording(P, Y, b_labeled):
            counts.append(int((P.sum(axis=0) < 1e-12).sum()))
            return update_labels(P, Y, b_labeled)

        monkeypatch.setattr(agfti.solver, "update_labels", recording)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self._solve()
        assert len(counts) == result.n_iter + 1
        # the records carry each iteration's count
        assert [r["zero_degree_anchors"] for r in result.diagnostics] == counts[1:]
        floored = [n for n in counts if n]
        assert len(floored) > 1
        assert [w.category for w in caught] == [ZeroDegreeWarning]
        summary = caught[0]
        assert summary.message.anchors == max(floored)
        assert str(summary.message).startswith(
            f"{len(floored)} fused graph(s) had zero-degree anchors, "
            f"at most {max(floored)} at once"
        )
        # attributed to the line that called admm_solve
        assert summary.filename == __file__

    def test_other_warnings_pass_through_unchanged(self, monkeypatch):
        def warning_multiplier(W, gap, eta):
            warnings.warn("multiplier probe", UserWarning)
            return update_multiplier(W, gap, eta)

        monkeypatch.setattr(agfti.solver, "update_multiplier", warning_multiplier)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self._solve()
        probes = [w for w in caught if w.category is UserWarning]
        assert len(probes) == result.n_iter
        line = warning_multiplier.__code__.co_firstlineno + 1
        for w in probes:
            assert str(w.message) == "multiplier probe"
            assert (w.filename, w.lineno) == (__file__, line)
        assert sum(w.category is ZeroDegreeWarning for w in caught) == 1


class TestSolveHealth:
    """What a finished solve says about its own answer."""

    @pytest.mark.parametrize("m, degenerate", [(256, True), (64, False)])
    def test_one_class_collapse_is_flagged(self, m, degenerate):
        # at 256 anchors this solve gives all 381 unlabeled samples class 1
        # and still reports convergence; at 64 anchors it predicts all three
        container = synth_scp(0, n_per_class=134)
        seed, per_view, labeled = draw_repetition(container, 0.5, 0.05, 0, 0)
        result = admm_solve(
            container.views, container.labels, labeled, per_view,
            SolverConfig(n_anchors=m, seed=seed), n_classes=container.c,
        )
        unlabeled = np.delete(predict(result.F), labeled)
        assert result.converged
        assert result.degenerate is degenerate
        assert (np.unique(unlabeled).size == 1) is degenerate

    def test_degenerate_needs_two_classes(self):
        rng = np.random.default_rng(0)
        views = [rng.standard_normal((20, 2)) for _ in range(2)]
        none = [np.array([], dtype=int)] * 2
        result = admm_solve(
            views, np.zeros(20, dtype=int), np.arange(3), none,
            SolverConfig(n_anchors=4, k_neighbors=2, max_outer_iters=2),
        )
        assert not result.degenerate

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weights_are_worst_case_on_a_noise_view(self, seed):
        # view 2 replaced by Gaussian noise of its own spread: the min-max
        # fusion's weights are the adversary's, so the noise view, which
        # agrees least with the fused graph, gets the largest weight
        container = synth_scp(seed, n_per_class=134, V=3)
        noise = np.random.default_rng(seed).standard_normal(
            container.views[2].shape
        ) * container.views[2].std()
        views = [*container.views[:2], noise]
        noisy = DatasetContainer(views, container.labels, container.c,
                                 container.name)
        rep, per_view, labeled = draw_repetition(noisy, 0.3, 0.05, seed, 0)
        result = admm_solve(
            views, container.labels, labeled, per_view,
            SolverConfig(n_anchors=64, seed=rep), n_classes=container.c,
        )
        # [0.321, 0.327, 0.352] on seed 0, [0.321, 0.325, 0.354] on seed 1
        assert result.alpha[2] > result.alpha[:2].max() + 0.02


def relabelled_solve_gaps(V, seed):
    """How far a solve moves when class j is renamed perm[j].

    Both solves run on the same graphs and masks. Returns the largest
    entrywise |dF| once F's columns are renamed back, whether the
    predictions are renamed alike, and the two iteration counts.
    """
    container = synth_scp(seed, n_per_class=134, V=V, c=3)
    rep, per_view, labeled = draw_repetition(container, 0.5, 0.05, seed, 0)
    perm = np.array([2, 0, 1])
    config = SolverConfig(n_anchors=64, seed=rep)
    base, moved = (
        admm_solve(container.views, labels, labeled, per_view, config, n_classes=3)
        for labels in (container.labels, perm[container.labels])
    )
    return (
        float(np.abs(moved.F[:, perm] - base.F).max()),
        bool(np.array_equal(predict(moved.F), perm[predict(base.F)])),
        [base.n_iter, moved.n_iter],
    )


def gaps_in_child(function, cases):
    """{(V, seed): function(V, seed)} for a gap function of this module.

    The solves run in a child process on one BLAS thread, whatever the
    thread count of the test run.
    """
    code = ("import json, test_solver; print(json.dumps("
            f"[test_solver.{function}(V, s) for V, s in {cases}]))")
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS"), "1")}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(cases, json.loads(out)))


class TestClassRelabelling:
    """Nothing in the solve orders the classes: renaming them renames F's columns.

    The solves run in a child process on one BLAS thread. Under two threads
    the relabelled solve differs from the first in its last bits within a
    few iterations, and the solve amplifies them: on V=3, seed 0 the two
    stop one iteration apart, with |dF| up to 3e-5.
    """

    CASES = [(2, 0), (2, 1), (2, 2), (3, 0)]

    @pytest.fixture(scope="class")
    def gaps(self):
        return gaps_in_child("relabelled_solve_gaps", self.CASES)

    @pytest.mark.parametrize("V, seed", CASES)
    def test_relabelling_the_classes_permutes_the_solve(self, gaps, V, seed):
        dF, same_predictions, (n_base, n_moved) = gaps[(V, seed)]
        assert dF <= 1e-12
        assert same_predictions
        assert n_base == n_moved


def reversed_view_solve_gaps(V, seed):
    """How far a solve moves when its views are handed over in reverse order.

    The views, their missing sets and one given graph stack are reversed
    together (the stack is built once, since anchor_graphs draws each
    view's anchors from a stream of its index). Returns the largest
    entrywise |dF|, the largest |d alpha| once the reversed weights are put
    back in view order, and whether every prediction is the same.
    """
    container = synth_scp(seed, n_per_class=134, V=V, c=3)
    rep, per_view, labeled = draw_repetition(container, 0.5, 0.05, seed, 0)
    config = SolverConfig(n_anchors=64, seed=rep)
    graphs = anchor_graphs(container.views, per_view, 64, config.k_neighbors, rep)
    base = admm_solve(container.views, container.labels, labeled, per_view,
                      config, n_classes=3, graphs=graphs)
    moved = admm_solve(container.views[::-1], container.labels, labeled,
                       per_view[::-1], config, n_classes=3, graphs=graphs[::-1])
    return (
        float(np.abs(moved.F - base.F).max()),
        float(np.abs(moved.alpha[::-1] - base.alpha).max()),
        bool(np.array_equal(predict(moved.F), predict(base.F))),
    )


class TestViewOrder:
    """Nothing in the solve orders the views: reversing them reverses alpha.

    With two views F and alpha agree to the rounding level; with three, the
    sums over the views round differently and the solves drift apart within
    the bounds below (and may stop an iteration apart), while no prediction
    changes. Reading one view's rows, weights or graphs for another's moves
    far more.
    """

    CASES = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]

    @pytest.fixture(scope="class")
    def gaps(self):
        return gaps_in_child("reversed_view_solve_gaps", self.CASES)

    @pytest.mark.parametrize("V, seed", CASES)
    def test_reversing_the_views_reverses_the_weights(self, gaps, V, seed):
        dF, dalpha, same_predictions = gaps[(V, seed)]
        assert same_predictions
        if V == 2:
            assert dF <= 1e-12 and dalpha <= 1e-12
        else:
            assert dalpha <= 1e-5
