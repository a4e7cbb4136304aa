import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import agfti.agf as agf
from agfti.agf import (
    BOUND_MARGIN,
    agf_minmax,
    agreement_value,
    bound_rejects,
    compute_H,
    fuse_aligned,
    grad_h,
    inner_value,
    reduced_descent_direction,
    solve_inner_P,
    target_value,
    view_agreements,
    weighted_fusion_input,
)
from agfti.graphs import zero_degree_anchors

from oracles import (
    agf_minmax_with_reference,
    cold_start,
    dense_bipartite_pieces,
    inner_solve,
    rand_row_stochastic,
    rand_simplex_interior,
    simplex_qp_oracle,
)


def h_exact(alpha, Zs, Ts, H, lam, beta):
    """h(alpha) under fixed H, via an exact inner maximization."""
    P = inner_solve(Zs, Ts, alpha, H, lam, beta)[0]
    return inner_value(P, weighted_fusion_input(Zs, Ts, alpha), H, lam, beta)


def value_scale(P, Zt, H, lam, beta):
    """Magnitude of the inner value's terms, the scale of its rounding."""
    return lam * abs(float(np.sum(P * Zt))) + beta * float(np.sum(P * P)) + abs(
        float(np.sum(H * P))
    )


def procrustes(Z, P):
    U, _, Vh = np.linalg.svd(Z.T @ P)
    return U @ Vh


class TestComputeH:
    def test_zero_labels_zero_H(self):
        rng = np.random.default_rng(0)
        P = rand_row_stochastic(rng, 5, 3)
        H = compute_H(np.zeros((5, 2)), np.zeros((3, 2)), P)
        assert np.all(H == 0.0)

    def test_single_sample_single_anchor(self):
        F = np.array([[1.0, 2.0]])
        Q = np.array([[0.0, -1.0]])
        P = np.array([[1.0]])
        H = compute_H(F, Q, P)
        assert np.isclose(H[0, 0], 1.0 + 9.0, atol=1e-12)

    def test_laplacian_trace_identity(self):
        rng = np.random.default_rng(1)
        n, m, c = 6, 4, 3
        P = rand_row_stochastic(rng, n, m)
        F = rng.standard_normal((n, c))
        Q = rng.standard_normal((m, c))
        H = compute_H(F, Q, P)
        lhs = float(np.sum(H * P))
        # the oracle Laplacian applies the degree normalization internally,
        # so Fhat stacks the raw (F ; Q) blocks
        _, _, Lt = dense_bipartite_pieces(P)
        Fhat = np.vstack([F, Q])
        rhs = float(np.trace(Fhat.T @ Lt @ Fhat))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_zero_column_degree_is_floored_without_a_warning(self):
        P = np.array([[1.0, 0.0], [1.0, 0.0]])
        F = np.ones((2, 2))
        Q = np.ones((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = compute_H(F, Q, P)
        assert np.all(np.isfinite(H))
        assert zero_degree_anchors(P) == 1

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        P = rand_row_stochastic(rng, 8, 5)
        F = rng.standard_normal((8, 3))
        Q = rng.standard_normal((5, 3))
        assert compute_H(F, Q, P).min() >= 0.0


class TestSolveInnerP:
    def test_zero_target_uniform(self):
        P, t = solve_inner_P(np.zeros((2, 4, 5)), [0.5, 0.5], 0.0, 3.0, 2.0)
        assert np.all(t == 0.0)
        assert np.allclose(P, 0.2, atol=1e-15)

    def test_rows_match_qp_oracle(self):
        rng = np.random.default_rng(3)
        ZT = rng.standard_normal((2, 3, 4))
        w = np.array([0.3, 0.7])
        H = np.abs(rng.standard_normal((3, 4)))
        lam, beta = 2.0, 1.5
        target = (lam * fuse_aligned(ZT, w) - H) / (2 * beta)
        P, t = solve_inner_P(ZT, w, H / (2 * beta), lam, beta)
        assert np.abs(t - target).max() < 1e-14
        for i in range(3):
            ref = simplex_qp_oracle(target[i])
            assert np.abs(P[i] - ref).max() < 1e-10

    def test_maximizes_inner_objective(self):
        rng = np.random.default_rng(4)
        n, m = 6, 5
        Zt = rand_row_stochastic(rng, n, m)
        H = np.abs(rng.standard_normal((n, m)))
        lam, beta = 4.0, 4.0
        P, _ = solve_inner_P(Zt[None], [1.0], H / (2 * beta), lam, beta)
        best = inner_value(P, Zt, H, lam, beta)
        uniform = np.full((n, m), 1.0 / m)
        assert best >= inner_value(uniform, Zt, H, lam, beta) - 1e-12
        for _ in range(50):
            R = rand_row_stochastic(rng, n, m)
            assert best >= inner_value(R, Zt, H, lam, beta) - 1e-12

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(5)
        P, _ = solve_inner_P(rng.standard_normal((1, 7, 4)), [1.0], 0.0, 1.0, 0.5)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert P.min() >= 0.0

    def test_rejects_nonpositive_beta(self):
        Z = np.zeros((1, 2, 2))
        with pytest.raises(ValueError):
            solve_inner_P(Z, [1.0], 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_inner_P(Z, [1.0], 0.0, 1.0, -1.0)


class TestTargetValue:
    """beta (2 <P, t> - <P, P>) is the inner value, and so is the agreements' form."""

    @pytest.mark.parametrize("V", [2, 4])
    @pytest.mark.parametrize("beta", [0.5, 4.0])
    def test_equals_the_inner_value(self, V, beta):
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=40, m=8, V=V)
            H = compute_H(F, Q, rand_row_stochastic(rng, 40, 8))
            lam = float(V * V)
            alpha = rng.dirichlet(np.ones(V))
            Zt = weighted_fusion_input(Zs, Ts, alpha)
            P, t = inner_solve(Zs, Ts, alpha, H, lam, beta)
            for R in (P, rand_row_stochastic(rng, 40, 8)):
                full = inner_value(R, Zt, H, lam, beta)
                tol = 1e-12 * value_scale(R, Zt, H, lam, beta)
                # any row-stochastic R, valued from the target of Zt and H
                assert abs(target_value(R, t, beta) - full) <= tol
                fixed = beta * float(np.vdot(R, R)) + float(np.vdot(H, R))
                agree = view_agreements(R, np.matmul(Zs, Ts))
                assert abs(agreement_value(alpha, agree, fixed, lam) - full) <= tol


class TestGradH:
    def _instance(self, rng, n=10, m=5, V=3, c=3):
        Zs = [rand_row_stochastic(rng, n, m) for _ in range(V)]
        P0 = rand_row_stochastic(rng, n, m)
        Ts = [procrustes(Z, P0) for Z in Zs]
        F = rng.standard_normal((n, c))
        Q = rng.standard_normal((m, c))
        H = compute_H(F, Q, P0)
        return Zs, Ts, H

    def test_zero_weight_component(self):
        rng = np.random.default_rng(6)
        Zs, Ts, H = self._instance(rng)
        alpha = np.array([0.6, 0.4, 0.0])
        P = inner_solve(Zs, Ts, alpha, H, 4.0, 4.0)[0]
        ZTs = [Z @ T for Z, T in zip(Zs, Ts)]
        g = grad_h(alpha, view_agreements(P, ZTs), 4.0)
        assert g[2] == 0.0

    def test_zero_lambda(self):
        rng = np.random.default_rng(7)
        Zs, Ts, H = self._instance(rng)
        alpha = np.full(3, 1 / 3)
        P = inner_solve(Zs, Ts, alpha, H, 0.0, 4.0)[0]
        ZTs = [Z @ T for Z, T in zip(Zs, Ts)]
        assert np.all(grad_h(alpha, view_agreements(P, ZTs), 0.0) == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        Zs, Ts, H = self._instance(rng)
        lam, beta = 4.0, 4.0
        eps = 1e-5
        ZTs = [Z @ T for Z, T in zip(Zs, Ts)]
        for trial in range(5):
            alpha = rand_simplex_interior(rng, 3, floor=0.15)
            P = inner_solve(Zs, Ts, alpha, H, lam, beta)[0]
            g = grad_h(alpha, view_agreements(P, ZTs), lam)
            for a, b in [(0, 1), (1, 2), (0, 2)]:
                w = np.zeros(3)
                w[a], w[b] = 1.0, -1.0
                hp = h_exact(alpha + eps * w, Zs, Ts, H, lam, beta)
                hm = h_exact(alpha - eps * w, Zs, Ts, H, lam, beta)
                fd = (hp - hm) / (2 * eps)
                an = float(g @ w)
                assert abs(fd - an) <= 1e-4 * max(1.0, abs(an))


class TestReducedDirection:
    def test_equal_partials_zero_direction(self):
        g = reduced_descent_direction(np.array([2.0, 2.0, 2.0]), np.full(3, 1 / 3))
        assert np.all(g == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        grad=hnp.arrays(
            np.float64,
            st.integers(2, 6),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        seed=st.integers(0, 2**31),
    )
    def test_sums_to_zero_and_descends(self, grad, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.dirichlet(np.ones(grad.size))
        g = reduced_descent_direction(grad, alpha)
        assert abs(g.sum()) <= 1e-12
        assert float(grad @ g) <= 1e-12

    def test_clamps_at_boundary(self):
        alpha = np.array([0.7, 0.3, 0.0])
        grad = np.array([1.0, 0.5, 5.0])  # reduced value at v=2 is positive
        g = reduced_descent_direction(grad, alpha)
        assert g[2] == 0.0
        assert abs(g.sum()) <= 1e-15

    def test_boundary_descent_allowed_inward(self):
        alpha = np.array([0.7, 0.3, 0.0])
        grad = np.array([1.0, 0.5, -5.0])  # negative reduced value: may grow
        g = reduced_descent_direction(grad, alpha)
        assert g[2] > 0.0

    def test_pivot_tie_breaks_low_index(self):
        alpha = np.array([0.5, 0.5, 0.0])
        grad = np.array([3.0, 1.0, 2.0])
        g = reduced_descent_direction(grad, alpha)
        # pivot u = 0, reduced = grad - grad[0] = (0, -2, -1)
        assert np.isclose(g[1], 2.0)
        assert np.isclose(g[2], 1.0)
        assert np.isclose(g[0], -3.0)


class TestAgfMinmax:
    def _instance(self, rng, n=30, m=6, V=3, c=3):
        Zs = [rand_row_stochastic(rng, n, m) for _ in range(V)]
        P0 = rand_row_stochastic(rng, n, m)
        Ts = [procrustes(Z, P0) for Z in Zs]
        F = rand_row_stochastic(rng, n, c)
        Q = rand_row_stochastic(rng, m, c)
        return Zs, Ts, F, Q

    def test_single_view_short_circuit(self):
        rng = np.random.default_rng(9)
        Zs, Ts, F, Q = self._instance(rng, V=1)
        alpha0, P0 = cold_start(Zs, Ts, 1.0, 4.0)
        res, ref = agf_minmax_with_reference(
            Zs, Ts, F, Q, lam=1.0, beta=4.0, alpha0=alpha0, P0=P0
        )
        assert res.converged
        assert np.array_equal(res.alpha, [1.0])
        assert np.allclose(res.P.sum(axis=1), 1.0, atol=1e-12)
        expected = inner_solve(Zs, Ts, res.alpha, ref.H, 1.0, 4.0)[0]
        assert np.abs(res.P - expected).max() < 1e-14

    def test_rejects_weight_count_mismatch(self):
        rng = np.random.default_rng(15)
        Zs, Ts, F, Q = self._instance(rng, V=3)
        _, P0 = cold_start(Zs, Ts, 9.0, 4.0)
        with pytest.raises(ValueError, match="one weight per view"):
            agf_minmax(Zs, Ts, F, Q, lam=9.0, beta=4.0, alpha0=[0.5, 0.5], P0=P0)

    def test_rejects_zero_iteration_budget(self):
        rng = np.random.default_rng(16)
        Zs, Ts, F, Q = self._instance(rng, V=2)
        alpha0, P0 = cold_start(Zs, Ts, 4.0, 4.0)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            agf_minmax(Zs, Ts, F, Q, 4.0, 4.0, alpha0, P0, max_iter=0)

    def test_rejects_non_square_alignment(self):
        rng = np.random.default_rng(17)
        Zs, Ts, F, Q = self._instance(rng, V=2)
        alpha0, P0 = cold_start(Zs, Ts, 4.0, 4.0)
        Ts[1] = Ts[1][:, :-1]
        with pytest.raises(ValueError, match="m x m alignment per view"):
            agf_minmax(Zs, Ts, F, Q, 4.0, 4.0, alpha0, P0)

    def test_identical_views_stay_uniform(self):
        rng = np.random.default_rng(10)
        Zs, Ts, F, Q = self._instance(rng, V=1)
        Zs, Ts = Zs * 3, Ts * 3
        res = agf_minmax(Zs, Ts, F, Q, 9.0, 4.0, *cold_start(Zs, Ts, 9.0, 4.0))
        assert res.converged
        assert np.allclose(res.alpha, 1 / 3, atol=1e-12)

    def test_converges_and_returns_consistent_state(self):
        rng = np.random.default_rng(11)
        Zs, Ts, F, Q = self._instance(rng)
        lam, beta = 9.0, 4.0
        alpha0, P0 = cold_start(Zs, Ts, lam, beta)
        res, ref = agf_minmax_with_reference(
            Zs, Ts, F, Q, lam=lam, beta=beta, alpha0=alpha0, P0=P0
        )
        assert res.converged
        assert res.n_iter <= 50
        assert abs(res.alpha.sum() - 1.0) <= 1e-10
        assert res.alpha.min() >= 0.0
        assert np.allclose(res.P.sum(axis=1), 1.0, atol=1e-10)
        if ref.deltas:
            assert ref.deltas[-1] <= 1e-4
        # returned P is the exact inner maximizer at the returned weights
        # under the last H refresh
        expected = inner_solve(Zs, Ts, res.alpha, ref.H, lam, beta)[0]
        assert np.abs(res.P - expected).max() < 1e-12

    def test_h_nonincreasing_per_accepted_step(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            Zs, Ts, F, Q = self._instance(rng, n=60, m=8, V=3)
            alpha0, P0 = cold_start(Zs, Ts, 9.0, 4.0)
            _, ref = agf_minmax_with_reference(
                Zs, Ts, F, Q, lam=9.0, beta=4.0, alpha0=alpha0, P0=P0
            )
            for before, after in ref.h_trace:
                assert after <= before + 1e-9

    def test_weights_stay_on_simplex_every_step(self):
        rng = np.random.default_rng(12)
        Zs, Ts, F, Q = self._instance(rng, n=40, m=8)
        alpha0, P0 = cold_start(Zs, Ts, 9.0, 4.0)
        _, ref = agf_minmax_with_reference(
            Zs, Ts, F, Q, lam=9.0, beta=4.0, alpha0=alpha0, P0=P0
        )
        for a in ref.alpha_trace:
            assert abs(a.sum() - 1.0) <= 1e-10
            assert a.min() >= 0.0


class TestAgfMinmaxFrozenWeights:
    def test_equals_one_refresh_and_inner_solve(self):
        for seed in range(4):
            rng = np.random.default_rng(300 + seed)
            Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=60, m=8, V=3)
            P0 = rand_row_stochastic(rng, 60, 8)
            alpha0 = rand_simplex_interior(rng, 3)
            lam, beta = 9.0, 4.0
            res = agf_minmax(
                Zs, Ts, F, Q, lam, beta, alpha0=alpha0, P0=P0,
                freeze_weights=True,
            )
            # one H refresh and one inner solve, valued, at alpha0, from
            # the product stack
            H = compute_H(F, Q, P0)
            P, t = solve_inner_P(
                np.matmul(Zs, Ts), alpha0, H / (2 * beta), lam, beta
            )
            assert np.array_equal(res.P, P)
            assert res.h == target_value(P, t, beta)
            assert np.array_equal(res.alpha, alpha0)
            assert res.converged
            assert res.n_iter == 0
            assert res.steps == []
            assert (res.evaluated, res.bound_rejected) == (0, 0)

    @pytest.mark.parametrize("identity", [False, True])
    def test_P_is_a_weighted_calls_first_inner_solve(self, monkeypatch, identity):
        # the two calls differ only in the weight step: the frozen P is bit
        # for bit the P a weighted call solves before its first step
        solve = agf.solve_inner_P
        solved = []

        def recording_solve_inner_P(*args):
            P, t = solve(*args)
            solved.append(P)
            return P, t

        monkeypatch.setattr(agf, "solve_inner_P", recording_solve_inner_P)
        for seed in range(4):
            rng = np.random.default_rng(320 + seed)
            Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=60, m=8, V=3)
            if identity:
                Ts = None
            P0 = rand_row_stochastic(rng, 60, 8)
            alpha0 = rand_simplex_interior(rng, 3)
            kw = dict(lam=9.0, beta=4.0, alpha0=alpha0, P0=P0)
            frozen = agf_minmax(Zs, Ts, F, Q, freeze_weights=True, **kw)
            solved.clear()
            weighted = agf_minmax(Zs, Ts, F, Q, **kw)
            assert weighted.steps
            assert np.array_equal(frozen.P, solved[0])


class TestAgfMinmaxMatchesPerCandidateFusion:
    """Fusing from cached Z_v T_v products changes no bit of the solve."""

    def _check(self, Zs, Ts, F, Q, **kw):
        res, ref = agf_minmax_with_reference(Zs, Ts, F, Q, **kw)
        # every try is either valued in full or rejected by the bound
        assert res.evaluated + res.bound_rejected == ref.evaluated
        # h is the inner value at the returned state, as the solver reads it
        Zt = weighted_fusion_input(Zs, Ts, res.alpha)
        full = inner_value(res.P, Zt, ref.H, kw["lam"], kw["beta"])
        assert abs(res.h - full) <= 1e-12 * value_scale(
            res.P, Zt, ref.H, kw["lam"], kw["beta"]
        )
        return res

    def test_default_start(self):
        backtracked = skipped = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=60, m=8, V=3)
            alpha0, P0 = cold_start(Zs, Ts, 9.0, 4.0)
            res = self._check(
                Zs, Ts, F, Q, lam=9.0, beta=4.0, alpha0=alpha0, P0=P0
            )
            backtracked += sum(0 < s < 1 for s in res.steps)
            skipped += res.bound_rejected
        # the comparison covers rejected candidates, not only full steps,
        # and candidates the bound rejected without valuing them
        assert backtracked > 0
        assert skipped > 0

    def test_warm_start_fixed_budget(self):
        skipped = 0
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=80, m=16, V=2)
            P0 = rand_row_stochastic(rng, 80, 16)
            alpha0 = rand_simplex_interior(rng, 2)
            res = self._check(
                Zs, Ts, F, Q, lam=4.0, beta=4.0, alpha0=alpha0, P0=P0,
                tol=0.0, max_iter=4,
            )
            skipped += res.bound_rejected
        assert skipped > 0

    @pytest.mark.parametrize("start_level", [0, 3, 8])
    def test_start_level(self, start_level):
        tries = 0
        for seed in range(4):
            rng = np.random.default_rng(400 + seed)
            Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=60, m=8, V=3)
            alpha0, P0 = cold_start(Zs, Ts, 9.0, 4.0)
            res = self._check(
                Zs, Ts, F, Q, lam=9.0, beta=4.0, alpha0=alpha0, P0=P0,
                tol=0.0, max_iter=4, start_level=start_level,
            )
            tries += res.evaluated + res.bound_rejected
        assert tries > 0

    def test_four_views_sharp_inner_problem(self):
        # lam = V^2 and a small ridge: the bound rejects most long steps
        skipped = evaluated = 0
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=50, m=12, V=4)
            alpha0, P0 = cold_start(Zs, Ts, 16.0, 0.5)
            res = self._check(
                Zs, Ts, F, Q, lam=16.0, beta=0.5, alpha0=alpha0, P0=P0,
                tol=0.0, max_iter=12,
            )
            skipped += res.bound_rejected
            evaluated += res.evaluated
        assert skipped > evaluated


class TestLineSearchBound:
    """The lower bound only rejects candidates the full evaluation rejects."""

    def test_margin_keeps_near_ties_evaluated(self):
        agree = np.array([2.0, 3.0])
        cand = np.array([0.25, 0.75])
        lam, fixed = 4.0, 1.5
        lower = lam * float(cand**2 @ agree) - fixed
        scale = lam * float(cand**2 @ agree) + fixed
        # a bound above the threshold by less than the margin proves nothing
        assert not bound_rejects(
            cand, agree, fixed, lam, lower - 0.1 * BOUND_MARGIN * scale
        )
        assert not bound_rejects(cand, agree, fixed, lam, lower)
        assert bound_rejects(cand, agree, fixed, lam, lower - 2 * BOUND_MARGIN * scale)

    def test_negative_agreements_widen_the_margin(self):
        agree = np.array([-2.0, 3.0])
        cand = np.array([0.5, 0.5])
        lam, fixed = 4.0, 0.0
        lower = lam * float(cand**2 @ agree) - fixed
        # the margin scales with |c_v|: 4 * (0.5 + 0.75), not 4 * 0.25
        gap = 2 * BOUND_MARGIN * lam * 0.25
        assert not bound_rejects(cand, agree, fixed, lam, lower - gap)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        V=st.integers(2, 4),
        lam=st.floats(0.5, 50.0),
        beta=st.floats(0.05, 8.0),
    )
    def test_bound_rejections_fail_the_armijo_test(self, seed, V, lam, beta):
        rng = np.random.default_rng(seed)
        Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=12, m=5, V=V)
        ZT = np.matmul(Zs, Ts)
        H = compute_H(F, Q, rand_row_stochastic(rng, 12, 5))
        H_half = H / (2 * beta)
        alpha = rng.dirichlet(np.ones(V))
        P, _ = solve_inner_P(ZT, alpha, H_half, lam, beta)
        agree = view_agreements(P, ZT)
        fixed = beta * float(np.vdot(P, P)) + float(np.vdot(H, P))
        h0 = agreement_value(alpha, agree, fixed, lam)
        grad = grad_h(alpha, agree, lam)
        g = reduced_descent_direction(grad, alpha)
        assume(np.any(g))
        slope = float(grad @ g)
        shrinking = g < 0
        theta = min(1.0, float(np.min(alpha[shrinking] / -g[shrinking])))
        # every try of a backtracking sequence, past any acceptance
        for _ in range(agf._MAX_BACKTRACKS + 1):
            cand = np.maximum(alpha + theta * g, 0.0)
            cand /= cand.sum()
            threshold = h0 + agf._ARMIJO_C * theta * slope
            if bound_rejects(cand, agree, fixed, lam, threshold):
                P_c, t_c = solve_inner_P(ZT, cand, H_half, lam, beta)
                assert target_value(P_c, t_c, beta) > threshold
            theta *= agf._ARMIJO_SHRINK

    def test_bound_rejections_use_up_the_backtrack_budget(self, monkeypatch):
        rng = np.random.default_rng(3)
        Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=60, m=8, V=3)
        valued = []

        def every_candidate_fails(P, t, beta):
            # a weight step values its current weights from their
            # agreements, so every call values a candidate, and none passes
            valued.append(P)
            return target_value(P, t, beta) + 1e6

        alpha0, P0 = cold_start(Zs, Ts, 9.0, 4.0)
        monkeypatch.setattr(agf, "target_value", every_candidate_fails)
        res = agf.agf_minmax(Zs, Ts, F, Q, 9.0, 4.0, alpha0, P0, max_iter=1)
        assert res.steps == [0.0]
        assert res.bound_rejected > 0
        assert res.evaluated + res.bound_rejected == agf._MAX_BACKTRACKS + 1
        assert len(valued) == res.evaluated


class TestIdentityAlignmentsUnmultiplied:
    """Ts None reads the graphs as their own products, bit for bit Z @ I."""

    def _instance(self, seed, V, n, m, c=3):
        rng = np.random.default_rng(800 + seed)
        Z = np.stack([rand_row_stochastic(rng, n, m) for _ in range(V)])
        F = rand_row_stochastic(rng, n, c)
        Q = rand_row_stochastic(rng, m, c)
        P0 = rand_row_stochastic(rng, n, m)
        return Z, F, Q, P0, rand_simplex_interior(rng, V)

    @pytest.mark.parametrize("V, n, m", [(2, 60, 16), (3, 300, 64)])
    @pytest.mark.parametrize("freeze_weights", [False, True])
    def test_equals_explicit_identities(self, V, n, m, freeze_weights):
        for seed in range(3):
            Z, F, Q, P0, alpha0 = self._instance(seed, V, n, m)
            kw = dict(lam=float(V * V), beta=4.0, alpha0=alpha0, P0=P0, tol=0.0,
                      max_iter=4, freeze_weights=freeze_weights)
            eye = np.tile(np.eye(m), (V, 1, 1))
            res = agf_minmax(Z, None, F, Q, **kw)
            ref = agf_minmax(Z, eye, F, Q, **kw)
            assert np.array_equal(res.alpha, ref.alpha)
            assert np.array_equal(res.P, ref.P)
            assert res.h == ref.h
            assert (res.steps, res.level, res.n_iter, res.converged) == (
                ref.steps, ref.level, ref.n_iter, ref.converged
            )
            assert (res.evaluated, res.bound_rejected) == (
                ref.evaluated, ref.bound_rejected
            )
            if not freeze_weights:
                assert res.evaluated > 0


class TestStartLevel:
    """The first weight step's search skips the levels below start_level."""

    def _one_step(self, seed, start_level=0):
        rng = np.random.default_rng(500 + seed)
        Zs, Ts, F, Q = TestAgfMinmax()._instance(rng, n=60, m=8, V=3)
        alpha0, P0 = cold_start(Zs, Ts, 9.0, 4.0)
        return agf_minmax(
            Zs, Ts, F, Q, 9.0, 4.0, alpha0, P0, max_iter=1,
            start_level=start_level,
        )

    def test_start_at_or_below_the_accepted_level_keeps_the_step(self):
        longest = 0
        for seed in range(8):
            top = self._one_step(seed)
            assert top.steps[0] > 0
            longest = max(longest, top.level)
            for s in range(1, top.level + 1):
                res = self._one_step(seed, start_level=s)
                assert res.steps == top.steps
                assert res.level == top.level
                assert np.array_equal(res.alpha, top.alpha)
                assert np.array_equal(res.P, top.P)
                assert res.h == top.h
                # the s levels above the start are not tried
                assert (res.evaluated + res.bound_rejected
                        == top.evaluated + top.bound_rejected - s)
        # some search backtracked, so some start skipped a level
        assert longest >= 2

    @pytest.mark.parametrize("start_level", [5, agf._MAX_BACKTRACKS])
    def test_search_without_decrease_ends_at_the_last_level(
        self, monkeypatch, start_level
    ):
        def every_candidate_fails(P, t, beta):
            return target_value(P, t, beta) + 1e6

        monkeypatch.setattr(agf, "target_value", every_candidate_fails)
        res = self._one_step(0, start_level=start_level)
        assert res.steps == [0.0]
        assert res.level == 0
        assert (res.evaluated + res.bound_rejected
                == agf._MAX_BACKTRACKS + 1 - start_level)

    @pytest.mark.parametrize("start_level", [-1, agf._MAX_BACKTRACKS + 1])
    def test_rejects_a_level_off_the_grid(self, start_level):
        with pytest.raises(ValueError, match="start_level must be in 0..20"):
            self._one_step(0, start_level=start_level)


class TestHConvexity:
    def test_convex_along_random_chords(self):
        rng = np.random.default_rng(13)
        n, m, V, c = 20, 6, 3, 3
        Zs = [rand_row_stochastic(rng, n, m) for _ in range(V)]
        P0 = rand_row_stochastic(rng, n, m)
        F = rng.standard_normal((n, c))
        Q = rng.standard_normal((m, c))
        H = compute_H(F, Q, P0)
        lam, beta = 4.0, 4.0
        for Ts in ([np.eye(m)] * V, [procrustes(Z, P0) for Z in Zs]):
            for _ in range(10):
                a1 = rng.dirichlet(np.ones(V))
                a2 = rng.dirichlet(np.ones(V))
                gamma = rng.uniform(0.1, 0.9)
                mix = gamma * a1 + (1 - gamma) * a2
                h_mix = h_exact(mix, Zs, Ts, H, lam, beta)
                bound = gamma * h_exact(a1, Zs, Ts, H, lam, beta) + (
                    1 - gamma
                ) * h_exact(a2, Zs, Ts, H, lam, beta)
                assert h_mix <= bound + 1e-8
