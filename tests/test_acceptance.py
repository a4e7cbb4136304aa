"""End-to-end acceptance suite.

One test per guarantee the library makes, each checked at its stated
tolerance, so a verbose run reads as a pass/fail report. Numerical gates
reuse the naive reference implementations in oracles.py; the behavioural
gates run the seeded synthetic sub-cluster suite end to end.

The benchmark reproduction test is informational: it runs only when
AGFTI_UCI_DIGIT points at a dataset container and never gates on accuracy.
"""

import os
import time

import numpy as np
import pytest

from agfti.agf import (
    compute_H,
    grad_h,
    solve_inner_P,
    view_agreements,
)
from agfti.harness import (
    MaskSpec,
    generate_masks,
    load_container,
    missing_per_view,
    run_experiment,
    synth_scp,
)
from agfti.graphs import bkhk_anchors, build_bipartite
from agfti.harness.experiment import baseline_label_propagation
from agfti.solver import (
    SolverConfig,
    admm_solve,
    one_hot_labels,
    predict,
    update_alignment,
    update_labels,
    update_missing_rows,
)
from agfti.tensor3 import tubal_shrink
from oracles import (
    Tensor3,
    agf_minmax_with_reference,
    cold_start,
    dense_label_solve,
    fusion_input_per_view,
    identity_tensor,
    inner_solve,
    inner_value,
    label_weights,
    matrix_svt,
    missing_rows,
    perf_gain_dense,
    performance_gain,
    perslice_tnn_oracle,
    project_simplex,
    rand_orthogonal,
    rand_row_stochastic,
    rand_simplex_interior,
    simplex_qp_oracle,
    t_product,
    t_svd,
    tensor_transpose,
    tnn,
)

# the seeded synthetic suite: 400 samples, two views, three classes,
# ten (generator seed, mask seed) pairs, 5% labels
_SUITE_SIZES = (134, 133, 133)
_SUITE_SEEDS = range(10)
_SUITE_LAR = 0.05


def _rand_tensor(rng, n1, n2, n3):
    return Tensor3(rng.standard_normal((n3, n1, n2)))


def _rel(a, b):
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


def _suite_container(seed):
    return synth_scp(seed, V=2, c=3, class_sizes=_SUITE_SIZES)


def _suite_masks(container, vmr, seed):
    missing, labeled = generate_masks(
        container, MaskSpec(vmr=vmr, lar=_SUITE_LAR, seed=seed)
    )
    per_view = missing_per_view(missing, container.V)
    unlabeled = np.setdiff1d(np.arange(container.n), labeled)
    return per_view, labeled, unlabeled


def _accuracy(pred, truth):
    return float((pred == truth).mean())


def test_01_tensor_oracles():
    t_start = time.perf_counter()
    rng = np.random.default_rng(101)

    # reconstruction and orthogonality of the factorization
    for n1, n2, n3 in [(5, 3, 6), (4, 4, 3), (2, 5, 8), (6, 2, 1)]:
        t = _rand_tensor(rng, n1, n2, n3)
        res = t_svd(t)
        recon = t_product(t_product(res.u, res.s), tensor_transpose(res.v))
        assert _rel(recon.data, t.data) < 1e-10
        eye1 = identity_tensor(n1, n3)
        eye2 = identity_tensor(n2, n3)
        utu = t_product(tensor_transpose(res.u), res.u)
        vtv = t_product(tensor_transpose(res.v), res.v)
        assert _rel(utu.data, eye1.data) < 1e-10
        assert _rel(vtv.data, eye2.data) < 1e-10

    # nuclear norm against the naive per-frequency summation
    for _ in range(10):
        t = _rand_tensor(rng, 4, 3, 5)
        ref = perslice_tnn_oracle(t.data)
        assert abs(tnn(t) - ref) <= 1e-10 * max(1.0, ref)

    # single-slice shrinkage degenerates to matrix singular value thresholding
    for tau in (0.05, 0.4, 1.3):
        A = rng.standard_normal((5, 4))
        out = tubal_shrink(A[None], tau)
        assert np.abs(out[0] - matrix_svt(A, tau)).max() < 1e-10

    # shrinkage output minimizes its proximal objective under perturbation
    for _ in range(20):
        t = _rand_tensor(rng, 3, 3, 4)
        tau = float(rng.uniform(0.05, 0.5))
        out = tubal_shrink(t.data, tau)

        def objective(G):
            fit = 0.5 * np.linalg.norm(G.data - t.data) ** 2
            return 4 * tau * tnn(G) + fit

        base = objective(Tensor3(out))
        fnorm = np.linalg.norm(t.data)
        for _ in range(100):
            delta = rng.standard_normal(t.data.shape)
            delta *= 0.1 * fnorm * rng.uniform() / np.linalg.norm(delta)
            assert base <= objective(Tensor3(out + delta)) + 1e-10

    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0, f"tensor oracle suite took {elapsed:.1f}s"


def test_02_simplex_projection_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        v = rng.standard_normal(m) * float(rng.uniform(0.1, 10.0))
        ref = simplex_qp_oracle(v)
        worst = max(worst, float(np.abs(project_simplex(v) - ref).max()))
    assert worst <= 1e-10, f"worst deviation from enumeration oracle {worst:.2e}"

    for _ in range(300):
        m = int(rng.integers(1, 9))
        x = rng.standard_normal(m) * 3.0
        y = rng.standard_normal(m) * 3.0
        px, py = project_simplex(x), project_simplex(y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
        assert np.abs(project_simplex(px) - px).max() <= 1e-12


def test_03_weight_gradient_finite_difference_check():
    n, m, V, c = 60, 8, 3, 3
    eps = 1e-5

    def h_exact(alpha, Zs, Ts, H, lam, beta):
        P = inner_solve(Zs, Ts, alpha, H, lam, beta)[0]
        return inner_value(P, fusion_input_per_view(Zs, Ts, alpha), H, lam, beta)

    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        Zs = [rand_row_stochastic(rng, n, m) for _ in range(V)]
        P0 = rand_row_stochastic(rng, n, m)
        Ts = [rand_orthogonal(rng, m) for _ in range(V)]
        F = rng.standard_normal((n, c))
        Q = rng.standard_normal((m, c))
        H = compute_H(F, Q, P0)
        lam, beta = float(V * V), 4.0

        alpha = rand_simplex_interior(rng, V, floor=0.15)
        P = inner_solve(Zs, Ts, alpha, H, lam, beta)[0]
        ZTs = [Z @ T for Z, T in zip(Zs, Ts)]
        g = grad_h(alpha, view_agreements(P, ZTs), lam)
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            w = np.zeros(V)
            w[a], w[b] = 1.0, -1.0
            hp = h_exact(alpha + eps * w, Zs, Ts, H, lam, beta)
            hm = h_exact(alpha - eps * w, Zs, Ts, H, lam, beta)
            fd = (hp - hm) / (2 * eps)
            an = float(g @ w)
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(an)), (
                f"trial {trial} dir ({a},{b}): fd {fd:.8f} vs grad {an:.8f}"
            )


def test_04_weight_descent_monotonicity():
    # instances are built the way the outer solver builds them (anchor
    # graphs from data, alignments and labels from the fused graph), not
    # from raw random matrices whose flat landscapes invite dithering
    t_start = time.perf_counter()
    for seed in range(10):
        container = synth_scp(seed, n_per_class=30, V=3, c=3)
        m, k = 8, 5
        Zs = []
        for v, X in enumerate(container.views):
            anchors = bkhk_anchors(X, m, seed=seed, index=v)
            Zs.append(build_bipartite(X, anchors, k))
        V = container.V
        lam, beta = float(V * V), 4.0
        P0 = solve_inner_P(np.stack(Zs), np.full(V, 1.0 / V), 0.0, lam, beta)[0]
        Ts = [update_alignment(Z, P0) for Z in Zs]
        rng = np.random.default_rng(seed)
        labeled = rng.choice(container.n, size=9, replace=False)
        Y = one_hot_labels(container.labels.astype(np.int64), labeled, container.c)
        F, Q = update_labels(P0, Y, 100.0)

        alpha0, P0 = cold_start(Zs, Ts, lam, beta)
        res, ref = agf_minmax_with_reference(
            Zs, Ts, F, Q, lam=lam, beta=beta, alpha0=alpha0, P0=P0
        )
        for before, after in ref.h_trace:
            assert after <= before + 1e-9, f"seed {seed}: h rose {before}->{after}"
        assert ref.converged, f"seed {seed} did not settle"
        assert res.n_iter <= 50
        if ref.deltas:
            assert ref.deltas[-1] <= 1e-4, (
                f"seed {seed}: terminal weight change {ref.deltas[-1]:.2e}"
            )
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0, f"weight descent suite took {elapsed:.1f}s"


def test_05_label_solve_blockwise_equals_dense():
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(40, 201))
        m = int(rng.integers(4, 17))
        c = int(rng.integers(2, 5))
        P = rand_row_stochastic(rng, n, m)
        y = rng.integers(0, c, size=n)
        labeled_idx = rng.choice(n, size=max(c, n // 5), replace=False)
        Y = one_hot_labels(y, labeled_idx, c)
        bn, bm = label_weights(Y, m)

        F, Q = update_labels(P, Y, 100.0)
        F_ref, Q_ref = dense_label_solve(P, bn, bm, Y)
        assert np.abs(F - F_ref).max() < 1e-8
        assert np.abs(Q - Q_ref).max() < 1e-8

        gain = performance_gain(F, Q, P, bn, bm, Y)
        gain_ref = perf_gain_dense(F, Q, P, bn, bm, Y)
        assert abs(gain - gain_ref) <= 1e-8 * max(1.0, abs(gain_ref))


def test_06_closed_form_subproblem_optimality():
    rng = np.random.default_rng(600)

    # imputed rows solve their per-row quadratic programs exactly
    n, m, V = 8, 4, 2
    Z = np.stack([rand_row_stochastic(rng, n, m) for _ in range(V)])
    G = np.stack([rand_row_stochastic(rng, n, m) for _ in range(V)])
    W = 0.1 * rng.standard_normal((V, n, m))
    P = rand_row_stochastic(rng, n, m)
    Ts = np.stack([rand_orthogonal(rng, m) for _ in range(V)])
    alpha = np.array([0.7, 0.3])
    missing = [np.array([0, 3, 5]), np.array([1, 2, 6, 7])]
    lam, eta = 4.0, 0.5
    G_rows = missing_rows(G, missing)
    update_missing_rows(Z, missing, G_rows, W, P, Ts, alpha, lam, eta)
    for v in range(V):
        lin = lam * alpha[v] ** 2 * (P @ Ts[v].T)
        for i in missing[v]:
            target = G[v, i] - (W[v, i] - lin[i]) / eta
            ref = simplex_qp_oracle(target)
            assert np.abs(Z[v, i] - ref).max() < 1e-10

    # fused graph rows solve theirs
    Zt = rng.standard_normal((6, 5))
    H = np.abs(rng.standard_normal((6, 5)))
    lam, beta = 2.5, 1.5
    Pin, _ = solve_inner_P(Zt[None], [1.0], H / (2 * beta), lam, beta)
    target = (lam * Zt - H) / (2 * beta)
    for i in range(6):
        ref = simplex_qp_oracle(target[i])
        assert np.abs(Pin[i] - ref).max() < 1e-10

    # alignment attains the nuclear norm and no rotation does better
    Z = rand_row_stochastic(rng, 12, 5)
    Pal = rand_row_stochastic(rng, 12, 5)
    T = update_alignment(Z, Pal)
    cross = Z.T @ Pal
    tr = float(np.trace(T.T @ cross))
    nuc = float(np.linalg.svd(cross, compute_uv=False).sum())
    assert abs(tr - nuc) <= 1e-8 * max(1.0, nuc)
    for _ in range(100):
        R = rand_orthogonal(rng, 5)
        assert tr >= float(np.trace(R.T @ cross)) - 1e-10


def test_07_admm_convergence_on_synthetic_suite():
    t_start = time.perf_counter()
    hits = 0
    residuals, iter_counts = [], []
    for seed in _SUITE_SEEDS:
        container = _suite_container(seed)
        per_view, labeled, _ = _suite_masks(container, vmr=0.5, seed=seed)
        cfg = SolverConfig(n_anchors=16, k_neighbors=7, seed=seed)
        result = admm_solve(
            container.views, container.labels.astype(np.int64),
            labeled, per_view, cfg, n_classes=container.c,
        )
        last = result.diagnostics[-1]
        residuals.append(last["primal_residual_fro"])
        iter_counts.append(result.n_iter)
        if (
            result.converged
            and result.n_iter <= 50
            and last["primal_residual_fro"] <= 1e-5
        ):
            hits += 1
    elapsed = time.perf_counter() - t_start
    assert hits >= 9, (
        f"only {hits}/10 seeds converged; residuals {residuals}, "
        f"iterations {iter_counts}"
    )
    assert elapsed < 120.0, f"convergence suite took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def suite_grid():
    """Accuracy grid on the synthetic suite at 64 anchors per view.

    Per seed: the full solver at VMR 0/30/50/70, the no-imputation and
    frozen-weight ablations where the ordering checks need them, and the
    plain equal-weight propagation baseline at VMR 0 and 50.
    """
    full_vmrs = (0.0, 0.3, 0.5, 0.7)
    woti_vmrs = (0.3, 0.5, 0.7)
    acc = {
        "full": {v: [] for v in full_vmrs},
        "wo_ti": {v: [] for v in woti_vmrs},
        "wo_alpha": {0.5: []},
        "baseline": {0.0: [], 0.5: []},
    }
    for seed in _SUITE_SEEDS:
        container = _suite_container(seed)
        y = container.labels.astype(np.int64)
        state = {}
        for vmr in full_vmrs:
            state[vmr] = _suite_masks(container, vmr=vmr, seed=seed)

        def solve(vmr, **flags):
            per_view, labeled, unlabeled = state[vmr]
            cfg = SolverConfig(n_anchors=64, k_neighbors=7, seed=seed, **flags)
            result = admm_solve(
                container.views, y, labeled, per_view, cfg,
                n_classes=container.c,
            )
            pred = predict(result.F)[unlabeled]
            return _accuracy(pred, y[unlabeled])

        for vmr in full_vmrs:
            acc["full"][vmr].append(solve(vmr))
        for vmr in woti_vmrs:
            acc["wo_ti"][vmr].append(solve(vmr, skip_imputation=True))
        acc["wo_alpha"][0.5].append(solve(0.5, freeze_weights=True))

        for vmr in (0.0, 0.5):
            per_view, labeled, unlabeled = state[vmr]
            pred = baseline_label_propagation(
                container.views, y, labeled, per_view,
                m=64, k=7, seed=seed, n_classes=container.c,
            )
            acc["baseline"][vmr].append(_accuracy(pred[unlabeled], y[unlabeled]))

    return {
        kind: {vmr: float(np.mean(vals)) for vmr, vals in table.items()}
        for kind, table in acc.items()
    }


def test_08_ablation_ordering_with_missing_views(suite_grid):
    full, wo_ti = suite_grid["full"], suite_grid["wo_ti"]
    assert full[0.5] >= wo_ti[0.5], (
        f"imputation hurt at half missing: {full[0.5]:.4f} < {wo_ti[0.5]:.4f}"
    )
    assert full[0.5] >= suite_grid["wo_alpha"][0.5], (
        f"learned weights hurt at half missing: "
        f"{full[0.5]:.4f} < {suite_grid['wo_alpha'][0.5]:.4f}"
    )
    margins = {vmr: full[vmr] - wo_ti[vmr] for vmr in (0.3, 0.5, 0.7)}
    assert margins[0.7] > margins[0.3], (
        f"imputation margin did not grow with missingness: {margins}"
    )


def test_09_benchmark_reproduction_hook():
    path = os.environ.get("AGFTI_UCI_DIGIT", "")
    if not path:
        pytest.skip(
            "set AGFTI_UCI_DIGIT to a dataset container to run the "
            "benchmark reproduction; informational only, never gates"
        )
    container = load_container(path)
    config = SolverConfig(n_anchors=256, k_neighbors=7)
    results = run_experiment(
        container, vmr=0.5, lar=0.05, n_reps=10, solver_config=config
    )
    block = results["variants"]["full"]
    assert block["failed_reps"] == 0
    agg = block["aggregate"]["acc"]
    # reference result for this benchmark at these settings: 95.23 +/- 2.99
    delta = 100.0 * agg["mean"] - 95.23
    print(
        f"benchmark accuracy {100 * agg['mean']:.2f} +/- {100 * agg['std']:.2f} "
        f"(delta {delta:+.2f} vs reference 95.23 +/- 2.99)"
    )


def test_10_near_linear_scaling_in_sample_count():
    def sized_container(n, seed):
        base, rem = divmod(n, 3)
        sizes = tuple(base + 1 if i < rem else base for i in range(3))
        return synth_scp(seed, V=2, c=3, class_sizes=sizes)

    def per_iter_seconds(n, seeds=(0, 1, 2, 3, 4), iters=10):
        # the fusion step's inner loop length fluctuates per instance, so
        # the estimate averages iterations across several seeded solves;
        # each solve's first iteration is dropped as cache warmup
        times = []
        for seed in seeds:
            container = sized_container(n, seed)
            per_view, labeled, _ = _suite_masks(container, vmr=0.3, seed=seed)
            cfg = SolverConfig(
                n_anchors=16, k_neighbors=7, seed=seed,
                tol=1e-12, max_outer_iters=iters,
            )
            result = admm_solve(
                container.views, container.labels.astype(np.int64),
                labeled, per_view, cfg, n_classes=container.c,
            )
            times.extend(row["seconds"] for row in result.diagnostics[1:])
        return float(np.mean(times))

    per_iter_seconds(1000, seeds=(9,), iters=3)  # warm BLAS before measuring
    t1k = per_iter_seconds(1000)
    t2k = per_iter_seconds(2000)
    t4k = per_iter_seconds(4000)
    r1, r2 = t2k / t1k, t4k / t2k
    assert r1 < 2.6, f"1k->2k per-iteration ratio {r1:.2f} (times {t1k:.4f}s, {t2k:.4f}s)"
    assert r2 < 2.6, f"2k->4k per-iteration ratio {r2:.2f} (times {t2k:.4f}s, {t4k:.4f}s)"


def test_11_recovers_accuracy_lost_to_missing_views(suite_grid):
    baseline_drop = suite_grid["baseline"][0.0] - suite_grid["baseline"][0.5]
    solver_drop = suite_grid["full"][0.0] - suite_grid["full"][0.5]
    assert baseline_drop >= 0.05, (
        f"plain propagation only dropped {100 * baseline_drop:.2f} points; "
        "the suite no longer exhibits the sub-cluster failure"
    )
    assert solver_drop < baseline_drop, (
        f"solver dropped {100 * solver_drop:.2f} points vs baseline "
        f"{100 * baseline_drop:.2f}"
    )
