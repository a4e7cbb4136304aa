"""ADMM driver and its subproblem updates.

The solver alternates closed-form updates: simplex-projected imputation of
missing graph rows, the adversarial fusion step for (alpha, P), a blockwise
label-propagation solve, tubal shrinkage of the stacked graph tensor, a
batched Procrustes alignment, and the multiplier/penalty update. Each
subproblem is exposed on its own so it can be tested against independent
oracles.

The per-view graphs live in one (V, n, m) array for the whole solve, view v
being the contiguous slice Z[v]; the splitting variable G and the multiplier
W share that layout, and the alignments are one (V, m, m) array. Until the
first alignment update (for the whole solve under freeze_alignment) the
alignments are the identity, held as None: fusion and imputation read the
graphs and P unmultiplied, and the result reports identity matrices.
"""

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .agf import agf_minmax, solve_inner_P
from .graphs import (
    ZeroDegreeWarning,
    bkhk_anchors,
    build_bipartite,
    floored_anchor_degrees,
)
from .simplex import prox_rows
from .tensor3 import tubal_shrink
# re-exported, and called nowhere in the solver: perfbench/tracing.py
# patches solver.compute_H, solver.inner_value, solver.weighted_fusion_input
# and solver.phi
from .agf import compute_H, inner_value, weighted_fusion_input  # noqa: F401
from .tensor3 import phi  # noqa: F401


# the steps of one outer iteration, in order, as diagnostics time them
STEPS = ("impute", "fusion", "labels", "shrink", "align", "multiplier")


# the penalty schedule of the multiplier update (Boyd et al., Distributed
# Optimization and Statistical Learning via ADMM, sec. 3.4.1): start small,
# double every outer iteration, stop growing at the cap
PENALTY_START = 1e-2
PENALTY_GROWTH = 2.0
PENALTY_CAP = 1e10


@dataclass
class SolverConfig:
    """Hyperparameters and loop controls for admm_solve.

    lam left as None resolves to V^2 when the view count is known.
    inner_tol acts only when max_inner_iters > 1: it ends a fusion call
    before its last weight step once an accepted step moves no weight by
    more. Under the default single step every call ends after that step,
    so inner_tol does not change the solve.
    """

    n_anchors: int = 16
    k_neighbors: int = 7
    lam: float | None = None
    beta: float = 4.0
    rho: float = 100.0
    b_labeled: float = 100.0
    tol: float = 1e-5
    max_outer_iters: int = 50
    inner_tol: float = 1e-4
    max_inner_iters: int = 1
    seed: int = 0
    freeze_alignment: bool = False
    freeze_weights: bool = False
    skip_imputation: bool = False


@dataclass
class SolveResult:
    F: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    alpha: np.ndarray
    # (V, n, m) imputed graphs and (V, m, m) alignments; view v is Zs[v]
    Zs: np.ndarray
    Ts: np.ndarray
    lam: float
    converged: bool
    n_iter: int
    # c >= 2 and every unlabeled row predicts the same class
    degenerate: bool
    diagnostics: list = field(default_factory=list)


def one_hot_labels(y, labeled_idx, n_classes):
    """(n, c) one-hot rows for labeled samples, zero rows elsewhere."""
    y = np.asarray(y, dtype=np.int64)
    labeled_idx = np.asarray(labeled_idx, dtype=np.int64)
    Y = np.zeros((y.size, n_classes))
    Y[labeled_idx, y[labeled_idx]] = 1.0
    return Y


def update_labels(P, Y, b_labeled):
    """Propagate labels through the fused bipartite graph.

    Solves the stationarity system of the graph-regularized least squares
    objective,

        [I_n + B_n, -P L^-1/2 ; -L^-1/2 P^T, I_m] [F; Q] = [B_n Y; 0],

    by eliminating F first, so the only dense factorization is the m x m
    Schur complement. L is the diagonal of anchor degrees, and the diagonal
    B_n fits the labeled samples (the rows of Y with a nonzero entry) with
    weight b_labeled and leaves every other sample and the anchors free.
    A b_labeled <= 0 or a Y without a labeled row raises ValueError, since
    F would be zero and every sample predicted as class 0.
    """
    if not b_labeled > 0:
        raise ValueError(f"b_labeled must be positive, got {b_labeled}")
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    m = P.shape[1]
    labeled = Y.any(axis=1)
    if not labeled.any():
        raise ValueError("Y has no labeled row; there is nothing to propagate")
    bn = np.where(labeled, float(b_labeled), 0.0)

    rhs1 = bn[:, None] * Y
    col = floored_anchor_degrees(P)
    m11 = 1.0 + bn
    M12 = -(P / np.sqrt(col)[None, :])
    A = M12 / m11[:, None]
    C2 = np.eye(m) - M12.T @ A
    try:
        Q = np.linalg.solve(C2, -(A.T @ rhs1))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "anchor Schur complement is singular; the fused graph is too "
            "degenerate for label propagation"
        ) from exc
    F = (rhs1 - M12 @ Q) / m11[:, None]
    return F, Q


def update_missing_rows(Z, missing, G, W, P, Ts, alpha, lam, eta):
    """Impute absent graph rows in place by simplex projection of their target.

    Z, G and W are (V, n, m) stacks. For view v and sample i in its missing
    set, the row objective

        <W[v, i], z> - lam alpha_v^2 <(P T_v^T)_i, z> + eta/2 ||z - G[v, i]||^2

    is minimized on the simplex; completing the square gives the projected
    target G[v, i] - (W[v, i] - lam alpha_v^2 (P T_v^T)_i) / eta, written to
    Z[v, i]. Rows of observed samples are never touched. Ts None stands for
    identity alignments, under which P's rows are read unmultiplied.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    for v, idx in enumerate(missing):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size:
            rows = P[idx] if Ts is None else P[idx] @ Ts[v].T
            lin = lam * alpha[v] ** 2 * rows
            target = G[v, idx] - (W[v, idx] - lin) / eta
            Z[v, idx] = prox_rows(target)


def update_G(Z, W, eta, rho):
    """Tubal shrinkage of the multiplier-shifted graph stack.

    Z and W are (V, n, m) stacks. Minimizes rho * (sum of per-frequency
    nuclear norms) + eta/2 ||G - Z - W/eta||_F^2, i.e. tubal_shrink at
    threshold rho/eta of the (n, m, V) transpose, a view without a copy:
    its axis 0, the samples, is the DFT axis, and each frequency slice is
    an m x V matrix. The result comes back in the (V, n, m) layout.

    M = Z + W/eta is built in one new stack, and the shrinkage holds its
    spectrum and its output beside it, so the step's memory is about two
    stacks above M: the half spectrum of the sample axis takes about the
    bytes of the real stack.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    M = W / eta
    M += Z
    if rho == 0:
        return M
    return tubal_shrink(M.transpose(1, 2, 0), rho / eta).transpose(2, 0, 1)


def update_alignment(Z, P):
    """Orthogonal Procrustes alignment of the view graphs onto the fused one.

    T = U V^T from the SVD of Z^T P maximizes Tr(T^T Z^T P) over orthogonal
    matrices; the attained value is the nuclear norm of Z^T P. Z is one
    (n, m) graph or a (V, n, m) stack, giving one (m, m) or a (V, m, m)
    stack of alignments from one batched SVD.
    """
    U, _, Vh = np.linalg.svd(np.swapaxes(Z, -1, -2) @ P)
    return U @ Vh


def update_multiplier(W, gap, eta):
    """Dual ascent on Z = G from its residual gap = Z - G, then grow the penalty."""
    return W + eta * gap, min(PENALTY_GROWTH * eta, PENALTY_CAP)


def predict(F):
    """Class of each row: argmax, ties to the lowest class index."""
    return np.argmax(np.asarray(F), axis=1)


def anchor_graphs(views, missing, m, k, seed):
    """Per-view anchor graphs stacked into one (V, n, m) array.

    Slice v is view v's bipartite graph on the samples present in it; rows of
    samples missing from the view hold the uninformative uniform 1/m.
    """
    n = views[0].shape[0]
    Z = np.empty((len(views), n, m))
    for v, X in enumerate(views):
        idx = np.asarray(missing[v], dtype=np.int64)
        present = np.setdiff1d(np.arange(n), idx)
        anchors = bkhk_anchors(X[present], m, seed=seed, index=v)
        Z[v, present] = build_bipartite(X[present], anchors, k)
        Z[v, idx] = 1.0 / m
    return Z


def _checked_graphs(graphs, V, n, m):
    """graphs as a float64 array, read without a copy; ValueError unless (V, n, m)."""
    graphs = np.asarray(graphs, dtype=np.float64)
    if graphs.shape != (V, n, m):
        raise ValueError(f"graphs has shape {graphs.shape}, expected the "
                         f"(views, samples, anchors) stack {(V, n, m)}")
    return graphs


def _index_array(idx, name):
    """idx as a 1-d int64 array; ValueError naming it, not a silent cast."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a 1-d array of integer indices, "
                         f"got shape {idx.shape} and dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def prepare_inputs(views, y, labeled_idx, missing, n_classes):
    """(views, y, labeled_idx, missing, c) as arrays; ValueError if malformed.

    c is n_classes, or the largest label plus one when that is None. The
    index arrays must be 1-d and of an integer dtype (an empty one of any
    dtype), so no fraction or boolean mask is read as indices, and
    labeled_idx may list a sample only once.
    """
    views = [np.asarray(X, dtype=np.float64) for X in views]
    y = np.asarray(y, dtype=np.int64)
    labeled_idx = _index_array(labeled_idx, "labeled_idx")
    missing = [_index_array(idx, f"missing[{v}]") for v, idx in enumerate(missing)]
    c = int(n_classes) if n_classes is not None else int(y.max()) + 1
    n = views[0].shape[0]
    V = len(views)
    for v, X in enumerate(views):
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(f"view {v} has shape {X.shape}, expected ({n}, d)")
    if len(missing) != V:
        raise ValueError("one missing-index set per view required")
    absent = np.zeros(n, dtype=np.int64)
    for idx in missing:
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("missing indices out of range")
        absent[idx] += 1
    if np.any(absent >= V):
        bad = int(np.argmax(absent >= V))
        raise ValueError(f"sample {bad} is missing from every view")
    outside = (labeled_idx < 0) | (labeled_idx >= n)
    if outside.any():
        bad = int(labeled_idx[np.argmax(outside)])
        raise ValueError(f"labeled index {bad} is outside 0..{n - 1}")
    listed, times = np.unique(labeled_idx, return_counts=True)
    if np.any(times > 1):
        bad = int(listed[np.argmax(times > 1)])
        raise ValueError(f"labeled index {bad} is listed more than once")
    labels = y[labeled_idx]
    outside = (labels < 0) | (labels >= c)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(
            f"labeled sample {int(labeled_idx[i])} has label {int(labels[i])}, "
            f"outside 0..{c - 1}"
        )
    labeled_classes = np.unique(labels)
    if labeled_classes.size < c:
        missing_classes = sorted(set(range(c)) - set(labeled_classes.tolist()))
        raise ValueError(
            f"every class needs at least one labeled sample; none for "
            f"{missing_classes}"
        )
    return views, y, labeled_idx, missing, c


@contextmanager
def _one_zero_degree_warning():
    """Report the block's floored zero-degree anchors in one warning at its end.

    Every degree computation that floors anchors warns, and a solve makes
    at least two per iteration. Their ZeroDegreeWarnings are collected, and
    one summary gives how many computations floored and the most anchors
    floored at once. Every other warning is re-emitted unchanged.
    """
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ZeroDegreeWarning)
            yield
    finally:
        floored = []
        for w in caught:
            if issubclass(w.category, ZeroDegreeWarning):
                floored.append(w.message.anchors)
            else:
                warnings.warn_explicit(
                    w.message, w.category, w.filename, w.lineno, source=w.source
                )
        if floored:
            most = max(floored)
            # stack: this generator, contextlib's exit and decorator frames,
            # then the caller of the decorated solve
            warnings.warn(
                ZeroDegreeWarning(
                    f"{len(floored)} degree computation(s) of the solve floored "
                    f"zero-degree anchors, at most {most} at once, at 1e-12",
                    most,
                ),
                stacklevel=4,
            )


@_one_zero_degree_warning()
def admm_solve(views, y, labeled_idx, missing, config=None, n_classes=None,
               graphs=None):
    """Run the full alternating solver on multi-view data with missing rows.

    Parameters
    ----------
    views : list of (n, d_v) arrays
    y : (n,) integer labels; only rows in labeled_idx influence training
    labeled_idx : distinct indices of labeled samples (every class represented)
    missing : per view, the indices of samples absent from that view
    config : SolverConfig
    n_classes : class count; inferred from y when omitted
    graphs : optional (V, n, n_anchors) stack, the one
        anchor_graphs(views, missing, config.n_anchors, config.k_neighbors,
        config.seed) returns, so that several solves on the same masks build
        it once. The solve works on a copy; another shape raises ValueError.

    Returns a SolveResult whose diagnostics list one record per outer
    iteration (h value, primal residuals, label movement, weights, penalty,
    wall seconds, under step_seconds the seconds of each step in STEPS, and
    under line_search the fusion's weight steps, its accepted step sizes and
    the line-search candidates it tried, valued in full (evaluated) or
    rejected by the lower bound (bound_rejected), all zero or empty when
    agf_minmax, called once per iteration, freezes the weights). Each call's
    first weight step starts its search one level above the previous call's
    last accepted step (at the top after a search that found no decrease),
    and the longer steps it so skips count as neither.
    max_outer_iters must be at least 1: without an iteration there is no
    solve, only the initial propagation.
    Non-convergence within max_outer_iters is reported through the converged
    flag, never raised, and a collapse of every unlabeled sample into one
    class through the degenerate flag, which a converged run can carry.
    Zero-degree anchors floored anywhere in the solve are reported by one
    ZeroDegreeWarning when it ends.
    """
    config = config or SolverConfig()
    if config.max_outer_iters < 1:
        raise ValueError("max_outer_iters must be at least 1, got "
                         f"{config.max_outer_iters}")
    views, y, labeled_idx, missing, c = prepare_inputs(
        views, y, labeled_idx, missing, n_classes
    )
    V = len(views)
    n = views[0].shape[0]

    lam = float(config.lam) if config.lam is not None else float(V * V)
    m, k = config.n_anchors, config.k_neighbors

    if graphs is None:
        Z = anchor_graphs(views, missing, m, k, config.seed)
    else:
        # imputation writes rows of Z in place
        Z = _checked_graphs(graphs, V, n, m).copy()
    # identity alignments until the first update_alignment
    Ts = None
    alpha = np.full(V, 1.0 / V)
    G = np.zeros((V, n, m))
    W = np.zeros((V, n, m))
    eta = PENALTY_START

    Y = one_hot_labels(y, labeled_idx, c)

    P, _ = solve_inner_P(Z, alpha, 0.0, lam, config.beta)
    F, Q = update_labels(P, Y, config.b_labeled)

    diagnostics = []
    converged = False
    n_iter = 0
    # the line-search level the next fusion call's first weight step starts at
    level = 0

    for it in range(1, config.max_outer_iters + 1):
        n_iter = it
        # one clock reading at the end of each step in STEPS
        marks = [time.perf_counter()]

        if not config.skip_imputation:
            update_missing_rows(Z, missing, G, W, P, Ts, alpha, lam, eta)
        marks.append(time.perf_counter())

        res = agf_minmax(
            Z, Ts, F, Q, lam, config.beta, alpha0=alpha, P0=P,
            tol=config.inner_tol, max_iter=config.max_inner_iters,
            freeze_weights=config.freeze_weights, start_level=level,
        )
        alpha, P, h_val = res.alpha, res.P, res.h
        # one level above the last accepted step; back to the top after a
        # search that found no decrease
        level = max(0, res.level - 1) if res.steps and res.steps[-1] else 0
        line_search = {
            "steps": res.n_iter,
            "thetas": [float(t) for t in res.steps if t > 0],
            "evaluated": res.evaluated,
            "bound_rejected": res.bound_rejected,
        }
        marks.append(time.perf_counter())

        F_prev = F
        F, Q = update_labels(P, Y, config.b_labeled)
        marks.append(time.perf_counter())

        # the previous G is dead once the imputation has read it: drop it
        # before the shrinkage, the solve's largest allocation
        del G
        G = update_G(Z, W, eta, config.rho)
        marks.append(time.perf_counter())

        if not config.freeze_alignment:
            Ts = update_alignment(Z, P)
        marks.append(time.perf_counter())

        gap = Z - G
        W, eta = update_multiplier(W, gap, eta)
        marks.append(time.perf_counter())

        prim_inf = float(np.abs(gap).max())
        prim_fro = float(np.linalg.norm(gap))
        del gap
        dF = float(
            np.linalg.norm(F - F_prev) / max(1.0, np.linalg.norm(F_prev))
        )
        diagnostics.append(
            {
                "iteration": it,
                "h": h_val,
                "primal_residual_fro": prim_fro,
                "primal_residual_inf": prim_inf,
                "delta_F": dF,
                "alpha": [float(a) for a in alpha],
                "eta": float(eta),
                "seconds": time.perf_counter() - marks[0],
                "step_seconds": {
                    step: marks[i + 1] - marks[i] for i, step in enumerate(STEPS)
                },
                "line_search": line_search,
            }
        )
        # the Frobenius norm dominates the entrywise max, so gating on it
        # guarantees both residual readings sit at or below tol on exit
        if max(prim_fro, dF) <= config.tol:
            converged = True
            break

    unlabeled_classes = np.unique(np.delete(predict(F), labeled_idx))
    return SolveResult(
        F=F,
        Q=Q,
        P=P,
        alpha=alpha,
        Zs=Z,
        Ts=np.tile(np.eye(m), (V, 1, 1)) if Ts is None else Ts,
        lam=lam,
        converged=converged,
        n_iter=n_iter,
        degenerate=c >= 2 and unlabeled_classes.size == 1,
        diagnostics=diagnostics,
    )
