"""ADMM driver and its subproblem updates.

The solver alternates closed-form updates: a batched Procrustes alignment,
simplex-projected imputation of missing graph rows, the adversarial fusion
step for (alpha, P), a blockwise label-propagation solve, tubal shrinkage
of the stacked graph tensor, and the multiplier/penalty update. The
alignment reads the graphs and P as the previous iteration's imputation and
fusion left them, since the label, shrinkage and multiplier steps write
neither; it runs at the front of the iteration whose imputation and fusion
read it, so a solve of n_iter iterations runs n_iter - 1 alignments. The
alignment a further iteration would start from is update_alignment(result.Zs,
result.P), bit for bit; no step reads it, so the solve does not make it.
Each subproblem is exposed on its own so it can be tested against
independent oracles.

The per-view graphs live in one (V, n, m) array for the whole solve, view v
being the contiguous slice Z[v]; the multiplier W shares that layout, and the
alignments are one (V, m, m) array. The splitting variable G is a (V, n, m)
stack only from the shrinkage that makes it to the multiplier step right
after it, which writes the gap Z - G over it; the next imputation reads G
at its missing rows alone, so those rows are all that is kept of it, and
only until that step runs. Until the first alignment update, at the front of
iteration 2 (for the whole solve under freeze_alignment), the alignments are
the identity, held as None: fusion and imputation read the graphs and P
unmultiplied.

The (V, n, m) stacks are stored in float32: the graphs Z (anchor_graphs
builds them so, and a stack given to admm_solve is converted once), the
multiplier W, the shifted stack M and G, and the fusion's aligned products;
the shrinkage packs its spectrum into M. P, H, F, Q, alpha and the (V, m, m)
alignments stay float64. float32 is a storage format only: every value a
decision reads is accumulated in float64 from the float32 values, one view
or one block at a time, so no float64 (V, n, m) array is formed. That holds
for Z_v^T P and its rank cut (RANK_RTOL), the imputation targets and their
simplex thresholds (written back rounded to float32), the fusion targets
and agreements (agf.py), the shrinkage's norms and factorisations
(tensor3.py), the label solve and the primal residual. The elementwise
stack updates (M, the gap, W) and the products Z_v T_v run in float32.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .agf import agf_minmax, solve_inner_P
from .graphs import (bkhk_anchors, build_bipartite, floored_anchor_degrees,
                     warn_zero_degree, zero_degree_anchors)
from .simplex import prox_rows
from .tensor3 import tubal_shrink
# re-exported, and called nowhere in the solver: perfbench/tracing.py
# patches solver.compute_H, solver.inner_value, solver.weighted_fusion_input
# and solver.phi
from .agf import compute_H, inner_value, weighted_fusion_input  # noqa: F401
from .tensor3 import phi  # noqa: F401


# the penalty schedule of the multiplier update (Boyd et al., Distributed
# Optimization and Statistical Learning via ADMM, sec. 3.4.1): start small,
# double every outer iteration, stop growing at the cap
PENALTY_START = 1e-2
PENALTY_GROWTH = 2.0
PENALTY_CAP = 1e10
# singular values of Z_v^T P at or below this fraction of the largest count
# as zero in the alignment, whose factor on their span is then pinned
RANK_RTOL = 256 * np.finfo(float).eps
# entries of P (rows times columns) the label solve reads, and converts to
# float64, at a time: one block for the solver's P at 64 anchors and a few
# thousand samples, a small part of the baseline's mean graph
LABEL_BLOCK = 2 ** 16


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
    """What admm_solve returns.

    The solve's last alignments are not kept: update_alignment(Zs, P) is,
    bit for bit, the (V, m, m) alignment of the returned graphs onto the
    returned P that a further iteration would start from. Under
    freeze_alignment the solve's alignments are the identity.
    """

    F: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    alpha: np.ndarray
    # (V, n, m) imputed graphs; view v is Zs[v]
    Zs: np.ndarray
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
    Schur complement. L is the diagonal of anchor degrees, a zero degree
    floored at 1e-12, and the diagonal B_n fits the labeled samples (the
    rows of Y with a nonzero entry) with weight b_labeled and leaves every
    other sample and the anchors free.
    A b_labeled <= 0 or infinite, or a Y without a labeled row, raises
    ValueError: F would be zero (every sample class 0) or not finite.

    With M12 = -P L^-1/2 and A = M12 / (1 + b), the Schur complement is
    I - M12^T A and the right-hand side -A^T B_n Y. Both, and F, are
    accumulated in float64 over blocks of rows of P of about LABEL_BLOCK
    entries, so a float32 P (the baseline's mean of a float32 graph stack)
    is read without a float64 copy, and no work array larger than a block
    is formed.
    """
    if not b_labeled > 0:
        raise ValueError(f"b_labeled must be positive, got {b_labeled}")
    if b_labeled == np.inf:
        raise ValueError(f"b_labeled must be finite, got {b_labeled}")
    P = np.asarray(P)
    if P.dtype != np.float32:
        P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n, m = P.shape
    labeled = Y.any(axis=1)
    if not labeled.any():
        raise ValueError("Y has no labeled row; there is nothing to propagate")
    bn = np.where(labeled, float(b_labeled), 0.0)

    rhs1 = bn[:, None] * Y
    root = np.sqrt(floored_anchor_degrees(P))
    m11 = 1.0 + bn
    step = max(1, LABEL_BLOCK // m)
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]

    def M12(rows):
        M = P[rows] / root
        return np.negative(M, out=M)

    C2 = np.eye(m)
    rhs2 = np.zeros((m, Y.shape[1]))
    for rows in blocks:
        M = M12(rows)
        A = M / m11[rows, None]
        C2 -= M.T @ A
        rhs2 -= A.T @ rhs1[rows]
    try:
        Q = np.linalg.solve(C2, rhs2)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "anchor Schur complement is singular; the fused graph is too "
            "degenerate for label propagation"
        ) from exc
    F = np.concatenate([rhs1[rows] - M12(rows) @ Q for rows in blocks])
    F /= m11[:, None]
    return F, Q


def update_missing_rows(Z, missing, G_rows, W, P, Ts, alpha, lam, eta):
    """Impute absent graph rows in place by simplex projection of their target.

    Z and W are (V, n, m) stacks, and G_rows[v] holds the rows of the
    splitting variable G at view v's missing samples, in the order of
    missing[v]: the imputation reads G nowhere else, so the solver keeps
    only these rows of it. For view v and sample i in its missing set, the row
    objective

        <W[v, i], z> - lam alpha_v^2 <(P T_v^T)_i, z> + eta/2 ||z - G[v, i]||^2

    is minimized on the simplex; completing the square gives the projected
    target G[v, i] - (W[v, i] - lam alpha_v^2 (P T_v^T)_i) / eta, written to
    Z[v, i]. Rows of observed samples are never touched. Ts None stands for
    identity alignments, under which P's rows are read unmultiplied.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    for v, (idx, G_v) in enumerate(zip(missing, G_rows, strict=True)):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size:
            rows = P[idx] if Ts is None else P[idx] @ Ts[v].T
            lin = lam * alpha[v] ** 2 * rows
            target = G_v - (W[v, idx] - lin) / eta
            Z[v, idx] = prox_rows(target)


def update_G(Z, W, eta, rho):
    """Tubal shrinkage of the multiplier-shifted graph stack.

    Z and W are (V, n, m) stacks. Minimizes rho * (sum of per-frequency
    nuclear norms) + eta/2 ||G - Z - W/eta||_F^2, i.e. tubal_shrink at
    threshold rho/eta of the (n, m, V) transpose, a view without a copy:
    its axis 0, the samples, is the DFT axis, and each frequency slice is
    an m x V matrix. The result comes back in the (V, n, m) layout.

    M = Z + W/eta is built in one new stack of W's dtype, and the
    shrinkage stores the packed half spectrum of the sample axis in M's
    buffer and then writes G over it, so the step holds one stack, M,
    plus one view's float64 transform and one batch's factors.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    M = np.divide(W, eta, out=np.empty_like(W))
    M += Z
    if rho == 0:
        return M
    Mt = M.transpose(1, 2, 0)
    return tubal_shrink(Mt, rho / eta, out=Mt).transpose(2, 0, 1)


def update_alignment(Z, P):
    """Orthogonal Procrustes alignment of the view graphs onto the fused one.

    T = U V^T from the SVD C = U S V^T of C = Z^T P maximizes Tr(T^T C)
    over orthogonal matrices (Schönemann, Psychometrika 1966); the attained
    value is the nuclear norm of C. Z is one (n, m) graph or a (V, n, m)
    stack, giving one (m, m) or a (V, m, m) stack of alignments from one
    batched SVD.

    When C is singular the maximizers form a family, T = U_r V_r^T +
    U_0 R V_0^T for every orthogonal R, U_r and V_r spanning the singular
    vectors of the r singular values above RANK_RTOL times the largest and
    U_0, V_0 the rest; rounding would pick a member. The one returned is the
    maximizer nearest the identity: R is the orthogonal polar factor
    (Higham, SIAM J. Sci. Stat. Comput. 1986) of (V_0^T U_0)^T, which
    maximizes Tr(R V_0^T U_0) and does not depend on the bases U_0 and V_0.
    An anchor no row of Z or P uses, whose axis is null on both sides, is
    left unaligned. Only the views whose rank falls short are redone.

    Each Z_v^T P is accumulated in float64 from one view of Z at a time, so
    the rank cut reads float64 products whatever Z's storage dtype.
    """
    Z = np.asarray(Z)
    P = np.asarray(P, dtype=np.float64)
    U, s, Vh = np.linalg.svd(np.stack([
        np.asarray(Z_v.T, dtype=np.float64) @ P
        for Z_v in Z.reshape((-1,) + Z.shape[-2:])
    ]))
    T = U @ Vh
    for v in np.flatnonzero(s[:, -1] <= RANK_RTOL * s[:, 0]):
        r = int(np.count_nonzero(s[v] > RANK_RTOL * s[v, 0]))
        U0, V0h = U[v, :, r:], Vh[v, r:]
        X, _, Yh = np.linalg.svd(V0h @ U0)
        T[v] = U[v, :, :r] @ Vh[v, :r] + U0 @ (X @ Yh).T @ V0h
    return T.reshape(Z.shape[:-2] + T.shape[-2:])


def update_multiplier(W, gap, eta):
    """Dual ascent on Z = G from its residual gap = Z - G, then grow the penalty.

    W is updated in place and returned; gap is consumed (it ends as eta * gap).
    The solver's gap is written over G's buffer, so the step allocates no
    (V, n, m) array.
    """
    gap *= eta
    W += gap
    return W, min(PENALTY_GROWTH * eta, PENALTY_CAP)


def predict(F):
    """Class of each row: argmax, ties to the lowest class index."""
    return np.argmax(np.asarray(F), axis=1)


def anchor_graphs(views, missing, m, k, seed):
    """Per-view anchor graphs stacked into one (V, n, m) float32 array.

    Slice v is view v's bipartite graph on the samples present in it; rows of
    samples missing from the view hold the uninformative uniform 1/m. The
    graphs are built in float64 and stored in float32, the one storage dtype
    of the solver's stacks (module docstring).
    """
    n = views[0].shape[0]
    Z = np.empty((len(views), n, m), dtype=np.float32)
    for v, X in enumerate(views):
        idx = np.asarray(missing[v], dtype=np.int64)
        present = np.setdiff1d(np.arange(n), idx)
        anchors = bkhk_anchors(X[present], m, seed=seed, index=v)
        Z[v, present] = build_bipartite(X[present], anchors, k)
        Z[v, idx] = 1.0 / m
    return Z


def _checked_graphs(graphs, V, n, m):
    """graphs as an array of its own dtype, no copy; ValueError unless (V, n, m)."""
    graphs = np.asarray(graphs)
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


def prepare_inputs(views, y, labeled_idx, missing, n_classes, check_finite=True):
    """(views, y, labeled_idx, missing, c) as arrays; ValueError if malformed.

    c is n_classes, or the largest label plus one when that is None. y must
    hold one label per sample, shape (n,). The index arrays must be 1-d and
    of an integer dtype (an empty one of any dtype), so no fraction or
    boolean mask is read as indices, and labeled_idx may list a sample only
    once. With check_finite, every feature of a sample a view holds must be
    finite; the rows of samples missing from a view are never read, so they
    may hold anything.
    """
    views = [np.asarray(X, dtype=np.float64) for X in views]
    y = np.asarray(y, dtype=np.int64)
    labeled_idx = _index_array(labeled_idx, "labeled_idx")
    missing = [_index_array(idx, f"missing[{v}]") for v, idx in enumerate(missing)]
    n = views[0].shape[0]
    V = len(views)
    for v, X in enumerate(views):
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(f"view {v} has shape {X.shape}, expected ({n}, d)")
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    c = int(n_classes) if n_classes is not None else int(y.max()) + 1
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
    if check_finite:
        for v, (X, idx) in enumerate(zip(views, missing)):
            bad = ~np.isfinite(X).all(axis=1)
            bad[idx] = False
            if bad.any():
                raise ValueError(f"view {v} has a non-finite feature on "
                                 f"sample {int(np.argmax(bad))}, which it holds")
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


@dataclass
class _SolveState:
    """What a step leaves for later steps; missing, Y and lam stay fixed.

    What a step only reports it returns instead. G is the (V, n, m)
    shrinkage output from the shrinkage to the multiplier step and None
    elsewhere. G_rows holds G's rows at each view's missing samples
    (update_missing_rows' G_rows) from the multiplier step, which copies
    them out before writing the gap over G, to the next imputation, which
    drops them; they start as zero rows, G's initial value, and are never
    kept under skip_imputation. P is held here alone, and the fusion step
    moves it into agf_minmax, which frees it once H is built.
    """

    Z: np.ndarray
    G: np.ndarray | None
    G_rows: list | None
    W: np.ndarray
    alignments: np.ndarray | None
    alpha: np.ndarray
    P: np.ndarray | None
    F: np.ndarray
    Q: np.ndarray
    eta: float
    missing: list
    Y: np.ndarray
    lam: float
    # whether a fusion has run, so that P is a fused graph the alignment reads
    fused: bool = False
    # the line-search level the next fusion call's first weight step starts at
    level: int = 0


def _taken(s, name):
    """s.<name>, left None on s: passed to a call, the callee holds it alone."""
    value = getattr(s, name)
    setattr(s, name, None)
    return value


def _impute(s, config):
    update_missing_rows(s.Z, s.missing, _taken(s, "G_rows"), s.W, s.P,
                        s.alignments, s.alpha, s.lam, s.eta)


def _fuse(s, config):
    # agf_minmax frees the previous P once H is built, if it holds the only
    # reference: CPython 3.11+ hands a call its arguments
    res = agf_minmax(
        s.Z, s.alignments, s.F, s.Q, s.lam, config.beta, alpha0=s.alpha,
        P0=_taken(s, "P"), tol=config.inner_tol, max_iter=config.max_inner_iters,
        freeze_weights=config.freeze_weights, start_level=s.level,
    )
    s.alpha, s.P = res.alpha, res.P
    s.fused = True
    # one level above the last accepted step; back to the top after a
    # search that found no decrease
    s.level = max(0, res.level - 1) if res.steps and res.steps[-1] else 0
    return {"h": res.h, "line_search": {
        "steps": res.n_iter, "thetas": [float(t) for t in res.steps if t > 0],
        "evaluated": res.evaluated, "bound_rejected": res.bound_rejected,
    }}


def _label(s, config):
    F_prev = s.F
    s.F, s.Q = update_labels(s.P, s.Y, config.b_labeled)
    return {"delta_F": float(np.linalg.norm(s.F - F_prev)
                             / max(1.0, np.linalg.norm(F_prev))),
            "zero_degree_anchors": zero_degree_anchors(s.P)}


def _shrink(s, config):
    s.G = update_G(s.Z, s.W, s.eta, config.rho)


def _align(s, config):
    # before the first fusion the alignments stay the identity
    if s.fused:
        s.alignments = update_alignment(s.Z, s.P)


def _multiply(s, config):
    G = _taken(s, "G")
    if not config.skip_imputation:
        s.G_rows = [G[v, idx] for v, idx in enumerate(s.missing)]
    # the gap Z - G takes over G's buffer and dies with this call
    gap = np.subtract(s.Z, G, out=G)
    record = {"primal_residual_fro": float(np.sqrt(
                  np.einsum("vij,vij->", gap, gap, dtype=np.float64))),
              "primal_residual_inf": float(max(gap.max(), -gap.min()))}
    s.W, s.eta = update_multiplier(s.W, gap, s.eta)
    return record


# the steps of one outer iteration, in order: (name in diagnostics, step, the
# SolverConfig flag that skips it). Each returns its diagnostics fields or None
# and looks its update up in module globals, where tracers and tests patch it.
_STEP_TABLE = (
    ("align", _align, "freeze_alignment"),
    ("impute", _impute, "skip_imputation"),
    ("fusion", _fuse, None),
    ("labels", _label, None),
    ("shrink", _shrink, None),
    ("multiplier", _multiply, None),
)
STEPS = tuple(name for name, _, _ in _STEP_TABLE)


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
        it once. The solve works on a float32 copy, made in one conversion
        whatever the stack's dtype; another shape raises ValueError.

    Each outer iteration runs the steps of STEPS in order on one
    _SolveState; skip_imputation drops impute and freeze_alignment drops
    align, which does nothing in iteration 1, before the first fusion. The
    fusion step carries agf_minmax's start_level between calls.

    Returns a SolveResult. It keeps no alignments: update_alignment(Zs, P)
    of the result is, bit for bit, the one a further iteration would start
    from, and under freeze_alignment every alignment is the identity. Its
    diagnostics list one record per iteration: iteration, step_seconds (the
    seconds of each step in STEPS, 0.0 for a skipped one), the fields the
    steps return, alpha, eta and wall seconds. The fusion returns h and
    line_search (its weight steps, accepted step sizes, and candidates valued
    in full (evaluated) or rejected by the lower bound (bound_rejected); zero
    or empty under frozen weights), the label step the label movement delta_F
    and the zero_degree_anchors of the fused graph it read, the multiplier
    step the primal residuals. Non-convergence within max_outer_iters is
    reported through the converged flag, never raised, and a collapse of
    every unlabeled sample into one class through the degenerate flag, which
    a converged run can carry. max_outer_iters below 1 (no solve, only the
    initial propagation), a negative or NaN lam, rho or tol, an infinite lam
    and a beta that is not finite and positive raise ValueError before any
    step.
    When the solve ends, one ZeroDegreeWarning counts the fused graphs with
    zero-degree anchors: the initial one and those of the records.
    """
    config = config or SolverConfig()
    if config.max_outer_iters < 1:
        raise ValueError("max_outer_iters must be at least 1, got "
                         f"{config.max_outer_iters}")
    views, y, labeled_idx, missing, c = prepare_inputs(
        views, y, labeled_idx, missing, n_classes
    )
    V, n = len(views), views[0].shape[0]

    lam = float(config.lam) if config.lam is not None else float(V * V)
    if not lam >= 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if lam == np.inf:
        raise ValueError(f"lam must be finite, got {lam}")
    if not config.rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {config.rho}")
    if not 0 < config.beta < np.inf:
        raise ValueError(f"beta must be finite and positive, got {config.beta}")
    if not config.tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {config.tol}")
    m, k = config.n_anchors, config.k_neighbors

    if graphs is None:
        Z = anchor_graphs(views, missing, m, k, config.seed)
    else:
        # imputation writes rows of Z in place
        Z = _checked_graphs(graphs, V, n, m).astype(np.float32)
    alpha = np.full(V, 1.0 / V)
    Y = one_hot_labels(y, labeled_idx, c)
    P = solve_inner_P(Z, alpha, 0.0, lam, config.beta)[0]
    F, Q = update_labels(P, Y, config.b_labeled)
    s = _SolveState(
        Z=Z, G=None,
        G_rows=None if config.skip_imputation else [
            np.zeros((idx.size, m), dtype=Z.dtype) for idx in missing
        ],
        W=np.zeros_like(Z), alignments=None, lam=lam,
        alpha=alpha, P=P, F=F, Q=Q, eta=PENALTY_START, missing=missing, Y=Y,
    )
    zero_degree = [zero_degree_anchors(P)]
    # the state alone holds P from here, so the fusion step frees it
    del P

    # the steps this config runs; a skipped one reads 0.0 in step_seconds
    steps = [(name, step) for name, step, skip in _STEP_TABLE
             if not (skip and getattr(config, skip))]
    diagnostics = []
    for it in range(1, config.max_outer_iters + 1):
        step_seconds = dict.fromkeys(STEPS, 0.0)
        record = {"iteration": it, "step_seconds": step_seconds}
        start = mark = time.perf_counter()
        for name, step in steps:
            record.update(step(s, config) or {})
            now = time.perf_counter()
            step_seconds[name] = now - mark
            mark = now
        record.update(alpha=[float(a) for a in s.alpha], eta=float(s.eta),
                      seconds=time.perf_counter() - start)
        diagnostics.append(record)
        # the Frobenius norm dominates the entrywise max, so gating on it
        # guarantees both residual readings sit at or below tol on exit
        converged = max(record["primal_residual_fro"],
                        record["delta_F"]) <= config.tol
        if converged:
            break

    zero_degree += [r["zero_degree_anchors"] for r in diagnostics]
    warn_zero_degree(zero_degree, stacklevel=2)
    unlabeled_classes = np.unique(np.delete(predict(s.F), labeled_idx))
    return SolveResult(
        F=s.F, Q=s.Q, P=s.P, alpha=s.alpha, Zs=s.Z, lam=lam,
        converged=converged, n_iter=len(diagnostics),
        degenerate=c >= 2 and unlabeled_classes.size == 1,
        diagnostics=diagnostics,
    )
