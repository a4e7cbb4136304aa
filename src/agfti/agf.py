"""Adversarial graph fusion.

The fused graph P and the view weights alpha solve a min-max problem: P
maximizes an agreement objective regularized toward the current soft labels,
alpha minimizes the resulting value h(alpha) over the simplex. The inner
maximization has a closed-form row-wise solution; the outer minimization is
a projected reduced-gradient descent with an Armijo line search.

h is evaluated with the label-distance matrix H held fixed within one outer
step, which makes the inner maximizer unique and the Danskin gradient
formula exact: dh/dalpha_v = 2 lambda alpha_v c_v, with the view agreements
c_v = <P*, Z_v T_v>.

Each weight vector w is solved from its projection target

    t(w) = (lambda / 2 beta) sum_v w_v^2 Z_v T_v - H / (2 beta),

formed in one matrix-vector product over the stack of aligned products and
one subtraction of H / (2 beta), which is computed once per H refresh. Its
inner maximizer P is the row-wise simplex projection of t, and completing
the square gives the inner value from two dot products,

    lambda <P, Z~> - beta ||P||^2 - <H, P> = beta (2 <P, t> - <P, P>),

so no fused graph sum_v w_v^2 Z_v T_v is formed and no product of P with
another n x m array is held.

Within one step P* is feasible for every weight vector, so its inner value
under a line-search candidate a bounds that candidate's h from below:

    h(a) >= LB(a) = lambda sum_v a_v^2 c_v - beta ||P*||^2 - <H, P*>.

With the V agreements and the two norms in hand, LB costs O(V) per
candidate, and LB at the current weights is the step's own h0. A candidate
whose LB exceeds the Armijo threshold by more than BOUND_MARGIN times the
magnitude of LB's terms is rejected without projecting or valuing it. The
margin, far above the ~1e-13 relative rounding of the dot products and of
the candidate's value from its target (whose two terms, 2 beta <P, t> and
beta <P, P>, are of the size of LB's), keeps the skip to candidates
whose computed value the full evaluation would also have found above the
threshold, so every accepted step, and every output, is that of valuing
every candidate.

This module owns the fused input sum_v alpha_v^2 Z_v T_v: it forms the
aligned products, solves and values the inner problem from them.
graphs.py only builds the per-view graphs the products start from. Where
the alignments are still the identity, Ts is None and the products are the
graphs themselves, never multiplied by an identity matrix. A call with
frozen weights holds the same product stack and forms its target the same
way; it only takes no weight step.

The product stack keeps the graphs' storage dtype, float32 in the solver
(the products Z_v T_v are single-precision matrix products with the
float64 alignments rounded to float32). Everything read from it is
accumulated in float64: the target t of every weight vector, the
agreements c_v, and from them h0, the bound, the Armijo threshold and each
candidate's value. The bound and the full evaluation thus read the same
stored products and differ only by float64 rounding, so BOUND_MARGIN's
proof above holds as written. H and P are float64.
"""

from dataclasses import dataclass, field

import numpy as np

from .graphs import floored_anchor_degrees, pairwise_sq_dists
from .simplex import prox_rows

_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 20
# relative margin above the Armijo threshold under which the lower bound
# proves a candidate's rejection
BOUND_MARGIN = 1e-8


def compute_H(F, Q, P):
    """Squared distances between sample labels and degree-normalized anchor labels.

    H[i, j] = ||F_i - Q_j / sqrt(col_degree_j)||^2. Sample degrees are exactly
    one because P is row stochastic, so F rows enter unscaled. Anchors that no
    sample points to get their degree floored at 1e-12, without a warning,
    which keeps H finite but large for those columns.

    The sums over the classes run in one order that the class labels do not
    set: F's columns sorted by their bytes. Relabelling the classes permutes
    F's and Q's columns, and H is then the same bit for bit, so the graphs
    a solve stores (in float32, where a last-bit change of H could round a
    stored entry the other way) do not depend on the labels' names.
    """
    F = np.asarray(F, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    Qn = Q / np.sqrt(floored_anchor_degrees(P))[:, None]
    order = sorted(range(F.shape[1]), key=lambda j: F[:, j].tobytes())
    return pairwise_sq_dists(F[:, order], Qn[:, order])


def _check_alignments(Zs, Ts):
    """One m x m alignment per view, m being that view's graph column count.

    Ts None stands for identity alignments and needs no check.
    """
    if Ts is None:
        return
    if [np.shape(T) for T in Ts] != [(np.shape(Z)[1],) * 2 for Z in Zs]:
        raise ValueError("need one m x m alignment per view, m the graph's columns")


def weighted_fusion_input(Zs, Ts, alpha):
    """Aligned, weight-squared combination sum_v alpha_v^2 Z_v T_v, in view order."""
    alpha = np.asarray(alpha, dtype=np.float64)
    _check_alignments(Zs, Ts)
    if alpha.size != len(Zs):
        raise ValueError("one weight per view required")
    # each product is formed as its term is added: one is alive at a time
    out = term = None
    for Z, T, c in zip(Zs, Ts, alpha * alpha):
        if out is None:
            out = c * (Z @ T)
        else:
            term = np.multiply(c, Z @ T, out=term)
            out += term
    return out


def solve_inner_P(ZT, weights, H_half, lam, beta):
    """Inner maximizer at the weights w, and the target it projects.

    Each row of the maximizer of lam <P, Z~> - beta ||P||^2 - <H, P> over
    row-stochastic P, Z~ = sum_v w_v^2 ZT_v, is the simplex projection of
    that row of the target

        t = (lam / 2 beta) sum_v w_v^2 ZT_v - H / (2 beta).

    ZT is the (V, n, m) stack of aligned products, combined in one
    contraction over the views that accumulates t in float64 whatever ZT's
    storage dtype. H_half is H / (2 beta), which a caller solving several
    weight vectors under one H computes once; 0.0 stands for H = 0.
    Returns (P, t); target_value values P from t.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    w = np.asarray(weights, dtype=np.float64)
    coef = (lam / (2.0 * beta)) * (w * w)
    t = np.einsum("v,vi->i", coef, ZT.reshape(len(ZT), -1),
                  dtype=np.float64).reshape(ZT.shape[1:])
    t -= H_half
    return prox_rows(t), t


def target_value(P, target, beta):
    """Inner value lam <P, Z~> - beta ||P||^2 - <H, P>, from the target t of Z~ and H.

    With t = (lam Z~ - H) / (2 beta), completing the square gives
    beta (2 <P, t> - <P, P>): two dot products, and no n x m temporary.
    """
    return beta * (2.0 * float(np.vdot(P, target)) - float(np.vdot(P, P)))


def inner_value(P, Z_tilde, H, lam, beta):
    """Inner objective lam <P, Z~> - beta ||P||_F^2 - <H, P>."""
    return float(
        lam * np.sum(P * Z_tilde) - beta * np.sum(P * P) - np.sum(H * P)
    )


def view_agreements(P, ZTs):
    """c_v = <P, Z_v T_v> for each aligned product, in view order, in float64."""
    return np.array([float(np.einsum("ij,ij->", P, ZT, dtype=np.float64))
                     for ZT in ZTs])


def agreement_value(weights, agreements, fixed, lam):
    """Inner value lam sum_v w_v^2 c_v - fixed of a P under the weights w.

    agreements are P's c_v = <P, Z_v T_v> and fixed is
    beta ||P||^2 + <H, P>, the part of the value no weight enters.
    """
    return lam * float((weights * weights) @ agreements) - fixed


def grad_h(alpha, agreements, lam):
    """Exact gradient of h at alpha: 2 lam alpha_v c_v.

    agreements are the c_v = <P*, Z_v T_v> of view_agreements, P* being the
    inner maximizer at alpha.
    """
    return 2.0 * lam * np.asarray(alpha, dtype=np.float64) * agreements


def bound_rejects(cand, agreements, fixed, lam, threshold):
    """Whether the lower bound proves h(cand) above threshold.

    agreements are the c_v of a row-stochastic P and fixed is
    beta ||P||^2 + <H, P>, so lam sum_v cand_v^2 c_v - fixed is the inner
    value of P under the weights cand, a lower bound on h(cand). It proves
    the candidate's rejection only when it clears the threshold by
    BOUND_MARGIN times the magnitude of its terms, which covers the rounding
    of both the bound and the candidate's full evaluation.
    """
    lower = agreement_value(cand, agreements, fixed, lam)
    scale = lam * float((cand * cand) @ np.abs(agreements)) + fixed
    return lower > threshold + BOUND_MARGIN * scale


def reduced_descent_direction(grad, alpha):
    """Simplex-feasible descent direction from the reduced gradient.

    With u the largest weight (ties to the lowest index), the reduced
    gradient is grad - grad[u]. The direction negates it, zeroes components
    that would push a zero weight negative, and rebalances the pivot so the
    components sum to zero exactly.
    """
    grad = np.asarray(grad, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    u = int(np.argmax(alpha))
    red = grad - grad[u]
    g = -red
    clamp = (alpha <= 0.0) & (red > 0.0)
    clamp[u] = False
    g[clamp] = 0.0
    g[u] = 0.0
    g[u] = -g.sum()
    return g


@dataclass
class AgfResult:
    """Outcome of one adversarial fusion solve."""

    alpha: np.ndarray
    P: np.ndarray
    n_iter: int
    # inner value at the returned alpha and P under the last H refresh
    h: float | None = None
    # accepted step sizes, 0.0 for a line search that found no decrease
    steps: list = field(default_factory=list)
    # line-search candidates valued in full, and those the lower bound
    # rejected without a projection; levels skipped by start_level are neither
    evaluated: int = 0
    bound_rejected: int = 0
    # level j of the last accepted step, whose theta is theta_max 2^-j; 0
    # when no step was accepted
    level: int = 0


def agf_minmax(
    Zs,
    Ts,
    F,
    Q,
    lam,
    beta,
    alpha0,
    P0,
    tol=1e-4,
    max_iter=50,
    freeze_weights=False,
    start_level=0,
):
    """Alternate H refresh, inner P solve, and a reduced-gradient alpha step.

    Starts from the weights alpha0 and the fused graph P0. Every outer
    iteration recomputes H from (F, Q) and the previous P, solves the inner
    problem exactly, and takes one Armijo backtracking step on the weights.
    H is the only reader of P0, and of each later previous P: the call drops
    its references to one as soon as H is built, so P0 is freed there when
    the caller passed its only reference (admm_solve does), and the returned
    AgfResult never holds it.
    Stops when the accepted step moves no weight by more than tol, when the
    reduced gradient leaves no descent direction (always so with one view),
    when the line search finds no decrease (step 0), or after max_iter
    iterations. With freeze_weights it refreshes H and solves for P once at
    alpha0 and stops before any weight step (n_iter 0).

    P is the exact inner maximizer at the returned alpha under the last H
    refresh, and h is the inner value there. Ts None stands for identity
    alignments: the products Z_v T_v are then the graphs Zs themselves, read
    without a multiplication. Otherwise the products are formed once per
    call, as one batched product over the view stack, and every weight
    vector the line search tries reuses them. A frozen call forms and
    combines them the same way, so its P is bit for bit the first inner
    solve of a weighted call from the same state. max_iter must be at least
    1: without an H refresh there is no h.

    Each weight vector is solved from its target (solve_inner_P) and a
    valued candidate's h is target_value's; H / (2 beta) is formed once per
    H refresh. The step's h0 comes from the agreements the gradient needs
    anyway (agreement_value).

    A weight step tries the steps theta_max 2^-j on the levels j up to
    _MAX_BACKTRACKS, theta_max = min(1, largest step keeping every weight
    nonnegative), and accepts the first that passes the Armijo test. The
    first weight step of the call starts at level start_level, every later
    one at level 0; level reports the level of the last accepted step. A
    caller that carries a level from one call to the next (admm_solve passes
    one less than the last accepted level) skips the long steps its previous
    search rejected. The acceptable steps along the ray normally form an
    interval, so a search accepting at a level at or below start_level
    accepts the same theta as one started at 0.

    A candidate is first checked against the lower bound
    lam sum_v cand_v^2 c_v - beta ||P||^2 - <H, P>, P being the inner
    maximizer at the current weights (see bound_rejects). A candidate the
    bound places above h0 + _ARMIJO_C theta slope + BOUND_MARGIN * scale is
    rejected without being projected; it still uses one of the tried
    levels. h0 and the bound share one expression, and a candidate's value
    from its target rounds far inside the margin (see the module
    docstring), so every candidate the bound rejects would fail the Armijo
    test in full, and the returned state is that of valuing every
    candidate. evaluated and bound_rejected count
    the candidates tried, valued in full and rejected by the bound; a level
    skipped by start_level counts as neither.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0 <= start_level <= _MAX_BACKTRACKS:
        raise ValueError(
            f"start_level must be in 0..{_MAX_BACKTRACKS}, got {start_level}"
        )
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    _check_alignments(Zs, Ts)
    V = len(Zs)
    alpha = np.asarray(alpha0, dtype=np.float64).copy()
    if alpha.size != V:
        raise ValueError("one weight per view required")
    # the product stack keeps the graphs' storage dtype
    ZT = np.ascontiguousarray(Zs)
    if Ts is not None:
        ZT = np.matmul(ZT, np.asarray(Ts, dtype=ZT.dtype))
    # the previous fused graph goes by the one name P, dropped once H is
    # built, before the inner solve allocates
    P = P0
    del P0
    res = AgfResult(alpha=alpha, P=None, n_iter=0)

    for it in range(1, max_iter + 1):
        # only H / (2 beta) is held: <H, P> = 2 beta <H / (2 beta), P>
        H_half = compute_H(F, Q, P)
        P = res.P = None
        H_half /= 2.0 * beta
        P, t = solve_inner_P(ZT, alpha, H_half, lam, beta)
        res.P = P

        if freeze_weights:
            res.h = target_value(P, t, beta)
            break
        # a weight step values P from its agreements: free the target
        # before the candidates are built
        del t
        res.n_iter = it
        # P's value under any weights is lam sum_v w_v^2 c_v - fixed; at
        # alpha it is the step's h0, and at a candidate the bound
        agree = view_agreements(P, ZT)
        fixed = (beta * float(np.vdot(P, P))
                 + 2.0 * beta * float(np.vdot(H_half, P)))
        h0 = res.h = agreement_value(alpha, agree, fixed, lam)
        grad = grad_h(alpha, agree, lam)
        g = reduced_descent_direction(grad, alpha)
        if not np.any(g):
            break
        slope = float(grad @ g)

        # largest step keeping every weight nonnegative, scaled down to the
        # first level tried; powers of two scale it exactly
        shrinking = g < 0
        theta = min(1.0, float(np.min(alpha[shrinking] / -g[shrinking])))
        start = start_level if it == 1 else 0
        theta *= _ARMIJO_SHRINK ** start

        accepted = False
        for level in range(start, _MAX_BACKTRACKS + 1):
            cand = np.maximum(alpha + theta * g, 0.0)
            cand /= cand.sum()
            threshold = h0 + _ARMIJO_C * theta * slope
            if bound_rejects(cand, agree, fixed, lam, threshold):
                res.bound_rejected += 1
            else:
                res.evaluated += 1
                P_c, t_c = solve_inner_P(ZT, cand, H_half, lam, beta)
                h_c = target_value(P_c, t_c, beta)
                # free the candidate's target, and a rejected candidate,
                # before the next one is built
                del t_c
                if h_c <= threshold:
                    accepted = True
                    break
                del P_c
            theta *= _ARMIJO_SHRINK

        if not accepted:
            res.steps.append(0.0)
            break

        res.steps.append(theta)
        res.level = level
        settled = np.max(np.abs(cand - alpha)) <= tol
        alpha, P = cand, P_c
        del P_c
        res.alpha, res.P, res.h = alpha, P, h_c
        if settled:
            break

    return res
