"""Anchor selection and sparse bipartite graph construction.

Anchors come from a balanced hierarchical two-means: the sample set is split
in half recursively until 2^t leaves remain, and each leaf contributes its
mean. Per-sample anchor weights then follow the closed-form solution of the
neighbor-assignment problem

    min_{z in simplex} sum_j d_j z_j + gamma ||z||^2

whose optimum touches exactly the k nearest anchors when gamma is chosen as
(k d_(k+1) - sum_{h<=k} d_(h)) / 2.

Each split sweeps between two centres c1 and c2, sending the half of a
node's samples nearest c1 relative to c2 left. Since |x - c1|^2 - |x - c2|^2
= 2 x.(c2 - c1) + a constant per node, one score x.(c2 - c1) per sample
ranks them, and the node's smallest half goes left, ties to the lower
position. The next centres are node sums over counts.

The tree is built one level at a time rather than one node at a time: all
splits of a level run as one batch of array operations, so the cost of a
level no longer grows with its node count in Python calls. The result is the
one of the depth-first recursion (left child first) that splits by squared
distances: the same tree in exact arithmetic, and bit for bit on every test
and benchmark input; see _balanced_two_means, bkhk_anchors and
build_bipartite for when and why.

This module only builds graphs. Fusing them into sum_v alpha_v^2 Z_v T_v,
and valuing the fused input, belongs to agf.py.
"""

import warnings

import numpy as np

from .rng import STREAM_ANCHORS, make_generator

# two-means details: candidate pool for the farthest-pair seeding, and the
# cap on alternating assignment/update sweeps per split
_SEED_CANDIDATES = 32
_MAX_SWEEPS = 10

_DEGENERATE_RTOL = 1e-12
_DEGREE_EPS = 1e-12


def pairwise_sq_dists(A, B):
    """Squared euclidean distances between rows of A and rows of B.

    A and B may also be equal-length stacks of matrices, giving one distance
    matrix per pair; each is computed as the two-matrix call would.

    The result is |a|^2 - 2 a.b + |b|^2 clamped at zero, formed in the
    buffer of the product a.b: scaling by -2 is exact, so adding |a|^2 to
    -2 a.b rounds as subtracting 2 a.b from it does.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    sq = A @ np.swapaxes(B, -1, -2)
    sq *= -2.0
    sq += (A * A).sum(axis=-1)[..., :, None]
    sq += (B * B).sum(axis=-1)[..., None, :]
    return np.maximum(sq, 0.0, out=sq)


def _split_draws(rng, n, depth):
    """Every split's seeding candidates, drawn in depth-first order.

    Returns one list per level, node positions left to right, each entry the
    positions within its node that rng.choice picked. A node of s samples has
    children of ceil(s/2) and floor(s/2), so the sizes, and with them the
    draws, are known before any split is made.
    """
    draws = [[] for _ in range(depth)]
    stack = [(n, 0)] if depth else []
    while stack:
        s, level = stack.pop()
        draws[level].append(rng.choice(s, size=min(_SEED_CANDIDATES, s), replace=False))
        if level + 1 < depth:
            stack.append((s // 2, level + 1))
            stack.append((s - s // 2, level + 1))
    return draws


def _size_groups(sizes):
    """(nodes, slots) per distinct node size of a level.

    nodes are the positions of the nodes of that size, left to right, and
    slots[r] the positions of node nodes[r]'s samples in the level's order.
    Balanced halving leaves at most two sizes on a level.
    """
    start = np.cumsum(sizes) - sizes
    for s in np.unique(sizes):
        nodes = np.flatnonzero(sizes == s)
        yield nodes, start[nodes, None] + np.arange(s)


def _left_halves(score, n_left):
    """(k, s) mask of each row's n_left smallest scores.

    The mask marks the first n_left positions of a stable argsort of each
    row: ties at the boundary go to the lower position, NaN scores last.
    One partition finds each row's n_left-th smallest score t, and the mask
    takes every position at or below it. A row where that is not n_left
    positions (ties at t, or NaN) is stably sorted instead.
    """
    t = np.partition(score, n_left - 1, axis=1)[:, n_left - 1, None]
    mask = score <= t
    off = np.flatnonzero(mask.sum(axis=1) != n_left)
    if off.size:
        order = np.argsort(score[off], axis=1, kind="stable")
        rows = np.zeros((off.size, score.shape[1]), dtype=bool)
        np.put_along_axis(rows, order[:, :n_left], True, axis=1)
        mask[off] = rows
    return mask


def _balanced_two_means(X, members, draws):
    """Split each row of members into halves of ceil(s/2) / floor(s/2).

    members is (k, s): k nodes of s samples each. draws is (k, p), the
    candidate positions of each node. Returns the (k, s) boolean mask of the
    left halves. Each node sweeps until its split repeats, or _MAX_SWEEPS
    times; a node whose split has repeated is dropped from later sweeps.

    A sweep sends the ceil(s/2) samples nearest c1 relative to c2 left.
    Since |x - c1|^2 - |x - c2|^2 = 2 x.(c2 - c1) + |c1|^2 - |c2|^2, and the
    last two terms are one constant per node, it ranks the samples of a node
    by the score x.(c2 - c1), one batched matrix-vector product, and takes
    the n_left smallest (_left_halves; ties to the lower position, as a
    stable sort of the distance difference places them). The product is an
    einsum, not a BLAS call, because BLAS kernels can round copies of one
    row apart by their position, and copies must tie. The next centres are
    node sums over counts: the left sum is the mask's product with the
    samples, the right one the node total minus it.

    In exact arithmetic the split is the squared-distance one. In floating
    point the score and the centres round differently from the squared
    distances and the means, so two distinct samples whose distance
    differences agree to within rounding can trade order; if they straddle
    the halves, the split, and every anchor below it, differs from the
    squared-distance tree. Such near-ties need distinct samples with equal
    exact scores, on one hyperplane normal to c2 - c1, which integer-valued
    features make common. On every test and benchmark input the splits
    agree, and the anchors are the squared-distance tree's bit for bit.
    """
    k, s = members.shape
    n_left = -(-s // 2)
    cand = np.take_along_axis(members, draws, axis=1)
    # two gathers: one array and its own transpose would send matmul down
    # its symmetric path, whose bits can differ from the general product's
    dc = pairwise_sq_dists(X[cand], X[cand])
    # farthest candidate pair; argmax on each flattened matrix breaks ties
    # toward the lowest flat index
    i, j = np.divmod(np.argmax(dc.reshape(k, -1), axis=1), cand.shape[1])
    rows = np.arange(k)
    c1 = X[cand[rows, i]]
    c2 = X[cand[rows, j]]

    Xg = X[members]
    total = Xg.sum(axis=1)
    left = np.zeros((k, s), dtype=bool)
    live = rows
    for sweep in range(_MAX_SWEEPS):
        score = np.einsum("ksd,kd->ks", Xg, c2 - c1)
        mask = _left_halves(score, n_left)
        if sweep:
            moved = (mask != left[live]).any(axis=1)
            if not moved.all():
                live, Xg, mask = live[moved], Xg[moved], mask[moved]
                total = total[moved]
                if not live.size:
                    break
        left[live] = mask
        if sweep + 1 < _MAX_SWEEPS:
            left_sum = np.matmul(mask[:, None, :].astype(np.float64), Xg)[:, 0]
            c1 = left_sum / n_left
            c2 = (total - left_sum) / (s - n_left)
    return left


def bkhk_anchors(X, m, seed, index=0, return_assignment=False):
    """Pick m = 2^t anchors by recursive balanced two-means.

    Parameters
    ----------
    X : (n, d) array
    m : number of anchors, must be a power of two with m <= n
    seed : int, drives the candidate sampling inside every split
    index : substream index, decorrelates anchor draws across views
    return_assignment : also return the (n,) leaf index of every sample

    Returns
    -------
    anchors : (m, d) array of leaf means, in left-first traversal order
    assignment : (n,) int array, only when return_assignment is True

    Leaf sizes differ by at most one: every leaf holds floor(n/m) or
    ceil(n/m) samples.

    The tree is the one a depth-first recursion builds, left child first,
    but its levels are split one at a time, each as at most two batches of
    equal-size nodes. The recursion's only random draws are the seeding
    candidates of each split, and a split's draw depends only on its node's
    size, which depends only on n. So every draw is taken up front from the
    same generator, in the recursion's order, and the batched splits use the
    draws the recursion would have used. Each node keeps its samples in the
    recursion's order, so wherever the score split (see _balanced_two_means)
    agrees with the recursion's squared-distance split, the leaf means run
    over the same values and the anchors and the assignment are the
    recursion's bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n = X.shape[0]
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"anchor count must be a power of two, got {m}")
    if m > n:
        raise ValueError(f"anchor count {m} exceeds sample count {n}")

    rng = make_generator(seed, STREAM_ANCHORS, index=index)
    depth = m.bit_length() - 1
    draws = _split_draws(rng, n, depth)
    # order lists the samples of a level's nodes node after node, each
    # node's samples in the order the recursion holds them
    order = np.arange(n)
    sizes = np.array([n])
    for level in range(depth):
        for nodes, slots in _size_groups(sizes):
            members = order[slots]
            left = _balanced_two_means(
                X, members, np.stack([draws[level][p] for p in nodes])
            )
            order[slots] = np.concatenate(
                (members[left].reshape(nodes.size, -1),
                 members[~left].reshape(nodes.size, -1)),
                axis=1,
            )
        sizes = np.stack((sizes - sizes // 2, sizes // 2), axis=1).ravel()

    anchors = np.empty((m, X.shape[1]), dtype=np.float64)
    assignment = np.empty(n, dtype=np.int64)
    for nodes, slots in _size_groups(sizes):
        members = order[slots]
        anchors[nodes] = X[members].mean(axis=1)
        assignment[members] = nodes[:, None]
    if return_assignment:
        return anchors, assignment
    return anchors


def build_bipartite(X, anchors, k):
    """Row-stochastic sample-to-anchor weights with exactly k neighbors.

    For each sample, with d_(1) <= ... <= d_(m) its sorted squared anchor
    distances, the weight on its j-th nearest anchor (j <= k) is

        (d_(k+1) - d_(j)) / (k d_(k+1) - sum_{h<=k} d_(h))

    and 0 elsewhere. When the denominator vanishes (the k+1 nearest anchors
    are equidistant) the k nearest share uniform weight 1/k, ties going to
    the lowest anchor index.

    Only the k+1 nearest anchors of a row are selected (argpartition) and
    sorted. The sorted values d_(1..k+1) are the full sort's, so are the
    weights. Which of several anchors tied at one distance takes which
    position can differ from the full stable sort, but tied anchors get
    equal weights, every anchor strictly nearer than d_(k+1) is among the
    first k either way, and one at exactly d_(k+1) gets +0.0 wherever it
    lands. Z is therefore the full sort's bit for bit, except on degenerate
    rows, whose uniform weights depend on which anchors are picked: those
    rows are sorted in full.
    """
    X = np.asarray(X, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    m = anchors.shape[0]
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < m, got k={k}, m={m}")

    d = pairwise_sq_dists(X, anchors)
    n = d.shape[0]
    near = np.argpartition(d, k, axis=1)[:, : k + 1]
    dn = np.take_along_axis(d, near, axis=1)
    by_dist = np.argsort(dn, axis=1, kind="stable")
    order = np.take_along_axis(near, by_dist, axis=1)
    ds = np.take_along_axis(dn, by_dist, axis=1)
    dk1 = ds[:, k]
    denom = k * dk1 - ds[:, :k].sum(axis=1)
    degenerate = denom <= _DEGENERATE_RTOL * k * dk1
    if degenerate.any():
        order[degenerate] = np.argsort(d[degenerate], axis=1, kind="stable")[:, : k + 1]

    safe = np.where(degenerate, 1.0, denom)
    weights = (dk1[:, None] - ds[:, :k]) / safe[:, None]
    weights[degenerate] = 1.0 / k

    Z = np.zeros((n, m), dtype=np.float64)
    np.put_along_axis(Z, order[:, :k], weights, axis=1)
    Z /= Z.sum(axis=1, keepdims=True)
    return Z


class ZeroDegreeWarning(RuntimeWarning):
    """Anchors of zero degree had their degree floored at 1e-12.

    anchors is the most floored in one of the graphs the warning reports.
    """

    def __init__(self, message, anchors):
        super().__init__(message)
        self.anchors = anchors


def floored_anchor_degrees(P):
    """Column sums of P, with zero-degree anchors floored at 1e-12.

    An anchor that no sample points to would divide by zero wherever anchor
    labels are degree-normalized; flooring keeps those terms finite (and
    large). The floor is silent: a solve counts the anchors it touches with
    zero_degree_anchors and reports them through warn_zero_degree.
    """
    return np.maximum(P.sum(axis=0), _DEGREE_EPS)


def zero_degree_anchors(P):
    """How many anchors floored_anchor_degrees floors in the fused graph P."""
    return int((P.sum(axis=0) < _DEGREE_EPS).sum())


def warn_zero_degree(counts, stacklevel):
    """One ZeroDegreeWarning over the zero_degree_anchors counts of a solve.

    It gives how many of its fused graphs had any and the most at once;
    stacklevel is read as if the caller called warnings.warn.
    """
    floored = [a for a in counts if a]
    if floored:
        warnings.warn(ZeroDegreeWarning(
            f"{len(floored)} fused graph(s) had zero-degree anchors, at most "
            f"{max(floored)} at once; their degrees were floored at 1e-12",
            max(floored)), stacklevel=stacklevel + 1)
