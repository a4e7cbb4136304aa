"""Anchor selection and sparse bipartite graph construction.

Anchors come from a balanced hierarchical two-means: the sample set is split
in half recursively until 2^t leaves remain, and each leaf contributes its
mean. Per-sample anchor weights then follow the closed-form solution of the
neighbor-assignment problem

    min_{z in simplex} sum_j d_j z_j + gamma ||z||^2

whose optimum touches exactly the k nearest anchors when gamma is chosen as
(k d_(k+1) - sum_{h<=k} d_(h)) / 2.

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
    """Squared euclidean distances between rows of A and rows of B."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    sq = (
        (A * A).sum(axis=1)[:, None]
        - 2.0 * (A @ B.T)
        + (B * B).sum(axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def _balanced_two_means(X, idx, rng):
    """Split idx into halves of size ceil(s/2) / floor(s/2) around two centers."""
    s = idx.size
    pool = min(_SEED_CANDIDATES, s)
    cand = idx[rng.choice(s, size=pool, replace=False)]
    dc = pairwise_sq_dists(X[cand], X[cand])
    # farthest candidate pair; argmax on the flat array breaks ties toward the
    # lowest flat index
    i, j = np.unravel_index(int(np.argmax(dc)), dc.shape)
    c1 = X[cand[i]].astype(np.float64)
    c2 = X[cand[j]].astype(np.float64)

    n_left = -(-s // 2)
    left_mask = None
    for _ in range(_MAX_SWEEPS):
        d1 = ((X[idx] - c1) ** 2).sum(axis=1)
        d2 = ((X[idx] - c2) ** 2).sum(axis=1)
        order = np.argsort(d1 - d2, kind="stable")
        mask = np.zeros(s, dtype=bool)
        mask[order[:n_left]] = True
        if left_mask is not None and np.array_equal(mask, left_mask):
            break
        left_mask = mask
        c1 = X[idx[left_mask]].mean(axis=0)
        c2 = X[idx[~left_mask]].mean(axis=0)
    return idx[left_mask], idx[~left_mask]


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
    anchors = np.empty((m, X.shape[1]), dtype=np.float64)
    assignment = np.empty(n, dtype=np.int64)
    depth = m.bit_length() - 1

    def descend(idx, level, leaf):
        if level == 0:
            anchors[leaf] = X[idx].mean(axis=0)
            assignment[idx] = leaf
            return leaf + 1
        left, right = _balanced_two_means(X, idx, rng)
        leaf = descend(left, level - 1, leaf)
        return descend(right, level - 1, leaf)

    descend(np.arange(n), depth, 0)
    if return_assignment:
        return anchors, assignment
    return anchors


def build_bipartite(X, anchors, k):
    """Row-stochastic sample-to-anchor weights with exactly k neighbors.

    For each sample, with d_(1) <= ... <= d_(m) its sorted squared anchor
    distances, the weight on its j-th nearest anchor (j <= k) is

        (d_(k+1) - d_(j)) / (k d_(k+1) - sum_{h<=k} d_(h))

    and 0 elsewhere. When the denominator vanishes (the k+1 nearest anchors
    are equidistant) the k nearest share uniform weight 1/k.
    """
    X = np.asarray(X, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    m = anchors.shape[0]
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < m, got k={k}, m={m}")

    d = pairwise_sq_dists(X, anchors)
    n = d.shape[0]
    order = np.argsort(d, axis=1, kind="stable")
    ds = np.take_along_axis(d, order, axis=1)
    dk1 = ds[:, k]
    denom = k * dk1 - ds[:, :k].sum(axis=1)
    degenerate = denom <= _DEGENERATE_RTOL * k * dk1

    safe = np.where(degenerate, 1.0, denom)
    weights = (dk1[:, None] - ds[:, :k]) / safe[:, None]
    weights[degenerate] = 1.0 / k

    Z = np.zeros((n, m), dtype=np.float64)
    np.put_along_axis(Z, order[:, :k], weights, axis=1)
    Z /= Z.sum(axis=1, keepdims=True)
    return Z


def floored_anchor_degrees(P):
    """Column sums of P, with zero-degree anchors floored at 1e-12.

    An anchor that no sample points to would divide by zero wherever anchor
    labels are degree-normalized; flooring keeps those terms finite (and
    large), and a RuntimeWarning reports how many anchors it touched.
    """
    col = P.sum(axis=0)
    if np.any(col < _DEGREE_EPS):
        warnings.warn(
            f"{int(np.sum(col < _DEGREE_EPS))} anchor(s) have zero degree in the "
            "fused graph; flooring their degree at 1e-12",
            RuntimeWarning,
            stacklevel=3,
        )
        col = np.maximum(col, _DEGREE_EPS)
    return col
