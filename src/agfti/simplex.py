"""Euclidean projection onto the probability simplex.

A row t of width m projects to max(t - θ, 0), where θ is the one threshold
that makes the result sum to 1. Rows take one of two paths:

- Full support. If every entry stays positive, θ = (Σt - 1)/m, and that is
  the case exactly when min(t) > (Σt - 1)/m. Such a row is projected by the
  shift t - θ, from one plain row sum, without sorting (the first step of
  Michelot, JOTA 1986). At the solver's default β=4 fusion flattens P, and
  nearly every row it projects at 256 anchors keeps every anchor.
- Partial support. The other rows take the sort-based threshold method,
  O(m log m) per row, in blocks of SORT_BLOCK rows (gathered, unless every
  row is partial), so its three work arrays stay SORT_BLOCK x m whatever
  the row count and the projection's only full-size array is its output.
  Every step of the method is row by row, so a row's threshold does not
  depend on the block it falls in. Only the sorted values enter the
  threshold, never the permutation, so the order in which equal entries
  (or 0.0 and -0.0) land after the sort cannot change the result.

Rows on the sort path are bit for bit the explicit stable-argsort method's.
A full-support row differs from it only at the rounding level: its row sum
is pairwise where the sort method's is sequential over the sorted values.

The result is renormalized by its exact row sum so downstream degree
computations can rely on rows summing to 1. A finite row whose entries are
too large to threshold in float64 (the sum overflows, or the shifted values
round to zero) has no such sum and is refused.
"""

import numpy as np

# rows per block of the sort path
SORT_BLOCK = 256


def prox_rows(target):
    """Project each row of target onto the probability simplex."""
    t = np.asarray(target, dtype=float)
    if t.ndim != 2:
        raise ValueError(f"prox_rows needs a 2-d array, got shape {t.shape}")
    m = t.shape[1]
    if m == 0:
        raise ValueError("prox_rows needs rows of width at least 1, got width 0")
    # a non-finite entry makes its row sum non-finite, so only a non-finite
    # sum (or an overflow) needs the entrywise pass
    s = t.sum(axis=1)
    if not np.all(np.isfinite(s)) and not np.all(np.isfinite(t)):
        raise ValueError("prox_rows: non-finite entries in input")
    theta = (s - 1.0) / m
    partial = np.flatnonzero(~(t.min(axis=1) > theta))
    for lo in range(0, partial.size, SORT_BLOCK):
        rows = partial[lo:lo + SORT_BLOCK]
        # imputation targets are mostly all-partial: sort slices of t itself
        block = t[lo:lo + SORT_BLOCK] if partial.size == len(t) else t[rows]
        theta[rows] = _sorted_threshold(block)
    # a full-support row is positive after the shift, so the clamp keeps it
    x = t - theta[:, None]
    np.maximum(x, 0.0, out=x)
    d = x.sum(axis=1)
    bad = np.flatnonzero(~(np.isfinite(d) & (d > 0.0)))
    if bad.size:
        raise ValueError(
            f"prox_rows: row {bad[0]} is finite but too large in magnitude "
            "to project in float64"
        )
    x /= d[:, None]
    return x


def _sorted_threshold(t):
    """Each row's simplex threshold by the sort-based method."""
    r, m = t.shape
    u = np.sort(t, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    css -= 1.0
    # largest prefix where the running threshold keeps the entry positive;
    # the first column qualifies unless the entries dwarf the 1 in float64,
    # and then argmax falls back to rho = m - 1
    gap = css / np.arange(1, m + 1)
    cond = np.subtract(u, gap, out=gap) > 0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    return css[np.arange(r), rho] / (rho + 1)
