"""Euclidean projection onto the probability simplex.

Sort-based threshold method, O(m log m) per row. Rows are at most ~1024 wide
here, so the simpler exact method wins over pivot-based O(m) variants. Only
the sorted values enter the threshold, never the permutation, so the order
in which equal entries (or 0.0 and -0.0) land after the sort cannot change
the result. The thresholded result is renormalized by its exact sum so
downstream degree computations can rely on rows summing to 1.
"""

import numpy as np


def prox_rows(target):
    """Project each row of target onto the probability simplex."""
    t = np.asarray(target, dtype=float)
    if t.ndim != 2:
        raise ValueError(f"prox_rows needs a 2-d array, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("prox_rows: non-finite entries in input")
    r, m = t.shape
    u = np.sort(t, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    j = np.arange(1, m + 1)
    # largest prefix where the running threshold keeps the entry positive;
    # the first column always qualifies, so rho is well defined
    cond = u - css / j > 0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(r), rho] / (rho + 1)
    x = np.maximum(t - theta[:, None], 0.0)
    x /= x.sum(axis=1, keepdims=True)
    return x

