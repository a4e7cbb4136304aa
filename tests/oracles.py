"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (quadratic DFT sums, exhaustive active-set
enumeration, dense (n+m)^2 linear algebra) and shares no code with the package
under test beyond numpy itself.
"""

import itertools

import numpy as np


def naive_dft3(data):
    """O(n3^2) DFT summation along axis 0 of a (n3, n1, n2) array."""
    data = np.asarray(data, dtype=float)
    n3 = data.shape[0]
    out = np.zeros(data.shape, dtype=complex)
    for f in range(n3):
        for k in range(n3):
            out[f] += data[k] * np.exp(-2j * np.pi * f * k / n3)
    return out


def naive_idft3(spec):
    spec = np.asarray(spec, dtype=complex)
    n3 = spec.shape[0]
    out = np.zeros(spec.shape, dtype=complex)
    for k in range(n3):
        for f in range(n3):
            out[k] += spec[f] * np.exp(2j * np.pi * f * k / n3)
    return out / n3


def perslice_tnn_oracle(data):
    """Average of per-frequency nuclear norms, via the naive DFT."""
    spec = naive_dft3(data)
    total = 0.0
    for k in range(spec.shape[0]):
        total += np.linalg.svd(spec[k], compute_uv=False).sum()
    return total / spec.shape[0]


def matrix_svt(M, tau):
    """Matrix singular value soft-thresholding at tau."""
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vh


def simplex_qp_oracle(t):
    """Brute-force argmin of ||x - t||^2 over the probability simplex.

    Enumerates every nonempty support set, solves the equality-constrained
    problem on that support, keeps feasible candidates, and returns the one
    with the smallest objective. Exponential in len(t); keep m small.
    """
    t = np.asarray(t, dtype=float)
    m = t.size
    assert m <= 12, "enumeration oracle is exponential in m"
    best = None
    best_obj = np.inf
    for r in range(1, m + 1):
        for support in itertools.combinations(range(m), r):
            idx = np.array(support)
            nu = (1.0 - t[idx].sum()) / r
            x = np.zeros(m)
            x[idx] = t[idx] + nu
            if x[idx].min() < -1e-12:
                continue
            obj = float(((x - t) ** 2).sum())
            if obj < best_obj:
                best_obj = obj
                best = x
    return best


def prox_rows_stable_argsort(target):
    """Row-wise simplex projection through an explicit stable argsort.

    The sort-based threshold method with the permutation materialized (ties
    broken by original index on the negated values). The package sorts
    values only; both must agree bit for bit.
    """
    t = np.asarray(target, dtype=float)
    r, m = t.shape
    order = np.argsort(-t, axis=1, kind="stable")
    u = np.take_along_axis(t, order, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    j = np.arange(1, m + 1)
    cond = u - css / j > 0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(r), rho] / (rho + 1)
    x = np.maximum(t - theta[:, None], 0.0)
    x /= x.sum(axis=1, keepdims=True)
    return x


def fusion_input_per_view(Zs, Ts, alpha):
    """sum_v alpha_v^2 (Z_v @ T_v), each product formed as its term is added."""
    out = None
    for Z, T, a in zip(Zs, Ts, np.asarray(alpha, dtype=float)):
        term = (a * a) * (np.asarray(Z, dtype=float) @ np.asarray(T, dtype=float))
        out = term if out is None else out + term
    return out


def dense_bipartite_pieces(P):
    """(n+m)^2 adjacency, degree, and normalized Laplacian for S_P = [[0,P],[P^T,0]]."""
    P = np.asarray(P, dtype=float)
    n, m = P.shape
    S = np.zeros((n + m, n + m))
    S[:n, n:] = P
    S[n:, :n] = P.T
    d = S.sum(axis=1)
    d = np.maximum(d, 1e-12)
    Dinv = 1.0 / np.sqrt(d)
    Lt = np.eye(n + m) - (Dinv[:, None] * S) * Dinv[None, :]
    return S, d, Lt


def dense_label_solve(P, bn, bm, Y):
    """Solve (L~ + B) Fhat = B Yhat on the full (n+m) system."""
    P = np.asarray(P, dtype=float)
    n, m = P.shape
    _, _, Lt = dense_bipartite_pieces(P)
    B = np.diag(np.concatenate([bn, bm]))
    Yhat = np.vstack([Y, np.zeros((m, Y.shape[1]))])
    Fhat = np.linalg.solve(Lt + B, B @ Yhat)
    return Fhat[:n], Fhat[n:]


def perf_gain_dense(F, Q, P, bn, bm, Y):
    """Tr(Fh^T S^ Fh) + 2 Tr(Fh^T B Yh) - Tr(Fh^T (I+B) Fh), dense evaluation."""
    n, m = P.shape
    S, d, _ = dense_bipartite_pieces(P)
    Dinv = 1.0 / np.sqrt(d)
    Shat = (Dinv[:, None] * S) * Dinv[None, :]
    Fhat = np.vstack([F, Q])
    b = np.concatenate([bn, bm])
    Yhat = np.vstack([Y, np.zeros((m, Y.shape[1]))])
    term1 = np.trace(Fhat.T @ Shat @ Fhat)
    term2 = 2.0 * np.trace(Fhat.T @ (b[:, None] * Yhat))
    term3 = np.trace(Fhat.T @ ((1.0 + b)[:, None] * Fhat))
    return term1 + term2 - term3


def perf_gain_blockwise(F, Q, P, bn, bm, Y):
    """Same objective assembled from the n x m blocks only."""
    col_deg = np.maximum(P.sum(axis=0), 1e-12)
    Qn = Q / np.sqrt(col_deg)[:, None]
    term1 = 2.0 * float(np.sum((P @ Qn) * F))
    term2 = 2.0 * float(np.sum((bn[:, None] * Y) * F))
    term3 = float(np.sum((1.0 + bn)[:, None] * F * F) + np.sum((1.0 + bm)[:, None] * Q * Q))
    return term1 + term2 - term3


def rand_row_stochastic(rng, n, m):
    return rng.dirichlet(np.ones(m), size=n)


def rand_orthogonal(rng, k):
    A = rng.standard_normal((k, k))
    Qm, R = np.linalg.qr(A)
    return Qm * np.sign(np.diag(R))


def rand_simplex_interior(rng, V, floor=0.05):
    a = rng.dirichlet(np.ones(V))
    a = a * (1.0 - V * floor) + floor
    return a / a.sum()
