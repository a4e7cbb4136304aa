"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (quadratic DFT sums, exhaustive active-set
enumeration, dense (n+m)^2 linear algebra, full-spectrum tensor transforms) and
shares no code with the package under test beyond numpy itself, with four
exceptions. project_simplex is a single-vector view of the package's prox_rows
that only the tests need. The reference line search, minmax_fusing_per_candidate,
composes the package's per-step functions of agfti.agf, since what it checks is
how agf_minmax composes them; it also records the H refreshes and per-step
traces that agf_minmax does not keep. The recursive anchor tree,
bkhk_anchors_recursive, draws from the package's agfti.rng generator, since
it must reproduce the package's draws. The all-slice shrinkage
tubal_shrink_gram_all_slices runs the package's slice kernel on every
frequency slice at once, since what it checks is how tubal_shrink skips and
batches the slices; the SVD references check the kernel. The t-SVD algebra works on the Tensor3
type below; the package's tubal_shrink takes its plain ``data`` array.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from agfti.agf import (
    agf_minmax,
    agreement_value,
    compute_H,
    grad_h,
    reduced_descent_direction,
    solve_inner_P,
    target_value,
    view_agreements,
)
from agfti.rng import STREAM_ANCHORS, make_generator
from agfti.simplex import prox_rows
from agfti.tensor3 import _shrink_slices

IMAG_RTOL = 1e-8


def naive_dft3(data):
    """O(n3^2) DFT summation along axis 0 of a (n3, n1, n2) array."""
    data = np.asarray(data, dtype=float)
    n3 = data.shape[0]
    out = np.zeros(data.shape, dtype=complex)
    for f in range(n3):
        for k in range(n3):
            out[f] += data[k] * np.exp(-2j * np.pi * f * k / n3)
    return out


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


# t-SVD algebra over the full DFT spectrum. Only the tests use it: the solver
# needs tubal shrinkage alone, which the package computes on the half
# spectrum. Every inverse transform checks that the imaginary residual is
# below IMAG_RTOL of the total norm before dropping it.


@dataclass(frozen=True)
class Tensor3:
    """Real third-order tensor, slice-major: data[k] is the k-th frontal slice."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"Tensor3 needs a 3-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Tensor3 entries must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self):
        """(n1, n2, n3) with n3 the number of frontal slices."""
        n3, n1, n2 = self.data.shape
        return (n1, n2, n3)


@dataclass(frozen=True)
class TSvdResult:
    u: Tensor3
    s: Tensor3
    v: Tensor3


def identity_tensor(n, n3):
    """First frontal slice I_n, all other slices zero."""
    data = np.zeros((n3, n, n))
    data[0] = np.eye(n)
    return Tensor3(data)


def _realify(arr, what):
    imag = np.linalg.norm(arr.imag)
    total = np.linalg.norm(arr)
    if imag > IMAG_RTOL * max(total, 1e-300):
        raise ValueError(
            f"{what}: imaginary residual {imag:.3e} exceeds {IMAG_RTOL:.0e} of "
            f"total norm {total:.3e}; input spectrum is not conjugate-symmetric"
        )
    return np.ascontiguousarray(arr.real)


def _mirror(spec_half, n3):
    """Fill frequencies above Nyquist with conjugates of their mirrors."""
    half = n3 // 2 + 1
    out = np.empty((n3,) + spec_half.shape[1:], dtype=complex)
    out[:half] = spec_half
    if half < n3:
        out[half:] = np.conj(spec_half[1 : n3 - half + 1][::-1])
    return out


def _half_slice_svds(spec, full_matrices):
    """Batched SVDs of the first n3//2+1 frequency slices.

    Slices 0 and (for even n3) n3/2 of a real tensor's spectrum are real
    matrices; their SVDs are taken over the reals so the factors carry no
    stray phases and the later inverse transforms come back real.
    """
    n3 = spec.shape[0]
    half = n3 // 2 + 1
    block = spec[:half]
    U, s, Vh = np.linalg.svd(block, full_matrices=full_matrices)
    U = U.astype(complex)
    Vh = Vh.astype(complex)
    real_slices = [0] + ([n3 // 2] if n3 % 2 == 0 and n3 > 1 else [])
    for k in real_slices:
        Ur, sr, Vhr = np.linalg.svd(block[k].real, full_matrices=full_matrices)
        U[k], s[k], Vh[k] = Ur, sr, Vhr
    return U, s, Vh


def t_svd(t: Tensor3) -> TSvdResult:
    """t-SVD via per-frequency matrix SVDs; factors are real tensors."""
    n1, n2, n3 = t.dims
    spec = np.fft.fft(t.data, axis=0)
    Uf, sf, Vhf = _half_slice_svds(spec, full_matrices=True)
    r = min(n1, n2)
    Sf = np.zeros((Uf.shape[0], n1, n2), dtype=complex)
    Sf[:, np.arange(r), np.arange(r)] = sf
    Vf = np.conj(np.swapaxes(Vhf, 1, 2))
    u = Tensor3(_realify(np.fft.ifft(_mirror(Uf, n3), axis=0), "t_svd factor U"))
    s = Tensor3(_realify(np.fft.ifft(_mirror(Sf, n3), axis=0), "t_svd factor S"))
    v = Tensor3(_realify(np.fft.ifft(_mirror(Vf, n3), axis=0), "t_svd factor V"))
    return TSvdResult(u, s, v)


def t_product(a: Tensor3, b: Tensor3) -> Tensor3:
    """Tensor-tensor product: per-frequency matrix products."""
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ValueError(
            f"t_product shape mismatch: {a.data.shape} vs {b.data.shape}"
        )
    fa = np.fft.fft(a.data, axis=0)
    fb = np.fft.fft(b.data, axis=0)
    return Tensor3(_realify(np.fft.ifft(fa @ fb, axis=0), "t_product"))


def tensor_transpose(t: Tensor3) -> Tensor3:
    """Transpose every slice and reverse the order of slices 2..n3."""
    d = np.swapaxes(t.data, 1, 2)
    return Tensor3(np.concatenate([d[:1], d[1:][::-1]], axis=0))


def tnn(t: Tensor3) -> float:
    """Tensor nuclear norm: mean over frequencies of slice nuclear norms."""
    spec = np.fft.fft(t.data, axis=0)
    n3 = spec.shape[0]
    half = n3 // 2 + 1
    s = np.linalg.svd(spec[:half], compute_uv=False)
    # conjugate frequencies share singular values; weight the interior ones x2
    weights = np.full(half, 2.0)
    weights[0] = 1.0
    if n3 % 2 == 0 and n3 > 1:
        weights[-1] = 1.0
    return float((s.sum(axis=1) * weights).sum() / n3)


def tubal_shrink_full_spectrum(f: Tensor3, tau: float) -> Tensor3:
    """Tubal shrinkage at n3 * tau computed over the full spectrum.

    Real SVDs for the real frequency slices, conjugates mirrored into the
    upper half, and a residual check on the inverse transform: the reference
    that the package's half-spectrum tubal_shrink must agree with.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    n3 = f.data.shape[0]
    spec = np.fft.fft(f.data, axis=0)
    Uf, sf, Vhf = _half_slice_svds(spec, full_matrices=False)
    shrunk = np.maximum(sf - n3 * tau, 0.0)
    Gf = Uf @ (shrunk[..., None] * Vhf)
    return Tensor3(_realify(np.fft.ifft(_mirror(Gf, n3), axis=0), "tubal_shrink"))


def tubal_shrink_all_slices(f: Tensor3, tau: float) -> Tensor3:
    """Half-spectrum tubal shrinkage that transforms and SVDs every slice.

    rfft, one batched SVD over all n3//2+1 frequency slices, soft threshold
    at n3 * tau, irfft: the SVD route that the package's Gram route must
    agree with at the rounding level.
    """
    n3 = f.data.shape[0]
    spec = np.fft.rfft(f.data, axis=0)
    U, s, Vh = np.linalg.svd(spec, full_matrices=False)
    shrunk = np.maximum(s - n3 * tau, 0.0)
    return Tensor3(np.fft.irfft(U @ (shrunk[..., None] * Vh), n=n3, axis=0))


def tubal_shrink_gram_all_slices(f: Tensor3, tau: float) -> Tensor3:
    """Half-spectrum tubal shrinkage that transforms and shrinks every slice.

    rfft, the package's slice kernel (Gram eigendecomposition with its SVD
    fallback) over all n3//2+1 frequency slices in one batch, irfft: the
    package's tubal_shrink without its skips and batches, which must agree
    with it bit for bit.
    """
    n3 = f.data.shape[0]
    spec = np.fft.rfft(f.data, axis=0)
    shrunk = _shrink_slices(spec, n3 * tau, np.arange(spec.shape[0]))
    return Tensor3(np.fft.irfft(shrunk, n=n3, axis=0))


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


# The anchor graphs one node and one full sort at a time. The package splits
# a whole tree level at once and selects neighbours partially; both must
# agree bit for bit. The constants repeat agfti.graphs' on purpose.
_SEED_CANDIDATES = 32
_MAX_SWEEPS = 10
_DEGENERATE_RTOL = 1e-12


def _sq_dists(A, B):
    sq = (A * A).sum(axis=1)[:, None] - 2.0 * (A @ B.T) + (B * B).sum(axis=1)[None, :]
    return np.maximum(sq, 0.0)


def _balanced_two_means(X, idx, rng):
    """Split idx into halves of size ceil(s/2) / floor(s/2) around two centres."""
    s = idx.size
    cand = idx[rng.choice(s, size=min(_SEED_CANDIDATES, s), replace=False)]
    dc = _sq_dists(X[cand], X[cand])
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


def bkhk_anchors_recursive(X, m, seed, index=0, return_assignment=False):
    """Balanced hierarchical two-means, one split per call, depth first."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = make_generator(seed, STREAM_ANCHORS, index=index)
    anchors = np.empty((m, X.shape[1]), dtype=np.float64)
    assignment = np.empty(n, dtype=np.int64)

    def descend(idx, level, leaf):
        if level == 0:
            anchors[leaf] = X[idx].mean(axis=0)
            assignment[idx] = leaf
            return leaf + 1
        left, right = _balanced_two_means(X, idx, rng)
        leaf = descend(left, level - 1, leaf)
        return descend(right, level - 1, leaf)

    descend(np.arange(n), m.bit_length() - 1, 0)
    if return_assignment:
        return anchors, assignment
    return anchors


def build_bipartite_full_sort(X, anchors, k):
    """k-neighbour anchor weights from a full stable argsort of every row."""
    X = np.asarray(X, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    d = _sq_dists(X, anchors)
    n, m = d.shape
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


def fusion_input_per_view(Zs, Ts, alpha):
    """sum_v alpha_v^2 (Z_v @ T_v), each product formed as its term is added."""
    out = None
    for Z, T, a in zip(Zs, Ts, np.asarray(alpha, dtype=float)):
        term = (a * a) * (np.asarray(Z, dtype=float) @ np.asarray(T, dtype=float))
        out = term if out is None else out + term
    return out


def inner_solve(Zs, Ts, alpha, H, lam, beta):
    """(P, t) of solve_inner_P at alpha under H, from one batched product
    over the view stack, as agf_minmax forms them."""
    return solve_inner_P(np.matmul(Zs, Ts), alpha, H / (2.0 * beta), lam, beta)


def cold_start(Zs, Ts, lam, beta):
    """(alpha0, P0) for a fusion solve without a previous iterate.

    Uniform weights, and the inner maximizer at them with H = 0.
    """
    alpha = np.full(len(Zs), 1.0 / len(Zs))
    return alpha, solve_inner_P(np.matmul(Zs, Ts), alpha, 0.0, lam, beta)[0]


@dataclass
class MinmaxTrace:
    """The reference line search's state and history.

    alpha, P, h, converged, n_iter, steps, evaluated and level are the
    fields of agf_minmax's result. H is the last H refresh; h_trace holds one
    (h before, h after) pair per weight step, deltas the largest weight
    change of each step, alpha_trace the starting weights and then those
    after each accepted step.
    """

    alpha: np.ndarray
    P: np.ndarray
    H: np.ndarray | None = None
    h: float | None = None
    converged: bool = False
    n_iter: int = 0
    steps: list = field(default_factory=list)
    evaluated: int = 0
    level: int = 0
    h_trace: list = field(default_factory=list)
    deltas: list = field(default_factory=list)
    alpha_trace: list = field(default_factory=list)


def minmax_fusing_per_candidate(
    Zs, Ts, F, Q, lam, beta, alpha0, P0, tol=1e-4, max_iter=50, start_level=0
):
    """agf_minmax's weighted path, solving and valuing every candidate anew.

    Each weight vector's target is formed from aligned products multiplied
    anew, and no candidate is rejected by a bound, so evaluated counts every
    try. A step's h0 and a candidate's value take agf_minmax's expressions
    (agreement_value and target_value). The first weight step tries the
    levels start_level..20, every later one the levels 0..20, level j being
    the step theta_max * 0.5**j.
    """
    alpha = np.array(alpha0, dtype=float)
    P = np.asarray(P0, dtype=float)
    ref = MinmaxTrace(alpha=alpha, P=P, alpha_trace=[alpha.copy()])
    ZTs = [Z @ T for Z, T in zip(Zs, Ts)]
    for it in range(1, max_iter + 1):
        ref.n_iter = it
        H = compute_H(F, Q, P)
        P = inner_solve(Zs, Ts, alpha, H, lam, beta)[0]
        ref.H, ref.P = H, P
        agree = view_agreements(P, ZTs)
        fixed = beta * float(np.vdot(P, P)) + float(np.vdot(H, P))
        h0 = ref.h = agreement_value(alpha, agree, fixed, lam)
        grad = grad_h(alpha, agree, lam)
        g = reduced_descent_direction(grad, alpha)
        if not np.any(g):
            ref.converged = True
            break
        slope = float(grad @ g)
        shrinking = g < 0
        theta_max = min(1.0, float(np.min(alpha[shrinking] / -g[shrinking])))
        accepted = False
        for level in range(start_level if it == 1 else 0, 21):
            theta = theta_max * 0.5**level
            cand = np.maximum(alpha + theta * g, 0.0)
            cand /= cand.sum()
            ref.evaluated += 1
            P_c, t_c = inner_solve(Zs, Ts, cand, H, lam, beta)
            h_c = target_value(P_c, t_c, beta)
            if h_c <= h0 + 1e-4 * theta * slope:
                accepted = True
                break
        if not accepted:
            ref.h_trace.append((h0, h0))
            ref.steps.append(0.0)
            ref.deltas.append(0.0)
            ref.converged = True
            break
        delta = float(np.max(np.abs(cand - alpha)))
        alpha, P = cand, P_c
        ref.alpha, ref.P, ref.h = alpha, P, h_c
        ref.h_trace.append((h0, h_c))
        ref.steps.append(theta)
        ref.level = level
        ref.deltas.append(delta)
        ref.alpha_trace.append(alpha.copy())
        if delta <= tol:
            ref.converged = True
            break
    return ref


def agf_minmax_with_reference(Zs, Ts, F, Q, **kw):
    """agf_minmax and minmax_fusing_per_candidate on one instance.

    Asserts that the two agree bit for bit on alpha, P, h, steps, level,
    n_iter and converged, so the reference's H and traces describe the
    package's solve too, and returns (result, reference).
    """
    res = agf_minmax(Zs, Ts, F, Q, **kw)
    ref = minmax_fusing_per_candidate(Zs, Ts, F, Q, **kw)
    assert np.array_equal(res.alpha, ref.alpha)
    assert np.array_equal(res.P, ref.P)
    assert res.h == ref.h
    assert res.steps == ref.steps
    assert res.level == ref.level
    assert (res.n_iter, res.converged) == (ref.n_iter, ref.converged)
    return res, ref


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


def performance_gain(F, Q, P, bn, bm, Y):
    """Same objective assembled from the n x m blocks only.

    Never forms an (n+m)^2 matrix; zero-degree anchors are floored at 1e-12.
    """
    col_deg = np.maximum(P.sum(axis=0), 1e-12)
    Qn = Q / np.sqrt(col_deg)[:, None]
    term1 = 2.0 * float(np.sum((P @ Qn) * F))
    term2 = 2.0 * float(np.sum((bn[:, None] * Y) * F))
    term3 = float(np.sum((1.0 + bn)[:, None] * F * F) + np.sum((1.0 + bm)[:, None] * Q * Q))
    return term1 + term2 - term3


def label_weights(Y, m):
    """(bn, bm): the diagonal update_labels(P, Y, 100.0) fits with, by role."""
    bn = np.where(np.asarray(Y).any(axis=1), 100.0, 0.0)
    return bn, np.zeros(m)


def project_simplex(v):
    """argmin over the simplex of ||x - v||^2 for a single vector."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"project_simplex needs a vector, got shape {v.shape}")
    return prox_rows(v[None])[0]


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


def missing_rows(G, missing):
    """G's rows at each view's missing samples, as update_missing_rows reads them."""
    return [G[v, idx] for v, idx in enumerate(missing)]
