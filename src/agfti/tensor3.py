"""Tubal shrinkage of the low-rank imputation step, on plain 3-d arrays.

A third-order tensor is a real (n3, n1, n2) array. Axis 0 is the DFT axis: the
transform domain is the unnormalized DFT along it (numpy fft over axis 0), and
each frequency slice is the n1 x n2 matrix over axes 1 and 2. Tubal shrinkage
soft-thresholds the singular values of every frequency slice.

The stacking operator ``phi`` maps V matrices of shape n x m to the (n, m, V)
array whose slice i along axis 0 holds row i of every input matrix as a
column. The solver keeps its graphs as one (V, n, m) array instead and shrinks
its (n, m, V) transpose, the same layout without a copy.

A real tensor has a conjugate-symmetric spectrum, so the shrinkage works on
the half spectrum that ``rfft`` returns (frequencies 0 .. n3//2) and ``irfft``
rebuilds the real result from it; the mirrored frequencies are never formed.

Shrinkage at threshold t zeroes a frequency slice A_k exactly when its largest
singular value is at most t, and s_max(A_k) <= ||A_k||_F <= sum_i ||f_i||_F,
the f_i being the frontal slices (A_k is a unit-modulus combination of them).
So a tensor whose frontal norms sum to at most (1 - SKIP_MARGIN) * t shrinks to
zero without a transform, and a slice whose Frobenius norm is at most that
skips its SVD. The margin, far above the ~1e-13 relative rounding of the norms
and the FFT, keeps the skip to slices whose computed singular values the full
computation would also have zeroed, so the result is the same bit for bit.

The live slices are factorised SHRINK_BATCH at a time, and each batch's
shrunk product is written back into the spectrum, so the SVD factors of the
whole spectrum are never held at once. The shrinkage's memory is the
spectrum plus the output, about twice the input: the half spectrum's
n3//2+1 complex slices take about as many bytes as the real input.
"""

import numpy as np

# relative margin below the threshold under which a norm bound proves a zero
SKIP_MARGIN = 1e-8
# frequency slices per batched SVD: a batch's factors stay small beside the
# spectrum, and the batch is large enough to keep the per-call overhead low
SHRINK_BATCH = 64


def phi(mats):
    """Stack V matrices (each n x m) into one (n, m, V) array."""
    mats = [np.asarray(Z, dtype=float) for Z in mats]
    shape = mats[0].shape
    for Z in mats:
        if Z.ndim != 2 or Z.shape != shape:
            raise ValueError("phi needs matrices of identical n x m shape")
    return np.stack(mats, axis=2)


def _slice_norms(*parts):
    """Frobenius norm of every slice k of a (k, i, j) array given by its real parts."""
    return np.sqrt(sum(np.einsum("kij,kij->k", a, a) for a in parts))


def tubal_shrink(A, tau):
    """Soft-threshold the Fourier-domain singular values at n3 * tau.

    A is a real (n3, n1, n2) array whose axis 0 is the DFT axis; the result
    is a new array of the same shape. A that is not 3-d or has an entry that
    is not finite raises ValueError.

    This is the proximal map of tau times the plain sum of per-frequency
    nuclear norms, i.e. of (n3 * tau) times the tensor nuclear norm (their
    mean), the convention the ADMM G-step uses with tau = rho / eta. With
    n3 = 1 it reduces to matrix singular value thresholding at tau.

    Only work whose result can be nonzero is done: with every frequency
    slice bounded by s_max(A_k) <= ||A_k||_F <= sum_i ||A[i]||_F, a tensor
    whose frontal-slice norms sum to at most (1 - SKIP_MARGIN) * n3 * tau
    returns zeros without a transform, and only the frequency slices whose
    Frobenius norm exceeds that floor get an SVD. The output equals the
    all-slice computation bit for bit.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 3:
        raise ValueError(f"tubal_shrink needs a 3-d array, got shape {A.shape}")
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    n3 = A.shape[0]
    t = n3 * tau
    floor = (1.0 - SKIP_MARGIN) * t
    # the norm sum is NaN or inf whenever an entry is, so only a sum that is
    # not finite needs the entrywise pass (finite entries can overflow it)
    total = _slice_norms(A).sum()
    if not np.isfinite(total) and not np.isfinite(A).all():
        raise ValueError("tubal_shrink entries must be finite")
    if total <= floor:
        return np.zeros(A.shape)
    spec = np.fft.rfft(A, axis=0)
    keep = _slice_norms(spec.real, spec.imag) > floor
    if not keep.any():
        return np.zeros(A.shape)
    # shrunk in place a batch at a time: a fresh output spectrum, or the
    # factors of every slice at once, would raise the peak
    spec[~keep] = 0.0
    live = np.flatnonzero(keep)
    for start in range(0, live.size, SHRINK_BATCH):
        batch = live[start:start + SHRINK_BATCH]
        spec[batch] = _shrink_slices(spec[batch], t, batch)
    return np.fft.irfft(spec, n=n3, axis=0)


def _shrink_slices(S, t, freqs):
    """U (max(s - t, 0) Vh) of every slice of S; freqs name the slices in errors."""
    try:
        U, s, Vh = np.linalg.svd(S, full_matrices=False)
    except np.linalg.LinAlgError:
        for k, slice_ in zip(freqs, S):
            try:
                np.linalg.svd(slice_, full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"SVD failed to converge on frequency slice {k}"
                ) from exc
        raise
    return U @ (np.maximum(s - t, 0.0)[..., None] * Vh)
