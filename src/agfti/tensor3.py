"""Third-order tensors and the tubal shrinkage of the low-rank imputation step.

A Tensor3 stores n3 frontal slices of size n1 x n2 in slice-major order:
``data`` has shape (n3, n1, n2) and ``data[k]`` is frontal slice k. The
transform domain is the unnormalized DFT along the third mode (numpy fft over
axis 0), and tubal shrinkage soft-thresholds the singular values of every
frequency slice.

The stacking operator ``phi`` maps V matrices of shape n x m to the m x V x n
tensor whose frontal slice i holds row i of every input matrix as a column.
The solver keeps its graphs as one (V, n, m) array instead and wraps its
(n, m, V) transpose, the same layout without a copy, only to shrink it.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative margin below the threshold under which a norm bound proves a zero
SKIP_MARGIN = 1e-8


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


def phi(mats):
    """Stack V matrices (each n x m) into an m x V x n tensor."""
    mats = [np.asarray(Z, dtype=float) for Z in mats]
    shape = mats[0].shape
    for Z in mats:
        if Z.ndim != 2 or Z.shape != shape:
            raise ValueError("phi needs matrices of identical n x m shape")
    return Tensor3(np.stack(mats, axis=2))


def _slice_norms(*parts):
    """Frobenius norm of every slice k of a (k, i, j) array given by its real parts."""
    return np.sqrt(sum(np.einsum("kij,kij->k", a, a) for a in parts))


def tubal_shrink(f: Tensor3, tau: float) -> Tensor3:
    """Soft-threshold the Fourier-domain singular values at n3 * tau.

    This is the proximal map of tau times the plain sum of per-frequency
    nuclear norms, i.e. of (n3 * tau) times the tensor nuclear norm (their
    mean), the convention the ADMM G-step uses with tau = rho / eta. With
    n3 = 1 it reduces to matrix singular value thresholding at tau.

    Only work whose result can be nonzero is done: with every frequency
    slice bounded by s_max(A_k) <= ||A_k||_F <= sum_i ||f_i||_F, a tensor
    whose frontal-slice norms sum to at most (1 - SKIP_MARGIN) * n3 * tau
    returns zeros without a transform, and only the frequency slices whose
    Frobenius norm exceeds that floor get an SVD. The output equals the
    all-slice computation bit for bit.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    data = f.data
    n3 = data.shape[0]
    t = n3 * tau
    floor = (1.0 - SKIP_MARGIN) * t
    if _slice_norms(data).sum() <= floor:
        return Tensor3(np.zeros(data.shape))
    spec = np.fft.rfft(data, axis=0)
    keep = _slice_norms(spec.real, spec.imag) > floor
    if not keep.any():
        return Tensor3(np.zeros(data.shape))
    all_live = keep.all()
    try:
        U, s, Vh = np.linalg.svd(spec if all_live else spec[keep], full_matrices=False)
    except np.linalg.LinAlgError:
        for k in np.flatnonzero(keep):
            try:
                np.linalg.svd(spec[k], full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"SVD failed to converge on frequency slice {k}"
                ) from exc
        raise
    shrunk = np.maximum(s - t, 0.0)[..., None] * Vh
    if all_live:
        spec = U @ shrunk
    else:
        # written in place: a fresh output spectrum would raise the peak
        spec[~keep] = 0.0
        spec[keep] = U @ shrunk
    # the factors are the largest arrays alive; free them before the inverse
    del U, Vh, shrunk
    return Tensor3(np.fft.irfft(spec, n=n3, axis=0))
