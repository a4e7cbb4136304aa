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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def tubal_shrink(f: Tensor3, tau: float) -> Tensor3:
    """Soft-threshold the Fourier-domain singular values at n3 * tau.

    This is the proximal map of tau times the plain sum of per-frequency
    nuclear norms, i.e. of (n3 * tau) times the tensor nuclear norm (their
    mean), the convention the ADMM G-step uses with tau = rho / eta. With
    n3 = 1 it reduces to matrix singular value thresholding at tau.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    n3 = f.data.shape[0]
    spec = np.fft.rfft(f.data, axis=0)
    try:
        U, s, Vh = np.linalg.svd(spec, full_matrices=False)
    except np.linalg.LinAlgError:
        for k in range(spec.shape[0]):
            try:
                np.linalg.svd(spec[k], full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(
                    f"SVD failed to converge on frequency slice {k}"
                ) from exc
        raise
    shrunk = np.maximum(s - n3 * tau, 0.0)
    return Tensor3(np.fft.irfft(U @ (shrunk[..., None] * Vh), n=n3, axis=0))
