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
The half spectrum of each column of axis 2 is stored packed in that column's
own n3 rows of the output: Re X_0, then Re X_k and Im X_k for k = 1 ..
(n3-1)//2, then Re X_{n3/2} when n3 is even. That is exactly n3 reals, since
X_0 and X_{n3/2} of a real sequence are real and ``irfft`` reads only their
real parts.

A float32 tensor (the solver's stacks) is shrunk in float32 storage: its
packed half spectrum and its result are stored in float32, each real and
imaginary part rounded as a complex64 spectrum would round it. The
arithmetic that decides anything runs in float64: the transform is taken
one column of axis 2 at a time in float64 and rounded once into the stored
spectrum, every norm below is summed in float64 from the stored values, and
each batch of live slices is gathered from its packed rows and factorised
in complex128. Only ``irfft`` runs in float32, on one column's spectrum
unpacked into complex64, producing that column of the float32 result. Any
other real dtype is shrunk in float64 and complex128.

A frequency slice S is shrunk through the eigendecomposition of its Gram
matrix, not an SVD. With S = U diag(s) V^H, the Gram matrix S^H S has the
eigenpairs (s_i^2, v_i), so

    U diag(max(s - t, 0)) V^H = S f(S^H S),  f(lam) = max(1 - t / sqrt(lam), 0),

and f of a Hermitian matrix is formed from its eigenpairs. The solver's
slices are m x V, 64 to 256 anchors by 2 to 6 views, so the Gram matrix is
V x V; a wide slice takes the Gram matrix of its rows instead. Each slice is
first scaled by the power of two at its largest real or imaginary part, an
exact scaling under which the Gram matrix can neither overflow nor
underflow.

Squaring costs accuracy at the bottom of the spectrum: the Gram eigenvalues
carry rounding errors of about eps times the largest, so an eigenvalue below
GRAM_FLOOR times the largest gives its singular value to only a few digits.
A slice with such an eigenvalue goes through a batched SVD instead (the SVD
fallback), unless the eigenvalue lies more than GRAM_FLOOR times the largest
below t^2, where its direction is zeroed either way. On every other slice the Gram route
agrees with the SVD route at the rounding level: within 1.2e-14 of the
slice's largest entry on the benchmark workloads' slices, and within the
tests' 1e-12 on every slice they build.

Shrinkage at threshold t zeroes a frequency slice A_k exactly when its largest
singular value is at most t, and s_max(A_k) <= ||A_k||_F <= sum_i ||f_i||_F,
the f_i being the frontal slices (A_k is a unit-modulus combination of them).
So a tensor whose frontal norms sum to at most (1 - SKIP_MARGIN) * t shrinks to
zero without a transform, and a slice whose Frobenius norm is at most that
skips its eigendecomposition. The margin, far above the ~1e-13 relative
rounding of the float64 norms, FFT and Gram matrix and above the 2^-24
relative rounding of a spectrum stored in float32 (which can raise a
stored slice's norm above the frontal-norm bound by that much), keeps the
skip to slices whose computed Gram eigenvalues all lie below t^2, which the
full computation would also have zeroed, so the result is the same bit for
bit. A skipped slice's norm and a factorised slice's Gram matrix are both
computed in float64 from the same stored values.

The live slices are shrunk SHRINK_BATCH at a time, and each batch's shrunk
product is written back into its packed rows, so the factors of the whole
spectrum are never held at once. The spectrum lives in the output itself,
so the shrinkage holds no array of A's size beside its output: written over
A (out=A, the solver's call) it holds A alone, and otherwise A and its
output, beside one column's float64 transform and one batch's factors.
"""

import numpy as np

# relative margin below the threshold under which a norm bound proves a zero;
# it covers the 2^-24 rounding of a spectrum stored in float32
SKIP_MARGIN = 1e-6
# frequency slices shrunk per batch: a batch's factors stay small beside the
# stack, and the batch is large enough to keep the per-call overhead low
SHRINK_BATCH = 64
# Gram eigenvalues below this fraction of the largest are not resolved to
# working accuracy; a slice that needs one goes through the SVD fallback
GRAM_FLOOR = 1e-6
_TINY = np.finfo(float).tiny
# a frontal norm sum below this may hide squares that underflowed, so its
# skip test is not trusted; 2^-400 leaves the largest square far above tiny
_SMALL_NORMS = 2.0 ** -400


def phi(mats):
    """Stack V matrices (each n x m) into one (n, m, V) array."""
    mats = [np.asarray(Z, dtype=float) for Z in mats]
    shape = mats[0].shape
    for Z in mats:
        if Z.ndim != 2 or Z.shape != shape:
            raise ValueError("phi needs matrices of identical n x m shape")
    return np.stack(mats, axis=2)


def _squared_norms(A):
    """Squared Frobenius norm of every slice k of a real (k, i, j) array, in float64."""
    return np.einsum("kij,kij->k", A, A, dtype=np.float64)


def _packed_rows(freqs, n3):
    """Where the packed half spectrum of length n3 holds the frequencies freqs.

    Returns the rows of their real parts, the rows of their imaginary parts,
    and which of freqs have an imaginary row: frequency 0 and, for even n3,
    n3/2 have none.
    """
    has_imag = (freqs > 0) & (2 * freqs < n3)
    return np.maximum(2 * freqs - 1, 0), 2 * freqs[has_imag], has_imag


def _pack_half_spectrum(A):
    """Overwrite A, one column of axis 2 at a time, with its packed rfft along axis 0.

    Each column is transformed in float64 and stored back rounded to A's
    dtype, in the packed order of the module docstring.
    """
    n3 = A.shape[0]
    re, im, has_imag = _packed_rows(np.arange(n3 // 2 + 1), n3)
    for j in range(A.shape[2]):
        col = A[:, :, j]
        # transformed along the last axis of the transpose, where the
        # transform allocates nothing beyond its result
        X = np.fft.rfft(np.asarray(col.T, dtype=np.float64), axis=-1).T
        col[re] = X.real
        col[im] = X.imag[has_imag]
        # freed before the next column's transform is allocated
        del X


def _unpack_irfft(A):
    """Overwrite A, one column of axis 2 at a time, with its packed spectrum's irfft.

    Each column is unpacked into the complex type of A's precision, whose
    irfft is written over the column.
    """
    n3 = A.shape[0]
    re, im, has_imag = _packed_rows(np.arange(n3 // 2 + 1), n3)
    for j in range(A.shape[2]):
        col = A[:, :, j]
        X = np.zeros((re.size,) + col.shape[1:],
                     dtype=np.result_type(A.dtype, np.complex64))
        X.real = col[re]
        X.imag[has_imag] = col[im]
        np.fft.irfft(X, n=n3, axis=0, out=col)
        del X


def tubal_shrink(A, tau, out=None):
    """Soft-threshold the Fourier-domain singular values at n3 * tau.

    A is a real (n3, n1, n2) array whose axis 0 is the DFT axis; the result
    is float32 for a float32 A and float64 otherwise. It is written into
    out, an array of A's shape and that dtype, which may be A itself, and
    out is returned; without out it is a new array. The shrinkage works
    inside its result: out is first given A's values (unless it is A), then
    holds the packed half spectrum, then the result, so no array of the
    result's size is allocated beside it. A that is not 3-d or has an entry
    that is not finite, a tau that is negative or NaN, and an out of another
    shape or dtype raise ValueError.

    This is the proximal map of tau times the plain sum of per-frequency
    nuclear norms, i.e. of (n3 * tau) times the tensor nuclear norm (their
    mean), the convention the ADMM G-step uses with tau = rho / eta. With
    n3 = 1 it reduces to matrix singular value thresholding at tau.

    Only work whose result can be nonzero is done: with every frequency
    slice bounded by s_max(A_k) <= ||A_k||_F <= sum_i ||A[i]||_F, a tensor
    whose frontal-slice norms sum to at most (1 - SKIP_MARGIN) * n3 * tau
    returns zeros without a transform, and only the frequency slices whose
    Frobenius norm exceeds that floor are factorised, by the Gram
    eigendecomposition or the SVD fallback of the module docstring. The
    output equals the all-slice computation bit for bit. A norm sum below
    _SMALL_NORMS may hide underflow: A and tau are then scaled up by 2^k.
    """
    A = np.asarray(A)
    if A.dtype != np.float32:
        A = np.asarray(A, dtype=np.float64)
    if A.ndim != 3:
        raise ValueError(f"tubal_shrink needs a 3-d array, got shape {A.shape}")
    if out is not None and out.shape != A.shape:
        raise ValueError(f"out must have A's shape {A.shape}, got {out.shape}")
    if out is not None and out.dtype != A.dtype:
        raise ValueError(f"out must have dtype {A.dtype}, got {out.dtype}")
    if not tau >= 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    n3 = A.shape[0]
    t = n3 * tau
    floor = (1.0 - SKIP_MARGIN) * t
    # the norm sum is NaN or inf whenever an entry is, so only a sum that is
    # not finite needs the entrywise pass (finite entries can overflow it)
    total = np.sqrt(_squared_norms(A)).sum()
    if not np.isfinite(total) and not np.isfinite(A).all():
        raise ValueError("tubal_shrink entries must be finite")
    if total < _SMALL_NORMS:
        # the shrinkage is positively homogeneous: shrink A and t scaled by
        # the power of two that brings A's largest entry into [0.5, 1)
        exp = np.frexp(max(A.max(initial=0.0), -A.min(initial=0.0)))[1]
        if exp < 0:
            scaled = np.ldexp(A, -exp)
            tubal_shrink(scaled, np.ldexp(tau, -exp), out=scaled)
            return np.ldexp(scaled, exp, out=out)
    if total <= floor:
        return _zeros(A, out)
    if out is None:
        out = np.copy(A)
    elif out is not A:
        out[...] = A
    _pack_half_spectrum(out)
    rows = _squared_norms(out)
    re, im, has_imag = _packed_rows(np.arange(n3 // 2 + 1), n3)
    squares = rows[re]
    squares[has_imag] += rows[im]
    keep = np.sqrt(squares) > floor
    if not keep.any():
        return _zeros(A, out)
    # shrunk in place a batch at a time: the factors of every slice at once
    # would raise the peak. Each batch is gathered into complex128 from its
    # packed rows, factorised, and stored back rounded to out's dtype
    re, im, _ = _packed_rows(np.flatnonzero(~keep), n3)
    out[re] = 0.0
    out[im] = 0.0
    live = np.flatnonzero(keep)
    for start in range(0, live.size, SHRINK_BATCH):
        batch = live[start:start + SHRINK_BATCH]
        re, im, has_imag = _packed_rows(batch, n3)
        S = out[re].astype(np.complex128)
        S.imag[has_imag] = out[im]
        S = _shrink_slices(S, t, batch)
        out[re] = S.real
        out[im] = S.imag[has_imag]
    _unpack_irfft(out)
    return out


def _zeros(A, out):
    """Zeros of A's shape and dtype: a new array, or out filled with them."""
    if out is None:
        return np.zeros(A.shape, dtype=A.dtype)
    out.fill(0.0)
    return out


def _shrink_slices(S, t, freqs):
    """U diag(max(s - t, 0)) V^H of every slice of S; freqs name the slices in errors.

    S is a complex stack. Each slice is shrunk as S f(S^H S) from the
    eigenpairs of its scaled Gram matrix, or through the SVD fallback when
    it has a Gram eigenvalue below GRAM_FLOOR times its largest that does
    not lie below t^2 by as much (module docstring). A failed factorisation
    raises LinAlgError naming the frequency slice.
    """
    if S.shape[-2] < S.shape[-1]:
        # a wide slice takes the Gram matrix of its rows: shrink S^H
        tall = S.conj().swapaxes(-1, -2)
        return _shrink_slices(tall, t, freqs).conj().swapaxes(-1, -2)
    # real and imaginary parts interleaved, so that S can be read as reals
    S = np.ascontiguousarray(S)
    parts = S.view(float)
    # the binary exponent of each slice's largest real or imaginary part
    exp = np.frexp(
        np.maximum(parts.max(axis=(-2, -1)), -parts.min(axis=(-2, -1)))
    )[1]
    X = np.ldexp(parts, -exp[:, None, None]).view(complex)
    lam, Q = _factorise(
        np.linalg.eigh, "eigendecomposition", X.conj().swapaxes(-1, -2) @ X, freqs
    )
    ts = np.ldexp(t, -exp)[:, None]
    # max(1 - t/s, 0), with s = sqrt(lam) kept away from zero
    f = np.maximum(1.0 - ts / np.sqrt(np.maximum(lam, _TINY)), 0.0)
    out = S @ ((Q * f[:, None, :]) @ Q.conj().swapaxes(-1, -2))
    floor = GRAM_FLOOR * lam[:, -1:]
    fallback = np.any((lam < floor) & (lam > ts * ts - floor), axis=-1)
    if fallback.any():
        U, s, Vh = _factorise(
            lambda a: np.linalg.svd(a, full_matrices=False), "SVD",
            S[fallback], freqs[fallback],
        )
        out[fallback] = U @ (np.maximum(s - t, 0.0)[..., None] * Vh)
    return out


def _factorise(factor, name, A, freqs):
    """factor(A) of a stack; if it fails, name the first slice that fails alone."""
    try:
        return factor(A)
    except np.linalg.LinAlgError:
        for k, slice_ in zip(freqs, A):
            try:
                factor(slice_)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"{name} failed to converge on frequency slice {k}"
                ) from exc
        raise
