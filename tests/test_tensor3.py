import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agfti import tensor3
from agfti.tensor3 import SHRINK_BATCH, phi, tubal_shrink

from oracles import (
    Tensor3,
    identity_tensor,
    matrix_svt,
    perslice_tnn_oracle,
    t_product,
    t_svd,
    tensor_transpose,
    tnn,
    tubal_shrink_all_slices,
    tubal_shrink_full_spectrum,
    tubal_shrink_gram_all_slices,
)


def rand_tensor(rng, n1, n2, n3, scale=1.0):
    return Tensor3(rng.standard_normal((n3, n1, n2)) * scale)


def rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


class TestTSvd:
    def test_identity_tensor(self):
        eye = identity_tensor(3, 4)
        res = t_svd(eye)
        assert np.allclose(res.u.data, eye.data, atol=1e-12)
        assert np.allclose(res.s.data, eye.data, atol=1e-12)
        assert np.allclose(res.v.data, eye.data, atol=1e-12)

    def test_n3_one_reduces_to_matrix_svd(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 3))
        res = t_svd(Tensor3(A[None]))
        s_ref = np.linalg.svd(A, compute_uv=False)
        assert np.allclose(np.diag(res.s.data[0])[:3], s_ref, atol=1e-10)
        recon = res.u.data[0] @ res.s.data[0] @ res.v.data[0].T
        assert rel_err(recon, A) < 1e-10

    def _check_invariants(self, t):
        res = t_svd(t)
        n1, n2, n3 = t.dims
        recon = t_product(t_product(res.u, res.s), tensor_transpose(res.v))
        assert rel_err(recon.data, t.data) < 1e-10
        eye1 = identity_tensor(n1, n3)
        eye2 = identity_tensor(n2, n3)
        assert rel_err(t_product(tensor_transpose(res.u), res.u).data, eye1.data) < 1e-10
        assert rel_err(t_product(tensor_transpose(res.v), res.v).data, eye2.data) < 1e-10
        sf = np.fft.fft(res.s.data, axis=0)
        r = min(n1, n2)
        for k in range(n3):
            diag = np.diagonal(sf[k]).real
            off = sf[k].copy()
            off[np.arange(r), np.arange(r)] = 0.0
            assert np.abs(off).max() < 1e-8
            assert diag.min() > -1e-10
            assert np.all(np.diff(diag) <= 1e-10)

    def test_random_3x2x4(self):
        rng = np.random.default_rng(11)
        self._check_invariants(rand_tensor(rng, 3, 2, 4))

    @settings(max_examples=25, deadline=None)
    @given(
        n1=st.integers(1, 5),
        n2=st.integers(1, 5),
        n3=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_invariants_random_shapes(self, n1, n2, n3, seed):
        rng = np.random.default_rng(seed)
        self._check_invariants(rand_tensor(rng, n1, n2, n3))


class TestTnn:
    def test_zero(self):
        assert tnn(Tensor3(np.zeros((3, 4, 2)))) == 0.0

    def test_n3_one_is_matrix_nuclear_norm(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 3))
        ref = np.linalg.svd(A, compute_uv=False).sum()
        assert abs(tnn(Tensor3(A[None])) - ref) < 1e-10

    def test_matches_perslice_oracle(self):
        rng = np.random.default_rng(13)
        t = rand_tensor(rng, 4, 3, 5)
        assert abs(tnn(t) - perslice_tnn_oracle(t.data)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_convexity_midpoint(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_tensor(rng, 3, 3, 4)
        b = rand_tensor(rng, 3, 3, 4)
        mid = Tensor3(0.5 * (a.data + b.data))
        assert tnn(mid) <= 0.5 * (tnn(a) + tnn(b)) + 1e-10


class TestTubalShrink:
    def test_tau_zero_is_identity(self):
        rng = np.random.default_rng(17)
        t = rand_tensor(rng, 3, 4, 5)
        out = tubal_shrink(t.data, 0.0)
        assert rel_err(out, t.data) < 1e-12

    def test_full_shrinkage_gives_zero(self):
        rng = np.random.default_rng(19)
        t = rand_tensor(rng, 3, 3, 4)
        spec = np.fft.fft(t.data, axis=0)
        smax = max(
            np.linalg.svd(spec[k], compute_uv=False).max() for k in range(4)
        )
        out = tubal_shrink(t.data, smax / 4 + 1e-9)
        assert np.abs(out).max() < 1e-10

    def test_n3_one_matches_matrix_svt(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((3, 3))
        tau = 0.4
        out = tubal_shrink(A[None], tau)
        assert rel_err(out[0], matrix_svt(A, tau)) < 1e-10

    def test_fourier_singular_values_soft_thresholded(self):
        rng = np.random.default_rng(29)
        t = rand_tensor(rng, 4, 3, 5)
        tau = 0.3
        out = tubal_shrink(t.data, tau)
        spec_in = np.fft.fft(t.data, axis=0)
        spec_out = np.fft.fft(out, axis=0)
        for k in range(5):
            s_in = np.linalg.svd(spec_in[k], compute_uv=False)
            s_out = np.linalg.svd(spec_out[k], compute_uv=False)
            assert np.allclose(s_out, np.maximum(s_in - 5 * tau, 0.0), atol=1e-10)

    def test_perturbation_optimality(self):
        # tubal_shrink(F, tau) minimizes (n3*tau)*tnn(G) + 1/2 ||G - F||_F^2;
        # see the docstring for why the penalty carries the n3 factor
        rng = np.random.default_rng(31)
        t = rand_tensor(rng, 3, 3, 4)
        tau = 0.15
        out = tubal_shrink(t.data, tau)

        def objective(G):
            return 4 * tau * tnn(G) + 0.5 * np.linalg.norm(G.data - t.data) ** 2

        base = objective(Tensor3(out))
        fnorm = np.linalg.norm(t.data)
        for _ in range(100):
            delta = rng.standard_normal(t.data.shape)
            delta *= 0.1 * fnorm * rng.uniform() / np.linalg.norm(delta)
            assert base <= objective(Tensor3(out + delta)) + 1e-10

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            tubal_shrink(np.zeros((2, 2, 2)), -0.1)

    @pytest.mark.parametrize("A", [np.zeros((2, 2, 2)), np.ones((4, 3, 2))])
    def test_nan_tau_rejected(self, A):
        # NaN < 0 is False, and every norm compares False against a NaN
        # floor: unchecked, the result was all zeros without a word
        with pytest.raises(ValueError, match="tau must be nonnegative, got nan"):
            tubal_shrink(A, float("nan"))

    @pytest.mark.parametrize("shape, tau", [((40, 16, 4), 0.3), ((33, 5, 9), 0.05),
                                            ((1, 6, 3), 0.2)])
    def test_float32_input_is_the_float64_shrink_of_its_values(self, shape, tau):
        # a float32 array is shrunk in float32 storage: its spectrum is
        # stored in complex64 and its result in float32, the arithmetic
        # between them in float64, so it agrees with the float64 shrinkage
        # of the same values to float32 rounding
        A = np.random.default_rng(7).standard_normal(shape).astype(np.float32)
        out = tubal_shrink(A, tau)
        ref = tubal_shrink(A.astype(np.float64), tau)
        assert out.dtype == np.float32
        assert np.abs(ref).max() > 0
        assert np.abs(out - ref).max() <= 1e-6 * np.abs(A).max()
        # written over a float32 input, as the solver shrinks its stack
        assert tubal_shrink(A, tau, out=A) is A
        assert np.array_equal(A, out)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("tau", [0.01, 100.0])
    def test_rejects_nonfinite_entry(self, bad, tau):
        # one bad entry among 1200: unchecked, a NaN spreads over the whole
        # spectrum, no slice norm exceeds the floor and the result is zeros
        A = np.random.default_rng(61).standard_normal((10, 12, 10))
        A[4, 7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            tubal_shrink(A, tau)

    def test_accepts_finite_entries_whose_norms_overflow(self):
        # the squared norms overflow to inf although every entry is finite
        rng = np.random.default_rng(67)
        t = rand_tensor(rng, 3, 4, 5, scale=1e200)
        out = tubal_shrink(t.data, 0.0)
        assert rel_err(out / 1e200, t.data / 1e200) < 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e-310])
    @pytest.mark.parametrize("frac", [0.0, 0.3])
    def test_entries_whose_squares_underflow(self, scale, frac):
        # every squared entry underflows, so the unscaled norm sum is zero
        # and the skip would return zeros; at tau 0 the input comes back
        A = np.random.default_rng(0).standard_normal((5, 4, 3)) * scale
        tau = frac * scale
        out = tubal_shrink(A, tau)
        ref = tubal_shrink_all_slices(Tensor3(A), tau).data
        # max-norms: a Frobenius norm of these entries underflows too
        assert np.abs(ref).max() > 0.5 * scale
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        if frac == 0.0:
            assert np.abs(out - A).max() <= 1e-12 * np.abs(A).max()

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError, match="3-d"):
            tubal_shrink(np.zeros((2, 2)), 0.1)

    @pytest.mark.parametrize("n3", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    @pytest.mark.parametrize("level", ["zero", "middle", "above_max"])
    def test_matches_full_spectrum_reference(self, n3, rank_deficient, level):
        # odd and even n3 put the Nyquist frequency in or out of the half
        # spectrum; rank-1 frequency slices have zero singular values whose
        # singular vectors are arbitrary
        rng = np.random.default_rng(41 + n3)
        n1, n2 = 5, 4
        if rank_deficient:
            t = t_product(rand_tensor(rng, n1, 1, n3), rand_tensor(rng, 1, n2, n3))
        else:
            t = rand_tensor(rng, n1, n2, n3)
        s = np.linalg.svd(np.fft.fft(t.data, axis=0), compute_uv=False)
        tau = {
            "zero": 0.0,
            "middle": 0.5 * float(s.max()) / n3,
            "above_max": 1.01 * float(s.max()) / n3,
        }[level]
        out = tubal_shrink(t.data, tau)
        ref = tubal_shrink_full_spectrum(t, tau)
        assert out.shape == t.data.shape
        assert np.linalg.norm(out - ref.data) <= 1e-12 * np.linalg.norm(ref.data)

    @settings(max_examples=60, deadline=None)
    @given(
        n1=st.integers(1, 6),
        n2=st.integers(1, 6),
        n3=st.integers(1, 9),
        frac=st.floats(0.0, 1.2),
        seed=st.integers(0, 2**31),
    )
    def test_matches_full_spectrum_reference_any_shape(self, n1, n2, n3, frac, seed):
        # tall and wide slices; frac scales tau against the largest
        # Fourier-domain singular value. A singular value can sit on the
        # threshold, where the two SVDs round to different tiny survivors,
        # so the tolerance is relative to the input rather than the output
        t = rand_tensor(np.random.default_rng(seed), n1, n2, n3)
        smax = np.linalg.svd(np.fft.fft(t.data, axis=0), compute_uv=False).max()
        tau = frac * float(smax) / n3
        out = tubal_shrink(t.data, tau)
        ref = tubal_shrink_full_spectrum(t, tau)
        assert out.shape == t.data.shape
        assert np.linalg.norm(out - ref.data) <= 1e-12 * np.linalg.norm(t.data)

    def test_names_the_slice_whose_svd_fails(self, monkeypatch):
        # the slices' Gram eigendecomposition is what factorises them
        t = rand_tensor(np.random.default_rng(43), 3, 2, 6)
        eigh = np.linalg.eigh
        slice_calls = []

        def failing_eigh(a, *args, **kwargs):
            # the batched call fails, then per-slice retries fail from slice 2
            if a.ndim == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            slice_calls.append(a)
            if len(slice_calls) > 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(
            np.linalg.LinAlgError,
            match="eigendecomposition failed to converge on frequency slice 2",
        ):
            tubal_shrink(t.data, 0.1)


def rank1_spectrum_tensor(rng, n1, n2, n3, norms):
    """Real tensor whose frequency slice k is rank one with norm norms[k].

    Slices 0 and (for even n3) n3/2 are real, as in any real tensor's
    spectrum; a rank-one slice's only singular value is its norm.
    """
    half = n3 // 2 + 1
    spec = np.empty((half, n1, n2), dtype=complex)
    for k in range(half):
        real = k == 0 or 2 * k == n3
        u = rng.standard_normal(n1) + (0 if real else 1j) * rng.standard_normal(n1)
        v = rng.standard_normal(n2) + (0 if real else 1j) * rng.standard_normal(n2)
        spec[k] = norms[k] * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    return Tensor3(np.fft.irfft(spec, n=n3, axis=0))


def slice_counter(monkeypatch, name="eigh"):
    """Record how many matrices every np.linalg.<name> call factorizes."""
    factor = getattr(np.linalg, name)
    counts = []

    def counting(a, *args, **kwargs):
        counts.append(1 if a.ndim == 2 else a.shape[0])
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return counts


def assert_near_svd_route(out, t, tau):
    """out agrees with the SVD route of every slice at the rounding level."""
    ref = tubal_shrink_all_slices(t, tau)
    assert np.linalg.norm(out - ref.data) <= 1e-12 * np.linalg.norm(t.data)


class TestShrinkSkip:
    """The skipped work is provably zero: outputs equal the all-slice body.

    The all-slice body runs the package's Gram kernel on every slice, so the
    slice counts are eigendecompositions; the SVD route checks the kernel.
    """

    @pytest.mark.parametrize("n3", [8, 9])
    def test_mixed_dead_and_live_slices(self, monkeypatch, n3):
        # dead slices between live ones; the live slice of norm 0.5 sits
        # between t = 0.4 and sqrt(t), so comparing squared norms against
        # the unsquared threshold would drop it
        norms = [3.0, 0.05, 0.5, 0.1, 2.0]
        t = rank1_spectrum_tensor(np.random.default_rng(n3), 4, 3, n3, norms)
        tau = 0.4 / n3
        ref = tubal_shrink_gram_all_slices(t, tau)
        counts = slice_counter(monkeypatch)
        out = tubal_shrink(t.data, tau)
        assert np.array_equal(out, ref.data)
        assert_near_svd_route(out, t, tau)
        assert sum(counts) == 3
        # the surviving part of each live slice is its norm less t
        s_out = np.linalg.svd(np.fft.rfft(out, axis=0), compute_uv=False)
        assert np.allclose(s_out[:, 0], [2.6, 0.0, 0.1, 0.0, 1.6], atol=1e-12)

    @pytest.mark.parametrize("rel", [-1e-6, -1e-12, 1e-12, 1e-6])
    def test_singular_value_at_the_threshold(self, monkeypatch, rel):
        # one rank-1 frequency slice whose singular value is t * (1 + rel);
        # within the margin the slice still gets an SVD, below it none does
        n3 = 6
        norms = [0.0] * (n3 // 2 + 1)
        norms[2] = 1.3
        t = rank1_spectrum_tensor(np.random.default_rng(5), 5, 3, n3, norms)
        tau = 1.3 / (1.0 + rel) / n3
        ref = tubal_shrink_gram_all_slices(t, tau)
        counts = slice_counter(monkeypatch)
        out = tubal_shrink(t.data, tau)
        assert np.array_equal(out, ref.data)
        assert_near_svd_route(out, t, tau)
        assert (np.abs(out).max() > 0) == (rel > 0)
        assert sum(counts) == (0 if rel == -1e-6 else 1)

    def test_dominant_threshold_needs_no_transform(self, monkeypatch):
        t = rand_tensor(np.random.default_rng(47), 4, 3, 7)
        bound = sum(np.linalg.norm(t.data[i]) for i in range(7))

        def no_rfft(*args, **kwargs):
            raise AssertionError("rfft called although the threshold dominates")

        monkeypatch.setattr(np.fft, "rfft", no_rfft)
        out = tubal_shrink(t.data, 1.01 * bound / 7)
        assert out.shape == t.data.shape
        assert not out.any()

    def test_all_dead_slices_need_no_svd(self, monkeypatch):
        # the threshold lies between the largest slice norm and the norm
        # bound: the transform runs, but no slice needs an SVD
        t = rand_tensor(np.random.default_rng(53), 4, 3, 8)
        norms = np.linalg.norm(np.fft.rfft(t.data, axis=0), axis=(1, 2))
        bound = sum(np.linalg.norm(t.data[i]) for i in range(8))
        assert norms.max() < bound
        tau = 0.5 * (norms.max() + bound) / 8
        ref = tubal_shrink_gram_all_slices(t, tau)
        counts = slice_counter(monkeypatch)
        out = tubal_shrink(t.data, tau)
        assert np.array_equal(out, ref.data)
        assert_near_svd_route(out, t, tau)
        assert not out.any()
        assert counts == []

    def test_failure_names_the_original_slice_after_skips(self, monkeypatch):
        # frequencies 0 and 1 are skipped; the second per-slice retry fails,
        # and that is frequency 3, not the live subset's index 1
        norms = [0.01, 0.01, 2.0, 3.0, 0.01]
        t = rank1_spectrum_tensor(np.random.default_rng(59), 3, 2, 8, norms)
        eigh = np.linalg.eigh
        slice_calls = []

        def failing_eigh(a, *args, **kwargs):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            slice_calls.append(a)
            if len(slice_calls) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(np.linalg.LinAlgError, match="frequency slice 3"):
            tubal_shrink(t.data, 0.5 / 8)


class TestPhiLayout:
    def test_layout_and_round_trip(self):
        rng = np.random.default_rng(37)
        n, m, V = 6, 4, 3
        mats = [rng.standard_normal((n, m)) for _ in range(V)]
        t = phi(mats)
        assert t.shape == (n, m, V)
        # frontal slice i is the m x V matrix whose column v is row i of Zv
        for i in (0, 3, 5):
            for v in range(V):
                assert np.array_equal(t[i][:, v], mats[v][i])
        # the (n, m) view the solver reads back is the input matrix
        for v in range(V):
            assert np.array_equal(t[:, :, v], mats[v])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            phi([np.zeros((3, 2)), np.zeros((4, 2))])


class TestTensor3Type:
    """The oracles' tensor type; tubal_shrink checks its own input above."""

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Tensor3(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Tensor3(np.zeros((2, 2)))

    def test_dims(self):
        t = Tensor3(np.zeros((5, 3, 2)))
        assert t.dims == (3, 2, 5)


class TestShrinkBatches:
    """Live slices are factorised in batches; the output is the all-slice body's."""

    @pytest.mark.parametrize("n3", [300, 301])
    def test_more_live_slices_than_one_batch(self, monkeypatch, n3):
        # 151 half-spectrum slices, all live: three batched SVDs
        t = rand_tensor(np.random.default_rng(n3), 4, 3, n3)
        s = np.linalg.svd(np.fft.rfft(t.data, axis=0), compute_uv=False)
        tau = 0.5 * float(s[:, 0].min()) / n3
        ref = tubal_shrink_gram_all_slices(t, tau)
        counts = slice_counter(monkeypatch)
        out = tubal_shrink(t.data, tau)
        assert np.array_equal(out, ref.data)
        assert_near_svd_route(out, t, tau)
        assert counts == [SHRINK_BATCH, SHRINK_BATCH, 151 - 2 * SHRINK_BATCH]

    @pytest.mark.parametrize("n3", [300, 301])
    def test_dead_slices_across_the_batch_edges(self, monkeypatch, n3):
        # every odd frequency is dead, so a dead slice lies on each side of
        # the last live frequency of a batch and of the next batch's first
        # (126 and 128 with batches of 64)
        norms = np.where(np.arange(151) % 2 == 1, 0.01, 2.0)
        t = rank1_spectrum_tensor(np.random.default_rng(n3), 4, 3, n3, norms)
        tau = 0.5 / n3
        ref = tubal_shrink_gram_all_slices(t, tau)
        counts = slice_counter(monkeypatch)
        out = tubal_shrink(t.data, tau)
        assert np.array_equal(out, ref.data)
        assert_near_svd_route(out, t, tau)
        assert counts == [SHRINK_BATCH, 76 - SHRINK_BATCH]

    def test_failure_in_a_later_batch_names_the_original_slice(self, monkeypatch):
        # live frequencies 0 2 | 3 5 | 7 in batches of two; the second batch
        # fails and its per-slice retries fail at frequency 5
        norms = [2.0, 0.01, 3.0, 1.5, 0.01, 2.5, 0.01, 1.0, 0.01]
        t = rank1_spectrum_tensor(np.random.default_rng(61), 3, 2, 16, norms)
        monkeypatch.setattr(tensor3, "SHRINK_BATCH", 2)
        eigh = np.linalg.eigh
        batch_calls = []
        slice_calls = []

        def failing_eigh(a, *args, **kwargs):
            if a.ndim == 3:
                batch_calls.append(a)
                if len(batch_calls) == 2:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
            else:
                slice_calls.append(a)
                if len(slice_calls) > 1:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(np.linalg.LinAlgError, match="frequency slice 5"):
            tubal_shrink(t.data, 0.5 / 16)
        assert len(batch_calls) == 2


def spectrum_tensor(rng, n1, n2, n3, svals):
    """Real tensor whose frequency slice k has the singular values svals[k].

    Each slice has random orthonormal singular vectors, real for slices 0
    and (for even n3) n3/2, as in any real tensor's spectrum.
    """
    half = n3 // 2 + 1
    r = min(n1, n2)
    spec = np.empty((half, n1, n2), dtype=complex)
    for k in range(half):
        imag = 0 if k == 0 or 2 * k == n3 else 1j

        def orthonormal(n):
            a = rng.standard_normal((n, r)) + imag * rng.standard_normal((n, r))
            return np.linalg.qr(a)[0]

        s = np.asarray(svals[k], dtype=float)
        spec[k] = orthonormal(n1) @ (s[:, None] * orthonormal(n2).conj().T)
    return Tensor3(np.fft.irfft(spec, n=n3, axis=0))


def shrink_without_fallback(monkeypatch, A, tau):
    """tubal_shrink with the SVD fallback switched off: the plain Gram route."""
    with monkeypatch.context() as patch:
        patch.setattr(tensor3, "GRAM_FLOOR", 0.0)
        return tubal_shrink(A, tau)


class TestGramRoute:
    """The Gram eigendecomposition agrees with the SVD route, or hands over to it."""

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("frac", [1e-4, 0.05, 0.5])
    def test_solver_shaped_slices(self, monkeypatch, wide, frac):
        # the solver's layout: a (V, n, m) stack of anchor graphs, rows on
        # the simplex over 64 anchors, shrunk as its (n, m, V) view; the
        # wide case is the (n, V, m) view
        rng = np.random.default_rng(71)
        Z = rng.random((6, 101, 64)) ** 4
        Z /= Z.sum(axis=2, keepdims=True)
        A = Z.transpose(1, 0, 2) if wide else Z.transpose(1, 2, 0)
        t = Tensor3(np.ascontiguousarray(A))
        s = np.linalg.svd(np.fft.rfft(A, axis=0), compute_uv=False)
        tau = frac * float(s.max()) / 101
        live = int((np.linalg.norm(s, axis=1) > 101 * tau).sum())
        eighs = slice_counter(monkeypatch)
        svds = slice_counter(monkeypatch, "svd")
        out = tubal_shrink(A, tau)
        assert sum(eighs) == live > 0
        assert svds == []
        ref = tubal_shrink_full_spectrum(t, tau).data
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(A).max()

    def test_singular_value_just_above_a_small_threshold(self, monkeypatch):
        # s_max / t = 1e7: the last singular value, 0.1% above t, has a Gram
        # eigenvalue 1e-14 of the largest, which the Gram matrix's rounding
        # swamps; the SVD fallback keeps its 0.001
        n3, half = 8, 5
        svals = [[1e7, 3e6, 1e6, 2e5, 5e4, 1.001]] * half
        t = spectrum_tensor(np.random.default_rng(73), 64, 6, n3, svals)
        tau = 1.0 / n3
        ref = tubal_shrink_full_spectrum(t, tau).data
        scale = np.abs(t.data).max()
        plain = shrink_without_fallback(monkeypatch, t.data, tau)
        assert np.abs(plain - ref).max() > 1e-12 * scale
        svds = slice_counter(monkeypatch, "svd")
        out = tubal_shrink(t.data, tau)
        assert sum(svds) == half
        assert np.abs(out - ref).max() <= 1e-12 * scale

    def test_rank_deficient_slices_take_the_svd_fallback(self, monkeypatch):
        # rank 3 of 6, the third singular value 1e-8 of the largest and
        # twice t: its Gram eigenvalue sits in the rounding of the three
        # zero ones, so only the SVD fallback keeps its 5e-9
        n3, half = 9, 5
        svals = [[3.0, 1.0, 1e-8, 0.0, 0.0, 0.0]] * half
        t = spectrum_tensor(np.random.default_rng(79), 64, 6, n3, svals)
        tau = 5e-9 / n3
        ref = tubal_shrink_full_spectrum(t, tau).data
        scale = np.abs(t.data).max()
        plain = shrink_without_fallback(monkeypatch, t.data, tau)
        assert np.abs(plain - ref).max() > 1e-12 * scale
        svds = slice_counter(monkeypatch, "svd")
        out = tubal_shrink(t.data, tau)
        assert sum(svds) == half
        assert np.abs(out - ref).max() <= 1e-12 * scale

    def test_names_the_slice_whose_fallback_svd_fails(self, monkeypatch):
        # every slice takes the fallback; the batched SVD fails, then the
        # per-slice retries fail from the second live frequency on
        svals = [[3.0, 1.0, 1e-8, 0.0, 0.0, 0.0]] * 5
        t = spectrum_tensor(np.random.default_rng(83), 64, 6, 9, svals)
        svd = np.linalg.svd
        slice_calls = []

        def failing_svd(a, *args, **kwargs):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            slice_calls.append(a)
            if len(slice_calls) > 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(
            np.linalg.LinAlgError, match="SVD failed to converge on frequency slice 1"
        ):
            tubal_shrink(t.data, 5e-9 / 9)


def in_place_case(path):
    """(A, tau) whose shrinkage takes the named path of tubal_shrink."""
    rng = np.random.default_rng(89)
    if path == "norm-sum skip":
        A = rng.standard_normal((7, 4, 3))
        return A, 1.01 * sum(np.linalg.norm(a) for a in A) / 7
    if path == "no live slice":
        # between the largest slice norm and the norm bound
        A = rng.standard_normal((8, 4, 3))
        norms = np.linalg.norm(np.fft.rfft(A, axis=0), axis=(1, 2))
        return A, 0.5 * (norms.max() + sum(np.linalg.norm(a) for a in A)) / 8
    if path == "small norms":
        return rng.standard_normal((5, 4, 3)) * 1e-300, 0.3e-300
    if path == "svd fallback":
        svals = [[3.0, 1.0, 1e-8, 0.0, 0.0, 0.0]] * 5
        return spectrum_tensor(rng, 64, 6, 9, svals).data, 5e-9 / 9
    if path == "wide":
        return rng.standard_normal((9, 2, 5)), 0.1
    if path == "n3 one":
        return rng.standard_normal((1, 6, 3)), 0.3
    if path == "n3 two":
        # frequency 0 and the Nyquist frequency 1, both without a stored
        # imaginary part
        return rng.standard_normal((2, 6, 3)), 0.3
    if path == "dc and nyquist":
        # A[i] = B + (-1)^i C: only frequencies 0 and 4 of 0 .. 4 are live
        B, C = rng.standard_normal((2, 6, 3))
        return B + np.array([1, -1] * 4)[:, None, None] * C, 0.1
    # all live: the (n, m, V) view of a (V, n, m) stack, as the solver
    # shrinks it, at a threshold below every slice's smallest singular value
    n3 = {"all live even": 10, "float32": 10}.get(path, 9)
    A = rng.standard_normal((3, n3, 5)).transpose(1, 2, 0)
    return (A.astype(np.float32) if path == "float32" else A), 1e-6


IN_PLACE_PATHS = ["norm-sum skip", "no live slice", "small norms", "svd fallback",
                  "wide", "n3 one", "n3 two", "dc and nyquist", "all live",
                  "all live even", "float32"]


class TestShrinkInPlace:
    """out=A writes the shrinkage over A, bit for bit the new array's values.

    The shrinkage stores A's packed half spectrum in its output. The cases
    cover odd and even n3, n3 of 1 and 2 (spectra of real rows only), live
    slices at frequency 0 and at the Nyquist frequency, float32 and float64
    inputs, and the SVD fallback.
    """

    @pytest.mark.parametrize("path", IN_PLACE_PATHS)
    def test_writes_over_its_input(self, monkeypatch, path):
        A, tau = in_place_case(path)
        ref = tubal_shrink(A.copy(), tau)
        rfft = np.fft.rfft
        transforms = []
        monkeypatch.setattr(
            np.fft, "rfft", lambda *a, **k: transforms.append(1) or rfft(*a, **k)
        )
        eighs = slice_counter(monkeypatch)
        svds = slice_counter(monkeypatch, "svd")
        out = tubal_shrink(A, tau, out=A)
        assert out is A
        assert np.array_equal(A, ref)
        # the case takes the path it names; the transform is one rfft per
        # column of axis 2
        taken = {
            "norm-sum skip": transforms == [] and not ref.any(),
            "no live slice": (transforms == [1] * A.shape[2] and eighs == []
                              and not ref.any()),
            "small norms": np.abs(ref).max() < 1e-299 and sum(eighs) > 0,
            "svd fallback": sum(svds) == 5,
            "wide": A.shape[1] < A.shape[2] and sum(eighs) == 5,
            "n3 one": A.shape[0] == 1 and sum(eighs) == 1 and ref.any(),
            "n3 two": A.shape[0] == 2 and sum(eighs) == 2,
            "dc and nyquist": A.shape[0] == 8 and sum(eighs) == 2 and ref.any(),
            "all live": A.shape[0] % 2 == 1 and sum(eighs) == 5 and svds == [],
            "all live even": A.shape[0] % 2 == 0 and sum(eighs) == 6,
            "float32": A.dtype == np.float32 and sum(eighs) == 6,
        }
        assert taken[path]

    @pytest.mark.parametrize("path", IN_PLACE_PATHS)
    def test_writes_into_another_array(self, path):
        A, tau = in_place_case(path)
        before = A.copy()
        out = np.full(A.shape, np.nan, dtype=A.dtype)
        assert tubal_shrink(A, tau, out=out) is out
        assert np.array_equal(out, tubal_shrink(A, tau))
        assert np.array_equal(A, before)

    @pytest.mark.parametrize("path", IN_PLACE_PATHS)
    def test_agrees_with_the_svd_route(self, path):
        # every slice transformed and factorised by SVD in float64; a float32
        # input agrees to float32 rounding
        A, tau = in_place_case(path)
        ref = tubal_shrink_all_slices(Tensor3(A), tau).data
        out = tubal_shrink(A, tau, out=A)
        eps = 1e-6 if A.dtype == np.float32 else 1e-12
        assert np.abs(out - ref).max() <= eps * np.abs(ref).max(initial=1e-300)

    def test_rejects_out_of_another_shape(self):
        A = np.ones((4, 3, 2))
        with pytest.raises(ValueError, match="shape"):
            tubal_shrink(A, 0.1, out=np.empty((4, 2, 3)))

    def test_rejects_out_of_another_dtype(self):
        A = np.ones((4, 3, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="dtype float32, got float64"):
            tubal_shrink(A, 0.1, out=np.empty(A.shape))
