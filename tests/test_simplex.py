import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agfti.simplex import prox_rows

from oracles import project_simplex, prox_rows_stable_argsort, simplex_qp_oracle

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def vec(m_max=8):
    return st.lists(finite_floats, min_size=1, max_size=m_max).map(np.array)


class TestProjectSimplex:
    def test_identity_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_simplex(v), v, atol=1e-12)

    def test_constant_maps_to_uniform(self):
        for c in (-3.0, 0.0, 7.5):
            out = project_simplex(np.full(5, c))
            assert np.allclose(out, 0.2, atol=1e-12)

    def test_matches_enumeration_oracle_m4(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(4) * rng.uniform(0.1, 10)
            ref = simplex_qp_oracle(v)
            assert np.abs(project_simplex(v) - ref).max() < 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            project_simplex(np.array([1.0, np.inf]))

    @settings(max_examples=200, deadline=None)
    @given(v=vec())
    def test_output_on_simplex(self, v):
        x = project_simplex(v)
        assert x.min() >= 0.0
        assert abs(x.sum() - 1.0) < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(v=vec())
    def test_idempotent(self, v):
        x = project_simplex(v)
        assert np.abs(project_simplex(x) - x).max() < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(1, 8))
    def test_non_expansive(self, data, m):
        u = np.array(data.draw(st.lists(finite_floats, min_size=m, max_size=m)))
        v = np.array(data.draw(st.lists(finite_floats, min_size=m, max_size=m)))
        lhs = np.linalg.norm(project_simplex(u) - project_simplex(v))
        assert lhs <= np.linalg.norm(u - v) + 1e-9


class TestProxRows:
    def test_single_row_matches_vector_version(self):
        v = np.array([0.3, -1.0, 2.0])
        assert np.array_equal(prox_rows(v[None]), project_simplex(v)[None])

    def test_identical_rows_identical_outputs(self):
        row = np.array([1.0, 2.0, -0.5, 0.1])
        out = prox_rows(np.vstack([row, row]))
        assert np.array_equal(out[0], out[1])

    def test_rowwise_composition(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((5, 3)) * 4
        out = prox_rows(M)
        for i in range(5):
            assert np.abs(out[i] - project_simplex(M[i])).max() < 1e-15

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(2)
        out = prox_rows(rng.standard_normal((40, 6)) * 10)
        assert out.min() >= 0.0
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-10


def matrices(elements, max_rows=6, max_cols=12):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(
            elements, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda xs: np.array(xs, dtype=float).reshape(shape))
    )


class TestProxRowsMatchesArgsortOracle:
    """Sorting values alone gives the same bits as the stable-argsort method."""

    @settings(max_examples=200, deadline=None)
    @given(M=matrices(finite_floats))
    def test_random_rows(self, M):
        assert np.array_equal(prox_rows(M), prox_rows_stable_argsort(M))

    @settings(max_examples=200, deadline=None)
    @given(M=matrices(st.sampled_from([-1.5, -0.25, 0.0, 0.25, 1.0, 3.0])))
    def test_tied_rows(self, M):
        assert np.array_equal(prox_rows(M), prox_rows_stable_argsort(M))

    @settings(max_examples=200, deadline=None)
    @given(M=matrices(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])))
    def test_signed_zero_rows(self, M):
        out = prox_rows(M)
        ref = prox_rows_stable_argsort(M)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))

    def test_wide_rows(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((300, 256)) * 0.01
        M[::3, 100:140] = M[::3, 100:101]  # long runs of ties
        assert np.array_equal(prox_rows(M), prox_rows_stable_argsort(M))
