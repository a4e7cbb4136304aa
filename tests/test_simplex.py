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


EPS = np.finfo(float).eps


def full_support(M):
    """Rows that prox_rows projects by the shift: min(t) > (sum(t) - 1)/m."""
    return M.min(axis=1) > (M.sum(axis=1) - 1.0) / M.shape[1]


def assert_matches_oracle(M):
    """The projection contract against the stable-argsort method.

    Rows on the sort path are its bits, signed zeros included. A full-support
    row sums pairwise where the oracle sums sequentially over the sorted
    values, so it may differ by the two orders' error bound, m*eps*sum|t|.
    """
    out = prox_rows(M)
    ref = prox_rows_stable_argsort(M)
    full = full_support(M)
    assert np.array_equal(out[~full], ref[~full])
    assert np.array_equal(np.signbit(out[~full]), np.signbit(ref[~full]))
    bound = M.shape[1] * EPS * np.abs(M).sum(axis=1, keepdims=True)
    assert np.all(np.abs(out - ref)[full] <= np.broadcast_to(bound, M.shape)[full])
    return out


def assert_kkt(M, x):
    """x >= 0, rows sum to 1, and t - x is one threshold on the support and no
    larger off it, within the rounding of the row's magnitude."""
    m = M.shape[1]
    tol = m * EPS * (np.abs(M).sum(axis=1) + 1.0)
    assert x.min() >= 0.0
    assert np.all(np.abs(x.sum(axis=1) - 1.0) <= m * EPS)
    for t, xi, tol_i in zip(M, x, tol):
        on = xi > 0
        gap = t - xi
        theta = gap[on].mean()
        assert np.abs(gap[on] - theta).max() <= tol_i
        assert np.all(gap[~on] <= theta + tol_i)


@st.composite
def split_rows(draw, partial=(0, 0)):
    """Rows c + e, shifted by an offset c drawn per row, of width up to 512.

    A full-support row has e ~ U(0, w) with w < 0.9/m, so its minimum stays
    above (sum - 1)/m. A partial row plants one entry 2 below the others
    (m >= 2), so its minimum falls at or below that threshold. partial bounds
    the number of partial rows; the rest are full-support.
    """
    n_partial = draw(st.integers(*partial))
    n_full = draw(st.integers(1, 6))
    m = draw(st.integers(2 if n_partial else 1, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = n_full + n_partial
    c = rng.uniform(-50.0, 50.0, size=(r, 1))
    w = np.empty((r, 1))
    w[:n_full] = rng.uniform(0.0, 0.9, size=(n_full, 1)) / m
    w[n_full:] = 10.0 ** rng.uniform(-3.0, 1.0, size=(n_partial, 1))
    e = rng.uniform(size=(r, m)) * w
    e[np.arange(n_full, r), rng.integers(0, m, size=n_partial)] = -2.0
    M = c + e
    return M[rng.permutation(r)]


class TestProxRowsMatchesArgsortOracle:
    """Sort-path rows are the stable-argsort method's bits; full-support rows
    are within the rounding of the two summation orders."""

    @settings(max_examples=200, deadline=None)
    @given(M=matrices(finite_floats))
    def test_random_rows(self, M):
        assert_matches_oracle(M)

    @settings(max_examples=200, deadline=None)
    @given(M=matrices(st.sampled_from([-1.5, -0.25, 0.0, 0.25, 1.0, 3.0])))
    def test_tied_rows(self, M):
        assert_matches_oracle(M)

    @settings(max_examples=200, deadline=None)
    @given(M=matrices(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])))
    def test_signed_zero_rows(self, M):
        assert_matches_oracle(M)

    def test_wide_rows(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((300, 256)) * 0.01
        M[::3, 100:140] = M[::3, 100:101]  # long runs of ties
        assert_matches_oracle(M)

    @settings(max_examples=100, deadline=None)
    @given(M=split_rows())
    def test_wide_full_support_rows(self, M):
        assert full_support(M).all()
        assert_kkt(M, assert_matches_oracle(M))

    @settings(max_examples=100, deadline=None)
    @given(M=split_rows(partial=(1, 6)))
    def test_mixed_rows(self, M):
        full = full_support(M)
        assert full.any() and not full.all()
        x = assert_matches_oracle(M)
        assert_kkt(M, x)
        assert np.all((x > 0).all(axis=1) == full)

    def test_rows_at_the_threshold(self):
        # the last entry sits delta below (sum - 1)/m: a partial row whose
        # shift would leave that entry negative; delta < 0 gives full rows
        rng = np.random.default_rng(7)
        m = 128
        deltas = np.array([1e-3, 1e-6, 1e-9, 1e-12, 0.0, -1e-9, -1e-6])
        M = 1.0 / m + rng.uniform(0.0, 1e-3, size=(deltas.size, m))
        rest = M[:, :-1].sum(axis=1)
        M[:, -1] = (rest - 1.0 - m * deltas) / (m - 1)
        assert not full_support(M)[:4].any()
        assert_kkt(M, assert_matches_oracle(M))

    def test_flat_rows_near_uniform(self):
        # 1/256 + U(0, 1e-3): the rows fusion projects at 256 anchors
        rng = np.random.default_rng(4)
        M = 1.0 / 256 + rng.uniform(0.0, 1e-3, size=(2000, 256))
        assert full_support(M).all()
        assert_kkt(M, assert_matches_oracle(M))


class TestProxRowsSortsOnlyPartialRows:
    """Full-support rows never reach the sort; partial rows reach it once."""

    @pytest.fixture
    def sorted_arrays(self, monkeypatch):
        seen = []
        real_sort = np.sort

        def recording_sort(a, *args, **kwargs):
            seen.append(np.array(a, copy=True))
            return real_sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", recording_sort)
        return seen

    def test_full_support_rows_sort_nothing(self, sorted_arrays):
        rng = np.random.default_rng(5)
        M = 1.0 / 256 + rng.uniform(0.0, 1e-3, size=(50, 256))
        prox_rows(M)
        assert sorted_arrays == []

    def test_mixed_rows_sort_exactly_the_partial_ones(self, sorted_arrays):
        rng = np.random.default_rng(6)
        M = 1.0 / 64 + rng.uniform(0.0, 1e-3, size=(40, 64))
        partial = np.array([3, 17, 18, 39])
        M[partial, 5] = -1.0
        prox_rows(M)
        assert len(sorted_arrays) == 1
        assert np.array_equal(sorted_arrays[0], M[partial])


class TestProxRowsRefusesUnprojectableRows:
    """Finite rows float64 cannot threshold raise instead of returning NaN."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "M, row",
        [
            ([[1e308, 1e308, 0.0]], 0),  # the row sum overflows
            ([[1e17, 1e17]], 0),  # the shifted values round to zero
            ([[0.2, 0.5, 0.3], [1e308, 1e308, 0.0]], 1),
            ([[0.2, 0.8], [1e17, 1e17], [1e17, 1e17]], 1),
            ([[0.2, 0.5, 0.3], [-1e308, -1e308, 0.0]], 1),  # overflows downward
        ],
    )
    def test_names_the_first_such_row(self, M, row):
        with pytest.raises(ValueError, match=f"row {row} is finite"):
            prox_rows(M)
