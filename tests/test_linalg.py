import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowmin.errors import DimensionError, NotAProjector, RankDeficient
from shallowmin.linalg import (
    as_matrix,
    diagonalizing_rotation,
    numerical_rank,
    projector_pack,
    rank_with_margin,
    sum_squares,
)


def random_full_rank(m, q, rng, smin=0.3, smax=3.0):
    """M x Q matrix with singular values well away from the rank cutoff."""
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((q, q)))
    s = rng.uniform(smin, smax, size=q)
    return u[:, :q] * s @ v.T


class TestAsMatrix:
    """as_matrix finds non-finite entries from the min and max of the array,
    with no M x N boolean temporary."""

    @pytest.mark.parametrize("layout", ["C", "F", "transposed", "strided"])
    def test_peak_memory_is_not_a_fraction_of_the_array(self, layout):
        a = np.random.default_rng(0).standard_normal((1000, 1000))
        a = {"C": a, "F": np.asfortranarray(a), "transposed": a.T, "strided": a[::2, ::3]}[layout]
        tracemalloc.start()
        try:
            out = as_matrix(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out is a
        assert peak < 64 * 1024

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_at_every_position(self, bad):
        for i in range(3):
            for j in range(4):
                a = np.arange(12.0).reshape(3, 4)
                a[i, j] = bad
                with pytest.raises(DimensionError, match="non-finite"):
                    as_matrix(a)
                with pytest.raises(DimensionError, match="non-finite"):
                    as_matrix(a.T)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_accepted(self, shape):
        assert as_matrix(np.empty(shape)).shape == shape


def test_sum_squares_dots_at_most_1e4_entries_in_order():
    """A C-contiguous array is summed as BLAS dots of 10^4 entries at most,
    in order, so that no dot is long enough for OpenBLAS to thread; up to
    10^4 entries that is one dot."""
    flat = np.random.default_rng(5).standard_normal(25_001)
    for n in (0, 1, 10_000):
        assert sum_squares(flat[:n].reshape(1, n)) == float(flat[:n] @ flat[:n])
    parts = [flat[i:i + 10_000] for i in (0, 10_000, 20_000)]
    expected = float(parts[0] @ parts[0]) + float(parts[1] @ parts[1]) + float(parts[2] @ parts[2])
    assert sum_squares(flat.reshape(1, -1)) == expected
    assert sum_squares(flat[:25_000].reshape(5, 5000)) \
        == float(sum(p @ p for p in np.split(flat[:25_000], [10_000, 20_000])))


class TestPenroseInverse:
    """The left pseudoinverse as projector_pack builds it, pack.pen."""

    @pytest.mark.parametrize("a,expected", [
        ([[2.0], [0.0]], [[0.5, 0.0]]),                      # rank-1 closed form v^T/|v|^2
        (np.eye(3), np.eye(3)),
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ])
    def test_examples(self, a, expected):
        # third case solved by hand from the normal equations (a^T a) x = a^T
        assert np.allclose(projector_pack(a).pen, expected, atol=1e-12)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            projector_pack([[1.0, 1.0], [1.0, 1.0]])

    def test_wide_matrix_raises(self):
        with pytest.raises(DimensionError):
            projector_pack([[1.0, 2.0, 3.0]])

    def test_left_inverse_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.integers(2, 9)
            q = rng.integers(1, m + 1)
            a = random_full_rank(m, q, rng)
            assert np.max(np.abs(projector_pack(a).pen @ a - np.eye(q))) < 1e-9


class TestOrthoprojector:
    """The projectors as projector_pack builds them, pack.p and pack.p_perp."""

    @pytest.mark.parametrize("a,p_expected", [
        ([[1.0], [0.0]], [[1.0, 0.0], [0.0, 0.0]]),
        (np.eye(4), np.eye(4)),
        ([[1.0], [1.0]], [[0.5, 0.5], [0.5, 0.5]]),          # vv^T/|v|^2 by hand
    ])
    def test_examples(self, a, p_expected):
        pack = projector_pack(a)
        p, p_perp = pack.p, pack.p_perp
        assert np.allclose(p, p_expected, atol=1e-12)
        assert np.allclose(p + p_perp, np.eye(np.shape(a)[0]), atol=1e-15)

    def test_projector_identities(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            q = int(rng.integers(1, m + 1))
            a = random_full_rank(m, q, rng)
            pack = projector_pack(a)
            p, p_perp = pack.p, pack.p_perp
            assert np.max(np.abs(p @ p - p)) < 1e-9
            assert np.max(np.abs(p - p.T)) < 1e-9
            assert np.max(np.abs(p @ a - a)) < 1e-9
            assert np.max(np.abs(p @ p_perp)) < 1e-9

    def test_rank_deficient_propagates(self):
        with pytest.raises(RankDeficient):
            projector_pack(np.ones((3, 2)))


class TestDiagonalizingRotation:
    def test_already_diagonal(self):
        r = diagonalizing_rotation(np.diag([1.0, 0.0]), rank=1)
        assert np.allclose(r, np.eye(2), atol=1e-12)

    def test_identity_projector(self):
        assert np.allclose(diagonalizing_rotation(np.eye(3), rank=3), np.eye(3))

    def test_half_projector(self):
        # eigendecomposition by hand: eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        r = diagonalizing_rotation(p, rank=1)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(r), [[s, s], [s, s]], atol=1e-12)
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-12)
        assert np.allclose(r @ p @ r.T, np.diag([1.0, 0.0]), atol=1e-12)

    def test_not_a_projector(self):
        with pytest.raises(NotAProjector):
            diagonalizing_rotation(np.diag([0.5, 0.5]), rank=1)
        with pytest.raises(NotAProjector):
            diagonalizing_rotation(np.array([[1.0, 0.2], [0.0, 0.0]]), rank=1)

    def test_wrong_rank_rejected(self):
        with pytest.raises(NotAProjector):
            diagonalizing_rotation(np.diag([1.0, 0.0]), rank=2)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a = random_full_rank(5, 2, rng)
        p = projector_pack(a).p
        r1 = diagonalizing_rotation(p, rank=2)
        r2 = diagonalizing_rotation(p.copy(), rank=2)
        assert np.array_equal(r1, r2)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rotation_invariants(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        q = int(rng.integers(1, m + 1))
        p = projector_pack(random_full_rank(m, q, rng)).p
        r = diagonalizing_rotation(p, rank=q)
        assert np.max(np.abs(r.T @ r - np.eye(m))) < 1e-10
        target = np.diag([1.0] * q + [0.0] * (m - q))
        assert np.max(np.abs(r @ p @ r.T - target)) < 1e-9


class TestNumericalRank:
    @pytest.mark.parametrize("a,expected", [
        (np.eye(4), 4),
        (np.zeros((3, 2)), 0),
        ([[1.0, 1.0], [1.0, 1.0]], 1),    # singular values {2, 0} by hand
    ])
    def test_examples(self, a, expected):
        assert numerical_rank(a) == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_orthogonal_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        q = int(rng.integers(2, 8))
        r = int(rng.integers(0, min(m, q) + 1))
        a = np.zeros((m, q))
        if r:
            a = (random_full_rank(m, r, rng) @ random_full_rank(q, r, rng).T)
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((q, q)))
        assert numerical_rank(a) == r
        assert numerical_rank(u @ a) == r
        assert numerical_rank(a @ v) == r

    def test_rank_marginal_flag(self):
        a = np.diag([1.0, 1.5e-10])   # just above the 1e-10 relative cutoff
        rank, marginal = rank_with_margin(a)
        assert rank == 2 and marginal
        rank, marginal = rank_with_margin(np.diag([1.0, 1e-3]))
        assert rank == 2 and not marginal


def test_projector_pack_bundle():
    rng = np.random.default_rng(3)
    a = random_full_rank(6, 3, rng)
    pack = projector_pack(a)
    assert pack.pen.shape == (3, 6)
    assert np.max(np.abs(pack.pen @ a - np.eye(3))) < 1e-10
    assert np.max(np.abs(pack.p + pack.p_perp - np.eye(6))) < 1e-15
    r = diagonalizing_rotation(pack.p, 3)
    assert np.max(np.abs(r @ pack.p @ r.T - np.diag([1.0] * 3 + [0.0] * 3))) < 1e-9
