"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion.errors import NonFiniteInput, NotHermitian, NotPositiveDefinite
from gfusion.linalg import (
    Subspace,
    adjoint,
    gram_eigen_extremes,
    hermitian_eigen_extremes,
    hermitian_eigenvalues,
    hpd_inverse,
    operator_norm,
    orthonormalize,
)


class TestOrthonormalize:
    def test_collinear_columns_give_a_line(self):
        w = orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert w.dim == 1
        np.testing.assert_allclose(w.projector(), [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_already_orthonormal_spans_everything(self):
        w = orthonormalize(np.eye(2))
        assert w.dim == 2
        np.testing.assert_allclose(w.projector(), np.eye(2), atol=1e-14)

    def test_random_full_rank_gram_is_identity(self):
        rng = np.random.default_rng(0)
        w = orthonormalize(rng.standard_normal((6, 3)))
        assert w.dim == 3
        np.testing.assert_allclose(adjoint(w.basis) @ w.basis, np.eye(3), atol=1e-12)

    def test_zero_matrix_gives_zero_dim(self):
        assert orthonormalize(np.zeros((4, 2))).dim == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            orthonormalize(np.array([[np.nan], [1.0]]))

    def test_complex_span(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        w = orthonormalize(a)
        assert w.dim == 2
        np.testing.assert_allclose(adjoint(w.basis) @ w.basis, np.eye(2), atol=1e-12)


class TestProjector:
    def test_coordinate_line(self):
        w = Subspace(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(w.projector(), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_zero_dimensional_subspace(self):
        w = Subspace(np.zeros((3, 0)))
        np.testing.assert_array_equal(w.projector(), np.zeros((3, 3)))

    def test_diagonal_line(self):
        # qq^T for q = (1,1)/sqrt(2), computed by hand.
        w = Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
        np.testing.assert_allclose(w.projector(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 10), d=st.integers(0, 6), seed=st.integers(0, 10_000))
    def test_hermitian_idempotent(self, n, d, seed):
        rng = np.random.default_rng(seed)
        w = orthonormalize(rng.standard_normal((n, min(d, n))))
        p = w.projector()
        assert operator_norm(p @ p - p) <= 1e-10
        assert operator_norm(p - adjoint(p)) <= 1e-10

    def test_transport_under_invertible_map(self):
        # proj(uV) @ u @ proj(V) == u @ proj(V) for invertible u.
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            v = orthonormalize(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
            u = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            moved = orthonormalize(u @ v.basis)
            lhs = moved.projector() @ u @ v.projector()
            rhs = u @ v.projector()
            assert operator_norm(lhs - rhs) <= 1e-9

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestEigenExtremes:
    def test_identity_is_exact_up_to_32(self):
        for n in range(1, 33):
            ext = hermitian_eigen_extremes(np.eye(n))
            assert ext.min_eig == 1.0 and ext.max_eig == 1.0

    def test_diagonal(self):
        ext = hermitian_eigen_extremes(np.diag([4.0, 1.0]))
        assert (ext.min_eig, ext.max_eig) == (1.0, 4.0)

    def test_rayleigh_quotient_sampling_oracle(self):
        # Every sampled Rayleigh quotient must sit inside the reported
        # extremes, up to 1e-6 relative slack.
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        ext = hermitian_eigen_extremes(a)
        x = rng.standard_normal((8, 10_000))
        x /= np.linalg.norm(x, axis=0)
        rq = np.einsum("is,is->s", x, a @ x)
        slack = 1e-6 * max(abs(ext.min_eig), abs(ext.max_eig))
        assert rq.min() >= ext.min_eig - slack
        assert rq.max() <= ext.max_eig + slack

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen_extremes(np.zeros((2, 3)))

    def test_complex_hermitian(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        ext = hermitian_eigen_extremes(a)
        np.testing.assert_allclose([ext.min_eig, ext.max_eig], [1.0, 3.0], atol=1e-12)


class TestGramEigenExtremes:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 8), count=st.integers(1, 12), seed=st.integers(0, 10_000), complex_=st.booleans())
    def test_matches_explicit_gram(self, n, count, seed, complex_):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, count))
        if complex_:
            x = x + 1j * rng.standard_normal((n, count))
        w = np.linalg.eigvalsh(adjoint(x) @ x)
        ext = gram_eigen_extremes(hermitian_eigenvalues(x @ adjoint(x)), count)
        scale = 1e-10 * max(1.0, w[-1])
        assert abs(ext.max_eig - w[-1]) <= scale
        assert abs(ext.min_eig - w[0]) <= scale
        if count > n:
            assert ext.min_eig == 0.0


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 4))) == 0.0

    def test_empty(self):
        assert operator_norm(np.zeros((3, 0))) == 0.0

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -5.0])) == 5.0

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7))
        oracle = np.sqrt(np.linalg.eigvalsh(x.T @ x).max())
        assert abs(operator_norm(x) - oracle) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((6, 3))
        assert operator_norm(x @ y) <= operator_norm(x) * operator_norm(y) + 1e-12


class TestHpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(hpd_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(hpd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14)

    def test_random_residual(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        s = m.T @ m + np.eye(6)
        inv = hpd_inverse(s)
        assert operator_norm(s @ inv - np.eye(6)) <= 1e-10
        assert operator_norm(inv - adjoint(inv)) == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            hpd_inverse(np.diag([1.0, -1.0]))

    def test_rejects_singular_at_tolerance(self):
        with pytest.raises(NotPositiveDefinite):
            hpd_inverse(np.diag([1.0, 1e-13]), tol_pd=1e-12)
