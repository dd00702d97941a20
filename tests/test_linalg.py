"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfusion as gf
from gfusion.errors import NonFiniteInput
from gfusion.linalg import (
    TOL_SUBSPACE,
    Subspace,
    adjoint,
    finite_product,
    gram_difference_norm,
    gram_eigen_extremes,
    hermitian_part,
    operator_norm,
    orthonormality_deviation,
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

    # Either side of the rank cut 1e-10 (TOL_RANK), written as literals so that a changed cut fails.
    @pytest.mark.parametrize("r, rank", [(1e-11, 1), (1e-9, 2)])
    def test_rank_cut_is_1e_10_of_the_largest_singular_value(self, r, rank):
        assert orthonormalize(np.diag([1.0, r])).dim == rank


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


class TestOrthonormalityDeviation:
    def test_a_column_within_1e_10_of_unit_length_is_kept_verbatim(self):
        # Deviation (1 + 5e-12)^2 - 1 = 1e-11, inside TOL_ORTHO = 1e-10 (a literal here, so that a changed
        # threshold fails).
        assert np.array_equal(Subspace([[1 + 5e-12], [0]]).basis, [[1 + 5e-12], [0.0]])

    def test_orthonormal_columns_and_no_columns_give_zero(self):
        assert orthonormality_deviation(np.eye(3)[:, :2]) == 0.0
        assert orthonormality_deviation(np.zeros((3, 0))) == 0.0

    def test_largest_entry_of_the_gram_defect(self):
        b = np.eye(3)[:, :2] * [1.0, 1.5]
        assert orthonormality_deviation(b) == 1.25

    def test_complex_columns_use_the_conjugate_transpose(self):
        b = np.array([[1.0], [1j]]) / np.sqrt(2.0)
        assert orthonormality_deviation(b) <= 1e-15

    def test_subspace_rejects_what_it_measures_above_tol_ortho(self):
        b = np.eye(2) * [1.0, 1.0 + 1e-9]
        with pytest.raises(ValueError, match=f"deviation {orthonormality_deviation(b):.3e}"):
            Subspace(b)


class TestHermitianPart:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_exactly_hermitian_and_bit_identical_to_the_plain_average(self, complex_):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 7))
        if complex_:
            x = x + 1j * rng.standard_normal((7, 7))
        h = hermitian_part(x)
        assert np.array_equal(h, adjoint(h))
        assert np.array_equal(h, (x + adjoint(x)) / 2.0)

    def test_finite_entries_near_the_float_maximum_do_not_overflow(self):
        x = np.array([[1e308, -1.5e308], [-1.7e308, 1e308]])
        np.testing.assert_array_equal(hermitian_part(x), [[1e308, -1.6e308], [-1.6e308, 1e308]])


class TestFiniteProduct:
    def test_matches_matmul(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 5)), rng.standard_normal((5, 2))
        assert np.array_equal(finite_product(a, b, "a b"), a @ b)

    def test_overflow_names_the_product_without_a_warning(self):
        a = np.array([[1e200]])
        with pytest.raises(NonFiniteInput, match=r"^the product contains NaN or Inf entries$"):
            finite_product(a, a, "the product")


class TestAgreesWith:
    """The n x k structure check against the projector formula ||P_a - P_b||_2 <= tol."""

    @staticmethod
    def _pair(rng, n, k_a, k_b, angle, complex_):
        """Two subspaces of C^n (or R^n) sharing min(k_a, k_b) - 1 columns; the last shared one turned by angle."""
        x = rng.standard_normal((n, n))
        if complex_:
            x = x + 1j * rng.standard_normal((n, n))
        q = np.linalg.qr(x)[0]
        a, b = q[:, :k_a].copy(), q[:, :k_b].copy()
        if 0 < k_b <= k_a < n:
            b[:, k_b - 1] = np.cos(angle) * q[:, k_b - 1] + np.sin(angle) * q[:, k_a]
        return Subspace(a), Subspace(b)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 9),
        k_a=st.integers(0, 9),
        k_b=st.integers(0, 9),
        angle=st.sampled_from([0.0, 0.3e-10, 0.9e-10, 1.1e-10, 3e-10, 1e-3, 0.7, np.pi / 2]),
        seed=st.integers(0, 10_000),
        complex_=st.booleans(),
    )
    def test_matches_the_projector_formula(self, n, k_a, k_b, angle, seed, complex_):
        k_a, k_b = min(k_a, n), min(k_b, n)
        k_a, k_b = max(k_a, k_b), min(k_a, k_b)
        a, b = self._pair(np.random.default_rng(seed), n, k_a, k_b, angle, complex_)
        dist = operator_norm(a.projector() - b.projector())
        if k_a != k_b:
            assert abs(dist - 1.0) <= 1e-12
        for x, y in ((a, b), (b, a)):
            # the verdict at TOL_SUBSPACE, and the distance itself to within round-off
            assert x.agrees_with(y, TOL_SUBSPACE) == (dist <= TOL_SUBSPACE)
            assert x.agrees_with(y, dist + 1e-14)
            assert not x.agrees_with(y, dist - 1e-14)

    def test_empty_and_unequal_dimensions(self):
        e3 = np.eye(3)
        assert Subspace(e3[:, :0]).agrees_with(Subspace(e3[:, :0]), 0.0)
        assert not Subspace(e3[:, :0]).agrees_with(Subspace(e3[:, :1]), 0.99)
        assert Subspace(e3[:, :2]).agrees_with(Subspace(e3[:, :1]), 1.0)
        assert not Subspace(e3[:, :1]).agrees_with(Subspace(np.eye(2)[:, :1]), 1.0)


class TestGramEigenExtremes:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 8), count=st.integers(1, 12), seed=st.integers(0, 10_000), complex_=st.booleans())
    def test_matches_explicit_gram(self, n, count, seed, complex_):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, count))
        if complex_:
            x = x + 1j * rng.standard_normal((n, count))
        w = np.linalg.eigvalsh(adjoint(x) @ x)
        ext = gram_eigen_extremes(np.linalg.eigvalsh(x @ adjoint(x)), count)
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


def _gram_difference_pair(m, n, seed, complex_, scale=1.0):
    rng = np.random.default_rng(seed)
    k, k_t = rng.standard_normal((2, m, n))
    if complex_:
        k, k_t = k + 1j * rng.standard_normal((m, n)), k_t + 1j * rng.standard_normal((m, n))
    return scale * k, k_t


class TestGramDifferenceNorm:
    # (m, n): 2m < n (the QR-compressed route), 2m = n and 2m > n, m = 1 and n = 1 among them
    SHAPES = [(1, 1), (1, 2), (1, 5), (2, 4), (2, 7), (3, 2), (3, 6), (4, 9), (5, 1), (6, 3)]

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        seed=st.integers(0, 10_000),
        complex_=st.booleans(),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
    )
    def test_matches_dense_svd(self, shape, seed, complex_, scale):
        k, k_t = _gram_difference_pair(*shape, seed, complex_, scale)
        oracle = np.linalg.svd(adjoint(k) @ k - adjoint(k_t) @ k_t, compute_uv=False)[0]
        bound = 1e-12 * max(1.0, operator_norm(k) ** 2, operator_norm(k_t) ** 2)
        assert abs(gram_difference_norm(k, k_t) - oracle) <= bound

    @settings(max_examples=100, deadline=None)
    @given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 10_000), complex_=st.booleans())
    def test_exactly_zero_for_equal_matrices_and_symmetric_in_its_arguments(self, shape, seed, complex_):
        k, k_t = _gram_difference_pair(*shape, seed, complex_)
        assert gram_difference_norm(k, k.copy()) == 0.0
        assert gram_difference_norm(k, k_t) == gram_difference_norm(k_t, k)

    def test_product_stays_finite_at_the_float_edge(self):
        # Both Grams are 2x^2 I = 1e308 I and equal, but F^H E has entries +-4x^2 = 2e308:
        # only the exact scaling E / 4 keeps the product, and the certificates, finite.
        x = np.sqrt(5e307)
        k, k_t = x * np.array([[1.0, 1.0], [1.0, -1.0]]), x * np.array([[1.0, -1.0], [-1.0, -1.0]])
        assert gram_difference_norm(k, k_t) == 0.0
        lam, theta = (gf.make_system(2, "real", [(1.0, np.eye(2), op)]) for op in (k, k_t))
        assert gf.certify_R_condition(lam, theta, samples=0, seed=0).radius_certificate == 0.0
        t52 = gf.certify_frame_operator_perturbation(lam, theta, gf.PerturbParams(), samples=0, seed=0)
        assert t52.cert_margin == 0.0

    @staticmethod
    def _dyadic_pair(rows):
        # K with entries in Z/8 and K~ = (1 + t) K, t = 2^-30, are exact in floats, and
        # K^H K - K~^H K~ = -(2t + t^2) K^H K: forming the two Grams cancels 30 bits.
        k = (2.0 * np.eye(4) + np.random.default_rng(7).integers(-4, 5, (4, 4)) / 8.0)[:rows]
        t = 2.0**-30
        return k, (1.0 + t) * k, (2 * t + t * t) * operator_norm(k) ** 2

    @pytest.mark.parametrize("rows", [1, 2, 4])  # 2m < n (compressed), 2m = n, and a square K
    def test_closed_form_difference_is_accurate(self, rows):
        k, k_t, exact = self._dyadic_pair(rows)
        assert abs(gram_difference_norm(k, k_t) - exact) <= 1e-13 * exact

    def test_closed_form_radius_certificate(self):
        k, k_t, exact = self._dyadic_pair(4)
        lam, theta = (gf.make_system(4, "real", [(1.0, np.eye(4), op)]) for op in (k, k_t))
        rep = gf.certify_R_condition(lam, theta, samples=0, seed=0)
        assert rep.mode == "certified_sufficient"
        assert abs(rep.radius_certificate - exact) <= 1e-13 * exact
