"""Tests for the g-fusion system core."""

import contextlib
import dataclasses

import numpy as np
import pytest
from helpers import coordinate_system, full_space_system
from hypothesis import given, settings
from hypothesis import strategies as st

import gfusion as gf
from gfusion.errors import (
    DimensionMismatch,
    FieldMismatch,
    NonFiniteInput,
    NotAFrameError,
    SystemMismatch,
)
from gfusion.linalg import TOL_ORTHO, adjoint, operator_norm, orthonormality_deviation
from gfusion.sampling import random_unit_vectors
from gfusion.system import require_same_structure


def quadratic_form(sys, f):
    """Independent evaluation of sum_j v_j^2 ||L_j P_j f||^2, block by block."""
    total = 0.0
    for sub in sys.subsystems:
        y = sub.operator @ (sub.subspace.projector() @ f)
        total += sub.weight**2 * float(np.vdot(y, y).real)
    return total


class TestAnalysisSynthesis:
    def test_coordinate_analysis(self):
        sys = coordinate_system((1.0, 1.0))
        out = gf.analysis(sys, [3.0, 4.0])
        np.testing.assert_allclose(out.blocks[0], [3.0])
        np.testing.assert_allclose(out.blocks[1], [4.0])

    def test_zero_vector(self):
        sys = gf.generate("frame", 5, 3, seed=2)
        out = gf.analysis(sys, np.zeros(5))
        assert all(np.all(b == 0) for b in out.blocks)

    def test_analysis_energy_matches_frame_operator(self):
        rng = np.random.default_rng(4)
        sys = gf.generate("frame", 6, 3, seed=8)
        s = gf.frame_operator(sys)
        for _ in range(20):
            f = rng.standard_normal(6)
            energy = sum(float(np.vdot(b, b).real) for b in gf.analysis(sys, f).blocks)
            assert abs(energy - np.vdot(f, s @ f).real) <= 1e-10 * max(1.0, energy)

    def test_coordinate_synthesis(self):
        sys = coordinate_system((1.0, 1.0))
        np.testing.assert_allclose(gf.synthesis(sys, [np.array([3.0]), np.array([4.0])]), [3.0, 4.0])

    def test_synthesis_zero(self):
        sys = gf.generate("frame", 4, 2, seed=3)
        np.testing.assert_array_equal(gf.synthesis(sys, [np.zeros(m) for m in sys.block_dims]), np.zeros(4))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_adjointness_identity(self, field):
        rng = np.random.default_rng(9)
        sys = gf.generate("frame", 5, 3, seed=10, field=field)

        def rand_vec(n):
            v = rng.standard_normal(n)
            return v + 1j * rng.standard_normal(n) if field == "complex" else v

        for _ in range(100):
            f = rand_vec(5)
            g = gf.DirectSumVector(tuple(rand_vec(m) for m in sys.block_dims))
            lhs = np.vdot(f, gf.synthesis(sys, g))  # <synthesis(g), f>
            rhs = g.inner(gf.analysis(sys, f))  # <g, analysis(f)>
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_matrix_adjointness_is_exact(self):
        sys = gf.generate("frame", 6, 3, seed=5, field="complex")
        assert np.array_equal(gf.synthesis_matrix(sys), adjoint(gf.analysis_matrix(sys)))

    def test_analysis_matrix_is_cached_and_read_only(self):
        sys = gf.generate("frame", 5, 3, seed=2)
        k = gf.analysis_matrix(sys)
        assert gf.analysis_matrix(sys) is k
        with pytest.raises(ValueError):
            k[0, 0] = 1.0

    def test_dimension_mismatch(self):
        sys = coordinate_system((1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            gf.analysis(sys, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            gf.synthesis(sys, [np.array([1.0, 2.0]), np.array([3.0])])

    def test_field_mismatch(self):
        sys = coordinate_system((1.0, 1.0))
        with pytest.raises(FieldMismatch):
            gf.analysis(sys, np.array([1.0 + 1j, 0.0]))


class TestFrameOperator:
    def test_coordinate_identity(self):
        np.testing.assert_allclose(gf.frame_operator(coordinate_system((1.0, 1.0))), np.eye(2), atol=1e-15)

    def test_weighted_coordinates(self):
        np.testing.assert_allclose(
            gf.frame_operator(coordinate_system((2.0, 1.0))), np.diag([4.0, 1.0]), atol=1e-15
        )

    def test_equals_synthesis_times_analysis(self):
        for seed in range(5):
            sys = gf.generate("frame", 7, 4, seed=seed)
            t = gf.synthesis_matrix(sys)
            assert operator_norm(gf.frame_operator(sys) - t @ adjoint(t)) <= 1e-12

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(12)
        sys = gf.generate("frame", 6, 3, seed=13)
        s = gf.frame_operator(sys)
        for _ in range(30):
            f = rng.standard_normal(6)
            assert abs(np.vdot(f, s @ f).real - quadratic_form(sys, f)) <= 1e-10 * max(1.0, quadratic_form(sys, f))


class TestSpectrumCache:
    """S is eigendecomposed once per system and every spectral verdict and S^-1 read that decomposition."""

    def test_read_only_and_cached(self):
        sys = gf.generate("frame", 6, 3, seed=5)
        w = sys.spectrum
        assert sys.spectrum is w and sys.eigh[0] is w
        assert sys.eigh is sys.eigh
        for x in sys.eigh:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.spectrum = np.ones(6)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bit_identical_to_eigh_of_the_symmetrized_frame_operator(self, field):
        for seed in range(5):
            sys = gf.generate("frame", 7, 4, seed=seed, field=field)
            s = gf.frame_operator(sys)
            w, v = np.linalg.eigh((s + adjoint(s)) / 2.0)
            assert np.array_equal(sys.spectrum, w)
            assert np.array_equal(sys.eigh[1], v)
            ext = gf.spectral_extremes(sys)
            assert (ext.min_eig, ext.max_eig) == (sys.spectrum[0], sys.spectrum[-1])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_eigh_and_no_other_decomposition_of_s_per_system(self, monkeypatch, field):
        drawn = gf.generate("frame", 6, 3, seed=5, field=field)  # the generator reads the spectrum itself
        sys = gf.GFusionSystem(drawn.dim, drawn.field, drawn.subsystems)
        fam = gf.induce_vectors(sys)
        s = gf.frame_operator(sys)
        calls = []

        def counting(name, fn):
            def wrapped(a, *args, **kwargs):
                calls.append((name, np.shape(a), np.shape(a) == s.shape and np.allclose(a, s, rtol=1e-12)))
                return fn(a, *args, **kwargs)
            return wrapped

        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "inv", "solve", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        gf.frame_bounds(sys)
        gf.riesz_bounds(sys)
        gf.is_gf_orthonormal(sys)
        gf.canonical_dual(sys)
        gf.inverse_frame_operator(sys)
        assert calls[0] == ("eigh", (6, 6), True)
        assert not any(on_s for _, _, on_s in calls[1:])
        assert [name for name, _, _ in calls].count("eigh") == 1
        # The correspondence check adds only the eigenvalues of the induced family's U U^H (which
        # approximates S); S's decomposition is cached.
        del calls[:]
        gf.verify_correspondence(sys, fam)
        assert [(name, shape) for name, shape, _ in calls if name.startswith("eig")] == [("eigvalsh", (6, 6))]


class TestInverseFrameOperator:
    """S^-1 read from the cached eigendecomposition."""

    def test_identity_is_exact_up_to_32(self):
        for n in range(1, 33):
            sys = full_space_system(np.eye(n))
            assert np.all(sys.spectrum == 1.0)
            np.testing.assert_allclose(gf.inverse_frame_operator(sys), np.eye(n), rtol=0, atol=1e-14)

    def test_diagonal(self):
        sys = coordinate_system((2.0, 1.0))  # S = diag(4, 1)
        assert (sys.spectrum[0], sys.spectrum[-1]) == (1.0, 4.0)
        np.testing.assert_allclose(gf.inverse_frame_operator(sys), np.diag([0.25, 1.0]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_residual_and_exactly_hermitian(self, field):
        sys = gf.generate("frame", 6, 3, seed=5, field=field)
        inv = gf.inverse_frame_operator(sys)
        assert operator_norm(gf.frame_operator(sys) @ inv - np.eye(6)) <= 1e-10
        assert operator_norm(inv - adjoint(inv)) == 0.0

    def test_rejects_an_incomplete_system(self):
        sys = gf.make_system(2, "real", [(1.0, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))])
        with pytest.raises(NotAFrameError, match="not invertible"):
            gf.inverse_frame_operator(sys)

    def test_rejects_below_tol_pd(self):
        sys = coordinate_system((1.0, np.sqrt(1e-13)))  # S = diag(1, 1e-13)
        with pytest.raises(NotAFrameError, match="tol_pd=1.0e-12"):
            gf.inverse_frame_operator(sys, tol_pd=1e-12)
        np.testing.assert_allclose(gf.inverse_frame_operator(sys, tol_pd=1e-14), np.diag([1.0, 1e13]), rtol=1e-12)

    def test_complex_hermitian(self):
        target = np.array([[2.0, 1j], [-1j, 2.0]])
        sys = full_space_system(adjoint(np.linalg.cholesky(target)), field="complex")  # S = L L^H
        np.testing.assert_allclose(sys.spectrum, [1.0, 3.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(gf.inverse_frame_operator(sys), np.linalg.inv(target), rtol=0, atol=1e-12)

    def test_rayleigh_quotient_sampling_oracle(self):
        # Every sampled Rayleigh quotient of S must sit inside the spectrum's
        # extremes, up to 1e-6 relative slack.
        sys = gf.generate("frame", 8, 4, seed=11)
        s, w = gf.frame_operator(sys), sys.spectrum
        x = random_unit_vectors(np.random.default_rng(11), 8, 10_000, "real")
        rq = np.einsum("is,is->s", x, s @ x)
        slack = 1e-6 * max(abs(w[0]), abs(w[-1]))
        assert rq.min() >= w[0] - slack
        assert rq.max() <= w[-1] + slack

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 7),
        extra=st.integers(-3, 5),
        field=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 10_000),
    )
    def test_matches_numpy_inverse(self, n, extra, field, seed):
        # One full-space block with an M x n operator: M < n, M = n and M > n rows.
        rows = max(1, n + extra)
        rng = np.random.default_rng(seed)
        op = rng.standard_normal((rows, n))
        if field == "complex":
            op = op + 1j * rng.standard_normal((rows, n))
        sys = full_space_system(op, field=field)
        s = gf.frame_operator(sys)
        w = np.linalg.eigvalsh(s)
        if rows < n or w[0] <= 1e-9 * w[-1]:
            if rows < n:
                with pytest.raises(NotAFrameError):
                    gf.inverse_frame_operator(sys)
            return
        ref = np.linalg.inv(s)
        cond = w[-1] / w[0]
        assert operator_norm(gf.inverse_frame_operator(sys) - ref) <= 1e-13 * cond * operator_norm(ref)


class TestOverflow:
    """Finite entries whose products overflow are input errors, raised without a numpy warning."""

    def test_overflowing_block_names_its_subsystem(self):
        sys = gf.make_system(1, "real", [(1.0, [[1.0]], [[1.0]]), (1e300, [[1.0]], [[1e300]])])
        with pytest.raises(NonFiniteInput, match=r"^subsystem 1: the weighted block v_j L_j P_j contains NaN or Inf entries$"):
            gf.frame_bounds(sys)

    def test_overflowing_frame_operator(self):
        sys = gf.make_system(1, "complex", [(1e100, [[1.0]], [[1e100j]])])
        with pytest.raises(NonFiniteInput, match="frame operator"):
            gf.frame_bounds(sys)


class TestFrameBounds:
    def test_parseval_coordinates(self):
        fb = gf.frame_bounds(coordinate_system((1.0, 1.0)))
        assert fb is not None and abs(fb.lower - 1) < 1e-14 and abs(fb.upper - 1) < 1e-14

    def test_weighted_coordinates(self):
        fb = gf.frame_bounds(coordinate_system((2.0, 1.0)))
        np.testing.assert_allclose([fb.lower, fb.upper], [1.0, 4.0], atol=1e-14)

    def test_incomplete_system_is_not_a_frame(self):
        # single block covering only span{e1} in R^2
        sys = gf.make_system(2, "real", [(1.0, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))])
        assert gf.frame_bounds(sys) is None

    def test_optimal_bounds_match_inverse_norms(self):
        # A = 1/||S^-1||, B = ||S|| (independent route via numpy's inverse).
        sys = gf.generate("frame", 6, 3, seed=21)
        fb = gf.frame_bounds(sys)
        s = gf.frame_operator(sys)
        assert abs(fb.lower - 1.0 / operator_norm(np.linalg.inv(s))) <= 1e-9 * fb.lower
        assert abs(fb.upper - operator_norm(s)) <= 1e-12 * fb.upper

    def test_frame_inequality_on_random_unit_vectors(self):
        rng = np.random.default_rng(30)
        for seed in range(5):
            sys = gf.generate("frame", 6, 3, seed=40 + seed)
            fb = gf.frame_bounds(sys)
            f = rng.standard_normal((6, 200))
            f /= np.linalg.norm(f, axis=0)
            q = np.array([quadratic_form(sys, f[:, i]) for i in range(f.shape[1])])
            assert np.all(q >= fb.lower - 1e-9)
            assert np.all(q <= fb.upper + 1e-9)

    def test_synthesis_norm_below_sqrt_upper(self):
        for seed in range(5):
            sys = gf.generate("frame", 5, 2, seed=seed)
            fb = gf.frame_bounds(sys)
            assert operator_norm(gf.synthesis_matrix(sys)) <= np.sqrt(fb.upper) + 1e-9

    def test_frame_iff_synthesis_surjective(self):
        for seed in range(5):
            sys = gf.generate("frame", 5, 3, seed=60 + seed)
            t = gf.synthesis_matrix(sys)
            sv = np.linalg.svd(t, compute_uv=False)
            assert (gf.frame_bounds(sys) is not None) == (np.count_nonzero(sv > 1e-10 * sv[0]) == 5)
        degenerate = gf.make_system(2, "real", [(1.0, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))])
        sv = np.linalg.svd(gf.synthesis_matrix(degenerate), compute_uv=False)
        assert np.count_nonzero(sv > 1e-10 * sv[0]) < 2


class TestCompleteness:
    def test_coordinate_system_complete(self):
        assert gf.is_gf_complete(coordinate_system((1.0, 1.0)))

    def test_single_axis_incomplete(self):
        sys = gf.make_system(2, "real", [(1.0, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))])
        assert not gf.is_gf_complete(sys)

    def test_frame_implies_complete(self):
        for seed in range(10):
            sys = gf.generate("frame", 5, 3, seed=100 + seed)
            assert gf.frame_bounds(sys) is not None
            assert gf.is_gf_complete(sys)

    @pytest.mark.parametrize("weights", [(1.0, 1e-11), (1e-11, 1.0), (1.0, 1e11), (1e-20, 1e20, 1.0)])
    def test_verdict_ignores_weight_spread(self, weights):
        assert gf.is_gf_complete(coordinate_system(weights))
        assert gf.is_gf_complete(coordinate_system(weights, "complex"))


class TestCanonicalDual:
    def test_parseval_dual_is_itself(self):
        sys = gf.generate("parseval", 6, 3, seed=2)
        dual = gf.canonical_dual(sys)
        for a, b in zip(sys.subsystems, dual.subsystems):
            assert a.subspace.agrees_with(b.subspace, 1e-9)
            np.testing.assert_allclose(
                a.operator @ a.subspace.projector(), b.operator @ b.subspace.projector(), atol=1e-9
            )

    def test_weighted_coordinate_reconstruction(self):
        sys = coordinate_system((2.0, 1.0))
        dual = gf.canonical_dual(sys)
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.standard_normal(2)
            res = gf.reconstruct(sys, dual, f)
            assert res.primal_residual <= 1e-10 * np.linalg.norm(f)
            assert res.swapped_residual <= 1e-10 * np.linalg.norm(f)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_frame_reconstruction(self, field):
        rng = np.random.default_rng(3)
        for seed in range(5):
            sys = gf.generate("frame", 6, 3, seed=200 + seed, field=field)
            dual = gf.canonical_dual(sys)
            for _ in range(20):
                f = rng.standard_normal(6)
                if field == "complex":
                    f = f + 1j * rng.standard_normal(6)
                res = gf.reconstruct(sys, dual, f)
                assert res.primal_residual <= 1e-9 * np.linalg.norm(f)
                assert res.swapped_residual <= 1e-9 * np.linalg.norm(f)

    def test_parseval_reconstruction_is_direct(self):
        sys = gf.generate("parseval", 5, 2, seed=19)
        dual = gf.canonical_dual(sys)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(5)
        res = gf.reconstruct(sys, dual, f)
        assert res.primal_residual <= 1e-12
        assert res.swapped_residual <= 1e-12
        zero = gf.reconstruct(sys, dual, np.zeros(5))
        assert zero.primal_residual == 0.0 and zero.swapped_residual == 0.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_batch_equals_column_by_column(self, field):
        sys = gf.generate("frame", 6, 3, seed=31, field=field)
        dual = gf.canonical_dual(sys)
        fs = random_unit_vectors(np.random.default_rng(5), 6, 10, field)
        batch = gf.reconstruct(sys, dual, fs)
        cols = [gf.reconstruct(sys, dual, fs[:, i]) for i in range(fs.shape[1])]
        np.testing.assert_allclose(batch.primal, np.column_stack([c.primal for c in cols]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.swapped, np.column_stack([c.swapped for c in cols]), rtol=0, atol=1e-12)
        assert abs(batch.primal_residual - max(c.primal_residual for c in cols)) <= 1e-12
        assert abs(batch.swapped_residual - max(c.swapped_residual for c in cols)) <= 1e-12

    def test_dual_is_a_frame(self):
        sys = gf.generate("frame", 5, 3, seed=17)
        assert gf.frame_bounds(gf.canonical_dual(sys)) is not None

    def test_not_a_frame_raises(self):
        sys = gf.make_system(2, "real", [(1.0, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))])
        with pytest.raises(NotAFrameError):
            gf.canonical_dual(sys)

    def test_inverse_commutation_identities(self):
        # S @ S^-1 f = S^-1 @ S f = f, both orderings of the plain
        # frame-operator reconstruction.
        sys = gf.generate("frame", 6, 3, seed=23)
        s = gf.frame_operator(sys)
        s_inv = gf.inverse_frame_operator(sys)
        f = np.random.default_rng(2).standard_normal(6)
        np.testing.assert_allclose(s @ (s_inv @ f), f, atol=1e-9)
        np.testing.assert_allclose(s_inv @ (s @ f), f, atol=1e-9)


class TestStructureMatch:
    def test_weight_mismatch_raises_the_same_type_everywhere(self):
        theta = coordinate_system((1.0, 1.0))
        lam = coordinate_system((1.0, 2.0))
        with pytest.raises(SystemMismatch, match="weights") as from_cross:
            gf.cross_operator(theta, lam)
        with pytest.raises(SystemMismatch, match="weights") as from_certifier:
            gf.certify_analysis_perturbation(theta, lam)
        assert type(from_cross.value) is type(from_certifier.value)

    # Either side of TOL_WEIGHT = 1e-12 and TOL_SUBSPACE = 1e-10, written as literals so that a changed
    # threshold fails.
    @staticmethod
    def _line(weight, angle):
        span = [[np.cos(angle)], [np.sin(angle)]]
        return gf.make_system(2, "real", [(weight, span, [[1.0, 0.0]])])

    @pytest.mark.parametrize("weight, same", [(1 + 1e-13, True), (1 + 1e-11, False)])
    def test_weights_agree_within_1e_12(self, weight, same):
        with contextlib.nullcontext() if same else pytest.raises(SystemMismatch, match="weights"):
            require_same_structure(self._line(1.0, 0.0), self._line(weight, 0.0))

    @pytest.mark.parametrize("angle, same", [(1e-11, True), (1e-9, False)])
    def test_subspaces_agree_within_1e_10(self, angle, same):
        with contextlib.nullcontext() if same else pytest.raises(SystemMismatch, match="subspace 0"):
            require_same_structure(self._line(1.0, 0.0), self._line(1.0, angle))


class TestMakeSystem:
    def test_orthonormal_spanning_kept_verbatim(self):
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 3)))[0]
        sys = gf.make_system(5, "real", [(1.0, q, np.zeros((2, 5)) + 1.0)])
        assert np.array_equal(sys.subsystems[0].subspace.basis, q)
        # Either side of TOL_ORTHO, the threshold make_system shares with Subspace: scaling one column by
        # 1 + d moves the Gram's corner to (1 + d)^2, a deviation of about 2d.
        for field, scale in (("real", 1.0), ("complex", np.exp(0.3j))):
            for factor, kept in ((0.3, True), (10.0, False)):
                span = q * scale
                span[:, 0] *= 1.0 + factor * TOL_ORTHO / 2.0
                dev = orthonormality_deviation(span)
                assert 0.8 * factor * TOL_ORTHO <= dev <= 1.2 * factor * TOL_ORTHO
                basis = gf.make_system(5, field, [(1.0, span, np.ones((2, 5)))]).subsystems[0].subspace.basis
                assert np.array_equal(basis, span) == kept
                if not kept:
                    assert gf.Subspace(basis).agrees_with(gf.Subspace(q), 1e-12)
                    assert orthonormality_deviation(basis) <= TOL_ORTHO

    def test_general_spanning_is_orthonormalized(self):
        span = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        sys = gf.make_system(3, "real", [(1.0, span, np.ones((1, 3)))])
        assert sys.subsystems[0].subspace.dim == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spanning_set_is_named_as_a_spanning_set(self, bad):
        span = np.eye(2)
        span[0, 1] = bad
        with pytest.raises(NonFiniteInput, match=r"^spanning set contains NaN or Inf entries$"):
            gf.make_system(2, "real", [(1.0, span, np.ones((1, 2)))])

    def test_empty_spanning_sets(self):
        with pytest.raises(ValueError, match=r"^spanning set must be a 2-D matrix, got shape \(0, 2\)$"):
            gf.make_system(2, "real", [(1.0, np.zeros((0, 2)), np.ones((1, 2)))])
        basis = gf.make_system(2, "real", [(1.0, np.zeros((2, 0)), np.ones((1, 2)))]).subsystems[0].subspace.basis
        assert basis.shape == (2, 0) and basis.dtype == np.float64

    def test_rejects_complex_in_real_field(self):
        with pytest.raises(FieldMismatch):
            gf.make_system(2, "real", [(1.0, np.eye(2, dtype=complex) * 1j, np.ones((1, 2)))])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            gf.make_system(2, "real", [(0.0, np.eye(2), np.ones((1, 2)))])

    def test_direct_sum_vector_norm_and_inner(self):
        g = gf.DirectSumVector((np.array([3.0]), np.array([4.0])))
        assert g.norm() == 5.0
        h = gf.DirectSumVector((np.array([1.0]), np.array([0.0])))
        assert g.inner(h) == 3.0
