"""Tests for gf-Riesz / gf-orthonormal verdicts and the cross operator."""

import numpy as np
import pytest
from helpers import coordinate_system, decomposition_report, scale_blocks
from hypothesis import given, settings
from hypothesis import strategies as st

import gfusion as gf
from gfusion.errors import PreconditionFailed, SystemMismatch
from gfusion.linalg import adjoint, operator_norm
from gfusion import bases
from gfusion.sampling import gaussian_matrix, haar_unitary, random_partition, well_conditioned_matrix
from gfusion.system import split_blocks


class TestRieszBounds:
    def test_coordinate_system(self):
        rb = gf.riesz_bounds(coordinate_system((1.0, 1.0)))
        np.testing.assert_allclose([rb.lower, rb.upper], [1.0, 1.0], atol=1e-12)

    def test_duplicated_block_is_not_riesz(self):
        # Two copies of the same rank-1 subsystem on R^1: the synthesis map
        # has a kernel, so no lower Riesz bound exists (the frame verdict
        # still holds with bounds (2, 2)).
        sys = gf.make_system(
            1, "real", [(1.0, np.array([[1.0]]), np.array([[1.0]]))] * 2
        )
        assert gf.riesz_bounds(sys) is None
        fb = gf.frame_bounds(sys)
        np.testing.assert_allclose([fb.lower, fb.upper], [2.0, 2.0], atol=1e-12)

    def test_image_of_onb_under_invertible_map(self):
        # Transport a gf-orthonormal system by an invertible map M (the
        # subspaces move to M W_j); the Riesz bounds must be exactly the
        # extreme squared singular values of M.
        rng = np.random.default_rng(8)
        theta = gf.generate("onb", 8, 3, seed=14)
        m = well_conditioned_matrix(rng, 8, "real")
        comps = [
            (sub.weight, m @ sub.subspace.basis, adjoint(m @ sub.subspace.basis))
            for sub in theta.subsystems
        ]
        moved = gf.make_system(8, "real", comps)
        rb = gf.riesz_bounds(moved)
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(rb.lower - sv[-1] ** 2) <= 1e-9
        assert abs(rb.upper - sv[0] ** 2) <= 1e-9

    def test_lower_bound_is_tested_before_completeness(self, monkeypatch):
        # M > n: the lower Riesz bound is exactly 0, so the completeness SVD is never needed.
        def fail(sys):
            raise AssertionError("is_gf_complete called")

        monkeypatch.setattr(bases, "is_gf_complete", fail)
        frame = gf.generate("frame", 6, 4, seed=3)
        assert sum(frame.block_dims) > frame.dim
        assert gf.riesz_bounds(frame) is None
        with pytest.raises(AssertionError, match="is_gf_complete called"):
            gf.riesz_bounds(gf.generate("riesz", 6, 3, seed=3))

    def test_riesz_implies_injective_and_complete(self):
        sys = gf.generate("riesz", 6, 3, seed=4)
        assert gf.riesz_bounds(sys) is not None
        assert gf.is_gf_complete(sys)
        t = gf.synthesis_matrix(sys)
        sv = np.linalg.svd(t, compute_uv=False)
        assert sv[-1] > 0 and t.shape[1] <= t.shape[0]


class TestGfOrthonormal:
    def test_coordinate_system_is_onb(self):
        verdict = gf.is_gf_orthonormal(coordinate_system((1.0, 1.0)))
        assert verdict.is_gf_orthonormal
        assert verdict.gram_deviation <= 1e-14
        assert verdict.parseval_deviation <= 1e-14

    def test_weights_break_orthonormality(self):
        verdict = gf.is_gf_orthonormal(coordinate_system((2.0, 1.0)))
        assert not verdict.is_gf_orthonormal
        # Gram block (0,0) is 4*I, hence deviation 3 from the identity.
        np.testing.assert_allclose(verdict.gram_deviation, 3.0, atol=1e-12)

    def test_partitioned_basis_satisfies_both_conditions(self):
        # A frame satisfying the Gram condition automatically satisfies the
        # Parseval condition: build one by partitioning a random orthonormal
        # basis of R^8 into coordinate blocks and check both deviations.
        sys = gf.generate("onb", 8, 3, seed=31)
        verdict = gf.is_gf_orthonormal(sys)
        assert verdict.gram_deviation <= 1e-12
        assert verdict.parseval_deviation <= 1e-12
        assert verdict.is_gf_orthonormal

    def test_onb_implies_riesz_and_parseval_with_unit_bounds(self):
        for seed in range(5):
            sys = gf.generate("onb", 7, 3, seed=seed)
            verdict = gf.is_gf_orthonormal(sys)
            assert verdict.is_riesz
            np.testing.assert_allclose(
                [verdict.riesz_bounds.lower, verdict.riesz_bounds.upper], [1.0, 1.0], atol=1e-9
            )
            fb = gf.frame_bounds(sys)
            np.testing.assert_allclose([fb.lower, fb.upper], [1.0, 1.0], atol=1e-9)

    def test_decomposition_report_on_onb(self):
        sys = gf.generate("onb", 9, 4, seed=3)
        rep = decomposition_report(sys)
        assert rep.isometry_deviation <= 1e-9
        assert rep.image_overlap <= 1e-9
        assert sum(rep.image_dims) == 9
        assert rep.decomposes

    def test_decomposition_fails_for_weighted_system(self):
        rep = decomposition_report(coordinate_system((2.0, 1.0)))
        assert not rep.decomposes

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["onb", "parseval", "riesz", "frame"])
    def test_block_decomposition_oracle_agrees_with_the_spectral_verdict(self, kind, field):
        # The J^2 block-pair oracle never reads S; the verdict reads only S's spectrum.  Scaling block k by
        # 1 + 1e-3 k breaks the isometry of every block but the first.  Dropping the last block leaves a
        # gf-orthonormal family that misses part of the space; two halves of the identity make a Parseval
        # frame (S = I) that is not a basis.
        rng = np.random.default_rng(77)
        positives = 0
        for seed in range(25):
            n = int(rng.integers(1, 9))
            sys = gf.generate(kind, n, int(rng.integers(1, n + 1)), seed=seed, field=field)
            half = np.eye(n, dtype=sys.dtype) / np.sqrt(2.0)
            halves = gf.make_system(n, field, [(1.0, np.eye(n, dtype=sys.dtype), half)] * 2)
            scaled = scale_blocks(sys, 1.0 + 1e-3 * np.arange(sys.block_count))
            partial = gf.GFusionSystem(n, field, sys.subsystems[:-1] or sys.subsystems)
            for s in (sys, scaled, partial, halves):
                verdict = gf.is_gf_orthonormal(s).is_gf_orthonormal
                assert decomposition_report(s).decomposes == verdict
                positives += verdict
        assert positives >= (25 if kind in ("onb", "parseval") else 0)

    def test_oversized_block_dimension_fails_verdict_without_error(self):
        # m_j > n makes the diagonal Gram block rank deficient; the verdict
        # is false, never an exception.
        op = np.vstack([np.eye(2), np.ones((2, 2))])  # 4 x 2
        sys = gf.make_system(2, "real", [(1.0, np.eye(2), op)])
        verdict = gf.is_gf_orthonormal(sys)
        assert not verdict.is_gf_orthonormal
        assert verdict.gram_deviation >= 1.0


class TestCrossOperator:
    def test_lambda_equals_theta_gives_identity(self):
        theta = gf.generate("onb", 6, 3, seed=9)
        rep = gf.cross_operator(theta, theta)
        assert operator_norm(rep.matrix - np.eye(6)) <= 1e-12
        assert rep.intertwine_residual <= 1e-12
        assert rep.surjective

    def test_scaled_lambda_scales_v(self):
        theta = gf.generate("onb", 6, 3, seed=9)
        lam = scale_blocks(theta, 2.0)
        rep = gf.cross_operator(theta, lam)
        assert operator_norm(rep.matrix - 2.0 * np.eye(6)) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_frame_intertwines(self, field):
        theta = gf.generate("onb", 8, 3, seed=77, field=field)
        lam = gf.generate_like(theta, "frame", seed=78)
        rep = gf.cross_operator(theta, lam)
        assert rep.intertwine_residual <= 1e-9
        assert rep.surjective
        assert rep.norm <= rep.bessel_norm_bound + 1e-9

    def test_classification_parseval(self):
        theta = gf.generate("onb", 8, 4, seed=1)
        lam = gf.generate_like(theta, "parseval", seed=2)
        rep = gf.cross_operator(theta, lam)
        assert rep.adjoint_isometric

    def test_classification_riesz(self):
        theta = gf.generate("onb", 8, 4, seed=1)
        lam = gf.generate_like(theta, "riesz", seed=5)
        assert gf.riesz_bounds(lam) is not None
        rep = gf.cross_operator(theta, lam)
        assert rep.invertible

    def test_classification_unitary_for_onb(self):
        theta = gf.generate("onb", 8, 4, seed=1)
        lam = gf.generate_like(theta, "onb", seed=6)
        rep = gf.cross_operator(theta, lam)
        assert rep.unitary and rep.invertible and rep.surjective

    def test_rejects_non_orthonormal_theta(self):
        theta = coordinate_system((2.0, 1.0))
        lam = coordinate_system((2.0, 1.0))
        with pytest.raises(PreconditionFailed):
            gf.cross_operator(theta, lam)

    def test_rejects_mismatched_weights(self):
        theta = coordinate_system((1.0, 1.0))
        lam = coordinate_system((1.0, 2.0))
        with pytest.raises(PreconditionFailed):
            gf.cross_operator(theta, lam)

    def test_rejects_mismatched_subspaces(self):
        theta = gf.generate("onb", 6, 3, seed=9)
        rot = haar_unitary(np.random.default_rng(0), 6, "real")
        comps = [
            (sub.weight, rot @ sub.subspace.basis, adjoint(rot @ sub.subspace.basis))
            for sub in theta.subsystems
        ]
        other = gf.make_system(6, "real", comps)
        with pytest.raises(PreconditionFailed):
            gf.cross_operator(theta, other)

    def test_structure_is_checked_at_its_own_tolerance_even_at_tol_zero(self):
        # theta's Hadamard blocks make it exactly gf-orthonormal; lam spans the same planes through
        # other spanning sets, so its orthonormalized bases agree with theta's only up to round-off.
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float).T / 2
        bases_ = (h[:, :2], h[:, 2:])
        theta = gf.make_system(4, "real", [(1.0, b, b.T) for b in bases_])
        spans = (bases_[0] @ np.array([[3.0, 3.0], [3.0, -3.0]]), bases_[1] @ np.array([[1.0, 2.0], [0.0, 1.0]]))
        lam = gf.make_system(4, "real", [(1.0, s, 2.0 * b.T) for s, b in zip(spans, bases_)])
        assert gf.is_gf_orthonormal(theta, 0.0).is_gf_orthonormal
        assert not all(a.subspace.agrees_with(b.subspace, 0.0) for a, b in zip(theta.subsystems, lam.subsystems))
        rep = gf.cross_operator(theta, lam, 0.0)
        assert rep.invertible and rep.intertwine_residual <= 1e-15

    def test_a_loose_tol_does_not_loosen_the_structure_check(self):
        # lam's subspaces are tilted by about 1e-6 out of theta's: far beyond TOL_SUBSPACE, well within tol.
        theta = gf.generate("onb", 6, 3, seed=9)
        noise = np.random.default_rng(0)
        comps = [
            (sub.weight, sub.subspace.basis + 1e-6 * noise.standard_normal(sub.subspace.basis.shape), sub.operator)
            for sub in theta.subsystems
        ]
        lam = gf.make_system(6, "real", comps)
        with pytest.raises(SystemMismatch, match="subspace 0 differs"):
            gf.cross_operator(theta, lam, 1e-3)


def _shaped_system(n, blocks, seed, shape, field):
    """Random system whose total block dimension M is below, equal to or above n."""
    rng = np.random.default_rng(seed)
    total = {
        "under": int(rng.integers(blocks, n)),
        "square": n,
        "over": int(rng.integers(n + 1, 2 * n + blocks + 1)),
    }[shape]
    comps = []
    for m in random_partition(rng, total, blocks):
        k = int(rng.integers(min(m, n), n + 1))
        comps.append((float(rng.uniform(0.5, 2.0)), gaussian_matrix(rng, n, k, field), gaussian_matrix(rng, m, n, field)))
    return gf.make_system(n, field, comps)


def _explicit_gram_riesz_bounds(sys, tol=1e-9):
    """Reference: the eigenvalue extremes of the explicit M x M synthesis Gram T^H T."""
    t = gf.synthesis_matrix(sys)
    w = np.linalg.eigvalsh(adjoint(t) @ t)
    lower = 0.0 if t.shape[1] > sys.dim else max(w[0], 0.0)
    if not gf.is_gf_complete(sys) or np.sqrt(lower) <= tol:
        return None
    return lower, w[-1]


class TestGramSpectrumOracle:
    """The n x n spectral rule against the M x M Gram it replaced."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", ["under", "square", "over"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), blocks=st.integers(1, 7), seed=st.integers(0, 10_000))
    def test_matches_explicit_gram(self, shape, field, n, blocks, seed):
        blocks = 1 + (blocks - 1) % (n - 1)  # 1 <= J < n, so every shape is reachable
        sys = _shaped_system(n, blocks, seed, shape, field)
        t = gf.synthesis_matrix(sys)
        w = np.linalg.eigvalsh(adjoint(t) @ t)
        scale = 1e-10 * max(1.0, w[-1])

        rb, ref = gf.riesz_bounds(sys), _explicit_gram_riesz_bounds(sys)
        assert (rb is None) == (ref is None)
        if rb is not None:
            assert abs(rb.lower - ref[0]) <= scale and abs(rb.upper - ref[1]) <= scale

        rep = gf.verify_correspondence(sys, gf.induce_vectors(sys))
        assert abs(rep.gram_extremes.max_eig - w[-1]) <= scale
        assert abs(rep.gram_extremes.min_eig - w[0]) <= scale
        assert abs(rep.gram_identity_deviation - np.abs(w - 1.0).max()) <= scale
        if shape == "over":
            assert rb is None and rep.gram_extremes.min_eig == 0.0


def _block_gram_deviation(sys):
    """The former J^2 block loop: the largest ||v_i v_j L_j P_j P_i L_i^H - delta_ij I|| over block pairs."""
    blocks = split_blocks(sys, gf.analysis_matrix(sys))
    dev = 0.0
    for i, k_i in enumerate(blocks):
        for j, k_j in enumerate(blocks):
            block = k_i @ adjoint(k_j)
            if i == j:
                block = block - np.eye(block.shape[0])
            dev = max(dev, operator_norm(block))
    return dev


def _block_loop_verdict(sys, tol=1e-9):
    """The gf-orthonormal verdict as the block loop and an explicit ||S - I|| decided it."""
    parseval = operator_norm(gf.frame_operator(sys) - np.eye(sys.dim))
    return bool(_block_gram_deviation(sys) <= tol and parseval <= tol)


class TestGramDeviationOracle:
    """gram_deviation is ||K K^H - I||, read off S's spectrum; the block loop it replaced is the oracle."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", ["under", "square", "over"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), blocks=st.integers(1, 7), seed=st.integers(0, 10_000))
    def test_full_gram_norm_bounds_every_block(self, shape, field, n, blocks, seed):
        blocks = 1 + (blocks - 1) % (n - 1)
        sys = _shaped_system(n, blocks, seed, shape, field)
        k = gf.analysis_matrix(sys)
        s = gf.frame_operator(sys)
        scale = 1e-12 * max(1.0, operator_norm(s))
        verdict = gf.is_gf_orthonormal(sys)
        assert abs(verdict.gram_deviation - operator_norm(k @ adjoint(k) - np.eye(k.shape[0]))) <= scale
        assert verdict.gram_deviation >= _block_gram_deviation(sys) - scale
        assert abs(verdict.parseval_deviation - operator_norm(s - np.eye(n))) <= scale

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["onb", "parseval", "riesz", "frame"])
    def test_verdict_unchanged_on_generated_draws(self, kind, field):
        for seed in range(8):
            sys = gf.generate(kind, 6, 3, seed=seed, field=field)
            verdict = gf.is_gf_orthonormal(sys).is_gf_orthonormal
            assert verdict == _block_loop_verdict(sys)
            if kind == "onb":
                assert verdict

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "weights", [(1.0, 1.0), (2.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1e-8), (1.0 + 1e-10, 1.0), (1.0 + 1e-8, 1.0)]
    )
    def test_verdict_unchanged_on_coordinate_systems(self, weights, field):
        sys = coordinate_system(weights, field)
        assert gf.is_gf_orthonormal(sys).is_gf_orthonormal == _block_loop_verdict(sys)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["onb", "parseval", "riesz", "frame"])
def test_cross_classification_matches_explicit_norms(kind, field):
    # The flags come from one SVD of V; the oracle forms V V^H - I explicitly.
    for seed in range(4):
        theta = gf.generate("onb", 6, 3, seed=seed, field=field)
        lam = gf.generate_like(theta, kind, seed=100 + seed)
        rep = gf.cross_operator(theta, lam)
        v = rep.matrix
        sv = np.linalg.svd(v, compute_uv=False)
        assert rep.adjoint_isometric == (operator_norm(v @ adjoint(v) - np.eye(6)) <= 1e-9)
        assert rep.invertible == bool(sv[-1] > 1e-9 * sv[0])
        assert rep.adjoint_isometric == (kind in ("onb", "parseval"))
