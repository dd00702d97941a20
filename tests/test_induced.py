"""Tests for the induced vector family and its correspondence with the system."""

import numpy as np
import pytest
from helpers import coordinate_system, run_cli

import gfusion as gf
from gfusion.errors import BadBasis, DimensionMismatch
from gfusion.linalg import adjoint, operator_norm
from gfusion.sampling import haar_unitary


class TestInduceVectors:
    def test_coordinate_system_induces_standard_basis(self):
        fam = gf.induce_vectors(coordinate_system((1.0, 1.0)))
        assert fam.count == 2
        np.testing.assert_allclose(fam.entries[0][2], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(fam.entries[1][2], [0.0, 1.0], atol=1e-15)

    def test_weight_scales_induced_vector(self):
        fam = gf.induce_vectors(coordinate_system((2.0, 1.0)))
        np.testing.assert_allclose(fam.entries[0][2], [2.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pairing_identity(self, field):
        # <f, u_{j,k}> equals <v_j L_j P_j f, e_{j,k}> for every f.
        rng = np.random.default_rng(5)
        sys = gf.generate("frame", 6, 3, seed=7, field=field)
        fam = gf.induce_vectors(sys)
        for _ in range(20):
            f = rng.standard_normal(6)
            if field == "complex":
                f = f + 1j * rng.standard_normal(6)
            for j, k, u in fam.entries:
                sub = sys.subsystems[j]
                block = sub.weight * (sub.operator @ (sub.subspace.projector() @ f))
                lhs = np.vdot(u, f)        # <f, u>
                rhs = block[k]             # <v L P f, e_k> with standard e_k
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_block_expansion_identity(self):
        # v_j L_j P_j f = sum_k <f, u_{j,k}> e_{j,k}
        rng = np.random.default_rng(6)
        sys = gf.generate("frame", 5, 2, seed=9)
        fam = gf.induce_vectors(sys)
        for _ in range(20):
            f = rng.standard_normal(5)
            for j, sub in enumerate(sys.subsystems):
                vecs = [u for (jj, _, u) in fam.entries if jj == j]
                expansion = np.array([np.vdot(u, f) for u in vecs])
                block = sub.weight * (sub.operator @ (sub.subspace.projector() @ f))
                assert np.linalg.norm(expansion - block) <= 1e-10 * max(1.0, np.linalg.norm(block))

    def test_block_synthesis_identity(self):
        # v_j P_j L_j^H g = sum_k <g, e_{j,k}> u_{j,k} for g in the block space.
        rng = np.random.default_rng(7)
        sys = gf.generate("frame", 5, 2, seed=11)
        fam = gf.induce_vectors(sys)
        for j, sub in enumerate(sys.subsystems):
            vecs = np.column_stack([u for (jj, _, u) in fam.entries if jj == j])
            for _ in range(10):
                g = rng.standard_normal(sub.block_dim)
                lhs = sub.weight * (sub.subspace.projector() @ (adjoint(sub.operator) @ g))
                rhs = vecs @ g
                assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))

    def test_bessel_inequality_per_block(self):
        rng = np.random.default_rng(8)
        sys = gf.generate("frame", 6, 3, seed=13)
        fam = gf.induce_vectors(sys)
        for _ in range(20):
            f = rng.standard_normal(6)
            for j, sub in enumerate(sys.subsystems):
                total = sum(abs(np.vdot(u, f)) ** 2 for (jj, _, u) in fam.entries if jj == j)
                bound = sub.weight**2 * operator_norm(sub.operator) ** 2 * np.vdot(f, f).real
                assert total <= bound + 1e-9

    def test_rejects_bad_basis(self):
        sys = coordinate_system((1.0, 1.0))
        for bad in (2.0, np.nan):
            with pytest.raises(BadBasis):
                gf.induce_vectors(sys, [np.array([[bad]]), np.array([[1.0]])])

    def test_rejects_wrong_block_count(self):
        sys = coordinate_system((1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            gf.induce_vectors(sys, [np.array([[1.0]])])


class TestCorrespondence:
    def test_parseval_coordinates_give_standard_onb(self):
        sys = coordinate_system((1.0, 1.0))
        rep = gf.verify_correspondence(sys, gf.induce_vectors(sys))
        assert rep.gram_identity_deviation <= 1e-14
        assert rep.family_orthonormal_basis

    def test_weighted_coordinates_operator(self):
        sys = coordinate_system((2.0, 1.0))
        fam = gf.induce_vectors(sys)
        u = fam.matrix()
        np.testing.assert_allclose(u @ adjoint(u), np.diag([4.0, 1.0]), atol=1e-14)
        rep = gf.verify_correspondence(sys, fam)
        assert rep.coincidence_residual <= 1e-14
        assert rep.bounds_agree

    @pytest.mark.parametrize("kind", ["frame", "parseval", "riesz", "onb"])
    def test_operator_coincidence_all_kinds(self, kind):
        sys = gf.generate(kind, 7, 3, seed=19)
        rep = gf.verify_correspondence(sys, gf.induce_vectors(sys))
        assert rep.coincidence_residual <= 1e-10
        assert rep.bounds_agree

    def test_riesz_system_matches_family_gram(self):
        sys = gf.generate("riesz", 8, 3, seed=23)
        rep = gf.verify_correspondence(sys, gf.induce_vectors(sys))
        assert rep.riesz_agree

    def test_onb_system_gives_orthonormal_family(self):
        sys = gf.generate("onb", 8, 3, seed=29)
        rep = gf.verify_correspondence(sys, gf.induce_vectors(sys))
        assert rep.gram_identity_deviation <= 1e-10
        assert rep.count == 8
        assert rep.family_orthonormal_basis

    def test_verdicts_independent_of_block_bases(self):
        # Re-inducing with rotated block bases changes the vectors but not
        # the frame operator or the bounds.
        rng = np.random.default_rng(31)
        sys = gf.generate("frame", 6, 3, seed=37)
        fam_std = gf.induce_vectors(sys)
        onbs = [haar_unitary(rng, m, sys.field) for m in sys.block_dims]
        fam_rot = gf.induce_vectors(sys, onbs)
        assert not np.allclose(fam_std.matrix(), fam_rot.matrix())
        rep_std = gf.verify_correspondence(sys, fam_std)
        rep_rot = gf.verify_correspondence(sys, fam_rot)
        assert rep_rot.coincidence_residual <= 1e-10
        assert abs(rep_std.induced_extremes.min_eig - rep_rot.induced_extremes.min_eig) <= 1e-10
        assert abs(rep_std.induced_extremes.max_eig - rep_rot.induced_extremes.max_eig) <= 1e-10

    def test_family_matrix_is_stacked_once_per_request_and_read_only(self, tmp_path, monkeypatch):
        fam = gf.induce_vectors(gf.generate("frame", 5, 3, seed=4))
        u = fam.matrix()
        assert u is fam.matrix() and not u.flags.writeable
        path = tmp_path / "f.json"
        gf.save_system(gf.generate("frame", 5, 3, seed=4), str(path))
        stacks = []
        column_stack = np.column_stack

        def counted(*args, **kwargs):
            stacks.append(args)
            return column_stack(*args, **kwargs)

        monkeypatch.setattr(np, "column_stack", counted)
        code, out = run_cli(["induce", str(path)])
        assert code == 0 and len(stacks) == 1
