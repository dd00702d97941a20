"""Tests for the random system generators."""

import numpy as np
import pytest

import gfusion as gf
from gfusion.errors import PreconditionFailed
from gfusion.linalg import adjoint


@pytest.mark.parametrize("field", ["real", "complex"])
def test_onb_kind_is_gf_orthonormal(field):
    for seed in range(5):
        sys = gf.generate("onb", 6, 3, seed=seed, field=field)
        assert gf.is_gf_orthonormal(sys).is_gf_orthonormal


def test_parseval_kind_has_unit_bounds():
    for seed in range(5):
        fb = gf.frame_bounds(gf.generate("parseval", 6, 3, seed=seed))
        np.testing.assert_allclose([fb.lower, fb.upper], [1.0, 1.0], atol=1e-9)


def test_riesz_kind_passes_riesz_verdict():
    for seed in range(5):
        sys = gf.generate("riesz", 8, 4, seed=seed)
        rb = gf.riesz_bounds(sys)
        assert rb is not None and rb.lower > 0


def test_frame_kind_is_frame_with_bounded_condition():
    for seed in range(5):
        fb = gf.frame_bounds(gf.generate("frame", 6, 3, seed=seed))
        assert fb is not None
        assert fb.upper / fb.lower <= 1e6


def test_structured_kinds_share_skeleton_for_same_seed():
    onb = gf.generate("onb", 7, 3, seed=12)
    pars = gf.generate("parseval", 7, 3, seed=12)
    assert onb.block_dims == pars.block_dims
    for a, b in zip(onb.subsystems, pars.subsystems):
        assert a.subspace.agrees_with(b.subspace, 1e-12)


def test_generate_like_shares_structure():
    base = gf.generate("onb", 8, 3, seed=3)
    for kind in ("frame", "parseval", "riesz", "onb"):
        sys = gf.generate_like(base, kind, seed=4)
        assert sys.block_dims == base.block_dims
        assert sys.weights == base.weights
        for a, b in zip(sys.subsystems, base.subsystems):
            assert a.subspace.agrees_with(b.subspace, 1e-12)
        if kind in ("parseval", "onb"):
            assert gf.is_gf_orthonormal(sys).is_gf_orthonormal
        if kind == "riesz":
            assert gf.riesz_bounds(sys) is not None
        assert gf.frame_bounds(sys) is not None


def test_generate_like_structured_requires_onb_base():
    base = gf.generate("frame", 6, 3, seed=5)
    with pytest.raises(PreconditionFailed):
        gf.generate_like(base, "parseval", seed=6)


def test_perturbed_copy_radius_is_exact():
    sys = gf.generate("frame", 6, 3, seed=7)
    theta = gf.perturbed_copy(sys, seed=8, radius=0.03)
    d = np.zeros((6, 6))
    for a, b in zip(sys.subsystems, theta.subsystems):
        k = a.weight * ((b.operator - a.operator) @ a.subspace.projector())
        d += adjoint(k) @ k
    measured = np.sqrt(max(np.linalg.eigvalsh(d)[-1], 0.0))
    assert abs(measured - 0.03) <= 1e-10


def test_perturbed_copy_needs_exactly_one_size():
    sys = gf.generate("frame", 4, 2, seed=9)
    with pytest.raises(ValueError):
        gf.perturbed_copy(sys, seed=1)
    with pytest.raises(ValueError):
        gf.perturbed_copy(sys, seed=1, radius=0.1, scale=0.1)


def test_determinism():
    a = gf.generate("frame", 6, 3, seed=11)
    b = gf.generate("frame", 6, 3, seed=11)
    for sa, sb in zip(a.subsystems, b.subsystems):
        assert np.array_equal(sa.operator, sb.operator)
        assert np.array_equal(sa.subspace.basis, sb.subspace.basis)
        assert sa.weight == sb.weight


def test_partition_rejects_too_many_blocks():
    with pytest.raises(ValueError):
        gf.generate("onb", 3, 5, seed=1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        gf.generate("tight", 4, 2, seed=1)


def test_frame_resampling_gives_up_after_its_fixed_number_of_tries():
    # A condition number of exactly 1 is never drawn; a base whose subspaces miss e_2 never gives a frame.
    with pytest.raises(RuntimeError, match=r"^no frame with condition <= 1 found in 500 tries$"):
        gf.generate("frame", 3, 2, seed=0, max_condition=1.0)
    base = gf.make_system(2, "real", [(1.0, np.array([[1.0], [0.0]]), np.eye(2))])
    with pytest.raises(RuntimeError, match=r"^no frame with condition <= 1e\+06 found in 500 tries$"):
        gf.generate_like(base, "frame", seed=0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_matched_frames_are_resampled_to_condition_at_most_1e6(field):
    base = gf.generate("frame", 5, 3, seed=8, field=field)
    for seed in range(5):
        fb = gf.frame_bounds(gf.generate_like(base, "frame", seed=seed))
        assert fb.upper / fb.lower <= 1e6


def test_perturbed_copy_rejects_a_negative_radius():
    lam = gf.generate("frame", 4, 2, seed=1)
    with pytest.raises(ValueError, match="radius"):
        gf.perturbed_copy(lam, seed=2, radius=-0.05)
    assert gf.perturbed_copy(lam, seed=2, scale=-0.05).dim == 4  # scale stays unrestricted


@pytest.mark.parametrize("dim, blocks", [(0, 1), (3, 0)])
def test_generate_rejects_an_empty_shape(dim, blocks):
    with pytest.raises(ValueError, match=f"dim and blocks must be at least 1, got dim={dim}, blocks={blocks}"):
        gf.generate("frame", dim, blocks, seed=1)

