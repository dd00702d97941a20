"""The paper's perturbation bounds checked on constructed instances."""

import numpy as np
import pytest
from helpers import scale_blocks

import gfusion as gf


@pytest.mark.parametrize("field", ["real", "complex"])
def test_published_synthesis_lower_bound_fails_where_the_proof_bound_is_attained(field):
    # One full-space block, so T = v L^H.  Removing gamma along the smallest
    # singular pair (u, v) of T_lam lowers sigma_min by exactly gamma, so the
    # perturbed frame's lower bound is (sqrt(A) - gamma)^2, while ||T_lam - T_theta||
    # = gamma certifies the hypothesis with lam = mu = 0.  The published bound
    # A(1 - (gamma/sqrt(A))^2) = A - gamma^2 exceeds it for any 0 < gamma < sqrt(A).
    lam_sys = gf.generate("riesz", 4, 1, seed=11, field=field)
    (sub,) = lam_sys.subsystems
    assert sub.subspace.dim == lam_sys.dim
    a = gf.frame_bounds(lam_sys).lower
    gamma = 0.3 * np.sqrt(a)
    t_lam = gf.synthesis_matrix(lam_sys)
    u, _, vh = np.linalg.svd(t_lam)
    t_theta = t_lam - gamma * np.outer(u[:, -1], vh[lam_sys.dim - 1])
    theta = gf.make_system(lam_sys.dim, field, [(sub.weight, sub.subspace, t_theta.conj().T / sub.weight)])

    rep = gf.certify_synthesis_perturbation(
        lam_sys, theta, gf.PerturbParams(gamma=gamma * (1 + 1e-9)), samples=0, seed=0
    )
    assert rep.mode == "certified_sufficient"
    assert rep.hypothesis_holds and rep.bracket_ok
    assert rep.stated_lower_bracket_ok is False
    assert rep.actual.lower == pytest.approx((np.sqrt(a) - gamma) ** 2, abs=1e-9)
    assert rep.actual.lower == pytest.approx(rep.predicted.lower, abs=1e-9)
    assert rep.stated_lower == pytest.approx(a - gamma**2, abs=1e-9)


def _scaled_full_space_block(field, c):
    """One full-space block of an orthonormal basis (S_lam = A I, A = B) and theta = c L (S_theta = c^2 A I)."""
    lam_sys = gf.generate("onb", 5, 1, seed=3, field=field)
    assert lam_sys.subsystems[0].subspace.dim == lam_sys.dim
    return lam_sys, scale_blocks(lam_sys, c)


def _assert_attained(rep, c):
    """Shrinking (c < 1) attains the predicted lower bound, growing (c > 1) the upper one, within 1e-12."""
    if c < 1:
        assert abs(rep.predicted.lower - rep.actual.lower) <= 1e-12
    else:
        assert abs(rep.predicted.upper - rep.actual.upper) <= 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("c", [0.9, 1.1])
def test_r_condition_bounds_are_attained_by_a_scaled_full_space_block(field, c):
    # R = |1 - c^2| A < A.  Shrinking attains the lower bound A - R = c^2 A; growing
    # attains the quadratic upper bound B + R sqrt(B/A) = c^2 B.
    rep = gf.certify_R_condition(*_scaled_full_space_block(field, c), samples=0, seed=0)
    assert rep.mode == "certified_sufficient"
    _assert_attained(rep, c)
    assert rep.upper_quadratic == rep.predicted.upper


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("c", [0.9, 1.1])
def test_analysis_bounds_are_attained_by_a_scaled_full_space_block(field, c):
    # D = (1 - c) K, so R = (1 - c)^2 A.  Shrinking attains (sqrt(A) - sqrt(R))^2 = c^2 A;
    # growing attains (sqrt(R) + sqrt(B))^2 = c^2 B.
    rep = gf.certify_analysis_perturbation(*_scaled_full_space_block(field, c))
    assert rep.hypothesis_holds and rep.bracket_ok
    assert rep.radius == pytest.approx((1 - c) ** 2 * rep.actual.upper / c**2, rel=1e-12)
    _assert_attained(rep, c)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("c", [0.9, 1.1])
def test_frame_operator_bounds_are_attained_by_a_scaled_full_space_block(field, c):
    # S_lam - S_theta = (1 - c^2) S_lam: the hypothesis holds with equality at lam = |1 - c^2|
    # (certified, or decided by the ratio witness if round-off tips the certificate).  Shrinking
    # attains A(1 - lam) = c^2 A; growing attains B(1 + lam) = c^2 B.
    lam_sys, theta = _scaled_full_space_block(field, c)
    rep = gf.certify_frame_operator_perturbation(lam_sys, theta, gf.PerturbParams(lam=abs(1 - c**2)), seed=0)
    assert rep.hypothesis_holds and rep.bracket_ok
    _assert_attained(rep, c)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("c", [0.9, 1.1])
def test_synthesis_proof_bounds_are_attained_by_a_scaled_full_space_block(field, c):
    # T_lam - T_theta = (1 - c) T_lam: the hypothesis holds with equality on every vector at
    # lam = |1 - c| (||D|| = sqrt(B) lam > gamma = 0, so it is sampled).  Shrinking attains the
    # proof's A(1 - lam)^2 = c^2 A; growing attains B(1 + lam)^2 = c^2 B.
    lam_sys, theta = _scaled_full_space_block(field, c)
    rep = gf.certify_synthesis_perturbation(lam_sys, theta, gf.PerturbParams(lam=abs(1 - c)), samples=200, seed=0)
    assert rep.mode == "sampled"
    assert rep.hypothesis_holds and rep.bracket_ok
    _assert_attained(rep, c)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("c", [0.9, 1.1])
def test_lemma_forward_bound_is_attained_by_a_scaled_full_space_block(field, c):
    # U = S_theta S_lam^-1 = c^2 I: ||x - Ux|| = |1 - c^2| ||x||, so with lam1 = |1 - c^2| and lam2 = 0
    # the hypothesis holds with equality.  ||Ux|| / ||x|| = c^2 is 1 - lam1 (shrinking) or 1 + lam1 (growing).
    rep = gf.certify_invertibility_lemma(
        *_scaled_full_space_block(field, c), gf.PerturbParams(lam=abs(1 - c**2)), samples=200, seed=0
    )
    assert (rep.lam1, rep.lam2) == (abs(1 - c**2), 0.0)
    assert rep.hypothesis_holds and rep.sandwich_ok
    if c < 1:
        assert abs(rep.sigma_min - rep.forward_lower) <= 1e-12
    else:
        assert abs(rep.norm - rep.forward_upper) <= 1e-12
