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


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("c", [0.9, 1.1])
def test_r_condition_bounds_are_attained_by_a_scaled_full_space_block(field, c):
    # One full-space block of an orthonormal basis, so S_lam = A I with A = B, and
    # theta = c L gives S_theta = c^2 A I and R = |1 - c^2| A < A.  Shrinking (c < 1)
    # attains the lower bound A - R = c^2 A; growing (c > 1) attains the quadratic
    # upper bound B + R sqrt(B/A) = c^2 B.
    lam_sys = gf.generate("onb", 5, 1, seed=3, field=field)
    assert lam_sys.subsystems[0].subspace.dim == lam_sys.dim
    rep = gf.certify_R_condition(lam_sys, scale_blocks(lam_sys, c), samples=0, seed=0)
    assert rep.mode == "certified_sufficient"
    if c < 1:
        assert abs(rep.predicted.lower - rep.actual.lower) <= 1e-12
    else:
        assert abs(rep.upper_quadratic - rep.actual.upper) <= 1e-12
