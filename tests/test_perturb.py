"""Tests for the perturbation certifiers and the invertibility lemma check."""

import numpy as np
import pytest
from helpers import coordinate_system, fitted_radius, full_space_system, scale_blocks

import gfusion as gf
from gfusion.errors import SystemMismatch
from gfusion.linalg import adjoint, hermitian_eigen_extremes, operator_norm
from gfusion.perturb import _ascend, _margin_objective
from gfusion.sampling import gaussian_matrix, haar_unitary, random_unit_vectors, well_conditioned_matrix


def small_frame(seed, dim=6, blocks=3):
    return gf.generate("frame", dim, blocks, seed=seed, max_condition=50)


class TestInvertibilityLemma:
    def test_identity_trivial(self):
        rep = gf.check_invertibility_lemma(np.eye(4), 0.0, 0.0, samples=200, seed=1)
        assert rep.hypothesis_holds and rep.sandwich_ok
        assert rep.forward_lower == rep.forward_upper == 1.0
        assert abs(rep.norm - 1.0) <= 1e-12

    def test_scalar_inflation(self):
        rep = gf.check_invertibility_lemma(1.1 * np.eye(3), 0.1, 0.0, samples=200, seed=2)
        assert rep.hypothesis_holds and rep.sandwich_ok
        assert abs(rep.norm - 1.1) <= 1e-12
        assert rep.forward_lower <= 1.1 <= rep.forward_upper

    def test_random_contraction(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal((5, 5))
        e *= 0.05 / operator_norm(e)
        rep = gf.check_invertibility_lemma(np.eye(5) + e, 0.05, 0.0, samples=500, seed=4)
        assert rep.hypothesis_holds
        assert rep.hypothesis_margin <= 0.0
        assert rep.sandwich_ok

    def test_detects_violation(self):
        rep = gf.check_invertibility_lemma(2.0 * np.eye(3), 0.1, 0.0, samples=200, seed=5)
        assert not rep.hypothesis_holds
        assert rep.hypothesis_margin > 0.0

    def test_rejects_bad_lambdas(self):
        with pytest.raises(ValueError):
            gf.check_invertibility_lemma(np.eye(2), 1.0, 0.0, samples=10, seed=0)


class TestFrameOperatorCertifier:
    def test_identical_systems(self):
        lam = small_frame(1)
        rep = gf.certify_frame_operator_perturbation(lam, lam, gf.PerturbParams(), samples=0, seed=0)
        fb = gf.frame_bounds(lam)
        assert rep.mode == "certified_sufficient"
        assert rep.hypothesis_holds and rep.bracket_ok
        assert abs(rep.predicted.lower - fb.lower) <= 1e-12
        assert abs(rep.predicted.upper - fb.upper) <= 1e-12

    def test_uniform_scaling_of_parseval_system(self):
        # Scaling every block operator by sqrt(1+d) scales S by (1+d); with
        # lam = d the predicted window [A(1-d), B(1+d)] brackets the actual
        # spectrum (1+d)*[A, B] (upper edge with equality).
        delta = 0.05
        lam = gf.generate("parseval", 6, 3, seed=6)
        theta = scale_blocks(lam, np.sqrt(1.0 + delta))
        rep = gf.certify_frame_operator_perturbation(
            lam, theta, gf.PerturbParams(lam=delta * (1 + 1e-9)), samples=0, seed=0
        )
        assert rep.mode == "certified_sufficient"
        assert rep.hypothesis_holds and rep.bracket_ok
        assert abs(rep.actual.upper - (1 + delta)) <= 1e-9

    def test_fitted_random_perturbation_certifies(self):
        for seed in range(5):
            lam = small_frame(10 + seed)
            theta = gf.perturbed_copy(lam, seed=50 + seed, radius=fitted_radius(lam))
            ds = operator_norm(gf.frame_operator(lam) - gf.frame_operator(theta))
            p = gf.PerturbParams(lam=min(ds / gf.frame_bounds(lam).lower * (1 + 1e-9), 0.999))
            rep = gf.certify_frame_operator_perturbation(lam, theta, p, samples=0, seed=0)
            assert rep.mode == "certified_sufficient"
            assert rep.hypothesis_holds and rep.bracket_ok

    def test_sampled_mode_full_space_scaling(self):
        # One full-space block: every sampled subset is the whole set and the
        # margin stays bounded away from zero, so the sampled check holds.
        delta = 0.05
        op = well_conditioned_matrix(np.random.default_rng(7), 5, "real")
        lam = full_space_system(op)
        theta = scale_blocks(lam, np.sqrt(1.0 + delta))
        b = gf.frame_bounds(lam).upper
        p = gf.PerturbParams(gamma=delta * np.sqrt(b) * (1 + 1e-3))
        rep = gf.certify_frame_operator_perturbation(lam, theta, p, samples=500, seed=8)
        assert rep.mode == "sampled"
        assert rep.hypothesis_holds
        assert rep.hypothesis_margin < -1e-8
        assert rep.bracket_ok

    def test_inadmissible_params(self):
        lam = small_frame(2)
        p = gf.PerturbParams(lam=0.95, gamma=np.sqrt(gf.frame_bounds(lam).lower))
        rep = gf.certify_frame_operator_perturbation(lam, lam, p, samples=0, seed=0)
        assert not rep.params_admissible
        assert not rep.hypothesis_holds
        assert rep.predicted is None

    def test_mismatch_raises(self):
        lam = coordinate_system((1.0, 1.0))
        theta = coordinate_system((1.0, 2.0))
        with pytest.raises(SystemMismatch):
            gf.certify_frame_operator_perturbation(lam, theta, gf.PerturbParams(), samples=0, seed=0)

    def test_actual_is_frame_operator_spectrum(self):
        lam = small_frame(3)
        theta = gf.perturbed_copy(lam, seed=4, scale=0.01)
        rep = gf.certify_frame_operator_perturbation(lam, theta, gf.PerturbParams(lam=0.5), samples=0, seed=0)
        ext = hermitian_eigen_extremes(gf.frame_operator(theta))
        assert rep.actual.lower == ext.min_eig
        assert rep.actual.upper == ext.max_eig


class TestRConditionCertifier:
    def test_identical_systems(self):
        lam = small_frame(5)
        fb = gf.frame_bounds(lam)
        rep = gf.certify_R_condition(lam, lam, samples=0, seed=0)
        assert rep.mode == "certified_sufficient"
        assert rep.radius == 0.0
        assert rep.hypothesis_holds and rep.bracket_ok
        assert abs(rep.predicted.lower - fb.lower) <= 1e-12
        assert abs(rep.upper_quadratic - fb.upper) <= 1e-12
        assert abs(rep.upper_mixed - np.sqrt(fb.upper)) <= 1e-12

    def test_scalar_case(self):
        eps = 0.1
        lam = full_space_system(np.array([[1.0]]))
        theta = full_space_system(np.array([[1.0 + eps]]))
        rep = gf.certify_R_condition(lam, theta, samples=0, seed=0)
        r = abs(1.0 - (1.0 + eps) ** 2)
        assert abs(rep.radius - r) <= 1e-12
        assert rep.hypothesis_holds
        assert rep.predicted.lower <= (1.0 + eps) ** 2 + 1e-9
        assert rep.bracket_ok

    def test_small_random_perturbation(self):
        for seed in range(5):
            lam = small_frame(20 + seed)
            a = gf.frame_bounds(lam).lower
            theta = gf.perturbed_copy(lam, seed=70 + seed, scale=1.0)
            r_cert = sum(
                ls.weight**2 * operator_norm(
                    ls.subspace.projector()
                    @ (adjoint(ls.operator) @ ls.operator - adjoint(ts.operator) @ ts.operator)
                    @ ls.subspace.projector()
                )
                for ls, ts in zip(lam.subsystems, theta.subsystems)
            )
            # rescale until the triangle-inequality radius is safely below A
            scale = 0.3 * a / r_cert
            theta = gf.perturbed_copy(lam, seed=70 + seed, scale=scale)
            rep = gf.certify_R_condition(lam, theta, samples=0, seed=0)
            assert rep.mode == "certified_sufficient"
            assert rep.hypothesis_holds and rep.bracket_ok
            assert rep.upper_quadratic_ok

    def test_sampled_fallback_on_disjoint_blocks(self):
        # Block differences supported on disjoint coordinates: the sum of the
        # per-block norms exceeds A but the actual functional maximum stays
        # below it, so the certifier falls back to the sampled radius.
        n = 4
        eye = np.eye(n)
        t = np.sqrt(0.6)
        lam = gf.make_system(n, "real", [(1.0, eye, eye[[j], :]) for j in range(n)])
        theta = gf.make_system(n, "real", [(1.0, eye, t * eye[[j], :]) for j in range(n)])
        rep = gf.certify_R_condition(lam, theta, samples=800, seed=9)
        assert rep.radius_certificate > 1.0  # 4 * 0.4
        assert rep.mode == "sampled"
        assert rep.warning is not None
        assert rep.hypothesis_holds
        assert rep.radius <= 0.4 * np.sqrt(n) + 1e-9
        assert rep.bracket_ok


class TestSynthesisCertifier:
    def test_identical_systems(self):
        lam = small_frame(30)
        fb = gf.frame_bounds(lam)
        rep = gf.certify_synthesis_perturbation(lam, lam, gf.PerturbParams(), samples=0, seed=0)
        assert rep.mode == "certified_sufficient"
        assert rep.hypothesis_holds and rep.bracket_ok
        assert abs(rep.predicted.lower - fb.lower) <= 1e-12
        assert abs(rep.predicted.upper - fb.upper) <= 1e-12
        assert abs(rep.stated_lower - fb.lower) <= 1e-12

    def test_norm_certificate(self):
        for seed in range(5):
            lam = small_frame(40 + seed)
            theta = gf.perturbed_copy(lam, seed=90 + seed, radius=fitted_radius(lam))
            dt = operator_norm(gf.synthesis_matrix(lam) - gf.synthesis_matrix(theta))
            rep = gf.certify_synthesis_perturbation(
                lam, theta, gf.PerturbParams(gamma=dt * (1 + 1e-9)), samples=0, seed=0
            )
            assert rep.mode == "certified_sufficient"
            assert rep.hypothesis_holds and rep.bracket_ok
            # The published lower-bound formula is looser than the proof's on
            # paper but can overshoot the actual spectrum; it is reported,
            # not asserted.  It always dominates the proof-derived bound.
            assert rep.stated_lower >= rep.predicted.lower - 1e-12

    def test_synthesis_norm_equals_analysis_radius(self):
        # cross-check of two independent routes to the perturbation size:
        # ||T_lam - T_theta||^2 equals the exact analysis-side radius.
        lam = small_frame(41)
        theta = gf.perturbed_copy(lam, seed=13, radius=0.05)
        dt = operator_norm(gf.synthesis_matrix(lam) - gf.synthesis_matrix(theta))
        rep = gf.certify_analysis_perturbation(lam, theta)
        assert abs(dt**2 - rep.radius) <= 1e-10

    def test_loose_mu_still_brackets(self):
        lam = small_frame(31)
        rep = gf.certify_synthesis_perturbation(lam, lam, gf.PerturbParams(mu=0.5), samples=0, seed=0)
        assert rep.hypothesis_holds and rep.bracket_ok
        assert rep.predicted.lower <= gf.frame_bounds(lam).lower

    def test_sampled_mode_full_space(self):
        rng = np.random.default_rng(17)
        op = well_conditioned_matrix(rng, 5, "real")
        lam = full_space_system(op)
        e = rng.standard_normal((5, 5))
        e /= operator_norm(e)
        t_lam = gf.synthesis_matrix(lam)
        rho0 = operator_norm(adjoint(e) @ np.linalg.inv(t_lam))
        c = 0.2 / rho0
        theta = gf.GFusionSystem(
            5, "real", (gf.Subsystem(1.0, lam.subsystems[0].subspace, op + c * e),)
        )
        rho = operator_norm((t_lam - gf.synthesis_matrix(theta)) @ np.linalg.inv(t_lam))
        rep = gf.certify_synthesis_perturbation(
            lam, theta, gf.PerturbParams(lam=rho * (1 + 1e-3)), samples=500, seed=18
        )
        assert rep.mode == "sampled"
        assert rep.hypothesis_holds
        assert rep.hypothesis_margin < -1e-8
        assert rep.bracket_ok

    def test_sampler_detects_violation(self):
        lam = coordinate_system((1.0, 1.0))
        theta = gf.make_system(
            2, "real",
            [(1.0, np.array([[1.0], [0.0]]), np.array([[1.3, 0.0]])),
             (1.0, np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]))],
        )
        # ||dT|| = 0.3 but gamma = 0.15: the hypothesis fails and the ascent
        # finds a violating direction.
        rep = gf.certify_synthesis_perturbation(
            lam, theta, gf.PerturbParams(gamma=0.15), samples=500, seed=19
        )
        assert rep.mode == "sampled"
        assert not rep.hypothesis_holds
        assert rep.hypothesis_margin > 0.0


class TestAnalysisCertifier:
    def test_identical_systems(self):
        lam = small_frame(50)
        fb = gf.frame_bounds(lam)
        rep = gf.certify_analysis_perturbation(lam, lam)
        assert rep.mode == "exact"
        assert rep.radius == 0.0
        assert rep.hypothesis_holds and rep.bracket_ok
        assert abs(rep.predicted.lower - fb.lower) <= 1e-9
        assert abs(rep.predicted.upper - fb.upper) <= 1e-9

    def test_scalar_case(self):
        eps = 0.2
        lam = full_space_system(np.array([[1.0]]))
        theta = full_space_system(np.array([[1.0 + eps]]))
        rep = gf.certify_analysis_perturbation(lam, theta)
        assert abs(rep.radius - eps**2) <= 1e-14
        np.testing.assert_allclose(
            [rep.predicted.lower, rep.predicted.upper], [(1 - eps) ** 2, (1 + eps) ** 2], atol=1e-12
        )
        assert rep.bracket_ok

    def test_radius_quarter_of_lower_bound(self):
        for seed in range(5):
            lam = small_frame(60 + seed)
            a = gf.frame_bounds(lam).lower
            theta = gf.perturbed_copy(lam, seed=110 + seed, radius=0.5 * np.sqrt(a))
            rep = gf.certify_analysis_perturbation(lam, theta)
            assert abs(rep.radius - 0.25 * a) <= 1e-10 * max(1.0, a)
            assert rep.hypothesis_holds and rep.bracket_ok

    def test_quadratic_scaling_law(self):
        lam = small_frame(51)
        base_scale = 0.05
        r1 = gf.certify_analysis_perturbation(lam, gf.perturbed_copy(lam, seed=7, scale=base_scale)).radius
        for t in (0.5, 0.25, 0.1):
            rt = gf.certify_analysis_perturbation(
                lam, gf.perturbed_copy(lam, seed=7, scale=t * base_scale)
            ).radius
            assert abs(rt - t**2 * r1) <= 1e-10 * max(1.0, r1)

    def test_too_large_radius_fails(self):
        lam = small_frame(52)
        a = gf.frame_bounds(lam).lower
        theta = gf.perturbed_copy(lam, seed=8, radius=2.0 * np.sqrt(a))
        rep = gf.certify_analysis_perturbation(lam, theta)
        assert not rep.hypothesis_holds
        assert rep.predicted is None
        assert rep.hypothesis_margin > 0.0


def test_zero_perturbation_fixed_point_all_certifiers():
    lam = small_frame(70)
    fb = gf.frame_bounds(lam)
    reports = [
        gf.certify_frame_operator_perturbation(lam, lam, gf.PerturbParams(), samples=0, seed=0),
        gf.certify_R_condition(lam, lam, samples=0, seed=0),
        gf.certify_synthesis_perturbation(lam, lam, gf.PerturbParams(), samples=0, seed=0),
        gf.certify_analysis_perturbation(lam, lam),
    ]
    for rep in reports:
        assert rep.hypothesis_holds
        assert rep.predicted.lower <= fb.lower + 1e-9
        assert rep.predicted.upper >= fb.upper - 1e-9
        assert rep.bracket_ok


# ---------------------------------------------------------------------------
# The batched ascent against the column-by-column loop it replaced.


def _reference_ascent(d_m, l_m, t_m, params, quad_form, starts, steps):
    """Column-by-column projected-gradient ascent with separate value and gradient; each start's best value."""

    def value(f):
        out = np.linalg.norm(d_m @ f) - params.lam * np.linalg.norm(l_m @ f)
        out -= params.mu * np.linalg.norm(t_m @ f)
        if params.gamma:
            if quad_form:
                out -= params.gamma * np.sqrt(max(np.vdot(f, l_m @ f).real, 0.0))
            else:
                out -= params.gamma * np.linalg.norm(f)
        return float(out)

    def grad(f):
        g = np.zeros_like(f)
        df, lf, tf = d_m @ f, l_m @ f, t_m @ f
        dn, ln, tn = np.linalg.norm(df), np.linalg.norm(lf), np.linalg.norm(tf)
        if dn > 0:
            g = g + adjoint(d_m) @ df / dn
        if params.lam and ln > 0:
            g = g - params.lam * (adjoint(l_m) @ lf) / ln
        if params.mu and tn > 0:
            g = g - params.mu * (adjoint(t_m) @ tf) / tn
        if params.gamma:
            if quad_form:
                q = max(np.vdot(f, lf).real, 0.0)
                if q > 0:
                    g = g - params.gamma * lf / np.sqrt(q)
            else:
                g = g - params.gamma * f
        return g

    best = []
    for idx in range(starts.shape[1]):
        f = starts[:, idx]
        cur = value(f)
        eta = 0.25
        for _ in range(steps):
            g = grad(f)
            g = g - np.real(np.vdot(f, g)) * f
            if np.linalg.norm(g) < 1e-14:
                break
            cand = f + eta * g
            cand = cand / np.linalg.norm(cand)
            cv = value(cand)
            if cv > cur:
                f, cur = cand, cv
            else:
                eta *= 0.5
                if eta < 1e-8:
                    break
        best.append(cur)
    return np.array(best)


def _triple(rng, field, rows, cols, quad_form):
    d_m, l_m, t_m = (gaussian_matrix(rng, rows, cols, field) for _ in range(3))
    if quad_form:  # the frame-operator hypothesis: square, L positive semidefinite
        l_m = adjoint(l_m) @ l_m
    return d_m, l_m, t_m


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("quad_form", [False, True])
@pytest.mark.parametrize("lam, mu, gamma", [(a, b, c) for a in (0.0, 0.3) for b in (0.0, 0.2) for c in (0.0, 0.1)])
def test_batched_ascent_matches_column_by_column(field, k, quad_form, lam, mu, gamma):
    rng = np.random.default_rng([k, quad_form, int(10 * lam), int(10 * mu), int(10 * gamma), field == "complex"])
    cols = 6
    d_m, l_m, t_m = _triple(rng, field, cols if quad_form else 4, cols, quad_form)
    params = gf.PerturbParams(lam=lam, mu=mu, gamma=gamma)
    starts = random_unit_vectors(rng, cols, k, field)
    objective = _margin_objective(d_m, l_m, t_m, params, quad_form)
    got = _ascend(objective, starts, 50)
    want = _reference_ascent(d_m, l_m, t_m, params, quad_form, starts, 50)
    assert got.shape == (k,)
    np.testing.assert_array_less(np.abs(got - want), 1e-9 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("quad_form", [False, True])
@pytest.mark.parametrize("lam, mu, gamma", [(a, b, c) for a in (0.0, 0.3) for b in (0.0, 0.2) for c in (0.0, 0.1)])
def test_screening_margins_are_bit_identical_with_zero_terms_skipped(field, quad_form, lam, mu, gamma):
    # The screening formula with every term evaluated: x + 0.0 * y == x, so
    # skipping the terms whose coefficient is 0 changes no bit.
    rng = np.random.default_rng([3, quad_form, field == "complex"])
    d_m, l_m, t_m = _triple(rng, field, 6 if quad_form else 4, 6, quad_form)
    f = random_unit_vectors(rng, 6, 300, field)
    rhs = lam * np.linalg.norm(l_m @ f, axis=0) + mu * np.linalg.norm(t_m @ f, axis=0)
    if gamma:
        if quad_form:
            q = np.einsum("is,is->s", f.conj(), l_m @ f).real
            rhs = rhs + gamma * np.sqrt(np.clip(q, 0.0, None))
        else:
            rhs = rhs + gamma
    want = np.linalg.norm(d_m @ f, axis=0) - rhs
    objective = _margin_objective(d_m, l_m, t_m, gf.PerturbParams(lam=lam, mu=mu, gamma=gamma), quad_form)
    got, grad = objective(f, grad=False)
    assert grad is None
    assert np.array_equal(got, want)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 5])
def test_batched_ascent_reaches_the_top_singular_value(field, k):
    # ||A f|| on the unit sphere peaks at sigma_max(A) = 3; a spectral gap of 2
    # makes the ascent converge well within its steps.  With k = 5, the first
    # start is the right singular vector of sigma = 1.5, a stationary point:
    # that column stops at once while the others climb on.
    rng = np.random.default_rng(7 + k)
    w = haar_unitary(rng, 5, field)
    a = haar_unitary(rng, 5, field) @ np.diag([3.0, 1.5, 1.0, 0.5, 0.1]) @ w
    zero = np.zeros_like(a)
    objective = _margin_objective(a, zero, zero, gf.PerturbParams(), False)
    starts = random_unit_vectors(rng, 5, k, field)
    want = np.full(k, 3.0)
    if k > 1:
        starts[:, 0], want[0] = adjoint(w)[:, 1], 1.5
    got = _ascend(objective, starts, 200)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# The sampled path pinned on fixed instances: a change to the draws, their
# order, the screening or the ascent's arithmetic beyond round-off shows here.
# Values recorded with the column-by-column ascent.


def _sampled_pair(field, seed):
    lam = gf.generate("frame", 6, 3, seed=seed, field=field, max_condition=50)
    radius = 0.3 * np.sqrt(gf.frame_bounds(lam).lower)  # too far for the norm certificates
    return lam, gf.perturbed_copy(lam, seed=seed + 100, radius=radius)


def test_pinned_sampled_frame_operator_margin():
    lam, theta = _sampled_pair("real", 3)
    p = gf.PerturbParams(lam=0.3, mu=0.2, gamma=0.05)
    rep = gf.certify_frame_operator_perturbation(lam, theta, p, samples=400, seed=11)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", False)
    assert rep.sampled_margin == pytest.approx(0.08638651094585831, rel=1e-6)


def test_pinned_sampled_synthesis_margin():
    lam, theta = _sampled_pair("complex", 4)
    rep = gf.certify_synthesis_perturbation(lam, theta, gf.PerturbParams(lam=0.3), samples=400, seed=12)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", False)
    assert rep.sampled_margin == pytest.approx(0.12351959783338727, rel=1e-6)


def test_pinned_sampled_radius():
    lam, theta = _sampled_pair("real", 3)
    rep = gf.certify_R_condition(lam, theta, samples=400, seed=13)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", True)
    assert rep.radius_sampled == pytest.approx(0.29246883711373856, rel=1e-6)
