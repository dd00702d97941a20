"""Tests for the perturbation certifiers and the invertibility lemma check."""

import functools
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import coordinate_system, fitted_radius, full_space_system, run_cli, scale_blocks
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gfusion as gf
from gfusion import perturb
from gfusion.errors import NonFiniteInput, NotAFrameError, SystemMismatch
from gfusion.linalg import TOL_SAMPLED_MARGIN, adjoint, operator_norm
from gfusion.perturb import _ascend, _norm_objective, _subset_masks
from gfusion.sampling import gaussian_matrix, haar_unitary, random_unit_vectors, well_conditioned_matrix


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_witness_decides_a_single_weak_direction(self, field):
        # ||x - Ux|| <= 0.3 fails only near e_n, where it is 0.5: random
        # samples in 50 dimensions stay below 0.3, the top right singular
        # vector of I - U does not.
        u = np.diag([1.0] * 49 + [0.5]).astype(np.complex128 if field == "complex" else np.float64)
        rep = gf.check_invertibility_lemma(u, 0.3, 0.0, samples=2000, seed=1)
        assert not rep.hypothesis_holds
        assert rep.hypothesis_margin == pytest.approx(0.2, abs=1e-12)

    def test_detects_violation(self):
        rep = gf.check_invertibility_lemma(2.0 * np.eye(3), 0.1, 0.0, samples=200, seed=5)
        assert not rep.hypothesis_holds
        assert rep.hypothesis_margin > 0.0

    def test_rejects_bad_lambdas(self):
        with pytest.raises(ValueError):
            gf.check_invertibility_lemma(np.eye(2), 1.0, 0.0, samples=10, seed=0)

    def test_non_finite_u_or_margin_is_an_input_error_without_a_warning(self):
        with pytest.raises(NonFiniteInput, match=r"^U contains NaN or Inf entries$"):
            gf.check_invertibility_lemma(np.array([[np.nan]]), 0.1, 0.0, samples=10, seed=0)
        # U is finite, but ||U x|| squares 1e200.
        with pytest.raises(NonFiniteInput, match=r"^the sampled hypothesis margin overflows a float \(overflow"):
            gf.check_invertibility_lemma(np.array([[1e200]]), 0.1, 0.0, samples=10, seed=0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_lemma_certificate_is_sound_and_draws_only_when_undecided(monkeypatch, field):
    # n = 1..8, U near I (I plus a perturbation of norm up to 0.5) or far from it (a matrix of norm up to 3),
    # lam1 and lam2 uniform in [0, 1), every third lam2 = 0.  A 20000-sample search plus the witness (the top right
    # singular vector of I - U, computed here) never exceeds cert_margin, and refutes no verdict that holds, sampled
    # ones included; and the lemma draws exactly when neither the certificate nor the witness decides.
    rng = np.random.default_rng(24)
    calls = _count_draws(monkeypatch)
    seen = set()
    for i in range(200):
        n, near = int(rng.integers(1, 9)), i % 2 == 0
        e = gaussian_matrix(rng, n, n, field)
        u = (np.eye(n) if near else 0.0) + e * (rng.uniform(0.0, 0.5 if near else 3.0) / operator_norm(e))
        lam1, lam2 = rng.uniform(0.0, 1.0, 2)
        lam2 = 0.0 if i % 3 == 0 else lam2

        def margins(x):
            ux = u @ x
            return np.linalg.norm(x - ux, axis=0) - lam1 - lam2 * np.linalg.norm(ux, axis=0)

        before = len(calls)
        rep = gf.check_invertibility_lemma(u, lam1, lam2, samples=50, seed=i)
        drawn = len(calls) - before
        witness = margins(np.linalg.svd(np.eye(n) - u)[2][:1].conj().T)[0]
        searched = max(margins(random_unit_vectors(np.random.default_rng(1000 + i), n, 20000, field)).max(), witness)
        assert searched <= rep.cert_margin + TOL_SAMPLED_MARGIN
        if rep.hypothesis_holds:
            assert searched <= TOL_SAMPLED_MARGIN, (i, rep)
        if lam2 == 0.0:
            assert (rep.mode, drawn, rep.hypothesis_holds) == ("exact", 0, rep.cert_margin <= TOL_SAMPLED_MARGIN)
        elif rep.cert_margin > TOL_SAMPLED_MARGIN and witness <= TOL_SAMPLED_MARGIN:
            assert (rep.mode, drawn) == ("sampled", 1)
        else:
            assert drawn == 0 and rep.hypothesis_holds == (rep.mode == "certified_sufficient")
        seen.add((rep.mode, drawn, bool(rep.hypothesis_holds)))
    # every branch is taken: certified, exact both ways, refuted by the witness, and drawn: the real sweep's one
    # drawn hold was false (i = 196, now refuted by the search's ascent), so the real sweep draws and refutes, the
    # complex one draws and holds
    drawn_branch = ("sampled", 1, field == "complex")
    assert {("certified_sufficient", 0, True), ("exact", 0, True), ("exact", 0, False), ("sampled", 0, False),
            drawn_branch} <= seen, seen


class TestInvertibilityLemmaOnSystems:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_equals_the_lemma_on_the_hand_built_operator(self, field):
        # The two frames differ in block count and subspaces: the lemma needs neither to match.
        lam = gf.generate("frame", 6, 3, seed=81, field=field, max_condition=50)
        theta = gf.generate("frame", 6, 4, seed=82, field=field, max_condition=50)
        p = gf.PerturbParams(lam=0.2, mu=0.1, gamma=0.05)
        u = gf.frame_operator(theta) @ gf.inverse_frame_operator(lam)
        lam1 = p.lam + p.gamma / np.sqrt(gf.frame_bounds(lam).lower)
        want = gf.check_invertibility_lemma(u, lam1, p.mu, samples=300, seed=7)
        got = gf.certify_invertibility_lemma(lam, theta, p, samples=300, seed=7)
        assert got == want
        assert [repr(v) for v in vars(got).values()] == [repr(v) for v in vars(want).values()]

    @pytest.mark.parametrize(
        "theta",
        [gf.generate("frame", 6, 3, seed=81, field="complex"), gf.generate("frame", 5, 3, seed=81)],
        ids=["mixed_field", "other_dimension"],
    )
    def test_needs_one_field_and_one_dimension(self, theta):
        with pytest.raises(SystemMismatch, match="one scalar field and one ambient dimension"):
            gf.certify_invertibility_lemma(small_frame(81), theta, gf.PerturbParams(), seed=0)

    def test_non_frame_reference(self):
        lam = gf.make_system(2, "real", [(1.0, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))])  # S = diag(1, 0)
        with pytest.raises(NotAFrameError):
            gf.certify_invertibility_lemma(lam, coordinate_system((1.0, 1.0)), gf.PerturbParams(), seed=0)


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

    def test_certified_hypothesis_builds_no_search(self, monkeypatch):
        # The hypothesis's per-block terms and sums are built only once the certificate fails.
        lam = gf.generate("riesz", 16, 4, seed=5)
        theta = gf.perturbed_copy(lam, seed=6, radius=0.01)
        built = []
        for name in ("_gram_differences", "_quadratic_terms", "_norm_objective"):
            monkeypatch.setattr(perturb, name, lambda *a, name=name: built.append(name))
        rep = gf.certify_frame_operator_perturbation(lam, theta, gf.PerturbParams(lam=0.5, mu=0.5), seed=0)
        assert (rep.mode, built) == ("certified_sufficient", [])

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
        w = np.linalg.eigvalsh(gf.frame_operator(theta))
        assert rep.actual.lower == pytest.approx(w[0], rel=1e-12, abs=0)
        assert rep.actual.upper == pytest.approx(w[-1], rel=1e-12, abs=0)


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

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_certified_radius_takes_no_svd_and_forms_no_gram(self, monkeypatch, field):
        # R_cert comes from the factored block differences: no n x n D_j, no SVD (np.linalg.norm's
        # 2-norm calls the svd of its own module, so that one is counted too).
        lam = gf.generate("riesz", 16, 4, seed=5, field=field)
        theta = gf.perturbed_copy(lam, seed=6, radius=0.01)
        calls = []

        def counted(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        svd = counted("svd", np.linalg.svd)
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", svd)
        monkeypatch.setattr(perturb, "_quadratic_terms", counted("_quadratic_terms", perturb._quadratic_terms))
        rep = gf.certify_R_condition(lam, theta, samples=100, seed=0)
        assert rep.mode == "certified_sufficient"
        assert calls == []

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

    @staticmethod
    def _disjoint_blocks(n, u):
        """Coordinate frame (A = 1) and a copy whose block differences u e_j e_j^T give R_cert = n*u, max u*sqrt(n)."""
        eye = np.eye(n)
        lam = gf.make_system(n, "real", [(1.0, eye, eye[[j], :]) for j in range(n)])
        theta = gf.make_system(n, "real", [(1.0, eye, np.sqrt(1 - u) * eye[[j], :]) for j in range(n)])
        return lam, theta

    def test_sampled_radius_reaching_a_gives_mode_none(self):
        rep = gf.certify_R_condition(*self._disjoint_blocks(4, 0.6), samples=800, seed=9)  # max 1.2 >= A = 1
        assert (rep.mode, rep.hypothesis_holds, rep.predicted, rep.warning) == ("none", False, None, None)
        assert 1.0 <= rep.radius_sampled <= 1.2 + 1e-12
        assert rep.radius == min(rep.radius_certificate, rep.radius_sampled) == rep.radius_sampled

    def test_no_samples_and_a_certificate_at_or_above_a_gives_mode_none(self):
        rep = gf.certify_R_condition(*self._disjoint_blocks(4, 0.4), samples=0, seed=9)
        assert (rep.mode, rep.hypothesis_holds, rep.predicted, rep.warning) == ("none", False, None, None)
        assert rep.radius_sampled is None
        assert rep.radius == rep.radius_certificate == pytest.approx(1.6, rel=1e-12)


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

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_norm_certificate_takes_no_svd(self, monkeypatch, field):
        # ||T_lam - T_theta|| comes from the n x n eigensolve of D D^H that also gives the witness's top
        # column, not from an SVD of the n x M D (np.linalg.norm's 2-norm calls its own module's svd).
        lam = gf.generate("frame", 6, 4, seed=42, field=field, max_condition=50)
        theta = gf.perturbed_copy(lam, seed=92, radius=0.05)
        want = operator_norm(gf.synthesis_matrix(lam) - gf.synthesis_matrix(theta))
        calls = []

        def svd(*args, **kwargs):
            calls.append(args)
            return np.linalg.svd(*args, **kwargs)

        monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", svd)
        rep = gf.certify_synthesis_perturbation(lam, theta, gf.PerturbParams(), samples=0, seed=0)
        assert calls == []
        assert rep.cert_margin == pytest.approx(want, rel=1e-13)

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


def _triple_reference(d_m, l_m, t_m, params, quad_form):
    """The margin of one (D, L, T) triple and its gradient, one column at a time, every term evaluated."""

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

    return value, grad


def _sum_reference(terms):
    """cR's sum_j ||D_j f|| and its gradient, one column at a time."""
    return (lambda f: float(sum(np.linalg.norm(d @ f) for d in terms)),
            lambda f: sum(adjoint(d) @ (d @ f) / np.linalg.norm(d @ f) for d in terms))


def _reference_ascent(value, grad, starts, steps):
    """Column-by-column projected-gradient ascent with separate value and gradient; each start's best value."""
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


def _hypothesis_objective(d_m, l_m, t_m, params, quad_form):
    """The margin of one (D, L, T) triple as the certifiers build it: t52's when ``quad_form``, else synth's."""
    gamma = params.gamma
    minus = [(params.lam, l_m, gamma if quad_form else 0.0), (params.mu, t_m, 0.0)]
    return _norm_objective([d_m], minus, 0.0 if quad_form else gamma)


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
    u = gaussian_matrix(rng, cols, cols, field)
    cases = [
        (_hypothesis_objective(d_m, l_m, t_m, params, quad_form), _triple_reference(d_m, l_m, t_m, params, quad_form)),
        (_norm_objective([d_m, l_m, t_m]), _sum_reference([d_m, l_m, t_m])),  # cR's sum_j ||D_j f||
        # the lemma's ||(I - U) f|| - (lam2 ||U f|| + lam1), with lam2 = mu and lam1 = lam
        (_norm_objective([np.eye(cols) - u], [(mu, u, 0.0)], lam),
         _triple_reference(np.eye(cols) - u, u, u, gf.PerturbParams(lam=mu, gamma=lam), False)),
    ]
    for objective, (value, grad) in cases:
        got = _ascend(objective, starts, 50)
        want = _reference_ascent(value, grad, starts, 50)
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
    u = gaussian_matrix(rng, 6, 6, field)
    cases = [
        (_hypothesis_objective(d_m, l_m, t_m, gf.PerturbParams(lam=lam, mu=mu, gamma=gamma), quad_form), want),
        (_norm_objective([d_m, l_m, t_m]), sum(np.linalg.norm(a @ f, axis=0) for a in (d_m, l_m, t_m))),  # cR
        # the lemma, with lam2 = mu and lam1 = lam
        (_norm_objective([np.eye(6) - u], [(mu, u, 0.0)], lam),
         np.linalg.norm((np.eye(6) - u) @ f, axis=0) - (mu * np.linalg.norm(u @ f, axis=0) + lam)),
    ]
    for objective, want in cases:
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
    objective = _norm_objective([a])
    starts = random_unit_vectors(rng, 5, k, field)
    want = np.full(k, 3.0)
    if k > 1:
        starts[:, 0], want[0] = adjoint(w)[:, 1], 1.5
    got = _ascend(objective, starts, 200)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# The sampled path pinned on fixed instances: a change to the draws, their
# order, the screening or the ascent's arithmetic beyond round-off shows here.
# The holding radius was recorded with the column-by-column ascent; the two
# refuted margins are the worst seen up to the first refuting one.


def _sampled_pair(field, seed):
    lam = gf.generate("frame", 6, 3, seed=seed, field=field, max_condition=50)
    radius = 0.3 * np.sqrt(gf.frame_bounds(lam).lower)  # too far for the norm certificates
    return lam, gf.perturbed_copy(lam, seed=seed + 100, radius=radius)


def test_pinned_sampled_frame_operator_margin():
    lam, theta = _sampled_pair("real", 3)
    p = gf.PerturbParams(lam=0.3, mu=0.2, gamma=0.05)
    rep = gf.certify_frame_operator_perturbation(lam, theta, p, samples=400, seed=11)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", False)
    assert rep.sampled_margin == pytest.approx(0.004481375797139753, rel=1e-6)


def _kernel_margin(lam, theta):
    """sigma_max(D N) for D = T_lam - T_theta and N an orthonormal basis of ker T_lam, from a full SVD.

    With lam the only nonzero parameter, the synthesis margin on ker T_lam is
    ||D g||, so this is the largest margin any g in the kernel attains.
    """
    t_lam = gf.synthesis_matrix(lam)
    _, s, vh = np.linalg.svd(t_lam)
    assert s.size == t_lam.shape[0] < t_lam.shape[1] and s[-1] > 0.0
    null = adjoint(vh[s.size:])
    return np.linalg.norm((t_lam - gf.synthesis_matrix(theta)) @ null, 2)


def test_pinned_sampled_synthesis_margin():
    # T_lam has a kernel (M = 16 > n = 6) on which D does not vanish: the
    # witness refutes before any draw, with the kernel's largest margin.
    lam, theta = _sampled_pair("complex", 4)
    rep = gf.certify_synthesis_perturbation(lam, theta, gf.PerturbParams(lam=0.3), samples=400, seed=12)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", False)
    assert rep.sampled_margin == pytest.approx(_kernel_margin(lam, theta), rel=1e-9)
    assert rep.sampled_margin == pytest.approx(0.1515922220949974, rel=1e-6)


def test_pinned_sampled_radius():
    lam, theta = _sampled_pair("real", 3)
    rep = gf.certify_R_condition(lam, theta, samples=400, seed=13)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", True)
    assert rep.radius_sampled == pytest.approx(0.29246883711373856, rel=1e-6)


# ---------------------------------------------------------------------------
# The sampled certifiers stop at the first margin that refutes the hypothesis.
# Against the exhaustive search (every subset drawn, screened and ascended in
# full) the verdict must not change, and a hypothesis that holds must give the
# same report bit for bit.


def _equivalence_cases(theorem, field):
    """Twelve (args, samples, seed) cases for one certifier, holding and refuted, all past the norm certificates."""
    cases = []
    for i in range(12):
        d = 0.1 + 0.02 * i
        if theorem == "cR":
            if i % 2 == 0:  # disjointly supported block differences: holds while u * sqrt(n) < 1
                n, u = 3 + (i // 2) % 3, 0.34 + 0.04 * (i // 2)
                eye = np.eye(n, dtype=np.complex128 if field == "complex" else np.float64)
                lam = gf.make_system(n, field, [(1.0, eye, eye[[j], :]) for j in range(n)])
                theta = gf.make_system(n, field, [(1.0, eye, np.sqrt(1 - u) * eye[[j], :]) for j in range(n)])
            else:
                lam = gf.generate("parseval", 5, 3, seed=500 + i, field=field)
                theta = scale_blocks(lam, np.sqrt(1.3 + 0.08 * i))
            cases.append(((lam, theta), 300, 80 + i))
            continue
        quad = theorem == "t52"
        lam = gf.generate("frame", 5, 3 + i % 2, seed=(300 if quad else 400) + i, field=field, max_condition=20)
        # a uniform scale c multiplies every D by c - 1 and T by c: the first
        # kind holds, the second is refuted; alternating scales mix the two
        kind = i % 3
        factors = 1 + d * (np.array([1, -1, 1, -1][: lam.block_count]) if kind == 2 else 1.0)
        theta = scale_blocks(lam, np.sqrt(factors) if quad else factors)
        lam_c, mu_c, gamma = [(0.6, 0.4, 0.01), (0.3, 0.1, 0.01), (0.5, 0.1 if quad else 0.3, 0.02)][kind]
        cases.append(((lam, theta, gf.PerturbParams(lam=lam_c * d, mu=mu_c * d, gamma=gamma)), 200, 40 + i))
    return cases


_CERTIFIERS = {
    "t52": gf.certify_frame_operator_perturbation,
    "synth": gf.certify_synthesis_perturbation,
    "cR": gf.certify_R_condition,
}


_search = perturb._sampled_max_margin  # the real search, for the stand-ins below that wrap it


def _exhaustive_report(monkeypatch, certify, args, samples, seed):
    """The certifier's report from the real search with the stop removed, and how many index sets it searched."""
    visited = []

    def full_search(dim, objective, witness, stop_above, seed, field, samples, subsets=lambda rng: ()):
        count = [1]

        def counted(rng):
            rest = subsets(rng)  # the masks come off the stream now, as in the real search
            return (count.append(1) or later for later in rest)

        worst = _search(dim, objective, witness, np.inf, seed, field, samples, counted)
        visited.append(len(count))
        return worst

    with monkeypatch.context() as m:
        m.setattr(perturb, "_sampled_max_margin", full_search)
        rep = certify(*args, samples=samples, seed=seed)
    return rep, visited


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("theorem", ["t52", "synth", "cR"])
def test_early_stop_keeps_every_verdict(monkeypatch, theorem, field):
    certify = _CERTIFIERS[theorem]
    held = refuted = cut_short = 0
    for args, samples, seed in _equivalence_cases(theorem, field):
        got = certify(*args, samples=samples, seed=seed)
        want, visited = _exhaustive_report(monkeypatch, certify, args, samples, seed)
        assert want.mode in ("sampled", "none")
        key = (got.mode, got.hypothesis_holds, got.bracket_ok)  # the exit code follows from these
        assert key == (want.mode, want.hypothesis_holds, want.bracket_ok)
        searches = len(_subset_masks(np.random.default_rng(seed), args[0].block_count, 7)) if theorem == "t52" else 1
        assert visited == [searches]
        if want.hypothesis_holds:
            held += 1
            assert got == want
        else:
            refuted += 1
            # still a witness: a margin that refutes, and at most the exhaustive worst
            assert got.hypothesis_margin > 0.0
            assert got.hypothesis_margin <= want.hypothesis_margin
            cut_short += got.hypothesis_margin < want.hypothesis_margin
    assert held >= 4 and refuted >= 4 and cut_short >= 1, (held, refuted, cut_short)


def _count_draws(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return random_unit_vectors(*args)

    monkeypatch.setattr(perturb, "random_unit_vectors", counted)
    return calls


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("theorem", ["t52", "synth"])
def test_refutation_on_the_full_set_draws_nothing(monkeypatch, theorem, field):
    # A uniform scale c with lam, mu, gamma = 0: every direction outside ker X
    # violates ||(c - 1) X f|| <= 0, D's top right singular vector among them,
    # so the witness refutes before any draw.  (For synth, ker T_lam = ker D
    # here, so the kernel column alone would not.)
    lam = gf.generate("frame", 5, 4, seed=31, field=field, max_condition=20)
    theta = scale_blocks(lam, 1.2)
    calls = _count_draws(monkeypatch)
    rep = _CERTIFIERS[theorem](lam, theta, gf.PerturbParams(), samples=200, seed=5)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", False)
    assert calls == []


@pytest.mark.parametrize("seed", range(100, 120))
def test_kernel_witness_refutes_the_synthesis_hypothesis_without_a_draw(monkeypatch, seed):
    # M = 8..16 > n = 6: T_lam has a kernel, on which D = T_lam - T_theta has norm
    # sigma_max(D N) > 0 while lam * ||T_lam g|| = 0.  Random samples said
    # "holds" on 11 of these 20 seeds.
    lam = gf.generate("frame", 6, 3, seed=seed, max_condition=100)
    theta = gf.perturbed_copy(lam, seed=seed + 100, radius=0.02)
    calls = _count_draws(monkeypatch)
    rep = gf.certify_synthesis_perturbation(lam, theta, gf.PerturbParams(lam=0.9), seed=2)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", False)
    assert rep.sampled_margin == rep.hypothesis_margin == pytest.approx(_kernel_margin(lam, theta), rel=1e-9)
    assert calls == []


@pytest.mark.parametrize("field", ["real", "complex"])
def test_spectral_witness_columns_attain_the_norm_and_the_kernel_norm(field):
    # The first block: where ||D g|| peaks, on the sphere and on ker L; the second, the ratio witness,
    # attains ||D L^+|| as ||D g|| / ||L g||.
    rng = np.random.default_rng(field == "complex")
    l_m, d_m = gaussian_matrix(rng, 4, 7, field), gaussian_matrix(rng, 4, 7, field)
    l_pinv = np.linalg.pinv(l_m)
    first, ratio = perturb._spectral_witness(d_m, l_m, perturb._top_singular(d_m)[1], lambda: l_pinv)
    assert first.shape == (7, 2) and ratio.shape == (7, 1)
    w = np.hstack([first, ratio])
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, rtol=1e-14)
    _, _, vh = np.linalg.svd(l_m)
    null = adjoint(vh[4:])
    assert np.linalg.norm(d_m @ w[:, 0]) == pytest.approx(operator_norm(d_m), rel=1e-12)
    assert np.linalg.norm(d_m @ w[:, 1]) == pytest.approx(operator_norm(d_m @ null), rel=1e-12)
    assert operator_norm(l_m @ w[:, 1]) <= 1e-14 * operator_norm(l_m)
    ratio_value = np.linalg.norm(d_m @ w[:, 2]) / np.linalg.norm(l_m @ w[:, 2])
    assert ratio_value == pytest.approx(operator_norm(d_m @ l_pinv), rel=1e-12)
    # a square L has no kernel column, and a zero D gives no column at all
    top = perturb._top_singular(d_m[:, :4])[1]
    square = perturb._spectral_witness(d_m[:, :4], l_m[:, :4], top, lambda: np.linalg.inv(l_m[:, :4]))
    assert [b.shape for b in square] == [(4, 1), (4, 1)]
    assert list(perturb._spectral_witness(np.zeros((4, 7)), l_m, None, lambda: l_pinv)) == []


def _full_set_operators(theorem, lam, theta):
    """The full-set D, L and L^+ the certifier's witness takes: from S^-1, with no pinv."""
    s_inv = gf.inverse_frame_operator(lam)
    if theorem == "t52":
        pairs = perturb._row_block_pairs(lam, theta)
        return sum(perturb._gram_differences(pairs)), gf.frame_operator(lam), s_inv
    t_lam = gf.synthesis_matrix(lam)
    return t_lam - gf.synthesis_matrix(theta), t_lam, gf.analysis_matrix(lam) @ s_inv


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("theorem", ["t52", "synth"])
def test_ratio_witness_attains_the_norm_of_d_l_pinv(theorem, field):
    # The SVD oracle: sigma_max(D L^+) with L^+ from numpy's pinv.
    for seed in range(5):
        lam = gf.generate("frame", 5, 3, seed=60 + seed, field=field, max_condition=20)
        theta = gf.perturbed_copy(lam, seed=160 + seed, radius=0.3)
        d, l, l_pinv = _full_set_operators(theorem, lam, theta)
        *_, ratio = perturb._spectral_witness(d, l, perturb._top_singular(d)[1], lambda: l_pinv)
        want = np.linalg.svd(d @ np.linalg.pinv(l), compute_uv=False)[0]
        assert np.linalg.norm(d @ ratio) / np.linalg.norm(l @ ratio) == pytest.approx(want, rel=1e-12)


def _draws_and_report(theorem, lam, theta, params):
    """The certifier's report with samples=20, seed=0, and how many batches it drew."""
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(perturb, "random_unit_vectors", lambda *args: calls.append(args) or random_unit_vectors(*args))
        rep = _CERTIFIERS[theorem](lam, theta, params, samples=20, seed=0)
    return len(calls), rep


@settings(max_examples=60, deadline=None)
@given(
    theorem=st.sampled_from(["t52", "synth"]),
    field=st.sampled_from(["real", "complex"]),
    dims=st.sampled_from([(3, 2), (4, 2), (5, 3), (4, 3)]),
    seed=st.integers(0, 2**20),
    uniform=st.booleans(),
    ratio=st.floats(0.5, 2.0),
)
def test_a_draw_free_refutation_means_the_full_set_hypothesis_fails(theorem, field, dims, seed, uniform, ratio):
    # mu = gamma = 0: the full-set hypothesis fails iff D does not vanish on ker L or
    # ||D L^+|| > lam (oracle: numpy's SVD and pinv), and exactly then the witness
    # refutes before any draw.  A uniform scale leaves D = (1 - c) L, which vanishes on ker L.
    lam = gf.generate("frame", *dims, seed=seed, field=field, max_condition=20)
    rng = np.random.default_rng(seed)
    factors = 1 + rng.uniform(-0.3, 0.3, 1 if uniform else lam.block_count)
    theta = scale_blocks(lam, np.sqrt(factors) if theorem == "t52" else factors)
    if not uniform and rng.integers(2):
        theta = gf.perturbed_copy(lam, seed=seed + 1, radius=0.05)
    d, l, _ = _full_set_operators(theorem, lam, theta)
    _, s, vh = np.linalg.svd(l)
    kernel = operator_norm(d @ adjoint(vh[s.size:]))
    sigma = np.linalg.svd(d @ np.linalg.pinv(l), compute_uv=False)[0]
    lam_c = min(ratio * sigma, 0.999)
    assume(abs(sigma - lam_c) > 0.01 * sigma and not 1e-12 < kernel < 1e-6)
    # a ratio-column margin (sigma - lam) ||L g|| >= (sigma - lam) sigma_min(L) well clear of the threshold
    assume(abs(sigma - lam_c) * s[-1] > 1e-9 * max(1.0, s[0]))
    fails = bool(kernel > 1e-6 or sigma > lam_c)
    draws, rep = _draws_and_report(theorem, lam, theta, gf.PerturbParams(lam=lam_c))
    assert (not rep.hypothesis_holds and draws == 0) == fails, (draws, rep.mode, rep.hypothesis_margin)


def test_t52_witness_margin_has_no_gram_cancellation():
    # K with entries in Z/8 against (1 + t) K, t = 2^-30: D = -(2t + t^2) K^H K, and with lam = 0 the
    # witness margin is ||D||.  Built as S_lam - S_theta it lost 30 bits (4.7e-10 relative).
    k = 2.0 * np.eye(4) + np.random.default_rng(7).integers(-4, 5, (4, 4)) / 8.0
    t = 2.0**-30
    lam, theta = (gf.make_system(4, "real", [(1.0, np.eye(4), op)]) for op in (k, (1.0 + t) * k))
    rep = gf.certify_frame_operator_perturbation(lam, theta, gf.PerturbParams(), samples=1, seed=0)
    exact = (2 * t + t * t) * operator_norm(k) ** 2
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", False)
    assert abs(rep.sampled_margin - exact) <= 1e-15 * exact


def test_ratio_witness_is_built_only_when_the_first_block_does_not_refute(monkeypatch):
    # The kernel column refutes this synth pair, so neither S^-1 nor its ratio column is formed.  For
    # t52, ||D S^-1|| = 0.17 > lam but D's top right singular vector has margin -0.18: the ratio column refutes.
    lam = gf.generate("frame", 6, 3, seed=102, max_condition=100)
    theta = gf.perturbed_copy(lam, seed=202, radius=0.02)
    built = []
    monkeypatch.setattr(perturb, "inverse_frame_operator", lambda s: built.append(s) or gf.inverse_frame_operator(s))
    for theorem, expect in (("synth", 0), ("t52", 1)):
        built.clear()
        draws, rep = _draws_and_report(theorem, lam, theta, gf.PerturbParams(lam=0.085))
        assert (draws, rep.hypothesis_holds, len(built)) == (0, False, expect)


def test_perturb_sampled_t52_and_cr_requests_draw_nothing(monkeypatch, tmp_path):
    # The benchmark's perturb_sampled t52 and cR requests (n = 8, its default seed 1) are
    # all refuted by a witness: t52's ratio column and cR's top eigenvector of sum_j D_j^H D_j.
    # Nothing is drawn, not even t52's subset masks.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    writer = workloads._Writer(tmp_path)
    seed = 1
    for g in range(workloads.SAMPLED_GROUPS):
        ref = writer.frame(f"f8_{g}.json", 8, 3, "real", seed, 20, g, 0)
        radius = workloads.SAMPLED_RHO * np.sqrt(writer.bounds[f"f8_{g}.json"][0])
        writer.save(f"f8_{g}_pert.json", gf.perturbed_copy(ref, workloads._sub_seed(seed, 21, g, 0), radius=radius))
    requests = workloads.perturb_sampled_requests(seed, {"bounds": writer.bounds})
    argvs = [r["argv"] for r in requests if r["metric"] in ("cmd_ms.perturb.t52", "cmd_ms.perturb.cR")]
    assert len(argvs) == 4 * workloads.SAMPLED_GROUPS
    calls = _count_draws(monkeypatch)
    masks = []
    monkeypatch.setattr(perturb, "_subset_masks", lambda *args: masks.append(args) or _subset_masks(*args))
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        code, out = run_cli(argv)
        assert code == 1 and json.loads(out)["report"]["hypothesis_holds"] is False
    assert calls == [] and masks == []


def test_benchmark_lemma_requests_draw_nothing(monkeypatch, tmp_path):
    # Every lemma request of both benchmark workloads at their default seed 1, warm-up included: the certificate
    # ||I - U|| <= lam1 + lam2 sigma_min(U) decides each (exactly where lam2 = 0), so nothing is drawn.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    writer = workloads._Writer(tmp_path)
    seed = 1
    workloads._warmup_inputs(writer, seed)
    for g in range(workloads.SAMPLED_GROUPS):
        ref = writer.frame(f"f32_{g}.json", 32, 16, "real", seed, 20, g, 1)
        radius = workloads.SAMPLED_RHO * np.sqrt(writer.bounds[f"f32_{g}.json"][0])
        writer.save(f"f32_{g}_pert.json", gf.perturbed_copy(ref, workloads._sub_seed(seed, 21, g, 1), radius=radius))
    onb = gf.generate("onb", workloads.LARGE_N, workloads.LARGE_J, workloads._sub_seed(seed, 3))
    riesz = writer.keep("riesz.json", gf.generate_like(onb, "riesz", workloads._sub_seed(seed, 4)))
    a, b = writer.bounds["riesz.json"]
    radius = workloads.CERTIFIED_RHO * a / np.sqrt(b)
    writer.save("riesz_pert.json", gf.perturbed_copy(riesz, workloads._sub_seed(seed, 5), radius=radius))
    meta = {"bounds": writer.bounds}
    requests = workloads.perturb_sampled_requests(seed, meta) + workloads.cli_large_requests(seed, meta)
    argvs = [r["argv"] for r in requests if r["metric"] == "cmd_ms.perturb.lemma"]
    argvs = list(dict.fromkeys(map(tuple, argvs)))
    argvs += [a for a in map(tuple, workloads.warmup_requests(seed)) if "lemma" in a]
    assert len(argvs) == workloads.SAMPLED_GROUPS + 2
    calls = _count_draws(monkeypatch)
    monkeypatch.chdir(tmp_path)
    modes = []
    for argv in argvs:
        code, out = run_cli(list(argv))
        rep = json.loads(out)["report"]
        assert code == 0 and rep["hypothesis_holds"] is True
        modes.append(rep["mode"])
    assert calls == []
    assert modes == ["certified_sufficient"] * (workloads.SAMPLED_GROUPS + 1) + ["exact"]


def test_witness_does_not_overflow_on_huge_entries():
    norm, g = perturb._top_singular(np.diag([1e200, 3e199]))
    assert norm == pytest.approx(1e200, rel=1e-15)
    np.testing.assert_allclose(np.abs(g), [1.0, 0.0], atol=1e-15)
    assert perturb._top_singular(np.zeros((2, 3))) == (0.0, None)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("theorem", ["t52", "synth"])
def test_holding_hypothesis_draws_once_per_subset(monkeypatch, theorem, field):
    # synth searches the full index set alone: a subset's hypothesis is the full set's on sequences supported there.
    lam = gf.generate("frame", 5, 4, seed=32, field=field, max_condition=20)
    d = 0.2
    theta = scale_blocks(lam, np.sqrt(1 + d) if theorem == "t52" else 1 + d)
    calls = _count_draws(monkeypatch)
    rep = _CERTIFIERS[theorem](lam, theta, gf.PerturbParams(lam=0.6 * d, mu=0.4 * d), samples=200, seed=6)
    assert (rep.mode, rep.hypothesis_holds) == ("sampled", True)
    assert len(calls) == (len(_subset_masks(np.random.default_rng(6), 4, 7)) if theorem == "t52" else 1)
    assert len(_subset_masks(np.random.default_rng(6), 4, 7)) > 1


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["real", "complex"]),
    dims=st.sampled_from([(3, 2), (4, 3), (5, 4), (6, 3), (8, 6)]),
    seed=st.integers(0, 2**20),
    lam_c=st.floats(0.0, 0.99),
    mu_c=st.floats(0.0, 0.99),
    gamma=st.floats(0.0, 2.0),
)
def test_synthesis_subset_margin_is_the_full_set_margin_at_the_padded_sequence(field, dims, seed, lam_c, mu_c, gamma):
    # Why synth searches the full index set alone: on a block subset's columns of (D, T_lam, T_theta), the
    # margin at g is the full set's at g padded with zeros, so no subset refutes what the full set does not.
    lam = gf.generate("frame", *dims, seed=seed, field=field, max_condition=50)
    theta = gf.perturbed_copy(lam, seed=seed + 1, radius=0.3)
    rng = np.random.default_rng(seed)
    mask = rng.integers(0, 2, lam.block_count).astype(bool)
    mask[rng.integers(lam.block_count)] = True
    cols = mask[np.repeat(np.arange(lam.block_count), lam.block_dims)]
    t_lam, t_theta = gf.synthesis_matrix(lam), gf.synthesis_matrix(theta)
    params = gf.PerturbParams(lam=lam_c, mu=mu_c, gamma=gamma)
    g = random_unit_vectors(rng, int(cols.sum()), 3, field)
    sub = _hypothesis_objective(t_lam[:, cols] - t_theta[:, cols], t_lam[:, cols], t_theta[:, cols], params, False)
    full = _hypothesis_objective(t_lam - t_theta, t_lam, t_theta, params, False)
    padded = np.zeros((cols.size, g.shape[1]), dtype=g.dtype)
    padded[cols] = g
    got, want = sub(g, grad=False)[0], full(padded, grad=False)[0]
    scale = operator_norm(t_lam - t_theta) + lam_c * operator_norm(t_lam) + mu_c * operator_norm(t_theta) + gamma
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def test_subset_masks_stop_once_every_proper_subset_is_found():
    class Counted:  # the two Generator methods _subset_masks calls, counted
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def integers(self, *args, **kwargs):
            self.calls += 1
            return self.rng.integers(*args, **kwargs)

        def choice(self, *args, **kwargs):
            self.calls += 1
            return self.rng.choice(*args, **kwargs)

    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert [m.tolist() for m in _subset_masks(rng, 1, 7)] == [[True]]
    assert rng.bit_generator.state == state
    # J = 3 has 6 proper subsets; the 4 * 7 tries are random, so a seed that finds all of them is fixed here.
    counted = Counted(np.random.default_rng(0))
    masks = _subset_masks(counted, 3, 7)
    assert masks[0].all() and len({tuple(m) for m in masks}) == len(masks) == 7
    assert counted.calls < 2 * 4 * 7


def test_lemma_witness_refutes_before_any_draw(monkeypatch):
    # I - U = diag(0.8, -2) peaks at e_2: ||x - Ux|| - 0.1 - 0.5 ||Ux|| = 2 - 0.1 - 1.5 there.
    calls = _count_draws(monkeypatch)
    rep = gf.check_invertibility_lemma(np.diag([0.2, 3.0]), 0.1, 0.5, samples=50, seed=3)
    assert (rep.hypothesis_holds, len(calls), rep.mode) == (False, 0, "sampled")
    assert rep.hypothesis_margin == pytest.approx(0.4, rel=1e-12)
    # with lam2 = 0 the hypothesis is ||I - U|| = 0.05 <= 0.1: the certificate decides it exactly
    rep = gf.check_invertibility_lemma(1.05 * np.eye(3), 0.1, 0.0, samples=50, seed=3)
    assert (rep.hypothesis_holds, len(calls), rep.mode) == (True, 0, "exact")


def _upfront_search(dim, objective, witness, stop_above, seed, field, samples, subsets=lambda rng: ()):
    """``_sampled_max_margin`` with the masks (through ``subsets``) and the first batch drawn before any witness.

    The real search then runs on them: its ``subsets`` hands back the objectives taken here, and its draws
    take that batch first and then continue this stream.
    """
    rng = np.random.default_rng(seed)
    rest = subsets(rng)
    batches = [random_unit_vectors(rng, dim, samples, field)]

    def draw(_, *args):  # the search's own Generator is left unused
        return batches.pop() if batches else random_unit_vectors(rng, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(perturb, "random_unit_vectors", draw)
        return _search(dim, objective, witness, stop_above, seed, field, samples, lambda _: rest)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_masks_drawn_with_the_first_batch_keep_every_report(monkeypatch, field):
    # t52 searches that draw: one that holds (every subset drawn), one refuted on a random subset.  The masks come
    # off the stream ahead of the first batch, so each report is bit for bit the one of masks drawn up front.
    lam = gf.generate("frame", 5, 4, seed=32, field=field, max_condition=20)
    cases = [((lam, scale_blocks(lam, np.sqrt(1.2)), gf.PerturbParams(lam=0.12, mu=0.08)), 200, 6)]
    # alternating block scales: the full set holds, a subset does not
    lam = gf.generate("frame", 5, 4, seed=5, field=field, max_condition=20)
    cases.append(((lam, scale_blocks(lam, np.sqrt([1.2, 0.8, 1.2, 0.8])), gf.PerturbParams(lam=0.3)), 200, 6))
    for (args, samples, seed), holds in zip(cases, (True, False)):
        draws, masks = [], []
        with monkeypatch.context() as m:
            m.setattr(perturb, "random_unit_vectors", lambda *a: draws.append(a) or random_unit_vectors(*a))
            m.setattr(perturb, "_subset_masks", lambda *a: masks.append(a) or _subset_masks(*a))
            got = gf.certify_frame_operator_perturbation(*args, samples=samples, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(perturb, "_sampled_max_margin", _upfront_search)
            want = gf.certify_frame_operator_perturbation(*args, samples=samples, seed=seed)
        assert (got.mode, got.sampled_margin > 0.0, len(masks)) == ("sampled", not holds, 1)
        assert len(draws) >= 2  # a random subset's batch was drawn
        if holds:
            assert len(draws) == len(_subset_masks(np.random.default_rng(seed), args[0].block_count, 7))
        assert repr(got) == repr(want)


def _holding_complex_search(search):
    """(the search, its dimension, its screening of one batch, its batch count): a holding complex search on n = 5.

    ``t52`` on J = 4 draws for the full set and 7 subsets; ``synth`` draws once, on the M direct-sum coordinates;
    the lemma draws once, on U = diag(2, 1, 1, 1, 1) plus a small complex part, against lam1 = 0.3 and lam2 = 0.45:
    ||I - U|| = 1 exceeds lam1 + lam2 sigma_min(U) = 0.75, so the certificate does not decide, while the margin
    ||x - Ux|| - 0.3 - 0.45 ||Ux|| stays near or below 0.1 |x_1| - 0.3, its bound for the diagonal part.
    """
    lam = gf.generate("frame", 5, 4, seed=32, field="complex", max_condition=20)
    theta = scale_blocks(lam, np.sqrt(1.2))
    params = gf.PerturbParams(lam=0.12, mu=0.08)
    if search == "lemma":
        u = np.diag([2.0, 1.0, 1.0, 1.0, 1.0]) + 0.01 * gaussian_matrix(np.random.default_rng(3), 5, 5, "complex")

        def margins(f):
            uf = u @ f
            return np.linalg.norm(f - uf, axis=0) - 0.3 - 0.45 * np.linalg.norm(uf, axis=0)

        return functools.partial(gf.check_invertibility_lemma, u, 0.3, 0.45, samples=50000, seed=6), 5, margins, 1
    d, l, _ = _full_set_operators(search, lam, theta)
    t = gf.frame_operator(theta) if search == "t52" else gf.synthesis_matrix(theta)
    objective = _hypothesis_objective(d, l, t, params, search == "t52")
    run = functools.partial(_CERTIFIERS[search], lam, theta, params, samples=50000, seed=6)
    return run, d.shape[1], lambda f: objective(f, grad=False), 8 if search == "t52" else 1


@pytest.mark.parametrize("search", ["t52", "synth", "lemma"])
def test_sampled_search_holds_one_batch_at_a_time(monkeypatch, search):
    # At 50000 complex samples a batch (dim x 0.8 MB) dwarfs the 5 x 5 matrices, so a search's peak is the
    # screening of one batch (its draw, the batch and its products), and a second live batch would add one more.
    run, dim, screen, count = _holding_complex_search(search)
    batches = []

    def recorded(*args):
        f = random_unit_vectors(*args)
        batches.append(f.nbytes)
        return f

    monkeypatch.setattr(perturb, "random_unit_vectors", recorded)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        screen(random_unit_vectors(np.random.default_rng(0), dim, 50000, "complex"))
        screening = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.hypothesis_holds and rep.mode == "sampled"
    if search == "lemma":
        assert rep.cert_margin > TOL_SAMPLED_MARGIN  # the certificate does not decide it
    assert len(batches) == count and min(batches) == max(batches) == dim * 50000 * 16
    # each batch is freed before the next one is drawn
    assert peak < screening + min(batches), (peak, screening, batches)


def test_gamma_must_be_finite_and_nonnegative():
    for gamma in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="gamma"):
            gf.PerturbParams(gamma=gamma)


@pytest.mark.parametrize("theorem", ["t52", "synth", "cR"])
def test_negative_sample_count_is_rejected(theorem):
    lam = small_frame(3)
    args = (lam, lam) if theorem == "cR" else (lam, lam, gf.PerturbParams())
    with pytest.raises(ValueError, match="samples"):
        _CERTIFIERS[theorem](*args, samples=-1, seed=0)


@pytest.mark.parametrize("samples", [0, -3])
def test_lemma_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        gf.check_invertibility_lemma(np.eye(3), 0.1, 0.1, samples=samples, seed=0)
