"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test ends by printing a single PASS line (a failed assertion aborts
before the print, so the line doubles as the per-criterion verdict under
``pytest -s`` or in the captured output of a verbose run).
"""

import time

import numpy as np
from helpers import decomposition_report, fitted_radius, full_space_system, replay_golden, scale_blocks

import gfusion as gf
from gfusion.linalg import adjoint, operator_norm


def _pass(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _weighted_blocks(sys):
    return [sub.weight * (sub.operator @ sub.subspace.projector()) for sub in sys.subsystems]


def test_criterion_1_frame_inequality():
    # 50 generated frames, 10^3 random unit vectors each, slack 1e-9,
    # runtime under 10 seconds.
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    for i in range(50):
        n = int(rng.integers(8, 17))
        blocks = int(rng.integers(2, 9))
        sys = gf.generate("frame", n, blocks, seed=300 + i)
        fb = gf.frame_bounds(sys)
        f = rng.standard_normal((n, 1000))
        f /= np.linalg.norm(f, axis=0)
        quad = np.zeros(1000)
        for k in _weighted_blocks(sys):
            quad += np.linalg.norm(k @ f, axis=0) ** 2
        assert np.all(quad >= fb.lower - 1e-9)
        assert np.all(quad <= fb.upper + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _pass(1, "frame inequality")


def test_criterion_2_reconstruction():
    # 50 generated frames with condition <= 1e6; both reconstruction
    # orderings within 1e-9 * ||f|| on 100 random vectors each.
    rng = np.random.default_rng(200)
    for i in range(50):
        n = int(rng.integers(4, 13))
        blocks = int(rng.integers(2, 6))
        field = "complex" if i % 5 == 0 else "real"
        sys = gf.generate("frame", n, blocks, seed=400 + i, field=field, max_condition=1e6)
        dual = gf.canonical_dual(sys)
        f = rng.standard_normal((n, 100))
        if field == "complex":
            f = f + 1j * rng.standard_normal((n, 100))
        for k in range(100):
            res = gf.reconstruct(sys, dual, f[:, k])
            scale = np.linalg.norm(f[:, k])
            assert res.primal_residual <= 1e-9 * scale
            assert res.swapped_residual <= 1e-9 * scale
    _pass(2, "reconstruction")


def test_criterion_3_induced_correspondence():
    # 50 generated systems: frame-operator coincidence within 1e-10, induced
    # frame bounds within 1e-9 of the system's, Gram identity for onb kinds.
    rng = np.random.default_rng(300)
    kinds = ("frame", "parseval", "riesz", "onb")
    for i in range(50):
        kind = kinds[i % 4]
        n = int(rng.integers(4, 13))
        blocks = int(rng.integers(2, min(n, 6) + 1))
        sys = gf.generate(kind, n, blocks, seed=500 + i)
        rep = gf.verify_correspondence(sys, gf.induce_vectors(sys))
        assert rep.coincidence_residual <= 1e-10
        assert abs(rep.induced_extremes.min_eig - rep.system_extremes.min_eig) <= 1e-9
        assert abs(rep.induced_extremes.max_eig - rep.system_extremes.max_eig) <= 1e-9
        if kind == "onb":
            assert rep.gram_identity_deviation <= 1e-10
            assert rep.family_orthonormal_basis
    _pass(3, "induced-frame correspondence")


def test_criterion_4_basis_characterizations():
    rng = np.random.default_rng(400)
    for i in range(20):
        n = int(rng.integers(4, 17))
        blocks = int(rng.integers(2, min(n, 8) + 1))
        sys = gf.generate("onb", n, blocks, seed=600 + i)
        verdict = gf.is_gf_orthonormal(sys)
        assert verdict.is_gf_orthonormal
        fb = gf.frame_bounds(sys)
        assert abs(fb.lower - 1.0) <= 1e-9 and abs(fb.upper - 1.0) <= 1e-9
        rb = verdict.riesz_bounds
        assert rb is not None
        assert abs(rb.lower - 1.0) <= 1e-9 and abs(rb.upper - 1.0) <= 1e-9
        dec = decomposition_report(sys)
        assert dec.isometry_deviation <= 1e-9
        assert dec.image_overlap <= 1e-9
        assert sum(dec.image_dims) == n
        assert dec.decomposes
    _pass(4, "basis characterizations")


def test_criterion_5_cross_operator():
    rng = np.random.default_rng(500)
    kinds = ("frame", "parseval", "riesz", "onb")
    for i in range(50):
        kind = kinds[i % 4]
        n = int(rng.integers(4, 13))
        blocks = int(rng.integers(2, min(n, 6) + 1))
        theta = gf.generate("onb", n, blocks, seed=700 + i)
        lam = gf.generate_like(theta, kind, seed=800 + i)
        rep = gf.cross_operator(theta, lam)
        assert rep.intertwine_residual <= 1e-9
        assert rep.surjective
        fb = gf.frame_bounds(lam)
        if abs(fb.lower - 1.0) <= 1e-9 and abs(fb.upper - 1.0) <= 1e-9:  # Parseval
            assert rep.adjoint_isometric
        if gf.riesz_bounds(lam) is not None:  # gf-Riesz
            assert rep.invertible
        if kind == "onb":
            assert rep.unitary
    _pass(5, "cross operator")


def _r_certificate(lam, theta):
    total = 0.0
    for ls, ts in zip(lam.subsystems, theta.subsystems):
        p = ls.subspace.projector()
        diff = adjoint(ls.operator) @ ls.operator - adjoint(ts.operator) @ ts.operator
        total += ls.weight**2 * operator_norm(p @ diff @ p)
    return total


def test_criterion_6_perturbation_soundness():
    # >= 200 instances per certifier with the hypothesis certified or sampled
    # with clear margin; bracket_ok on every one; quadratic scaling of the
    # exact analysis radius; under 60 seconds total.
    start = time.perf_counter()
    rng = np.random.default_rng(600)

    shared = []
    for i in range(170):
        n = int(rng.integers(3, 9))
        blocks = int(rng.integers(2, min(n, 4) + 1))
        lam = gf.generate("frame", n, blocks, seed=900 + i, max_condition=100)
        theta = gf.perturbed_copy(lam, seed=5000 + i, radius=fitted_radius(lam))
        shared.append((lam, theta))

    counts = {"frame_operator": 0, "r_condition": 0, "synthesis": 0, "analysis": 0}

    # frame-operator certifier: operator-norm certificates on the shared
    # instances, sampled single-block instances on top.
    for i, (lam, theta) in enumerate(shared):
        a = gf.frame_bounds(lam).lower
        ds = operator_norm(gf.frame_operator(lam) - gf.frame_operator(theta))
        p = gf.PerturbParams(lam=min(ds / a * (1 + 1e-9), 0.999), mu=0.3 if i % 3 == 0 else 0.0)
        rep = gf.certify_frame_operator_perturbation(lam, theta, p, samples=0, seed=0)
        assert rep.mode == "certified_sufficient" and rep.hypothesis_holds
        assert rep.bracket_ok
        counts["frame_operator"] += 1
    for i in range(40):
        n = int(rng.integers(3, 8))
        op = gf.generate("riesz", n, 1, seed=7000 + i).subsystems[0].operator
        lam = full_space_system(np.asarray(op))
        delta = float(rng.uniform(0.02, 0.3))
        theta = scale_blocks(lam, np.sqrt(1.0 + delta))
        b = gf.frame_bounds(lam).upper
        p = gf.PerturbParams(gamma=delta * np.sqrt(b) * (1 + 1e-3))
        rep = gf.certify_frame_operator_perturbation(lam, theta, p, samples=300, seed=7100 + i)
        assert rep.mode == "sampled" and rep.hypothesis_holds
        assert rep.hypothesis_margin < -1e-8
        assert rep.bracket_ok
        counts["frame_operator"] += 1

    # synthesis certifier: stacked-difference norm certificates + sampled
    # single-block instances.
    for lam, theta in shared:
        dt = operator_norm(gf.synthesis_matrix(lam) - gf.synthesis_matrix(theta))
        rep = gf.certify_synthesis_perturbation(
            lam, theta, gf.PerturbParams(gamma=dt * (1 + 1e-9)), samples=0, seed=0
        )
        assert rep.mode == "certified_sufficient" and rep.hypothesis_holds
        assert rep.bracket_ok
        counts["synthesis"] += 1
    for i in range(40):
        n = int(rng.integers(3, 8))
        op = np.asarray(gf.generate("riesz", n, 1, seed=7500 + i).subsystems[0].operator)
        lam = full_space_system(op)
        e = rng.standard_normal((n, n))
        e /= operator_norm(e)
        t_lam = gf.synthesis_matrix(lam)
        c = 0.2 / operator_norm(adjoint(e) @ np.linalg.inv(t_lam))
        theta = gf.GFusionSystem(n, "real", (gf.Subsystem(1.0, lam.subsystems[0].subspace, op + c * e),))
        rho = operator_norm((t_lam - gf.synthesis_matrix(theta)) @ np.linalg.inv(t_lam))
        rep = gf.certify_synthesis_perturbation(
            lam, theta, gf.PerturbParams(lam=rho * (1 + 1e-3)), samples=300, seed=7600 + i
        )
        assert rep.mode == "sampled" and rep.hypothesis_holds
        assert rep.hypothesis_margin < -1e-8
        assert rep.bracket_ok
        counts["synthesis"] += 1

    # summed-norm radius certifier: rescale each shared perturbation until
    # the triangle-inequality radius sits safely below A, plus sampled
    # fallback instances with disjointly supported block differences.
    for i, (lam, _) in enumerate(shared):
        a = gf.frame_bounds(lam).lower
        scale = 1.0
        theta = gf.perturbed_copy(lam, seed=5000 + i, scale=scale)
        r = _r_certificate(lam, theta)
        for _ in range(8):
            if r < 0.5 * a:
                break
            scale *= 0.4 * a / r
            theta = gf.perturbed_copy(lam, seed=5000 + i, scale=scale)
            r = _r_certificate(lam, theta)
        assert r < a
        rep = gf.certify_R_condition(lam, theta, samples=0, seed=0)
        assert rep.mode == "certified_sufficient" and rep.hypothesis_holds
        assert rep.bracket_ok and rep.upper_quadratic_ok
        counts["r_condition"] += 1
    for i in range(35):
        n = int(rng.integers(3, 5))
        u = float(rng.uniform(0.35, 0.45))
        eye = np.eye(n)
        t = np.sqrt(1.0 - u)
        lam = gf.make_system(n, "real", [(1.0, eye, eye[[j], :]) for j in range(n)])
        theta = gf.make_system(n, "real", [(1.0, eye, t * eye[[j], :]) for j in range(n)])
        rep = gf.certify_R_condition(lam, theta, samples=400, seed=7900 + i)
        assert rep.mode == "sampled" and rep.hypothesis_holds
        assert rep.hypothesis_margin < -1e-8
        assert rep.bracket_ok
        counts["r_condition"] += 1

    # exact analysis-radius certifier: every instance with R < A must
    # bracket; the radius also obeys the exact quadratic scaling law.
    for i, (lam, _) in enumerate(shared):
        a = gf.frame_bounds(lam).lower
        u = float(rng.uniform(0.05, 0.7))
        theta = gf.perturbed_copy(lam, seed=6000 + i, radius=u * np.sqrt(a))
        rep = gf.certify_analysis_perturbation(lam, theta)
        assert rep.mode == "exact" and rep.hypothesis_holds
        assert rep.bracket_ok
        counts["analysis"] += 1
    for i in range(40):
        lam, _ = shared[i % len(shared)]
        a = gf.frame_bounds(lam).lower
        u = float(rng.uniform(0.05, 0.7))
        theta = gf.perturbed_copy(lam, seed=6500 + i, radius=u * np.sqrt(a))
        rep = gf.certify_analysis_perturbation(lam, theta)
        assert rep.hypothesis_holds and rep.bracket_ok
        counts["analysis"] += 1
    for i in range(10):
        lam, _ = shared[i]
        r1 = gf.certify_analysis_perturbation(lam, gf.perturbed_copy(lam, seed=42, scale=0.05)).radius
        for t in (0.5, 0.25, 0.1):
            rt = gf.certify_analysis_perturbation(
                lam, gf.perturbed_copy(lam, seed=42, scale=0.05 * t)
            ).radius
            assert abs(rt - t**2 * r1) <= 1e-10 * max(1.0, r1)

    assert all(c >= 200 for c in counts.values()), counts
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    _pass(6, "perturbation soundness")


def test_criterion_7_invertibility_lemma():
    # 100 near-identity operators with ||E|| <= 0.3: hypothesis holds with
    # lam1 = ||E||, and all four sandwich bounds verify within 1e-9.
    rng = np.random.default_rng(700)
    for i in range(100):
        n = int(rng.integers(2, 11))
        e = rng.standard_normal((n, n))
        target = float(rng.uniform(0.01, 0.3))
        e *= target / operator_norm(e)
        rep = gf.check_invertibility_lemma(np.eye(n) + e, target, 0.0, samples=2000, seed=8000 + i)
        assert rep.hypothesis_holds
        assert rep.sandwich_ok
    _pass(7, "invertibility lemma sandwich")


def test_criterion_8_cli_determinism_and_round_trip(tmp_path):
    names = replay_golden(tmp_path)
    assert len(names) == 20
    _pass(8, "CLI determinism and golden files")
