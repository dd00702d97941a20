"""Perturbation certificates for g-fusion frames.

Each certifier takes a reference frame and a candidate perturbed system
sharing its structure (dimension, field, subspaces, weights, block sizes),
checks the hypothesis of the corresponding stability statement, emits the
frame bounds that statement predicts for the perturbed system, and verifies
them against the actual spectrum of the perturbed frame operator
(``bracket_ok``).

The hypotheses quantify over all vectors, which sampling cannot prove, so
every report labels the guarantee it carries:

* ``certified_sufficient`` -- a sound operator-norm certificate implies the
  pointwise hypothesis everywhere;
* ``sampled`` -- the hypothesis held on random unit vectors plus
  projected-gradient ascent from the worst samples (evidence, not proof);
* ``exact`` -- the hypothesis reduces to a spectral quantity computed
  exactly (analysis-side certifier);
* ``none`` -- the hypothesis could not be established.

Sampling evaluates the hypothesis's margin on ``samples`` random unit
vectors per operator triple (one triple per block subset, or one in all for
the radius condition), then runs projected-gradient ascent on the unit
sphere from the ``ascent_top`` worst of them.  The starts of a triple ascend
together: each takes at most ``ascent_steps`` steps, with its own step size
and stopping rules, and every step evaluates the margin and its gradient
once, on all the candidate columns.  Terms whose coefficient is 0 are not
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAFrameError
from .linalg import TOL_LEMMA_SLACK, TOL_SAMPLED_MARGIN, adjoint, hermitian_eigen_extremes, operator_norm
from .sampling import random_unit_vectors
from .system import (
    FrameBounds,
    GFusionSystem,
    analysis_matrix,
    frame_bounds,
    frame_operator,
    require_same_structure,
    split_blocks,
    synthesis_matrix,
)

_TAG_FRAME_OPERATOR = "frame_operator"
_TAG_R_CONDITION = "r_condition"
_TAG_SYNTHESIS = "synthesis"
_TAG_ANALYSIS = "analysis"
_TAG_LEMMA = "invertibility_lemma"


@dataclass(frozen=True)
class PerturbParams:
    """Perturbation hypothesis parameters: lam, mu in [0,1), gamma >= 0.

    Certification additionally requires max(lam + gamma/sqrt(A), mu) < 1,
    which depends on the reference frame's lower bound A and is checked by
    the certifiers.
    """

    lam: float = 0.0
    mu: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.lam < 1.0 and 0.0 <= self.mu < 1.0):
            raise ValueError("lam and mu must lie in [0, 1)")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")


@dataclass(frozen=True)
class PerturbationReport:
    theorem: str
    mode: str
    hypothesis_holds: bool
    hypothesis_margin: float          # max observed violation; <= 0 when the
                                      # hypothesis holds (round-off ties excepted)
    actual: FrameBounds               # eigenvalue extremes of the perturbed frame operator
    predicted: FrameBounds | None     # certified bounds; None when nothing is certified
    bracket_ok: bool | None
    params: PerturbParams | None = None
    params_admissible: bool | None = None
    radius: float | None = None
    radius_certificate: float | None = None
    radius_sampled: float | None = None
    cert_margin: float | None = None
    sampled_margin: float | None = None
    stated_lower: float | None = None            # synthesis: published lower-bound formula
    stated_lower_bracket_ok: bool | None = None
    upper_quadratic: float | None = None         # r-condition: B + R*sqrt(B/A)
    upper_mixed: float | None = None             # r-condition: R + sqrt(B)
    upper_quadratic_ok: bool | None = None
    upper_mixed_ok: bool | None = None
    warning: str | None = None
    seed: int | None = None
    samples: int = 0


@dataclass(frozen=True)
class LemmaReport:
    """Sampled check of the near-identity invertibility lemma.

    If ||x - Ux|| <= lam1*||x|| + lam2*||Ux|| for all x (lam1, lam2 < 1),
    then U is invertible with
    (1-lam1)/(1+lam2) <= ||Ux||/||x|| <= (1+lam1)/(1-lam2) and the mirrored
    pair for U^-1.  The hypothesis is verified on random unit vectors; the
    four sandwich bounds are then checked against the singular spectrum.
    """

    hypothesis_holds: bool
    hypothesis_margin: float
    lam1: float
    lam2: float
    norm: float            # ||U||
    inverse_norm: float    # ||U^-1||
    sigma_min: float
    forward_lower: float   # (1-lam1)/(1+lam2)
    forward_upper: float   # (1+lam1)/(1-lam2)
    inverse_lower: float   # (1-lam2)/(1+lam1)
    inverse_upper: float   # (1+lam2)/(1-lam1)
    sandwich_ok: bool
    seed: int
    samples: int


def check_invertibility_lemma(
    u: np.ndarray, lam1: float, lam2: float, *, samples: int = 2000, seed: int, margin_tol: float = TOL_SAMPLED_MARGIN
) -> LemmaReport:
    if not (0.0 <= lam1 < 1.0 and 0.0 <= lam2 < 1.0):
        raise ValueError("lam1 and lam2 must lie in [0, 1)")
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"U must be square, got shape {u.shape}")
    field = "complex" if np.iscomplexobj(u) else "real"
    rng = np.random.default_rng(seed)
    x = random_unit_vectors(rng, u.shape[0], samples, field)
    ux = u @ x
    margins = np.linalg.norm(x - ux, axis=0) - lam1 - lam2 * np.linalg.norm(ux, axis=0)
    margin = float(margins.max())
    # margin_tol absorbs round-off on exactly-tight instances
    holds = margin <= margin_tol
    sv = np.linalg.svd(u, compute_uv=False)
    smin, smax = float(sv[-1]), float(sv[0])
    fl, fu = (1 - lam1) / (1 + lam2), (1 + lam1) / (1 - lam2)
    il, iu = (1 - lam2) / (1 + lam1), (1 + lam2) / (1 - lam1)
    slack = TOL_LEMMA_SLACK
    sandwich = bool(
        smin > 0.0
        and smin >= fl - slack
        and smax <= fu + slack
        and 1.0 / smin <= iu + slack
        and 1.0 / smax >= il - slack
    )
    return LemmaReport(
        hypothesis_holds=holds,
        hypothesis_margin=margin,
        lam1=lam1,
        lam2=lam2,
        norm=smax,
        inverse_norm=float(np.inf) if smin == 0.0 else 1.0 / smin,
        sigma_min=smin,
        forward_lower=fl,
        forward_upper=fu,
        inverse_lower=il,
        inverse_upper=iu,
        sandwich_ok=sandwich,
        seed=seed,
        samples=samples,
    )


def _reference_bounds(lam_sys: GFusionSystem) -> tuple[float, float]:
    fb = frame_bounds(lam_sys)
    if fb is None:
        raise NotAFrameError("the reference system must be a g-fusion frame")
    return fb.lower, fb.upper


def _quadratic_terms(sys: GFusionSystem) -> list[np.ndarray]:
    """Per-block PSD terms v_j^2 P_j L_j^H L_j P_j of the frame operator."""
    return [adjoint(k) @ k for k in split_blocks(sys, analysis_matrix(sys))]


def _subset_masks(rng: np.random.Generator, count: int, extra: int) -> list[np.ndarray]:
    """The full index set plus up to ``extra`` distinct random nonempty subsets."""
    masks = [np.ones(count, dtype=bool)]
    seen = {frozenset(range(count))}
    for _ in range(4 * extra):
        if len(masks) > extra:
            break
        size = int(rng.integers(1, count + 1))
        members = frozenset(rng.choice(count, size=size, replace=False).tolist())
        if members in seen:
            continue
        seen.add(members)
        mask = np.zeros(count, dtype=bool)
        mask[list(members)] = True
        masks.append(mask)
    return masks


def _ascend(objective, starts: np.ndarray, steps: int) -> np.ndarray:
    """Projected-gradient ascent on the unit sphere from every start column at once; each column's best value.

    ``objective`` maps a (dim, k) block of unit columns to their k values and
    (dim, k) gradients.  Each column has its own step size (0.25, halved on
    every step that does not raise its value) and stops on its own: when its
    tangent gradient falls below 1e-14, its step size below 1e-8, or after
    ``steps`` steps.  Every step evaluates the objective once, on the
    candidates of the columns still moving; an accepted candidate keeps the
    gradient computed with its value.
    """
    f = starts.copy()
    cur, grad = objective(f)
    eta = np.full(f.shape[1], 0.25)
    live = np.arange(f.shape[1])
    for _ in range(steps):
        fl = f[:, live]
        g = grad[:, live]
        g = g - np.einsum("is,is->s", fl.conj(), g).real * fl
        gn = np.linalg.norm(g, axis=0)
        moving = ~(gn < 1e-14)
        live, fl, g = live[moving], fl[:, moving], g[:, moving]
        if not live.size:
            break
        cand = fl + eta[live] * g
        cand = cand / np.linalg.norm(cand, axis=0)
        cv, cg = objective(cand)
        up = cv > cur[live]
        won = live[up]
        f[:, won] = cand[:, up]
        cur[won] = cv[up]
        grad[:, won] = cg[:, up]
        eta[live[~up]] *= 0.5
        live = live[eta[live] >= 1e-8]
    return cur


def _over(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den column by column; a column whose den is 0 (its term has no gradient there) gives 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _margin_objective(d_m, l_m, t_m, params: PerturbParams, quad_form: bool):
    """The hypothesis margin of one (D, L, T) triple, column by column, with its gradient.

    ``objective(f, grad)`` returns, for a (dim, k) block f of unit columns,
    the k margins ``||D f|| - lam*||L f|| - mu*||T f|| - gamma * w(f)``, where
    ``w`` is ``sqrt(f^H L f)`` when ``quad_form`` (frame-operator hypothesis,
    L PSD) and ``||f|| = 1`` otherwise (synthesis hypothesis), and, when
    ``grad``, their (dim, k) gradients (else None).  A term whose coefficient
    is 0 is skipped: it would add exactly 0.0.
    """
    lam, mu, gamma = params.lam, params.mu, params.gamma
    d_h = adjoint(d_m)
    l_h = adjoint(l_m) if lam else None
    t_h = adjoint(t_m) if mu else None
    need_lf = bool(lam or (gamma and quad_form))

    def objective(f, grad=True):
        df = d_m @ f
        lhs = np.linalg.norm(df, axis=0)
        g = _over(d_h @ df, lhs) if grad else None
        rhs = 0.0
        lf = l_m @ f if need_lf else None
        if lam:
            ln = np.linalg.norm(lf, axis=0)
            rhs = rhs + lam * ln
            if grad:
                g = g - lam * _over(l_h @ lf, ln)
        if mu:
            tf = t_m @ f
            tn = np.linalg.norm(tf, axis=0)
            rhs = rhs + mu * tn
            if grad:
                g = g - mu * _over(t_h @ tf, tn)
        if gamma and quad_form:
            root = np.sqrt(np.clip(np.einsum("is,is->s", f.conj(), lf).real, 0.0, None))
            rhs = rhs + gamma * root
            if grad:
                g = g - gamma * _over(lf, root)
        elif gamma:
            rhs = rhs + gamma  # constant on the unit sphere: no tangent gradient
        return lhs - rhs, g

    return objective


def _sampled_max_margin(
    matrices: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    params: PerturbParams,
    rng: np.random.Generator,
    field: str,
    samples: int,
    steps: int,
    top: int,
    quad_form: bool,
) -> float:
    """Worst sampled hypothesis margin over the given (D, L, T) triples (see ``_margin_objective``)."""
    worst = -np.inf
    for d_m, l_m, t_m in matrices:
        f_batch = random_unit_vectors(rng, d_m.shape[1], samples, field)
        objective = _margin_objective(d_m, l_m, t_m, params, quad_form)
        margins, _ = objective(f_batch, grad=False)
        order = np.argsort(margins)[::-1][:top]
        worst = max(worst, _ascend(objective, f_batch[:, order], steps).max(initial=-np.inf))
    return float(worst)


def _bracket(predicted: FrameBounds | None, actual: FrameBounds, tol: float) -> bool | None:
    if predicted is None:
        return None
    return bool(predicted.lower <= actual.lower + tol and actual.upper <= predicted.upper + tol)


def certify_frame_operator_perturbation(
    lam_sys: GFusionSystem,
    theta_sys: GFusionSystem,
    params: PerturbParams,
    *,
    samples: int = 2000,
    seed: int,
    bracket_tol: float = 1e-9,
    subset_count: int = 8,
    ascent_steps: int = 50,
    ascent_top: int = 5,
) -> PerturbationReport:
    """Certify the frame-operator comparison hypothesis.

    Hypothesis (for every block subset I and every f):
    ``||sum_I (SL_j - ST_j) f|| <= lam*||sum_I SL_j f|| + mu*||sum_I ST_j f||
    + gamma*(f^H sum_I SL_j f)^(1/2)`` where SL_j / ST_j are the per-block
    frame-operator terms of the reference and perturbed systems.  Predicted
    bounds: A*(1-(lam+gamma/sqrt(A)))/(1+mu) and
    B*(1+lam+gamma/sqrt(B))/(1-mu).

    The sound certificate checks ``||S_lam - S_theta|| <= lam*A + gamma*sqrt(A)``
    (the mu = 0 sufficient condition) and covers the full index set only,
    which is all the predicted bounds need.  Otherwise the hypothesis is
    sampled on the full index set plus up to ``subset_count - 1`` distinct
    random nonempty subsets.
    """
    require_same_structure(lam_sys, theta_sys)
    a, b = _reference_bounds(lam_sys)
    sqrt_a, sqrt_b = np.sqrt(a), np.sqrt(b)
    admissible = bool(max(params.lam + params.gamma / sqrt_a, params.mu) < 1.0)

    s_lam = frame_operator(lam_sys)
    s_theta = frame_operator(theta_sys)
    actual_ext = hermitian_eigen_extremes(s_theta)
    actual = FrameBounds(actual_ext.min_eig, actual_ext.max_eig, "optimal-spectral")

    cert_margin = float(operator_norm(s_lam - s_theta) - (params.lam * a + params.gamma * sqrt_a))
    sampled_margin = None
    if cert_margin <= 0.0:
        mode = "certified_sufficient"
        margin = cert_margin
        inequality_ok = True
    elif samples > 0:
        rng = np.random.default_rng(seed)
        terms_l = _quadratic_terms(lam_sys)
        terms_t = _quadratic_terms(theta_sys)
        triples = []
        for mask in _subset_masks(rng, lam_sys.block_count, subset_count - 1):
            l_m = sum(t for t, keep in zip(terms_l, mask) if keep)
            t_m = sum(t for t, keep in zip(terms_t, mask) if keep)
            triples.append((l_m - t_m, l_m, t_m))
        sampled_margin = _sampled_max_margin(
            triples, params, rng, lam_sys.field, samples, ascent_steps, ascent_top, True
        )
        mode = "sampled"
        margin = sampled_margin
        inequality_ok = sampled_margin <= TOL_SAMPLED_MARGIN * max(1.0, b)
    else:
        mode = "none"
        margin = cert_margin
        inequality_ok = False

    holds = bool(inequality_ok and admissible)
    predicted = None
    if admissible:
        predicted = FrameBounds(
            a * (1.0 - (params.lam + params.gamma / sqrt_a)) / (1.0 + params.mu),
            b * (1.0 + params.lam + params.gamma / sqrt_b) / (1.0 - params.mu),
            "certified",
        )
    return PerturbationReport(
        theorem=_TAG_FRAME_OPERATOR,
        mode=mode,
        hypothesis_holds=holds,
        hypothesis_margin=margin,
        actual=actual,
        predicted=predicted,
        bracket_ok=_bracket(predicted, actual, bracket_tol),
        params=params,
        params_admissible=admissible,
        cert_margin=cert_margin,
        sampled_margin=sampled_margin,
        seed=seed,
        samples=samples,
    )


def certify_R_condition(
    lam_sys: GFusionSystem,
    theta_sys: GFusionSystem,
    *,
    samples: int = 2000,
    seed: int,
    bracket_tol: float = 1e-9,
    ascent_steps: int = 50,
    ascent_top: int = 5,
) -> PerturbationReport:
    """Certify the summed-norm radius condition.

    Hypothesis: ``sum_j v_j^2 ||P_j(L_j^H L_j - T_j^H T_j)P_j f|| <= R*||f||``
    for some R < A.  The sound radius is the triangle-inequality certificate
    ``R_cert = sum_j`` of the per-block operator norms; when that exceeds A a
    sampled estimate of the functional's maximum is tried instead (reported
    with a warning, since a sampled radius is not a proof).

    Predicted lower bound: A - R.  The two published upper-bound components
    ``B + R*sqrt(B/A)`` and ``R + sqrt(B)`` are emitted separately with
    individual satisfaction flags; the bracket check uses the quadratic-form
    component, which is the one the frame-operator certificate yields.
    """
    require_same_structure(lam_sys, theta_sys)
    a, b = _reference_bounds(lam_sys)
    diffs = [l - t for l, t in zip(_quadratic_terms(lam_sys), _quadratic_terms(theta_sys))]
    actual_ext = hermitian_eigen_extremes(frame_operator(theta_sys))
    actual = FrameBounds(actual_ext.min_eig, actual_ext.max_eig, "optimal-spectral")

    r_cert = float(sum(operator_norm(d) for d in diffs))
    r_sampled = None
    warning = None
    if r_cert < a:
        mode = "certified_sufficient"
        radius = r_cert
    elif samples > 0:
        rng = np.random.default_rng(seed)
        f_batch = random_unit_vectors(rng, lam_sys.dim, samples, lam_sys.field)
        diffs_h = [adjoint(d) for d in diffs]

        def objective(f, grad=True):
            """sum_j ||D_j f|| per column of f, with its gradient when ``grad``."""
            value, g = 0, 0
            for d, d_h in zip(diffs, diffs_h):
                df = d @ f
                dn = np.linalg.norm(df, axis=0)
                value = value + dn
                if grad:
                    g = g + _over(d_h @ df, dn)
            return value, g if grad else None

        values, _ = objective(f_batch, grad=False)
        order = np.argsort(values)[::-1][:ascent_top]
        r_sampled = float(_ascend(objective, f_batch[:, order], ascent_steps).max(initial=-np.inf))
        if r_sampled < a:
            mode = "sampled"
            radius = r_sampled
            warning = "triangle-inequality radius exceeded the lower frame bound; using the sampled radius"
        else:
            mode = "none"
            radius = min(r_cert, r_sampled)
    else:
        mode = "none"
        radius = r_cert

    holds = bool(mode != "none" and radius < a)
    upper_quadratic = b + radius * np.sqrt(b / a)
    upper_mixed = radius + np.sqrt(b)
    predicted = FrameBounds(a - radius, float(upper_quadratic), "certified") if holds else None
    return PerturbationReport(
        theorem=_TAG_R_CONDITION,
        mode=mode,
        hypothesis_holds=holds,
        hypothesis_margin=float(radius - a),
        actual=actual,
        predicted=predicted,
        bracket_ok=_bracket(predicted, actual, bracket_tol),
        radius=float(radius),
        radius_certificate=r_cert,
        radius_sampled=r_sampled,
        upper_quadratic=float(upper_quadratic),
        upper_mixed=float(upper_mixed),
        upper_quadratic_ok=bool(actual.upper <= upper_quadratic + bracket_tol),
        upper_mixed_ok=bool(actual.upper <= upper_mixed + bracket_tol),
        warning=warning,
        seed=seed,
        samples=samples,
    )


def certify_synthesis_perturbation(
    lam_sys: GFusionSystem,
    theta_sys: GFusionSystem,
    params: PerturbParams,
    *,
    samples: int = 2000,
    seed: int,
    bracket_tol: float = 1e-9,
    subset_count: int = 8,
    ascent_steps: int = 50,
    ascent_top: int = 5,
) -> PerturbationReport:
    """Certify the synthesis-operator comparison hypothesis.

    Hypothesis over direct-sum sequences g (and block subsets):
    ``||(T_lam - T_theta) g|| <= lam*||T_lam g|| + mu*||T_theta g|| +
    gamma*||g||``.  Sound certificate: ``||T_lam - T_theta|| <= gamma``, which
    covers the full index set only, as the predicted bounds need.  Otherwise
    the hypothesis is sampled on the full index set plus up to
    ``subset_count - 1`` distinct random nonempty subsets.

    The published lower bound ``A*(1-(lam+gamma/sqrt(A))^2)/(1+mu)`` and the
    proof-derived one ``A*((1-(lam+gamma/sqrt(A)))/(1+mu))^2`` disagree; both
    are emitted and bracketed separately, with ``predicted``/``bracket_ok``
    carrying the proof-derived pair.
    """
    require_same_structure(lam_sys, theta_sys)
    a, b = _reference_bounds(lam_sys)
    sqrt_a, sqrt_b = np.sqrt(a), np.sqrt(b)
    admissible = bool(max(params.lam + params.gamma / sqrt_a, params.mu) < 1.0)

    t_lam = synthesis_matrix(lam_sys)
    t_theta = synthesis_matrix(theta_sys)
    actual_ext = hermitian_eigen_extremes(frame_operator(theta_sys))
    actual = FrameBounds(actual_ext.min_eig, actual_ext.max_eig, "optimal-spectral")

    cert_margin = float(operator_norm(t_lam - t_theta) - params.gamma)
    sampled_margin = None
    if cert_margin <= 0.0:
        mode = "certified_sufficient"
        margin = cert_margin
        inequality_ok = True
    elif samples > 0:
        rng = np.random.default_rng(seed)
        dims = lam_sys.block_dims
        col_blocks = np.repeat(np.arange(lam_sys.block_count), dims)
        triples = []
        for mask in _subset_masks(rng, lam_sys.block_count, subset_count - 1):
            cols = mask[col_blocks]
            triples.append(((t_lam - t_theta)[:, cols], t_lam[:, cols], t_theta[:, cols]))
        sampled_margin = _sampled_max_margin(
            triples, params, rng, lam_sys.field, samples, ascent_steps, ascent_top, False
        )
        mode = "sampled"
        margin = sampled_margin
        inequality_ok = sampled_margin <= TOL_SAMPLED_MARGIN * max(1.0, sqrt_b)
    else:
        mode = "none"
        margin = cert_margin
        inequality_ok = False

    holds = bool(inequality_ok and admissible)
    predicted = None
    stated_lower = None
    stated_ok = None
    if admissible:
        contraction = params.lam + params.gamma / sqrt_a
        proof_lower = a * ((1.0 - contraction) / (1.0 + params.mu)) ** 2
        stated_lower = a * (1.0 - contraction**2) / (1.0 + params.mu)
        upper = b * ((1.0 + params.lam + params.gamma / sqrt_b) / (1.0 - params.mu)) ** 2
        predicted = FrameBounds(float(proof_lower), float(upper), "certified")
        stated_ok = bool(stated_lower <= actual.lower + bracket_tol)
    return PerturbationReport(
        theorem=_TAG_SYNTHESIS,
        mode=mode,
        hypothesis_holds=holds,
        hypothesis_margin=margin,
        actual=actual,
        predicted=predicted,
        bracket_ok=_bracket(predicted, actual, bracket_tol),
        params=params,
        params_admissible=admissible,
        cert_margin=cert_margin,
        sampled_margin=sampled_margin,
        stated_lower=stated_lower,
        stated_lower_bracket_ok=stated_ok,
        seed=seed,
        samples=samples,
    )


def certify_analysis_perturbation(
    lam_sys: GFusionSystem,
    theta_sys: GFusionSystem,
    *,
    bracket_tol: float = 1e-9,
) -> PerturbationReport:
    """Certify the analysis-side quadratic hypothesis; needs no sampling.

    The optimal radius R in
    ``sum_j v_j^2 ||(L_j - T_j) P_j f||^2 <= R * ||f||^2`` is exactly the top
    eigenvalue of the PSD operator ``D^H D`` with ``D = K_lam - K_theta``,
    whose row blocks are ``v_j (L_j - T_j) P_j`` (the systems share subspaces).
    With R < A the perturbed system is a frame with bounds
    ``(sqrt(A) - sqrt(R))^2`` and ``(sqrt(R) + sqrt(B))^2``.
    """
    require_same_structure(lam_sys, theta_sys)
    a, b = _reference_bounds(lam_sys)
    d = analysis_matrix(lam_sys) - analysis_matrix(theta_sys)
    radius = max(hermitian_eigen_extremes(adjoint(d) @ d).max_eig, 0.0)
    actual_ext = hermitian_eigen_extremes(frame_operator(theta_sys))
    actual = FrameBounds(actual_ext.min_eig, actual_ext.max_eig, "optimal-spectral")
    holds = bool(radius < a)
    predicted = None
    if holds:
        predicted = FrameBounds(
            float((np.sqrt(a) - np.sqrt(radius)) ** 2),
            float((np.sqrt(radius) + np.sqrt(b)) ** 2),
            "certified",
        )
    return PerturbationReport(
        theorem=_TAG_ANALYSIS,
        mode="exact",
        hypothesis_holds=holds,
        hypothesis_margin=float(radius - a),
        actual=actual,
        predicted=predicted,
        bracket_ok=_bracket(predicted, actual, bracket_tol),
        radius=float(radius),
        radius_certificate=float(radius),
    )
