"""Perturbation certificates for g-fusion frames.

Each certifier takes a reference frame and a candidate perturbed system
sharing its structure (dimension, field, subspaces, weights, block sizes;
the lemma's only dimension and field), checks the hypothesis of the
corresponding stability statement, emits the frame bounds that statement
predicts for the perturbed system, and verifies them against the actual
spectrum of the perturbed frame operator (``bracket_ok``).

The hypotheses quantify over all vectors, which sampling cannot prove, so
every report labels the guarantee it carries:

* ``certified_sufficient`` -- a sound operator-norm certificate implies the
  pointwise hypothesis everywhere;
* ``sampled`` -- a search decided: a deterministic witness, then random
  unit vectors plus projected-gradient ascent from the worst samples.  A
  vector above the threshold refutes the hypothesis; a hypothesis that holds
  on every vector tried is evidence, not proof;
* ``exact`` -- the hypothesis reduces to a spectral quantity computed
  exactly (analysis-side certifier, and the lemma with lam2 = 0);
* ``none`` -- the hypothesis could not be established.

The four frame certifiers build their reports with one routine,
``_certify``: the set-up (the structure check, the reference bounds A, B and
the perturbed system's actual bounds), the statement's decision, its bounds
computed with overflow ignored and then required finite, the bracket against
the actual spectrum, and the report.  ``cR`` and ``analysis`` pass their
radius logic as the decision.  ``t52`` and ``synth`` share ``_comparison``,
which checks admissibility (lam + gamma/sqrt(A) and mu below 1) and decides
the hypothesis: certified by the certificate, ``none`` without samples, else
searched against the threshold ``TOL_SAMPLED_MARGIN * max(1, scale)``
(scale B for ``t52``, sqrt(B) for ``synth``).  So each certifier keeps only
its certificate, its hypothesis and its bound formulas.

The three sampled certifiers and the invertibility lemma share one search,
``_sampled_max_margin``, the only place that fixes its order and the only
one that draws; its shape is fixed by module constants.  Each states its
margin over norm terms with one builder, ``_norm_objective``: ``t52`` and
``synth`` over operators, the full index set's D = L - T (the reference
operator L the hypothesis compares with, minus its perturbed counterpart
T), and for ``t52`` the same sums over random block subsets, whose masks
come off the search's random stream; the radius condition over its D_j;
the lemma over I - U and U.  ``_comparison`` searches ``t52``'s and
``synth``'s with their witness.  The search runs in this order and stops
at the first margin above the threshold, which refutes the hypothesis:

1. a deterministic witness, block by block (``_spectral_witness``): for
   ``t52`` and ``synth``, the top right singular vector of the full set's
   D, and, when L has more columns than rows, also that of D restricted to
   ker L, where the terms in L vanish; then, only if those do not refute,
   the ratio witness L^+ y / ||L^+ y||, y the top right singular vector of
   D L^+, where ||D g|| / ||L g|| reaches ||D L^+||.  L^+ is S^-1 for
   ``t52`` and K S^-1 for ``synth``, from the cached S^-1, so every matrix
   involved is n x n.  With only the lam term (mu = gamma = 0) these
   witnesses refute exactly when the full-set hypothesis is false.  For
   the radius condition (its margin is its summed-norm functional) the
   witness is the top eigenvector of sum_j D_j^H D_j, and for the lemma
   the top right singular vector of I - U, where ||x - Ux|| peaks;
2. the Generator, seeded with ``seed``;
3. ``t52``'s up to ``_EXTRA_SUBSETS`` (7) random subset masks, off that
   stream;
4. one batch of ``samples`` random unit vectors per index set, the full
   set first: its margins are screened, and projected-gradient ascent on
   the unit sphere runs from the ``_ASCENT_TOP`` (5) worst.  The starts
   ascend together: each takes at most ``_ASCENT_STEPS`` (50) steps, with
   its own step size and stopping rules, and every step evaluates the
   margin and its gradient once, on all the candidate columns.  Terms
   whose coefficient is 0 are not evaluated.

``synth`` and the radius condition search the full index set alone (the
lemma has no index sets): a block subset's synthesis hypothesis is the
full set's on direct-sum sequences supported there, so no subset can
refute what the full set does not.  ``t52``'s sums over a subset are other
operators.  The stop comes at the witness, at a screening or after any
ascent step, and nothing after it is built or drawn: a refutation by the
witness seeds no Generator and draws no mask.  A refuted report's sampled
margin (or radius) is then the worst seen up to that point: still a
witness, and a lower bound on the worst over all subsets after full
ascent.  A hypothesis that holds never stops early, so its report is what
the exhaustive search gives, the witness's margin included.  The
invertibility lemma is decided first by its certificate
||I - U|| - lam1 - lam2*sigma_min(U); only when that does not decide (and
lam2 > 0) does it run the search: witness, draw and ascent
(``LemmaReport``).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NotAFrameError, SystemMismatch
from .linalg import (
    TOL_LEMMA_SLACK, TOL_SAMPLED_MARGIN, TOL_VERDICT, adjoint, finite_product, gram_difference_norm, hermitian_part,
    require_finite,
)
from .sampling import random_unit_vectors
from .system import (
    FrameBounds,
    GFusionSystem,
    analysis_matrix,
    frame_bounds,
    frame_operator,
    inverse_frame_operator,
    require_same_structure,
    spectral_extremes,
    split_blocks,
    synthesis_matrix,
)

_TAG_FRAME_OPERATOR = "frame_operator"
_TAG_R_CONDITION = "r_condition"
_TAG_SYNTHESIS = "synthesis"
_TAG_ANALYSIS = "analysis"

# Search shape of the sampled certifiers (see the module docstring).
_EXTRA_SUBSETS = 7
_ASCENT_TOP = 5
_ASCENT_STEPS = 50


@dataclass(frozen=True)
class PerturbParams:
    """Perturbation hypothesis parameters: lam, mu in [0,1), gamma finite and >= 0.

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
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and nonnegative")
        for name in ("lam", "mu", "gamma"):  # a numpy scalar or an int is echoed as the float the CLI gives
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class PerturbationReport:
    theorem: str
    mode: str
    hypothesis_holds: bool
    hypothesis_margin: float          # max observed violation; <= 0 when the
                                      # hypothesis holds (round-off ties excepted);
                                      # sampled and refuted: the worst seen when the search
                                      # stopped, at the first margin above the threshold
    actual: FrameBounds               # eigenvalue extremes of the perturbed frame operator
    predicted: FrameBounds | None     # certified bounds; None when nothing is certified
    bracket_ok: bool | None
    params: PerturbParams | None = None
    params_admissible: bool | None = None
    radius: float | None = None
    radius_certificate: float | None = None
    radius_sampled: float | None = None          # the ascent stops once it reaches A
    cert_margin: float | None = None
    sampled_margin: float | None = None          # worst seen, the witness's first and then the
                                                 # samples'; the search stops at the first margin
                                                 # above the threshold (a refutation), if that is
                                                 # the witness's, before any draw
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
    """Check of the near-identity invertibility lemma, certificate first.

    If ||x - Ux|| <= lam1*||x|| + lam2*||Ux|| for all x (lam1, lam2 < 1),
    then U is invertible with
    (1-lam1)/(1+lam2) <= ||Ux||/||x|| <= (1+lam1)/(1-lam2) and the mirrored
    pair for U^-1.  ``cert_margin = ||I - U|| - lam1 - lam2*sigma_min(U)`` at
    most ``TOL_SAMPLED_MARGIN`` (echoed as ``margin_tol``) proves the
    hypothesis with no draw (``certified_sufficient``; with lam2 = 0 it
    decides both ways: ``exact``).  Else the margin
    ``||(I - U)x|| - (lam2*||Ux|| + lam1)`` goes to the shared search
    (``_sampled_max_margin``, both ``sampled``): a margin above
    ``TOL_SAMPLED_MARGIN`` at the top right singular vector of I - U, where
    ||x - Ux|| peaks, refutes it with no draw; only then are ``samples``
    random unit vectors screened and ascended from the worst.
    ``hypothesis_margin`` is the worst margin evaluated, the witness's when
    nothing is drawn (e_1's when U = I, where every unit vector attains
    -(lam1 + lam2)), so it and ``cert_margin`` bracket the supremum.  The
    four sandwich bounds are then checked against the singular spectrum.
    """

    mode: str
    hypothesis_holds: bool
    hypothesis_margin: float
    cert_margin: float
    lam1: float
    lam2: float
    norm: float            # ||U||
    inverse_norm: float | None  # ||U^-1||; None when U is singular (sigma_min = 0)
    sigma_min: float
    forward_lower: float   # (1-lam1)/(1+lam2)
    forward_upper: float   # (1+lam1)/(1-lam2)
    inverse_lower: float   # (1-lam2)/(1+lam1)
    inverse_upper: float   # (1+lam2)/(1-lam1)
    sandwich_ok: bool
    seed: int
    samples: int


def _finite_fields(values: dict[str, float]) -> None:
    """NonFiniteInput naming the first of these report fields (bounds, radii) that overflowed a float."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise NonFiniteInput(f"{name} overflows a float")


@contextmanager
def _finite_margins():
    """Evaluate sampled margins: arithmetic that overflows or turns invalid raises NonFiniteInput, without a warning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteInput(f"the sampled hypothesis margin overflows a float ({exc})") from None


def _require_samples(samples: int, least: int) -> None:
    if samples < least:
        raise ValueError(f"samples must be at least {least}, got {samples}")


def check_invertibility_lemma(
    u: np.ndarray, lam1: float, lam2: float, *, samples: int = 2000, seed: int
) -> LemmaReport:
    _require_samples(samples, 1)
    if not (0.0 <= lam1 < 1.0 and 0.0 <= lam2 < 1.0):
        raise ValueError("lam1 and lam2 must lie in [0, 1)")
    u = require_finite(u, "U")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"U must be square, got shape {u.shape}")
    field = "complex" if np.iscomplexobj(u) else "real"
    sv = np.linalg.svd(u, compute_uv=False)
    smin, smax = float(sv[-1]), float(sv[0])

    i_u = np.eye(u.shape[0]) - u
    objective = _norm_objective([i_u], [(lam2, u, 0.0)], lam1)  # ||x - Ux|| - (lam2*||Ux|| + lam1)
    with _finite_margins():
        norm_d, top = _top_singular(i_u)
        # ||x - Ux|| <= ||I - U|| ||x|| and sigma_min ||x|| <= ||Ux||: at most 0 implies the hypothesis
        cert_margin = float(norm_d - lam1 - lam2 * smin)
        # TOL_SAMPLED_MARGIN absorbs round-off on exactly-tight instances
        certified = cert_margin <= TOL_SAMPLED_MARGIN
        if certified or lam2 == 0.0:  # decided: the witness's margin is reported and nothing is drawn
            # I - U = 0 gives no top vector; then every unit vector, e_1 among them, attains the supremum
            margin = float(objective(np.eye(u.shape[0], 1) if top is None else top[:, None], grad=False)[0][0])
        else:  # the witness first: a margin above TOL_SAMPLED_MARGIN there refutes before any draw
            margin = _sampled_max_margin(u.shape[0], objective, _columns([top]), TOL_SAMPLED_MARGIN, seed, field,
                                         samples)
    holds = bool(certified or (lam2 > 0.0 and margin <= TOL_SAMPLED_MARGIN))
    inverse_norm = None if smin == 0.0 else 1.0 / smin
    if inverse_norm is not None:
        _finite_fields({"inverse_norm": inverse_norm})
    fl, fu = (1 - lam1) / (1 + lam2), (1 + lam1) / (1 - lam2)
    il, iu = (1 - lam2) / (1 + lam1), (1 + lam2) / (1 - lam1)
    slack = TOL_LEMMA_SLACK
    sandwich = bool(
        inverse_norm is not None
        and smin >= fl - slack
        and smax <= fu + slack
        and inverse_norm <= iu + slack
        and 1.0 / smax >= il - slack
    )
    return LemmaReport(
        mode="exact" if lam2 == 0.0 else "certified_sufficient" if certified else "sampled",
        hypothesis_holds=holds,
        hypothesis_margin=margin,
        cert_margin=cert_margin,
        lam1=lam1,
        lam2=lam2,
        norm=smax,
        inverse_norm=inverse_norm,
        sigma_min=smin,
        forward_lower=fl,
        forward_upper=fu,
        inverse_lower=il,
        inverse_upper=iu,
        sandwich_ok=sandwich,
        seed=seed,
        samples=samples,
    )


def _setup(lam_sys: GFusionSystem, theta_sys: GFusionSystem, samples: int = 0) -> tuple[float, float, FrameBounds]:
    """Check a certifier's inputs; the reference bounds A, B and the perturbed system's actual bounds."""
    _require_samples(samples, 0)
    require_same_structure(lam_sys, theta_sys)
    fb = frame_bounds(lam_sys)
    if fb is None:
        raise NotAFrameError("the reference system must be a g-fusion frame")
    ext = spectral_extremes(theta_sys)
    return fb.lower, fb.upper, FrameBounds(ext.min_eig, ext.max_eig, "optimal-spectral")


def _quadratic_terms(sys: GFusionSystem) -> list[np.ndarray]:
    """Per-block PSD terms v_j^2 P_j L_j^H L_j P_j of the frame operator."""
    return [adjoint(k) @ k for k in split_blocks(sys, analysis_matrix(sys))]


def _row_block_pairs(lam_sys: GFusionSystem, theta_sys: GFusionSystem) -> list[tuple[np.ndarray, np.ndarray]]:
    """The row blocks (K_j, K~_j) of the two cached analysis matrices, block by block."""
    return list(zip(*(split_blocks(s, analysis_matrix(s)) for s in (lam_sys, theta_sys))))


def _gram_differences(pairs) -> list[np.ndarray]:
    """Per-block D_j = K_j^H K_j - K~_j^H K~_j as herm(F_j^H E_j), E_j = K_j - K~_j, F_j = K_j + K~_j: no Gram."""
    return [hermitian_part(finite_product(adjoint(k + k_t), k - k_t, "F_j^H E_j")) for k, k_t in pairs]


def _subset_masks(rng: np.random.Generator, count: int, extra: int) -> list[np.ndarray]:
    """The full index set plus up to ``extra`` distinct random nonempty subsets.

    Each of at most 4 * ``extra`` tries draws a size and then its members,
    two Generator calls; the loop stops once it has ``extra`` subsets or all
    2^count - 2 proper ones (so count = 1 makes no call).  Only a ``t52``
    search that draws a batch calls it, so its draws come first on that
    search's stream.
    """
    masks = [np.ones(count, dtype=bool)]
    seen = {frozenset(range(count))}
    wanted = min(extra, 2**count - 2)
    for _ in range(4 * extra):
        if len(masks) > wanted:
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


def _top_singular(d: np.ndarray) -> tuple[float, np.ndarray | None]:
    """||D|| and a unit g with ||D g|| = ||D||, from the smaller of D D^H and D^H D; (0.0, None) when D = 0.

    D is first divided by its largest entry, so that neither product can
    overflow; g does not depend on that scale.  With u the top eigenvector of
    D D^H, g = D^H u / ||D^H u||; a D with more rows than columns takes g as
    the top eigenvector of D^H D.  The norm is ||D g|| times the scale.
    """
    scale = np.abs(d).max(initial=0.0)
    if scale == 0.0:
        return 0.0, None
    d = d / scale
    if d.shape[0] > d.shape[1]:
        g = np.linalg.eigh(adjoint(d) @ d)[1][:, -1]
        return float(scale * np.linalg.norm(d @ g)), g
    g = adjoint(d) @ np.linalg.eigh(d @ adjoint(d))[1][:, -1]
    norm = np.linalg.norm(g)
    return float(scale * norm), g / norm


def _unit(v: np.ndarray) -> np.ndarray | None:
    """v / ||v||, scaled by its largest entry first so that the norm cannot underflow or overflow; None for v = 0."""
    scale = np.abs(v).max(initial=0.0)
    if scale == 0.0:
        return None
    v = v / scale
    return v / np.linalg.norm(v)


def _columns(cols) -> list[np.ndarray]:
    """The unit columns that exist (not None) as one (dim, k) block in a list; an empty list when none does."""
    cols = [g for g in cols if g is not None]
    return [np.stack(cols, axis=1)] if cols else []


def _spectral_witness(d: np.ndarray, l: np.ndarray, top: np.ndarray | None, l_pinv: Callable[[], np.ndarray]):
    """Blocks of unit columns scored before a full-index-set search draws, one block at a time.

    The first block holds ``top``, D's top right singular vector (where
    ||D g|| peaks on the sphere), and, when L has more columns than rows, D's
    top right singular vector on ker L, where every L term of the margin
    vanishes: that of D_k = D - (D Q) Q^H, with Q from a reduced QR of L^H
    (range Q contains L's row space).  The second block, built only if the
    first does not refute, is the ratio witness g = L^+ y / ||L^+ y||, with
    y the top right singular vector of D L^+ (``l_pinv()``, called only
    then; L has full row rank, so L L^+ = I): ||D g|| / ||L g|| is
    ||D L^+||, the largest ratio off ker L.  With mu = gamma = 0 the two
    blocks decide the full-set hypothesis: it fails iff D does not vanish
    on ker L or ||D L^+|| > lam.  No column needs a rank tolerance, since
    the objective decides; a zero D (or D_k, or D L^+) gives no column.
    """
    cols = [top]
    if l.shape[1] > l.shape[0]:
        q = np.linalg.qr(adjoint(l))[0]
        cols.append(_top_singular(d - (d @ q) @ adjoint(q))[1])
    yield from _columns(cols)
    l_pinv = l_pinv()
    y = _top_singular(d @ l_pinv)[1]
    if y is not None:
        yield from _columns([_unit(l_pinv @ y)])


def _ascend(objective, starts: np.ndarray, steps: int, stop_above: float = np.inf) -> np.ndarray:
    """Projected-gradient ascent on the unit sphere from every start column at once; each column's best value.

    ``objective`` maps a (dim, k) block of unit columns to their k values and
    (dim, k) gradients.  Each column has its own step size (0.25, halved on
    every step that does not raise its value) and stops on its own: when its
    tangent gradient falls below 1e-14, its step size below 1e-8, or after
    ``steps`` steps.  Every step evaluates the objective once, on the
    candidates of the columns still moving; an accepted candidate keeps the
    gradient computed with its value.  All columns stop as soon as any value
    exceeds ``stop_above``, checked at the starts and after every step.
    """
    f = starts.copy()
    cur, grad = objective(f)
    eta = np.full(f.shape[1], 0.25)
    live = np.arange(f.shape[1])
    for _ in range(steps):
        if cur.max(initial=-np.inf) > stop_above:
            break
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


def _norm_objective(plus, minus=(), const=0.0):
    """A hypothesis margin over norm terms, column by column, with its gradient.

    ``objective(f, grad)`` returns, for a (dim, k) block f of unit columns,
    the k margins ``sum_{A in plus} ||A f|| - (sum_i (c_i*||B_i f|| +
    gamma_i*sqrt(f^H B_i f)) + const)``, over the ``(c_i, B_i, gamma_i)`` in
    ``minus`` (B_i PSD where gamma_i > 0), and, when ``grad``, their (dim, k)
    gradients (else None); ``const`` has no tangent gradient on the unit
    sphere.  Each matrix multiplies f once per call, and a term whose
    coefficient is 0 is skipped: it would add exactly 0.0.
    """
    plus = [(a, adjoint(a)) for a in plus]
    minus = [(c, b, adjoint(b), gamma) for c, b, gamma in minus if c or gamma]

    def objective(f, grad=True):
        value, g = 0.0, 0.0
        for a, a_h in plus:
            af = a @ f
            an = np.linalg.norm(af, axis=0)
            value = value + an
            if grad:
                g = g + _over(a_h @ af, an)
        rhs = 0.0
        bfs = [b @ f for _, b, _, _ in minus]
        for (c, _, b_h, _), bf in zip(minus, bfs):
            if c:
                bn = np.linalg.norm(bf, axis=0)
                rhs = rhs + c * bn
                if grad:
                    g = g - c * _over(b_h @ bf, bn)
        for (_, _, _, gamma), bf in zip(minus, bfs):
            if gamma:
                root = np.sqrt(np.clip(np.einsum("is,is->s", f.conj(), bf).real, 0.0, None))
                rhs = rhs + gamma * root
                if grad:
                    g = g - gamma * _over(bf, root)
        return value - (rhs + const), g if grad else None

    return objective


def _sampled_max_margin(dim: int, objective, witness: Iterable[np.ndarray], stop_above: float, seed: int, field: str,
                        samples: int, subsets=lambda rng: ()) -> float:
    """Worst value of ``objective`` (as in ``_ascend``) found on unit vectors in ``dim``; the one search order.

    The ``witness`` blocks of unit columns are scored first, in order, one
    objective call per block and no draw; a block is built only after the
    one before it is scored.  Then the Generator is seeded with ``seed``, and
    ``subsets(rng)`` takes its share of the stream at once (``t52``'s subset
    masks) and gives the further objectives, on ``dim`` too, each built only
    when its turn comes.  For ``objective`` and then each of those, a batch
    of ``samples`` random unit vectors is drawn, screened with one objective
    call, and ascended from its ``_ASCENT_TOP`` largest; a batch is freed
    before the next is drawn.  Stops at the first value above
    ``stop_above``, which refutes the hypothesis: the result is then the
    worst value seen so far, and nothing after it is built or drawn (after a
    witness, not even the Generator).  Arithmetic that overflows, at a
    witness, the screening or any ascent step, raises NonFiniteInput rather
    than give or drop a non-finite margin.
    """
    worst = -np.inf
    with _finite_margins():
        for cols in witness:
            worst = max(worst, objective(cols, grad=False)[0].max())
            if worst > stop_above:
                return float(worst)
        rng = np.random.default_rng(seed)
        for search in itertools.chain([objective], subsets(rng)):  # subsets(rng) runs now, ahead of the first batch
            f_batch = random_unit_vectors(rng, dim, samples, field)
            values, _ = search(f_batch, grad=False)
            starts = f_batch[:, np.argsort(values)[::-1][:_ASCENT_TOP]]
            del f_batch, values  # free the batch before the ascent and the next draw
            worst = max(worst, _ascend(search, starts, _ASCENT_STEPS, stop_above).max(initial=-np.inf))
            if worst > stop_above:
                break
    return float(worst)


def _bracket(predicted: FrameBounds | None, actual: FrameBounds, tol: float) -> bool | None:
    if predicted is None:
        return None
    return bool(predicted.lower <= actual.lower + tol and actual.upper <= predicted.upper + tol)


def _certify(tag: str, lam_sys, theta_sys, samples: int, bracket_tol: float, decide) -> PerturbationReport:
    """The report of one perturbation statement: set-up, its decision, its bounds and the bracket.

    ``decide(a, b, actual)`` gets the reference bounds A, B and the perturbed
    system's actual bounds, and returns the mode, whether the hypothesis
    holds, its margin, a thunk of the bounds (None when the statement
    predicts nothing) and its own report fields.  The thunk returns the named
    bound values, with the predicted pair as ``predicted.lower`` and
    ``predicted.upper`` (absent when nothing is certified), and the flags
    that compare the others with ``actual``.  It runs with overflow ignored;
    then every value must be finite, else NonFiniteInput names the first
    that is not.
    """
    a, b, actual = _setup(lam_sys, theta_sys, samples)
    mode, holds, margin, bounds, fields = decide(a, b, actual)
    predicted = None
    if bounds is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            values, flags = bounds()
        _finite_fields(values)
        if "predicted.lower" in values:
            predicted = FrameBounds(float(values.pop("predicted.lower")), float(values.pop("predicted.upper")),
                                    "certified")
        fields = {**fields, **{name: float(value) for name, value in values.items()}, **flags}
    bracket_ok = _bracket(predicted, actual, bracket_tol)
    return PerturbationReport(tag, mode, holds, margin, actual, predicted, bracket_ok, **fields)


def _comparison(tag: str, lam_sys, theta_sys, params, samples, seed, bracket_tol, statement, scale, bounds):
    """The report of a comparison hypothesis in (lam, mu, gamma): ``t52`` or ``synth``.

    The parameters are admissible when lam + gamma/sqrt(A) and mu are below
    1.  ``statement(a)`` gives the certificate margin and the ``hypothesis``
    thunk.  A certificate margin <= 0 certifies the hypothesis
    (``certified_sufficient``); otherwise, without samples, the mode is
    ``none``.  With samples, ``hypothesis()`` gives the full index set's D, L
    and margin objective (``_norm_objective``), D's top right singular
    vector, a thunk of L^+ and ``subsets``: rng -> the objectives of further
    index sets, drawing what it needs from rng when called.  The full set's
    objective is searched with its ``_spectral_witness``, then the further
    sets' (``_sampled_max_margin``); a margin above the threshold
    ``TOL_SAMPLED_MARGIN * max(1, scale(B))`` refutes the hypothesis.  The
    hypothesis holds when it is decided true and the parameters are
    admissible; the bounds, ``bounds(a, b, actual)``, are predicted whenever
    the parameters are admissible.
    """
    def decide(a, b, actual):
        admissible = bool(max(params.lam + params.gamma / np.sqrt(a), params.mu) < 1.0)
        cert_margin, hypothesis = statement(a)
        mode, margin, holds, sampled_margin = "certified_sufficient", cert_margin, True, None
        if cert_margin > 0.0 and samples == 0:
            mode, holds = "none", False
        elif cert_margin > 0.0:
            threshold = TOL_SAMPLED_MARGIN * max(1.0, scale(b))
            d, l, objective, top, l_pinv, subsets = hypothesis()
            margin = sampled_margin = _sampled_max_margin(d.shape[1], objective, _spectral_witness(d, l, top, l_pinv),
                                                          threshold, seed, lam_sys.field, samples, subsets)
            mode, holds = "sampled", margin <= threshold
        fields = dict(params=params, params_admissible=admissible, cert_margin=cert_margin,
                      sampled_margin=sampled_margin, seed=seed, samples=samples)
        thunk = (lambda: bounds(a, b, actual)) if admissible else None
        return mode, bool(holds and admissible), margin, thunk, fields

    return _certify(tag, lam_sys, theta_sys, samples, bracket_tol, decide)


def certify_frame_operator_perturbation(
    lam_sys: GFusionSystem,
    theta_sys: GFusionSystem,
    params: PerturbParams,
    *,
    samples: int = 2000,
    seed: int,
    bracket_tol: float = TOL_VERDICT,
) -> PerturbationReport:
    """Certify the frame-operator comparison hypothesis.

    Hypothesis (for every block subset I and every f):
    ``||sum_I (SL_j - ST_j) f|| <= lam*||sum_I SL_j f|| + mu*||sum_I ST_j f||
    + gamma*(f^H sum_I SL_j f)^(1/2)`` where SL_j / ST_j are the per-block
    frame-operator terms of the reference and perturbed systems.  Predicted
    bounds: A*(1-(lam+gamma/sqrt(A)))/(1+mu) and
    B*(1+lam+gamma/sqrt(B))/(1-mu).

    The sound certificate checks ``||S_lam - S_theta|| <= lam*A + gamma*sqrt(A)``
    (mu = 0), with the norm read off herm(F^H E), E = K_lam - K_theta and
    F = K_lam + K_theta (``gram_difference_norm``), and covers the full index
    set only, all the predicted bounds need.  Else the full set and up to 7
    distinct random nonempty subsets are searched, stopping at the first
    margin above ``TOL_SAMPLED_MARGIN * max(1, B)``, which refutes it.  Each
    subset's D is the sum of its per-block herm(F_j^H E_j), with no Gram
    subtracted.  The full set scores the witness first: the top right
    singular vector of D, then the ratio witness S^-1 y / ||S^-1 y|| with y
    that of D S^-1, which decides the lam-only hypothesis before any draw.
    The subsets' masks come off the random stream ahead of its first batch
    (``_subset_masks``), so a witness refutation draws none.
    """
    def hypothesis():
        terms_d = _gram_differences(_row_block_pairs(lam_sys, theta_sys))
        terms_l = _quadratic_terms(lam_sys)
        terms_t = _quadratic_terms(theta_sys) if params.mu else None

        def on(mask):  # the (D, L, T) sums over the blocks in mask; T only when mu weighs it
            return tuple(None if terms is None else sum(x for x, keep in zip(terms, mask) if keep)
                         for terms in (terms_d, terms_l, terms_t))

        def objective(d, l, t):  # the gamma term reuses the lam term's L f
            return _norm_objective([d], [(params.lam, l, params.gamma), (params.mu, t, 0.0)])

        def subsets(rng):  # the masks come off rng at once; a subset's sums are built when it is searched
            return (objective(*on(mask)) for mask in _subset_masks(rng, lam_sys.block_count, _EXTRA_SUBSETS)[1:])

        d, l, t = on(np.ones(lam_sys.block_count, dtype=bool))
        return d, l, objective(d, l, t), _top_singular(d)[1], lambda: inverse_frame_operator(lam_sys), subsets

    def statement(a):
        ds = gram_difference_norm(analysis_matrix(lam_sys), analysis_matrix(theta_sys))
        return float(ds - (params.lam * a + params.gamma * np.sqrt(a))), hypothesis

    def bounds(a, b, actual):
        return {"predicted.lower": a * (1.0 - (params.lam + params.gamma / np.sqrt(a))) / (1.0 + params.mu),
                "predicted.upper": b * (1.0 + params.lam + params.gamma / np.sqrt(b)) / (1.0 - params.mu)}, {}

    return _comparison(_TAG_FRAME_OPERATOR, lam_sys, theta_sys, params, samples, seed, bracket_tol, statement,
                       float, bounds)  # float: the search threshold scales with B itself


def certify_R_condition(
    lam_sys: GFusionSystem,
    theta_sys: GFusionSystem,
    *,
    samples: int = 2000,
    seed: int,
    bracket_tol: float = TOL_VERDICT,
) -> PerturbationReport:
    """Certify the summed-norm radius condition.

    Hypothesis: ``sum_j v_j^2 ||P_j(L_j^H L_j - T_j^H T_j)P_j f|| <= R*||f||``
    for some R < A.  The sound radius is the triangle-inequality certificate
    ``R_cert = sum_j ||herm(F_j^H E_j)||`` with E_j = K_j - K~_j, F_j = K_j + K~_j
    over the analysis matrices' row blocks (``gram_difference_norm``: no SVD);
    when it exceeds A a sampled estimate of the functional's maximum is tried
    instead (reported with a warning, since a sampled radius is not a proof).
    It first scores the witness, the top eigenvector of sum_j D_j^H D_j with
    D_j = herm(F_j^H E_j), and stops, before any draw or later at an ascent
    step, once the sampled radius reaches A, which means mode ``none``.

    Predicted lower bound: A - R.  The two published upper-bound components
    ``B + R*sqrt(B/A)`` and ``R + sqrt(B)`` are emitted separately with
    individual satisfaction flags; the bracket check uses the quadratic-form
    component, which is the one the frame-operator certificate yields.
    """
    def decide(a, b, actual):
        blocks = _row_block_pairs(lam_sys, theta_sys)
        r_cert = float(sum(gram_difference_norm(k, k_t) for k, k_t in blocks))
        _finite_fields({"radius_certificate": r_cert})
        mode, radius, r_sampled, warning = "none", r_cert, None, None
        if r_cert < a:
            mode = "certified_sufficient"
        elif samples > 0:
            diffs = _gram_differences(blocks)
            # stop once r_sampled >= a (the largest float below a is exceeded): the mode is then none
            stop = np.nextafter(a, -np.inf)
            # witness: the top eigenvector of sum_j D_j^H D_j, the top right singular vector of the stacked D_j
            witness = _columns([_top_singular(np.vstack(diffs))[1]])
            objective = _norm_objective(diffs)  # sum_j ||D_j f||
            r_sampled = _sampled_max_margin(lam_sys.dim, objective, witness, stop, seed, lam_sys.field, samples)
            radius = min(r_cert, r_sampled)
            if r_sampled < a:
                mode = "sampled"
                warning = "triangle-inequality radius exceeded the lower frame bound; using the sampled radius"
        holds = mode != "none"  # both other modes already have radius < A

        def bounds():  # the predicted upper bound is the quadratic-form component
            upper = {"upper_quadratic": b + radius * np.sqrt(b / a), "upper_mixed": radius + np.sqrt(b)}
            pair = {"predicted.lower": a - radius, "predicted.upper": upper["upper_quadratic"]} if holds else {}
            return {**upper, **pair}, {name + "_ok": bool(actual.upper <= x + bracket_tol) for name, x in upper.items()}

        return mode, holds, radius - a, bounds, dict(radius=radius, radius_certificate=r_cert, radius_sampled=r_sampled,
                                                     warning=warning, seed=seed, samples=samples)

    return _certify(_TAG_R_CONDITION, lam_sys, theta_sys, samples, bracket_tol, decide)


def certify_synthesis_perturbation(
    lam_sys: GFusionSystem,
    theta_sys: GFusionSystem,
    params: PerturbParams,
    *,
    samples: int = 2000,
    seed: int,
    bracket_tol: float = TOL_VERDICT,
) -> PerturbationReport:
    """Certify the synthesis-operator comparison hypothesis.

    Hypothesis over direct-sum sequences g (and block subsets):
    ``||(T_lam - T_theta) g|| <= lam*||T_lam g|| + mu*||T_theta g|| +
    gamma*||g||``.  A block subset's hypothesis is the full index set's on
    the sequences supported there, so the full set decides them all.  Sound
    certificate: ``||T_lam - T_theta|| <= gamma``; the norm and D's top right
    singular vector come from one eigensolve of the n x n D D^H.  Otherwise
    the hypothesis is searched on the full index set alone: the spectral
    witness first (where ||D g|| peaks, and where it peaks on ker T_lam when
    M > n; then, if those do not refute, the ratio witness
    K S^-1 y / ||K S^-1 y|| with y the top right singular vector of the
    n x n D K S^-1), then samples, stopping at the first margin above
    ``TOL_SAMPLED_MARGIN * max(1, sqrt(B))``, which refutes it.

    The published lower bound ``A*(1-(lam+gamma/sqrt(A))^2)/(1+mu)`` and the
    proof-derived one ``A*((1-(lam+gamma/sqrt(A)))/(1+mu))^2`` disagree; both
    are emitted and bracketed separately, with ``predicted``/``bracket_ok``
    carrying the proof-derived pair.
    """
    def l_pinv():  # K S^-1, so D L^+ is n x n
        return analysis_matrix(lam_sys) @ inverse_frame_operator(lam_sys)

    def statement(a):
        t_lam, t_theta = synthesis_matrix(lam_sys), synthesis_matrix(theta_sys)
        d_t = t_lam - t_theta
        norm_d, top = _top_singular(d_t)

        def hypothesis():  # gamma * ||g|| is the constant gamma on the unit sphere
            objective = _norm_objective([d_t], [(params.lam, t_lam, 0.0), (params.mu, t_theta, 0.0)], params.gamma)
            return d_t, t_lam, objective, top, l_pinv, lambda rng: ()

        return float(norm_d - params.gamma), hypothesis

    def bounds(a, b, actual):
        contraction = params.lam + params.gamma / np.sqrt(a)
        stated_lower = a * (1.0 - contraction**2) / (1.0 + params.mu)
        return {
            "predicted.lower": a * ((1.0 - contraction) / (1.0 + params.mu)) ** 2,
            "predicted.upper": b * ((1.0 + params.lam + params.gamma / np.sqrt(b)) / (1.0 - params.mu)) ** 2,
            "stated_lower": stated_lower,
        }, {"stated_lower_bracket_ok": bool(stated_lower <= actual.lower + bracket_tol)}

    return _comparison(_TAG_SYNTHESIS, lam_sys, theta_sys, params, samples, seed, bracket_tol, statement,
                       np.sqrt, bounds)  # the search threshold scales with sqrt(B)


def certify_analysis_perturbation(
    lam_sys: GFusionSystem,
    theta_sys: GFusionSystem,
    *,
    bracket_tol: float = TOL_VERDICT,
) -> PerturbationReport:
    """Certify the analysis-side quadratic hypothesis; needs no sampling.

    The optimal radius R in
    ``sum_j v_j^2 ||(L_j - T_j) P_j f||^2 <= R * ||f||^2`` is exactly the top
    eigenvalue of the PSD operator ``D^H D`` with ``D = K_lam - K_theta``,
    whose row blocks are ``v_j (L_j - T_j) P_j`` (the systems share subspaces).
    With R < A the perturbed system is a frame with bounds
    ``(sqrt(A) - sqrt(R))^2`` and ``(sqrt(R) + sqrt(B))^2``.
    """
    def decide(a, b, actual):
        d = analysis_matrix(lam_sys) - analysis_matrix(theta_sys)
        dd = finite_product(adjoint(d), d, "analysis perturbation D^H D")
        radius = max(float(np.linalg.eigvalsh(hermitian_part(dd))[-1]), 0.0)
        _finite_fields({"radius": radius})
        holds = bool(radius < a)

        def bounds():
            return {"predicted.lower": (np.sqrt(a) - np.sqrt(radius)) ** 2,
                    "predicted.upper": (np.sqrt(radius) + np.sqrt(b)) ** 2}, {}

        return "exact", holds, radius - a, bounds if holds else None, dict(radius=radius, radius_certificate=radius)

    return _certify(_TAG_ANALYSIS, lam_sys, theta_sys, 0, bracket_tol, decide)


def certify_invertibility_lemma(
    lam_sys: GFusionSystem, theta_sys: GFusionSystem, params: PerturbParams, *, samples: int = 2000, seed: int
) -> LemmaReport:
    """The invertibility lemma on U = S_theta S_lam^-1 with lam1 = lam + gamma/sqrt(A) and lam2 = mu.

    The lemma concerns U alone: the systems share field and dimension (else SystemMismatch), not subspaces.
    """
    if lam_sys.field != theta_sys.field or lam_sys.dim != theta_sys.dim:
        raise SystemMismatch("the lemma needs two systems of one scalar field and one ambient dimension")
    s_inv = inverse_frame_operator(lam_sys)
    u = finite_product(frame_operator(theta_sys), s_inv, "lemma operator U = S_theta S_lam^-1")
    a = float(lam_sys.spectrum[0])
    lam1 = params.lam + params.gamma / np.sqrt(a)
    if not lam1 < 1.0:  # lam2 = mu < 1 is PerturbParams' own check
        raise ValueError(f"lam1 = lam + gamma/sqrt(A) = {params.lam!r} + {params.gamma!r}/sqrt({a!r}) = "
                         f"{float(lam1)!r} must be below 1")
    return check_invertibility_lemma(u, lam1, params.mu, samples=samples, seed=seed)
