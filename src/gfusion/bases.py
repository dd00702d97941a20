"""gf-Riesz and gf-orthonormal basis tests, and the cross operator.

The cross operator V links a gf-orthonormal system Theta to an arbitrary
g-fusion frame Lambda on the same subspaces and weights, via
``L_j P_j = T_j P_j V^H`` for every block.  Its classification (adjoint
isometric / invertible / unitary) mirrors what Lambda is (Parseval /
gf-Riesz / gf-orthonormal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionFailed
from .linalg import TOL_RANK, TOL_VERDICT, adjoint, gram_eigen_extremes, operator_norm
from .system import (
    FrameBounds,
    GFusionSystem,
    analysis_matrix,
    frame_bounds,
    is_gf_complete,
    require_same_structure,
    split_blocks,
)


@dataclass(frozen=True)
class BasisVerdict:
    is_riesz: bool
    riesz_bounds: FrameBounds | None
    is_gf_orthonormal: bool
    gram_deviation: float      # ||K K^H - I||: the whole weighted Gram against delta_ij * I
    parseval_deviation: float  # ||S - I|| = max |w - 1| over the eigenvalues w of S


def riesz_bounds(sys: GFusionSystem, tol: float = TOL_VERDICT) -> FrameBounds | None:
    """Optimal gf-Riesz bounds, or None when the system is not a gf-Riesz basis.

    The bounds are the eigenvalue extremes of the synthesis Gram matrix
    T^H T = K K^H over the full direct sum; in finite dimension this is
    equivalent to the two-sided inequality over every finite block subset.
    They are read off S = K^H K, which shares the Gram's nonzero spectrum
    (the lower bound is 0 when the direct sum is larger than the space).
    The verdict requires a smallest singular value above ``tol`` and
    gf-completeness; the SVD behind the latter runs only when the former holds.
    """
    ext = gram_eigen_extremes(sys.spectrum, sum(sys.block_dims))
    lower = max(ext.min_eig, 0.0)
    if np.sqrt(lower) <= tol or not is_gf_complete(sys):
        return None
    return FrameBounds(lower, ext.max_eig, "optimal-spectral")


def is_gf_orthonormal(sys: GFusionSystem, tol: float = TOL_VERDICT) -> BasisVerdict:
    """Check the two gf-orthonormal basis conditions.

    (a) the weighted Gram blocks v_i v_j L_j P_j P_i L_i^H equal
        delta_ij * identity within ``tol`` (the operator form of the
        universally quantified inner-product condition), and
    (b) the frame operator equals the identity within ``tol``.

    Both are read off the cached eigenvalues w of S: ``gram_deviation`` is
    ||K K^H - I|| (shared-spectrum rule), which bounds every block's
    deviation and is 0 exactly when they all are; ``parseval_deviation`` is max |w - 1|.
    """
    w = sys.spectrum
    gram = gram_eigen_extremes(w, sum(sys.block_dims))
    gram_dev = max(abs(gram.max_eig - 1.0), abs(gram.min_eig - 1.0))
    pars_dev = float(np.max(np.abs(w - 1.0)))
    rb = riesz_bounds(sys, tol)
    return BasisVerdict(
        is_riesz=rb is not None,
        riesz_bounds=rb,
        is_gf_orthonormal=bool(gram_dev <= tol and pars_dev <= tol),
        gram_deviation=gram_dev,
        parseval_deviation=pars_dev,
    )


@dataclass(frozen=True)
class CrossOperatorReport:
    matrix: np.ndarray
    intertwine_residual: float   # max_j ||L_j P_j - T_j P_j V^H||
    norm: float                  # ||V||
    bessel_norm_bound: float     # sqrt(B) of lambda; ||V|| stays below this
    surjective: bool
    adjoint_isometric: bool      # ||V V^H - I|| <= tol
    invertible: bool             # sigma_min(V) > tol * sigma_max(V)
    unitary: bool


def cross_operator(theta: GFusionSystem, lam: GFusionSystem, tol: float = TOL_VERDICT) -> CrossOperatorReport:
    """Assemble V = sum_j v_j^2 P_j L_j^H T_j P_j, check the intertwining and classify V.

    ``theta`` must be gf-orthonormal within ``tol`` and share its structure
    (``require_same_structure``) with ``lam``; ``lam`` must be a g-fusion frame.  One SVD of
    the n x n V gives its norm and its flags: invertibility uses the smallest
    singular value with a threshold scaled by the largest one.
    """
    require_same_structure(theta, lam)
    if not is_gf_orthonormal(theta, tol).is_gf_orthonormal:
        raise PreconditionFailed("theta is not a gf-orthonormal basis at the given tolerance")
    fb = frame_bounds(lam)
    if fb is None:
        raise PreconditionFailed("lambda is not a g-fusion frame")
    k_lam, k_theta = analysis_matrix(lam), analysis_matrix(theta)
    v = adjoint(k_lam) @ k_theta
    # Row block j of K_lam - K_theta V^H is v_j (L_j P_j - T_j P_j V^H).
    blocks = split_blocks(lam, k_lam - k_theta @ adjoint(v))
    residual = max(operator_norm(d) / sub.weight for sub, d in zip(lam.subsystems, blocks))
    sv = np.linalg.svd(v, compute_uv=False)
    # V is n x n, so ||V V^H - I|| is the largest distance of a squared singular value from 1.
    adj_iso = bool(np.abs(sv**2 - 1.0).max() <= tol)
    invertible = bool(sv[-1] > tol * sv[0])
    return CrossOperatorReport(
        matrix=v,
        intertwine_residual=float(residual),
        norm=float(sv[0]),
        bessel_norm_bound=float(np.sqrt(fb.upper)),
        surjective=bool(sv[0] > 0 and sv[-1] > TOL_RANK * sv[0]),
        adjoint_isometric=adj_iso,
        invertible=invertible,
        unitary=adj_iso and invertible,
    )
