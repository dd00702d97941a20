"""Induced ordinary frames: the vector family u_{j,k} = v_j P_j L_j^H e_{j,k}.

Each g-fusion system induces a plain vector family in the ambient space by
pushing an orthonormal basis {e_{j,k}} of every block space through the
weighted synthesis blocks.  The family is a frame / Parseval frame / Riesz
basis / orthonormal basis exactly when the system is the gf- version of the
same thing, and its frame operator coincides with the g-fusion frame
operator.  ``verify_correspondence`` checks all of that numerically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bases import BasisVerdict, is_gf_orthonormal
from .errors import BadBasis, DimensionMismatch
from .linalg import (
    TOL_ORTHO, TOL_VERDICT, SpectralBounds, adjoint, finite_product, gram_eigen_extremes, hermitian_part,
    orthonormality_deviation,
)
from .system import (
    FrameBounds, GFusionSystem, analysis_matrix, frame_bounds, frame_operator, spectral_extremes, split_blocks
)


@dataclass(frozen=True)
class InducedFamily:
    """The induced vectors, kept with their (block, basis-index) labels."""

    entries: tuple[tuple[int, int, np.ndarray], ...]

    @property
    def count(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def _matrix(self) -> np.ndarray:
        m = np.column_stack([u for _, _, u in self.entries])
        m.flags.writeable = False
        return m

    def matrix(self) -> np.ndarray:
        """All induced vectors as columns, in (j, k) order: stacked on the first call, read-only."""
        return self._matrix


def induce_vectors(sys: GFusionSystem, onbs=None) -> InducedFamily:
    """Build the induced family; ``onbs`` defaults to the standard block bases.

    A supplied basis for block j must be an m_j x m_j matrix with orthonormal
    columns, else BadBasis is raised.
    """
    if onbs is None:
        onbs = [np.eye(m, dtype=sys.dtype) for m in sys.block_dims]
    else:
        onbs = [np.asarray(e, dtype=sys.dtype) for e in onbs]
        if len(onbs) != sys.block_count:
            raise DimensionMismatch(f"expected {sys.block_count} block bases, got {len(onbs)}")
        for j, (e, m) in enumerate(zip(onbs, sys.block_dims)):
            if e.shape != (m, m):
                raise BadBasis(f"block {j}: basis must be {m}x{m}, got {e.shape}")
            if not orthonormality_deviation(e) <= TOL_ORTHO:  # NaN fails too
                raise BadBasis(f"block {j}: basis columns are not orthonormal")
    entries = []
    for j, (k_j, e) in enumerate(zip(split_blocks(sys, analysis_matrix(sys)), onbs)):
        u_block = adjoint(k_j) @ e  # v_j P_j L_j^H e
        for k in range(u_block.shape[1]):
            entries.append((j, k, u_block[:, k]))
    return InducedFamily(tuple(entries))


@dataclass(frozen=True)
class CorrespondenceReport:
    coincidence_residual: float          # || sum u u^H - S ||
    induced_extremes: SpectralBounds     # spectrum edge of sum u u^H
    system_extremes: SpectralBounds      # spectrum edge of S
    bounds_agree: bool
    count: int
    gram_extremes: SpectralBounds        # spectrum edge of the family Gram U^H U
    gram_identity_deviation: float
    family_orthonormal_basis: bool       # Gram = I and count = dim
    system_verdict: BasisVerdict
    system_bounds: FrameBounds | None
    riesz_agree: bool | None             # None unless the system is gf-Riesz


def verify_correspondence(sys: GFusionSystem, fam: InducedFamily, tol: float = TOL_VERDICT) -> CorrespondenceReport:
    """Compare the induced family's frame data with the system's.

    Checks (a) frame-bound agreement, (b) frame-operator coincidence, and
    (c) when the system is gf-Riesz / gf-orthonormal, the ordinary Riesz /
    orthonormal-basis characterization of the family (Gram eigen extremes,
    Gram = identity with count = dim).  The Gram U^H U is never formed: its
    spectrum is read off U U^H.  A gf-Riesz system has count = dim, so the
    Gram and U U^H share their extremes and (c)'s Riesz-bound agreement
    follows from (a); it is not an independent check.
    """
    sys_ext = spectral_extremes(sys)
    u = fam.matrix()
    induced_op = finite_product(u, adjoint(u), "induced frame operator U U^H")
    coincidence = float(np.linalg.norm(induced_op - frame_operator(sys), 2))
    ind_eigs = np.linalg.eigvalsh(hermitian_part(induced_op))
    ind_ext = SpectralBounds(float(ind_eigs[0]), float(ind_eigs[-1]))
    bounds_agree = bool(
        abs(ind_ext.min_eig - sys_ext.min_eig) <= tol and abs(ind_ext.max_eig - sys_ext.max_eig) <= tol
    )
    gram_ext = gram_eigen_extremes(ind_eigs, fam.count)
    # ||U^H U - I|| is the largest distance of a Gram eigenvalue from 1.
    gram_dev = max(abs(gram_ext.max_eig - 1.0), abs(gram_ext.min_eig - 1.0))
    verdict = is_gf_orthonormal(sys, tol)
    riesz_agree = None
    if verdict.is_riesz and verdict.riesz_bounds is not None:
        riesz_agree = bool(
            abs(gram_ext.min_eig - verdict.riesz_bounds.lower) <= tol
            and abs(gram_ext.max_eig - verdict.riesz_bounds.upper) <= tol
        )
    return CorrespondenceReport(
        coincidence_residual=coincidence,
        induced_extremes=ind_ext,
        system_extremes=sys_ext,
        bounds_agree=bounds_agree,
        count=fam.count,
        gram_extremes=gram_ext,
        gram_identity_deviation=gram_dev,
        family_orthonormal_basis=bool(gram_dev <= tol and fam.count == sys.dim),
        system_verdict=verdict,
        system_bounds=frame_bounds(sys),
        riesz_agree=riesz_agree,
    )
