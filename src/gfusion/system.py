"""g-fusion frame core: systems, synthesis/analysis, frame operator, duals.

A system is a finite family of triples (weight v_j > 0, subspace W_j,
block operator L_j mapping the ambient space into a block space of
dimension m_j).  With P_j the orthogonal projector onto W_j, the defining
quadratic form is ``sum_j v_j^2 ||L_j P_j f||^2``, and the system is a
g-fusion frame when that form is bounded between A*||f||^2 and B*||f||^2
with 0 < A <= B.

Every operator derives from the stacked analysis matrix K (row blocks
v_j L_j P_j), cached on the system at first use: analysis is K, synthesis
K^H, completeness is rank K = dim.  Beside K sits one cached
eigendecomposition S = V diag(w) V^H of the frame operator S = K^H K; the
frame bounds, the basis verdicts and S^-1 (hence the canonical dual) are all
read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, NonFiniteInput, NotAFrameError, SystemMismatch
from .linalg import (
    TOL_PD,
    TOL_RANK,
    TOL_SUBSPACE,
    TOL_WEIGHT,
    SpectralBounds,
    Subspace,
    _readonly,
    adjoint,
    finite_product,
    hermitian_part,
    orthonormalize,
    require_finite,
)

_DTYPES = {"real": np.float64, "complex": np.complex128}


@dataclass(frozen=True)
class FrameBounds:
    """A pair of frame bounds together with how they were obtained.

    ``kind`` is ``optimal-spectral`` when (lower, upper) are the eigenvalue
    extremes of the frame operator (the tightest valid pair), or
    ``certified`` when they come out of a perturbation certificate.
    """

    lower: float
    upper: float
    kind: str = "optimal-spectral"


@dataclass(frozen=True)
class Subsystem:
    """One component (weight, subspace, block operator) of a system."""

    weight: float
    subspace: Subspace
    operator: np.ndarray  # block_dim x ambient_dim

    def __post_init__(self):
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise ValueError(f"weight must be positive and finite, got {self.weight}")
        op = np.asarray(self.operator)
        require_finite(op, "block operator")
        if op.ndim != 2 or op.shape[0] < 1:
            raise DimensionMismatch(f"block operator must be a nonempty 2-D matrix, got shape {op.shape}")
        if op.shape[1] != self.subspace.ambient_dim:
            raise DimensionMismatch(
                f"block operator has {op.shape[1]} columns but the subspace lives in "
                f"dimension {self.subspace.ambient_dim}"
            )
        object.__setattr__(self, "operator", _readonly(op))

    @property
    def block_dim(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class GFusionSystem:
    """A finite weighted family of (subspace, block operator) pairs.

    The scalar field is fixed per system; real and complex systems never mix.
    Instances are immutable and safe to share between threads.
    """

    dim: int
    field: str
    subsystems: tuple[Subsystem, ...]

    def __post_init__(self):
        if self.field not in _DTYPES:
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if len(self.subsystems) < 1:
            raise ValueError("a system needs at least one subsystem")
        kind = "f" if self.field == "real" else "c"
        for i, sub in enumerate(self.subsystems):
            if sub.subspace.ambient_dim != self.dim:
                raise DimensionMismatch(f"subsystem {i}: subspace ambient dim != {self.dim}")
            if sub.operator.dtype.kind != kind or sub.subspace.basis.dtype.kind != kind:
                raise FieldMismatch(f"subsystem {i}: data does not match field {self.field!r}")
        object.__setattr__(self, "subsystems", tuple(self.subsystems))

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_DTYPES[self.field])

    @property
    def block_count(self) -> int:
        return len(self.subsystems)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(sub.block_dim for sub in self.subsystems)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(sub.weight for sub in self.subsystems)

    @cached_property
    def analysis_matrix(self) -> np.ndarray:
        """Stacked analysis matrix K (read-only): row block j is v_j L_j P_j, which must not overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [sub.weight * (sub.operator @ sub.subspace.projector()) for sub in self.subsystems]
        for i, block in enumerate(blocks):
            require_finite(block, f"subsystem {i}: the weighted block v_j L_j P_j")
        k = np.vstack(blocks)
        k.flags.writeable = False
        return k

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V), read-only, with S = V diag(w) V^H: one ``eigh`` of the Hermitian part of S = K^H K.

        A finite S can still have an eigenvalue beyond the float range: NonFiniteInput.
        """
        w, v = np.linalg.eigh(hermitian_part(frame_operator(self)))
        require_finite(w, "the spectrum of the frame operator K^H K")
        w.flags.writeable = v.flags.writeable = False
        return w, v

    @property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues w of S (read-only, from the cached ``eigh``)."""
        return self.eigh[0]


def require_same_structure(a: GFusionSystem, b: GFusionSystem):
    """Raise SystemMismatch unless the two systems share their structure.

    Field, dimension and block sizes must be equal, weights agree within
    TOL_WEIGHT and subspace projectors within TOL_SUBSPACE.
    """
    if a.field != b.field:
        raise SystemMismatch("systems use different scalar fields")
    if a.dim != b.dim:
        raise SystemMismatch("systems have different ambient dimensions")
    if a.block_dims != b.block_dims:
        raise SystemMismatch("systems have different block structure")
    if not np.allclose(a.weights, b.weights, rtol=0.0, atol=TOL_WEIGHT):
        raise SystemMismatch("systems have different weights")
    for i, (sa, sb) in enumerate(zip(a.subsystems, b.subsystems)):
        if not sa.subspace.agrees_with(sb.subspace, TOL_SUBSPACE):
            raise SystemMismatch(f"subspace {i} differs between the systems")


def make_system(dim, field, components) -> GFusionSystem:
    """Build a system from raw (weight, spanning-or-Subspace, operator) triples.

    Spanning matrices whose columns are already orthonormal (within
    TOL_ORTHO) are kept verbatim as the basis; anything else goes through
    rank-revealing orthonormalization.
    """
    dtype = _DTYPES[field]
    subs = []
    for weight, span, op in components:
        if isinstance(span, Subspace):
            sub_space = span
        else:
            span = _coerce(span, dtype, "subspace")
            if span.ndim != 2:
                raise DimensionMismatch(f"subspace spanning set must be 2-D, got shape {span.shape}")
            try:  # Subspace checks orthonormality within TOL_ORTHO, the one check per block
                sub_space = Subspace(span)
            except (ValueError, NonFiniteInput):  # orthonormalize raises its own errors for a bad span
                sub_space = orthonormalize(span)
        subs.append(Subsystem(float(weight), sub_space, _coerce(op, dtype, "block operator")))
    return GFusionSystem(int(dim), field, tuple(subs))


def _coerce(a, dtype, name: str) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a) and dtype == np.float64:
        raise FieldMismatch(f"{name}: complex data supplied to a real-field system")
    return np.asarray(a, dtype=dtype)


@dataclass(frozen=True)
class DirectSumVector:
    """An element of the block direct sum: one vector per subsystem block."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(np.asarray(b) for b in self.blocks)
        for b in blocks:
            if b.ndim != 1:
                raise DimensionMismatch("direct-sum blocks must be 1-D vectors")
            require_finite(b, "direct-sum block")
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def norm(self) -> float:
        return float(np.sqrt(sum(float(np.vdot(b, b).real) for b in self.blocks)))

    def inner(self, other: "DirectSumVector") -> complex:
        """Block-wise inner product, linear in self."""
        if self.block_dims != other.block_dims:
            raise DimensionMismatch("direct-sum shapes differ")
        return complex(sum(np.vdot(o, s) for s, o in zip(self.blocks, other.blocks)))


def _as_vector(sys: GFusionSystem, f, batch: bool = False) -> np.ndarray:
    f = np.asarray(f)
    if np.iscomplexobj(f) and sys.field == "real":
        raise FieldMismatch("complex vector supplied to a real-field system")
    f = np.asarray(f, dtype=sys.dtype)
    if f.ndim not in ((1, 2) if batch else (1,)) or f.shape[0] != sys.dim:
        raise DimensionMismatch(f"expected a vector of length {sys.dim}, got shape {f.shape}")
    require_finite(f, "vector")
    return f


def analysis_matrix(sys: GFusionSystem) -> np.ndarray:
    """The system's cached, read-only stacked analysis matrix K."""
    return sys.analysis_matrix


def split_blocks(sys: GFusionSystem, x: np.ndarray) -> list[np.ndarray]:
    """Row blocks of x cut at the block sizes, as views (for x = K: v_j L_j P_j)."""
    return np.split(x, np.cumsum(sys.block_dims)[:-1])


def analysis(sys: GFusionSystem, f) -> DirectSumVector:
    """Analysis operator: block j of K f is v_j * L_j P_j f."""
    f = _as_vector(sys, f)
    return DirectSumVector(tuple(split_blocks(sys, sys.analysis_matrix @ f)))


def synthesis(sys: GFusionSystem, g) -> np.ndarray:
    """Synthesis operator (adjoint of analysis): K^H g = sum_j v_j P_j L_j^H g_j."""
    blocks = g.blocks if isinstance(g, DirectSumVector) else tuple(np.asarray(b) for b in g)
    shapes = tuple(np.shape(b) for b in blocks)
    if shapes != tuple((m,) for m in sys.block_dims):
        raise DimensionMismatch(f"block shapes {shapes} do not match the block dimensions {sys.block_dims}")
    g = np.concatenate(blocks)
    if np.iscomplexobj(g) and sys.field == "real":
        raise FieldMismatch("complex block supplied to a real-field system")
    return adjoint(sys.analysis_matrix) @ g.astype(sys.dtype, copy=False)


def synthesis_matrix(sys: GFusionSystem) -> np.ndarray:
    """Matrix of the synthesis operator; exactly the adjoint of analysis_matrix."""
    return adjoint(sys.analysis_matrix)


def frame_operator(sys: GFusionSystem) -> np.ndarray:
    """S = K^H K = sum_j v_j^2 P_j L_j^H L_j P_j; NonFiniteInput if it overflows."""
    k = sys.analysis_matrix
    return finite_product(adjoint(k), k, "frame operator K^H K")


def frame_bounds(sys: GFusionSystem, tol_pd: float = TOL_PD) -> FrameBounds | None:
    """Optimal bounds (eigenvalue extremes of S), or None when not a frame.

    None is a verdict, not an error: pipelines continue on degenerate input.
    """
    ext = spectral_extremes(sys)
    if ext.min_eig <= tol_pd:
        return None
    return FrameBounds(ext.min_eig, ext.max_eig, "optimal-spectral")


def spectral_extremes(sys: GFusionSystem) -> SpectralBounds:
    """Eigenvalue extremes of the frame operator regardless of frame status (from the cached spectrum)."""
    return SpectralBounds(float(sys.spectrum[0]), float(sys.spectrum[-1]))


def is_gf_complete(sys: GFusionSystem, tol: float = TOL_RANK) -> bool:
    """True iff the stacked maps L_j P_j (K with its weights divided out) have rank = dim."""
    s = np.linalg.svd(sys.analysis_matrix / np.repeat(sys.weights, sys.block_dims)[:, None], compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    return int(np.count_nonzero(s > tol * s[0])) == sys.dim


def inverse_frame_operator(sys: GFusionSystem, tol_pd: float = TOL_PD) -> np.ndarray:
    """S^-1 = V diag(1/w) V^H from the cached ``eigh``, made exactly Hermitian.

    NotAFrameError when the smallest eigenvalue of S is <= ``tol_pd``.
    """
    w, v = sys.eigh
    if w[0] <= tol_pd:
        raise NotAFrameError(f"frame operator is not invertible: smallest eigenvalue {w[0]:.3e} <= tol_pd={tol_pd:.1e}")
    return hermitian_part((v / w) @ adjoint(v))


def canonical_dual(sys: GFusionSystem, tol_pd: float = TOL_PD) -> GFusionSystem:
    """The canonical dual system (S^-1 W_j, L_j P_j S^-1, v_j).

    Dual subspaces are re-orthonormalized since S^-1 does not preserve
    orthonormality of the original bases.
    """
    s_inv = inverse_frame_operator(sys, tol_pd)
    subs = []
    for sub, k_j in zip(sys.subsystems, split_blocks(sys, sys.analysis_matrix)):
        subs.append(Subsystem(sub.weight, orthonormalize(s_inv @ sub.subspace.basis), (k_j @ s_inv) / sub.weight))
    return GFusionSystem(sys.dim, sys.field, tuple(subs))


@dataclass(frozen=True)
class ReconstructionResult:
    """Both orderings of the dual reconstruction and their (largest column) residuals vs f."""

    primal: np.ndarray
    swapped: np.ndarray
    primal_residual: float
    swapped_residual: float


def reconstruct(sys: GFusionSystem, dual: GFusionSystem, f) -> ReconstructionResult:
    """Reconstruct f, a vector or a (dim, k) batch of columns, through a dual pair.

    primal  = K^H K_d f = sum_j v_j^2 P_j L_j^H  Ld_j Pd_j f
    swapped = K_d^H K f = sum_j v_j^2 Pd_j Ld_j^H L_j  P_j f

    With ``dual = canonical_dual(sys)`` both recover f up to round-off.
    """
    if sys.field != dual.field:
        raise FieldMismatch("system and dual use different scalar fields")
    if sys.dim != dual.dim or sys.block_dims != dual.block_dims:
        raise DimensionMismatch("system and dual shapes differ")
    f = _as_vector(sys, f, batch=True)
    k, k_dual = sys.analysis_matrix, dual.analysis_matrix
    primal = adjoint(k) @ (k_dual @ f)
    swapped = adjoint(k_dual) @ (k @ f)
    return ReconstructionResult(primal, swapped, _max_residual(primal, f), _max_residual(swapped, f))


def _max_residual(x: np.ndarray, f: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(x - f, axis=0), initial=0.0))
