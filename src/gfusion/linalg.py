"""Dense linear-algebra substrate with explicit tolerances.

Everything upstream (frames, bases, perturbation certificates) is built on
the handful of primitives here: rank-revealing orthonormalization,
orthogonal projectors, Hermitian eigenvalue extremes (also of a Gram X^H X,
read off the outer operator X X^H), operator norms and positive-definite
inverses.  All values are plain ``numpy`` arrays, treated as immutable once
constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NotHermitian, NotPositiveDefinite

# Double-precision defaults with headroom; every operation accepts overrides.
TOL_RANK = 1e-10
TOL_ORTHO = 1e-10
TOL_HERM = 1e-8
TOL_PD = 1e-12
TOL_INV = 1e-9
# Structure match: weights within TOL_WEIGHT, subspace projectors within TOL_SUBSPACE.
TOL_WEIGHT = 1e-12
TOL_SUBSPACE = 1e-10
# A sampled hypothesis margin <= TOL_SAMPLED_MARGIN * max(1, scale) counts as
# holding (round-off on exactly tight instances); scale is B for the
# frame-operator hypothesis and sqrt(B) for the synthesis one, and 1 for the
# invertibility lemma.
TOL_SAMPLED_MARGIN = 1e-12
# The lemma's four sandwich bounds are checked against the singular spectrum
# with this absolute slack.
TOL_LEMMA_SLACK = 1e-9


def adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(x).conj().T


def require_finite(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    x = np.asarray(x)
    if x.size and not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    return x


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


@dataclass(frozen=True)
class SpectralBounds:
    """Smallest and largest eigenvalue of a Hermitian operator."""

    min_eig: float
    max_eig: float


def _readonly(x: np.ndarray) -> np.ndarray:
    out = np.array(x)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace of an n-dimensional space, stored as an orthonormal column basis.

    ``basis`` has shape (ambient_dim, dim); ``dim`` may be zero.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis)
        if b.ndim != 2 or b.shape[0] < 1:
            raise ValueError(f"basis must be a 2-D matrix with at least one row, got shape {b.shape}")
        require_finite(b, "basis")
        if b.shape[1]:
            gram = adjoint(b) @ b
            dev = np.abs(gram - np.eye(b.shape[1])).max()
            if dev > TOL_ORTHO:
                raise ValueError(f"basis columns are not orthonormal (deviation {dev:.3e})")
        object.__setattr__(self, "basis", _readonly(b))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (Hermitian, idempotent)."""
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=self.basis.dtype)
        return self.basis @ adjoint(self.basis)

    def project(self, f: np.ndarray) -> np.ndarray:
        """Apply the projector without forming it."""
        if self.dim == 0:
            return np.zeros_like(np.asarray(f))
        return self.basis @ (adjoint(self.basis) @ f)

    def agrees_with(self, other: "Subspace", tol: float = 1e-9) -> bool:
        """True if both describe the same subspace (projectors within tol)."""
        if self.ambient_dim != other.ambient_dim:
            return False
        return operator_norm(self.projector() - other.projector()) <= tol


def orthonormalize(spanning: np.ndarray, tol_rank: float = TOL_RANK) -> Subspace:
    """Orthonormal basis of the column space of ``spanning``.

    Numerical rank is decided by singular values above ``tol_rank`` times the
    largest one.
    """
    if tol_rank <= 0:
        raise ValueError("tol_rank must be positive")
    a = np.asarray(spanning)
    if a.dtype.kind not in "fc":
        a = a.astype(np.float64)
    require_finite(a, "spanning set")
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError(f"spanning set must be a 2-D matrix, got shape {a.shape}")
    if a.shape[1] == 0:
        return Subspace(a.reshape(a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol_rank * s[0]))
    return Subspace(u[:, :rank])


def _check_hermitian(s: np.ndarray, tol_herm: float) -> np.ndarray:
    s = np.asarray(s)
    require_finite(s, "operator")
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise NotHermitian(f"expected a square matrix, got shape {s.shape}")
    scale = operator_norm(s)
    if operator_norm(s - adjoint(s)) > tol_herm * max(scale, 1e-300):
        raise NotHermitian("matrix deviates from its adjoint beyond tolerance")
    # Kill accumulated round-off asymmetry before the decomposition.
    return (s + adjoint(s)) / 2.0


def hermitian_eigenvalues(s: np.ndarray, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized input."""
    return np.linalg.eigvalsh(_check_hermitian(s, tol_herm))


def hermitian_eigen_extremes(s: np.ndarray, tol_herm: float = TOL_HERM) -> SpectralBounds:
    """Smallest and largest eigenvalue of the symmetrized input."""
    w = hermitian_eigenvalues(s, tol_herm)
    return SpectralBounds(float(w[0]), float(w[-1]))


def gram_eigen_extremes(outer_eigenvalues: np.ndarray, count: int) -> SpectralBounds:
    """Eigenvalue extremes of a count x count Gram X^H X, from the ascending eigenvalues of the n x n X X^H.

    Both share their nonzero spectrum: the Gram's eigenvalues are those of
    X X^H with count - n zeros added (count > n) or the n - count smallest
    dropped (count < n).  The larger Gram is never formed.
    """
    w = outer_eigenvalues
    n = len(w)
    return SpectralBounds(0.0 if count > n else float(w[n - count]), float(w[-1]))


def hpd_inverse(s: np.ndarray, tol_pd: float = TOL_PD, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Inverse of a Hermitian positive-definite operator, Hermitian by construction."""
    sym = _check_hermitian(s, tol_herm)
    w, v = np.linalg.eigh(sym)
    if w[0] <= tol_pd:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} is <= tol_pd={tol_pd:.1e}")
    inv = (v / w) @ adjoint(v)
    return (inv + adjoint(inv)) / 2.0
