"""Dense linear-algebra substrate with explicit tolerances.

Everything upstream (frames, bases, perturbation certificates) is built on
the handful of primitives here: rank-revealing orthonormalization, the
orthonormality check, orthogonal projectors, the Hermitian part of an
operator, the eigenvalue extremes of a Gram X^H X read off the outer
operator X X^H, operator norms, and the t52/cR norm ||K^H K - K~^H K~|| off
herm(F^H E), E = K - K~, F = K + K~, with no Gram formed.  Eigendecompositions
are plain ``numpy.linalg`` calls on a Hermitian part at the call site.  All
values are plain ``numpy`` arrays, treated as immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput

# Double-precision defaults with headroom.  Verdict thresholds can be
# overridden per call; orthonormalize's rank cut (TOL_RANK) and the
# orthonormality check (TOL_ORTHO) are fixed.
TOL_RANK = 1e-10
TOL_ORTHO = 1e-10
TOL_PD = 1e-12
# Structure match: weights within TOL_WEIGHT, subspace projectors within TOL_SUBSPACE.
TOL_WEIGHT = 1e-12
TOL_SUBSPACE = 1e-10
# A sampled hypothesis margin <= TOL_SAMPLED_MARGIN * max(1, scale) counts as
# holding (round-off on exactly tight instances); scale is B for the
# frame-operator hypothesis and sqrt(B) for the synthesis one, and 1 for the
# invertibility lemma.
TOL_SAMPLED_MARGIN = 1e-12
# Default verdict tolerance of the basis tests, the cross operator, the
# induced-frame correspondence, the certifiers' bracket checks and the
# Parseval check.
TOL_VERDICT = 1e-9
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


def finite_product(a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """a @ b; NonFiniteInput naming the product if it overflows, raised without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
    return require_finite(out, name)


def orthonormality_deviation(b: np.ndarray) -> float:
    """max |B^H B - I| entrywise; 0.0 for a matrix without columns."""
    return float(np.abs(adjoint(b) @ b - np.eye(b.shape[1])).max(initial=0.0))


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
        dev = orthonormality_deviation(b)
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

    def agrees_with(self, other: "Subspace", tol: float) -> bool:
        """True if both describe the same subspace (projectors within tol).

        For equal dimensions ||P_a - P_b|| = ||(I - P_a) P_b|| = ||B_b - B_a (B_a^H B_b)||,
        an n x k residual; subspaces of unequal dimension are at distance 1.
        The residual's Frobenius norm bounds its 2-norm, so when it is within
        tol (as for a shared basis, whose residual is round-off) no SVD is taken.
        """
        if self.ambient_dim != other.ambient_dim:
            return False
        if self.dim != other.dim:
            return 1.0 <= tol
        a, b = self.basis, other.basis
        residual = b - a @ (adjoint(a) @ b)
        return bool(np.linalg.norm(residual) <= tol or operator_norm(residual) <= tol)


def orthonormalize(spanning: np.ndarray) -> Subspace:
    """Orthonormal basis of the column space of ``spanning``.

    Numerical rank is decided by singular values above ``TOL_RANK`` times the
    largest one.
    """
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
        rank = int(np.count_nonzero(s > TOL_RANK * s[0]))
    return Subspace(u[:, :rank])


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x^H) / 2, formed by halves so that a finite x cannot overflow."""
    return x / 2.0 + adjoint(x) / 2.0


def gram_eigen_extremes(outer_eigenvalues: np.ndarray, count: int) -> SpectralBounds:
    """Eigenvalue extremes of a count x count Gram X^H X, from the ascending eigenvalues of the n x n X X^H.

    Both share their nonzero spectrum: the Gram's eigenvalues are those of
    X X^H with count - n zeros added (count > n) or the n - count smallest
    dropped (count < n).  The larger Gram is never formed.
    """
    w = outer_eigenvalues
    n = len(w)
    return SpectralBounds(0.0 if count > n else float(w[n - count]), float(w[-1]))


def gram_difference_norm(k: np.ndarray, k_t: np.ndarray) -> float:
    """||K^H K - K~^H K~|| for m x n K, K~: the largest |eigenvalue| of herm(F^H E), E = K - K~, F = K + K~.

    For 2m < n, herm(R1 R2^H) from the QR [F; E]^H = Q [R1 R2] has the same nonzero spectrum.  E / 4 (exact)
    keeps F^H E finite wherever both Grams are; the result is 0.0 for K~ = K and inf past the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f, e = k + k_t, k - k_t
        if 2 * len(f) < f.shape[1]:
            r = np.linalg.qr(adjoint(np.vstack((f, e))), mode="r")
            f, e = adjoint(r[:, : len(f)]), adjoint(r[:, len(f) :])
    h = hermitian_part(finite_product(adjoint(f), e / 4.0, "the Gram difference factor F^H E / 4"))
    return 4.0 * float(np.abs(np.linalg.eigvalsh(h)).max(initial=0.0))
