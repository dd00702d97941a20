"""Seeded random draws shared by the generators and the perturbation samplers."""

from __future__ import annotations

import numpy as np

SV_MIN, SV_MAX = 0.6, 1.8  # singular value range of well_conditioned_matrix
_ROW_BLOCK = 16  # rows per block of random_unit_vectors' in-place draws and norms


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int, field: str) -> np.ndarray:
    if field == "complex":
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return rng.standard_normal((rows, cols))


def random_unit_vectors(rng: np.random.Generator, dim: int, count: int, field: str) -> np.ndarray:
    """Matrix whose columns are independent uniform unit vectors.

    Bit for bit ``g / np.linalg.norm(g, axis=0)`` with ``g =
    gaussian_matrix(rng, dim, count, field)`` and zero norms read as 1, and
    it leaves ``rng`` in the same state.  It holds one result-sized array: a
    complex matrix is drawn, in ``gaussian_matrix``'s stream order, and
    normalized in place, ``_ROW_BLOCK`` rows at a time, its column norms
    summed in the row order ``np.linalg.norm`` uses.  That sum is pairwise
    for a single column, so one column takes the direct formula, as do real
    draws.
    """
    if field != "complex" or count < 2:
        g = gaussian_matrix(rng, dim, count, field)
        norms = np.linalg.norm(g, axis=0)
        norms[norms == 0.0] = 1.0
        g /= norms
        return g
    out = np.empty((dim, count), dtype=np.complex128)
    blocks = [slice(r, min(r + _ROW_BLOCK, dim)) for r in range(0, dim, _ROW_BLOCK)]
    for part in (out.real, out.imag):
        for rows in blocks:
            part[rows] = rng.standard_normal((rows.stop - rows.start, count))
    out /= np.sqrt(2.0)
    sq = np.zeros(count)  # |g_ij|^2 summed over the rows so far; 0.0 + x == x, so the first block is exact
    for rows in blocks:
        s = (out[rows].conj() * out[rows]).real
        s[0] += sq
        sq = np.add.reduce(s, axis=0)
    norms = np.sqrt(sq)
    norms[norms == 0.0] = 1.0
    out /= norms
    return out


def haar_unitary(rng: np.random.Generator, n: int, field: str) -> np.ndarray:
    """Haar-distributed orthogonal/unitary matrix (QR with phase fix)."""
    q, r = np.linalg.qr(gaussian_matrix(rng, n, n, field))
    d = np.diagonal(r).copy()
    d[d == 0.0] = 1.0
    return q * (d / np.abs(d))


def well_conditioned_matrix(rng: np.random.Generator, n: int, field: str) -> np.ndarray:
    """Invertible matrix with singular values drawn uniformly from [SV_MIN, SV_MAX]."""
    u = haar_unitary(rng, n, field)
    v = haar_unitary(rng, n, field)
    s = rng.uniform(SV_MIN, SV_MAX, n)
    return (u * s) @ v.conj().T


def random_partition(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` positive integers, uniformly over cut points."""
    if parts < 1 or parts > total:
        raise ValueError(f"cannot split {total} into {parts} positive parts")
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    edges = np.concatenate([[0], cuts, [total]])
    return list(np.diff(edges).astype(int))
