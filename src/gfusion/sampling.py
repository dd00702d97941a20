"""Seeded random draws shared by the generators and the perturbation samplers."""

from __future__ import annotations

import numpy as np

SV_MIN, SV_MAX = 0.6, 1.8  # singular value range of well_conditioned_matrix


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int, field: str) -> np.ndarray:
    if field == "complex":
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return rng.standard_normal((rows, cols))


def random_unit_vectors(rng: np.random.Generator, dim: int, count: int, field: str) -> np.ndarray:
    """Matrix whose columns are independent uniform unit vectors: a Gaussian draw over its column norms.

    A zero norm (a column of zeros, or dim 0) is read as 1.
    """
    g = gaussian_matrix(rng, dim, count, field)
    norms = np.linalg.norm(g, axis=0)
    norms[norms == 0.0] = 1.0
    g /= norms
    return g


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
