"""Seeded generators for test systems of every flavor.

``generate`` draws a fresh system; the structured kinds (onb / parseval /
riesz) share the same skeleton draw, so two calls with the same (dim,
blocks, seed) but different structured kinds produce systems on identical
subspaces and weights.  ``generate_like`` builds a system of the requested
kind directly on an existing system's structure, which is what the
cross-operator and perturbation machinery require.  ``perturbed_copy``
returns the same system with additively perturbed block operators.
"""

from __future__ import annotations

import numpy as np

from .bases import is_gf_orthonormal
from .errors import PreconditionFailed
from .linalg import Subspace, adjoint, orthonormalize
from .sampling import (
    gaussian_matrix,
    haar_unitary,
    random_partition,
    well_conditioned_matrix,
)
from .system import GFusionSystem, Subsystem, frame_bounds, spectral_extremes

KINDS = ("frame", "parseval", "onb", "riesz")
# The frame kinds draw at most _MAX_TRIES times for a frame whose frame operator has condition number at
# most _MAX_CONDITION (generate's default; generate_like always).
_MAX_TRIES = 500
_MAX_CONDITION = 1e6


def _skeleton(rng: np.random.Generator, dim: int, blocks: int, field: str):
    """Random orthogonal partition of the ambient space: block sizes + bases."""
    sizes = random_partition(rng, dim, blocks)
    q = haar_unitary(rng, dim, field)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return sizes, [q[:, offsets[j]:offsets[j + 1]] for j in range(blocks)]


def _first_frame(draw, max_condition: float) -> GFusionSystem:
    """The first of ``_MAX_TRIES`` ``draw()`` results that is a frame with condition at most ``max_condition``."""
    for _ in range(_MAX_TRIES):
        sys_ = draw()
        fb = frame_bounds(sys_)
        if fb is not None and fb.upper / fb.lower <= max_condition:
            return sys_
    raise RuntimeError(f"no frame with condition <= {max_condition:g} found in {_MAX_TRIES} tries")


def generate(
    kind: str,
    dim: int,
    blocks: int,
    seed: int,
    *,
    field: str = "real",
    max_condition: float = _MAX_CONDITION,
) -> GFusionSystem:
    """Draw a random system of the requested kind.

    onb       partition of a Haar basis; blocks are the coordinate maps.
    parseval  onb post-composed with per-block unitaries.
    riesz     onb transported by a well-conditioned invertible map (the
              subspaces move with the map).
    frame     random subspaces, random block operators, random weights in
              [0.5, 2], resampled until frame verdict with condition number
              of the frame operator at most ``max_condition``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if dim < 1 or blocks < 1:
        raise ValueError(f"dim and blocks must be at least 1, got dim={dim}, blocks={blocks}")
    rng = np.random.default_rng(seed)

    if kind == "frame":
        def draw():
            subs = []
            for _ in range(blocks):
                k = int(rng.integers(1, dim + 1))
                m = int(rng.integers(1, dim + 1))
                subspace = orthonormalize(gaussian_matrix(rng, dim, k, field))
                op = gaussian_matrix(rng, m, dim, field) / np.sqrt(dim)
                subs.append(Subsystem(float(rng.uniform(0.5, 2.0)), subspace, op))
            return GFusionSystem(dim, field, tuple(subs))

        return _first_frame(draw, max_condition)

    sizes, q_blocks = _skeleton(rng, dim, blocks, field)
    subs = []
    if kind == "onb":
        for qb in q_blocks:
            subs.append(Subsystem(1.0, Subspace(qb), adjoint(qb)))
    elif kind == "parseval":
        for d, qb in zip(sizes, q_blocks):
            u = haar_unitary(rng, d, field)
            subs.append(Subsystem(1.0, Subspace(qb), u @ adjoint(qb)))
    else:  # riesz
        m = well_conditioned_matrix(rng, dim, field)
        for qb in q_blocks:
            subs.append(Subsystem(1.0, orthonormalize(m @ qb), adjoint(m @ qb)))
    return GFusionSystem(dim, field, tuple(subs))


def generate_like(base: GFusionSystem, kind: str, seed: int) -> GFusionSystem:
    """Draw a system of the requested kind on ``base``'s exact structure.

    The result shares (dim, field, subspaces, weights, block sizes) with
    ``base``, as the cross operator and the perturbation certifiers demand.
    The frame kind is resampled until the frame operator's condition number
    is at most 1e6.  The structured kinds need ``base`` to be gf-orthonormal
    with block sizes equal to the subspace dimensions.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    rng = np.random.default_rng(seed)

    if kind == "frame":
        def draw():
            subs = []
            for sub in base.subsystems:
                op = gaussian_matrix(rng, sub.block_dim, base.dim, base.field) / np.sqrt(base.dim)
                subs.append(Subsystem(sub.weight, sub.subspace, op))
            return GFusionSystem(base.dim, base.field, tuple(subs))

        return _first_frame(draw, _MAX_CONDITION)

    if not is_gf_orthonormal(base).is_gf_orthonormal:
        raise PreconditionFailed("structured matched generation needs a gf-orthonormal base system")
    subs = []
    for sub in base.subsystems:
        if sub.block_dim != sub.subspace.dim:
            raise PreconditionFailed("matched generation needs block size equal to subspace dimension")
        b = sub.subspace.basis
        if kind in ("onb", "parseval"):
            c = haar_unitary(rng, sub.block_dim, base.field)
        else:  # riesz
            c = well_conditioned_matrix(rng, sub.block_dim, base.field)
        subs.append(Subsystem(sub.weight, sub.subspace, (c @ adjoint(b)) / sub.weight))
    return GFusionSystem(base.dim, base.field, tuple(subs))


def perturbed_copy(
    sys: GFusionSystem,
    seed: int,
    *,
    radius: float | None = None,
    scale: float | None = None,
) -> GFusionSystem:
    """Additively perturb every block operator, keeping subspaces and weights.

    With ``radius`` the perturbation is scaled so the analysis-side radius
    ``sqrt(lambda_max(sum_j v_j^2 P_j E_j^H E_j P_j))`` equals it exactly (the
    sum is the frame operator of the system with block operators E_j);
    ``scale`` instead applies a raw factor to unit-norm block perturbations.
    """
    if (radius is None) == (scale is None):
        raise ValueError("specify exactly one of radius= or scale=")
    if radius is not None and not radius >= 0.0:
        raise ValueError(f"radius must be at least 0, got {radius}")
    rng = np.random.default_rng(seed)
    bumps = []
    for sub in sys.subsystems:
        e = gaussian_matrix(rng, sub.block_dim, sys.dim, sys.field)
        n = np.linalg.norm(e, 2)
        bumps.append(e / n if n > 0 else e)
    if radius is not None:
        bump_sys = GFusionSystem(sys.dim, sys.field, tuple(
            Subsystem(sub.weight, sub.subspace, e) for sub, e in zip(sys.subsystems, bumps)
        ))
        base_radius = np.sqrt(max(spectral_extremes(bump_sys).max_eig, 0.0))
        if base_radius == 0.0:
            raise RuntimeError("degenerate perturbation draw")
        factor = radius / base_radius
    else:
        factor = scale
    subs = [
        Subsystem(sub.weight, sub.subspace, sub.operator + factor * e)
        for sub, e in zip(sys.subsystems, bumps)
    ]
    return GFusionSystem(sys.dim, sys.field, tuple(subs))
