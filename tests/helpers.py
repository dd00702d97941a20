"""Shared test utilities: tiny reference systems, the block-decomposition oracle and the CLI golden runner."""

from __future__ import annotations

import io
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gfusion as gf
from gfusion.cli import main as cli_main
from gfusion.linalg import TOL_VERDICT, adjoint, operator_norm
from gfusion.sampling import gaussian_matrix
from gfusion.system import split_blocks

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN_ENV = "GFUSION_REGEN_GOLDEN"


def coordinate_system(weights=(1.0, 1.0), field="real") -> gf.GFusionSystem:
    """One block per axis: W_j = span{e_j}, block operator the j-th coordinate row."""
    n = len(weights)
    dtype = np.complex128 if field == "complex" else np.float64
    eye = np.eye(n, dtype=dtype)
    return gf.make_system(n, field, [(w, eye[:, [j]], eye[[j], :]) for j, w in enumerate(weights)])


def full_space_system(op: np.ndarray, weight: float = 1.0, field="real") -> gf.GFusionSystem:
    """Single block with W = the whole space."""
    n = op.shape[1]
    dtype = np.complex128 if field == "complex" else np.float64
    return gf.make_system(n, field, [(weight, np.eye(n, dtype=dtype), op)])


def scale_blocks(sys: gf.GFusionSystem, factors) -> gf.GFusionSystem:
    """Copy of the system with each block operator multiplied by a scalar."""
    subs = [
        gf.Subsystem(sub.weight, sub.subspace, np.asarray(c * sub.operator, dtype=sys.dtype))
        for sub, c in zip(sys.subsystems, np.broadcast_to(factors, (sys.block_count,)))
    ]
    return gf.GFusionSystem(sys.dim, sys.field, tuple(subs))


def reference_unit_vectors(rng: np.random.Generator, dim: int, count: int, field: str) -> np.ndarray:
    """The direct formula for ``random_unit_vectors``: a Gaussian draw over its column norms."""
    g = gaussian_matrix(rng, dim, count, field)
    norms = np.linalg.norm(g, axis=0)
    norms[norms == 0.0] = 1.0
    return g / norms


def fitted_radius(sys: gf.GFusionSystem) -> float:
    """Perturbation radius small enough for the operator-norm certificates."""
    fb = gf.frame_bounds(sys)
    return 0.2 * fb.lower / (2.0 * np.sqrt(fb.upper) + 1.0)


@dataclass(frozen=True)
class DecompositionReport:
    """Per-block isometry and orthogonal-decomposition diagnostics.

    For a gf-orthonormal system every v_j P_j L_j^H is an isometry of the
    block space into the ambient space, the images are mutually orthogonal,
    and their dimensions sum to the ambient dimension.
    """

    isometry_deviation: float
    image_overlap: float
    image_dims: tuple[int, ...]
    decomposes: bool


def decomposition_report(sys: gf.GFusionSystem, tol: float = TOL_VERDICT) -> DecompositionReport:
    """Decide the gf-orthonormal characterization block by block: an oracle for ``is_gf_orthonormal``.

    It never reads S or its spectrum: each weighted block's isometry defect
    and every pair of block images are checked directly (J^2 pairs).
    """
    iso_dev = 0.0
    images = []
    for k_j in split_blocks(sys, gf.analysis_matrix(sys)):
        k = adjoint(k_j)  # v_j P_j L_j^H
        iso_dev = max(iso_dev, operator_norm(adjoint(k) @ k - np.eye(k.shape[1])))
        images.append(gf.orthonormalize(k).basis)
    overlap = 0.0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            overlap = max(overlap, operator_norm(adjoint(images[i]) @ images[j]))
    dims = tuple(b.shape[1] for b in images)
    decomposes = bool(sum(dims) == sys.dim and overlap <= tol and iso_dev <= tol)
    return DecompositionReport(float(iso_dev), float(overlap), dims, decomposes)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def golden_scenarios(ws: Path) -> list[tuple[str, list[str], int]]:
    """(name, argv, expected exit code), in execution order.

    Earlier gen commands write the system files the later commands read, so
    the whole list replays deterministically inside one workspace.  A
    scenario named None only writes such a file: its exit code is checked,
    its stdout is not pinned.
    """
    w = str(ws)
    return [
        ("gen_onb", ["gen", "--dim", "4", "--blocks", "2", "--kind", "onb", "--seed", "21", "-o", f"{w}/sys_onb.json"], 0),
        ("gen_frame", ["gen", "--dim", "4", "--blocks", "2", "--kind", "frame", "--seed", "33", "-o", f"{w}/sys_frame.json"], 0),
        ("gen_riesz_like", ["gen", "--base", f"{w}/sys_onb.json", "--kind", "riesz", "--seed", "55", "-o", f"{w}/sys_riesz.json"], 0),
        ("gen_noise", ["gen", "--base", f"{w}/sys_frame.json", "--noise", "0.02", "--seed", "66", "-o", f"{w}/sys_pert.json"], 0),
        ("gen_noise_small", ["gen", "--base", f"{w}/sys_frame.json", "--noise", "0.001", "--seed", "67", "-o", f"{w}/sys_pert_small.json"], 0),
        ("analyze_frame", ["analyze", f"{w}/sys_frame.json"], 0),
        ("riesz_riesz", ["riesz", f"{w}/sys_riesz.json"], 0),
        ("onb_onb", ["onb", f"{w}/sys_onb.json"], 0),
        ("cross_onb_riesz", ["cross", f"{w}/sys_onb.json", f"{w}/sys_riesz.json"], 0),
        ("induce_onb", ["induce", f"{w}/sys_onb.json"], 0),
        ("dual_frame", ["dual", f"{w}/sys_frame.json", "--seed", "5"], 0),
        ("gen_complex", ["gen", "--dim", "4", "--blocks", "2", "--kind", "onb", "--field", "complex", "--seed", "91", "-o", f"{w}/sys_complex.json"], 0),
        ("analyze_complex", ["analyze", f"{w}/sys_complex.json"], 0),
        ("perturb_analysis", ["perturb", f"{w}/sys_frame.json", f"{w}/sys_pert.json", "--theorem", "analysis", "--seed", "8"], 0),
        ("perturb_cr", ["perturb", f"{w}/sys_frame.json", f"{w}/sys_pert_small.json", "--theorem", "cR", "--seed", "8", "--samples", "300"], 0),
        ("perturb_lemma", ["perturb", f"{w}/sys_frame.json", f"{w}/sys_pert_small.json", "--theorem", "lemma", "--lam", "0.5", "--seed", "8", "--samples", "300"], 0),
        ("perturb_t52", ["perturb", f"{w}/sys_frame.json", f"{w}/sys_pert_small.json", "--theorem", "t52", "--lam", "0.3", "--seed", "8", "--samples", "300"], 0),
        ("perturb_synth", ["perturb", f"{w}/sys_frame.json", f"{w}/sys_pert.json", "--theorem", "synth", "--lam", "0.3", "--seed", "8", "--samples", "300"], 1),
        ("perturb_cr_sampled", ["perturb", f"{w}/sys_frame.json", f"{w}/sys_pert.json", "--theorem", "cR", "--seed", "8", "--samples", "300"], 1),
        # t52 on J = 4 blocks, holding: the full set and all 7 random subsets are drawn, so this pins the stream order
        (None, ["gen", "--dim", "5", "--blocks", "4", "--kind", "riesz", "--seed", "42", "-o", f"{w}/sys_riesz4.json"], 0),
        (None, ["gen", "--base", f"{w}/sys_riesz4.json", "--noise", "0.01", "--seed", "43", "-o", f"{w}/sys_riesz4_pert.json"], 0),
        ("perturb_t52_subsets", ["perturb", f"{w}/sys_riesz4.json", f"{w}/sys_riesz4_pert.json", "--theorem", "t52", "--lam", "0.05", "--mu", "0.2", "--seed", "8", "--samples", "300"], 0),
    ]


def _strip_workspace(text: str, ws: Path) -> str:
    # Reports echo input paths; normalize so goldens are workspace-independent.
    return text.replace(str(ws), "WS")


def replay_golden(ws: Path) -> list[str]:
    """Run every scenario; check exit codes, and compare stdout bytes to the goldens.

    Returns the list of scenario names that ran.  With GFUSION_REGEN_GOLDEN=1
    the golden files are rewritten instead of compared; exit codes are still
    checked.
    """
    regen = os.environ.get(REGEN_ENV) == "1"
    names = []
    for name, argv, want_code in golden_scenarios(ws):
        code, out = run_cli(argv)
        # Determinism: an immediate replay must be byte-identical.
        code2, out2 = run_cli(argv)
        assert (code, out) == (code2, out2), f"{name}: output not deterministic"
        assert code == want_code, f"{name}: exit code {code}, expected {want_code}"
        if name is None:
            continue
        normalized = _strip_workspace(out, ws)
        golden_path = GOLDEN_DIR / f"{name}.json"
        if regen:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            golden_path.write_text(normalized, encoding="utf-8")
        else:
            want = golden_path.read_text(encoding="utf-8")
            assert normalized == want, f"{name}: output differs from golden file"
        names.append(name)
    return names
