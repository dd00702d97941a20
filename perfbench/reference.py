"""Reference facts computed with plain numpy from system files, never through gfusion.

A system file is parsed with ``json`` and rebuilt as the stacked analysis
matrix K, whose rows are the blocks v_j L_j P_j; the frame operator is
S = K^H K.  Every fact a payload is checked against comes from here.
"""

from __future__ import annotations

import json

import numpy as np

# The CLI's default verdict tolerance, used for the Parseval and gf-ONB facts.
VERDICT_TOL = 1e-9


def _matrix(rows, field):
    a = np.array(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1] if field == "complex" else a


def parse_system(data: dict):
    """(dim, field, [(weight, orthonormal basis, block operator)]) from a system dict."""
    field = data["field"]
    blocks = []
    for sub in data["subsystems"]:
        basis, _ = np.linalg.qr(_matrix(sub["subspace"], field))
        blocks.append((float(sub["weight"]), basis, _matrix(sub["lambda"], field)))
    return data["dim"], field, blocks


def _projector(basis):
    return basis @ basis.conj().T


def analysis_matrix(blocks):
    return np.vstack([w * (op @ _projector(b)) for w, b, op in blocks])


def _eig_extremes(h):
    w = np.linalg.eigvalsh((h + h.conj().T) / 2)
    return float(w[0]), float(w[-1])


def system_facts(data: dict) -> dict:
    n, field, blocks = parse_system(data)
    k = analysis_matrix(blocks)
    s = k.conj().T @ k
    lmin, lmax = _eig_extremes(s)
    m = k.shape[0]
    frame = lmin > 1e-12
    # With M > n the direct-sum Gram K K^H has a kernel: never gf-Riesz.
    riesz = bool(frame and m == n)
    gram_dev = float(np.linalg.norm(k @ k.conj().T - np.eye(m), 2)) if m == n else float("inf")
    return {
        "dim": n,
        "field": field,
        "blocks": len(blocks),
        "total_block_dim": m,
        "lmin": lmin,
        "lmax": lmax,
        "frame": bool(frame),
        "riesz": riesz,
        "onb": bool(riesz and gram_dev <= VERDICT_TOL),
        "parseval": bool(np.linalg.norm(s - np.eye(n), 2) <= VERDICT_TOL),
        "weights": [w for w, _, _ in blocks],
        "projectors": [_projector(b) for _, b, _ in blocks],
    }


def pair_facts(ref: dict, pert: dict) -> dict:
    """Quantities the perturbation certifiers compute, for a (reference, perturbed) pair."""
    _, _, lb = parse_system(ref)
    _, _, tb = parse_system(pert)
    kl, kt = analysis_matrix(lb), analysis_matrix(tb)
    sl, st = kl.conj().T @ kl, kt.conj().T @ kt
    diff = (kl - kt).conj().T @ (kl - kt)
    terms = []
    for (w, b, lop), (_, _, top) in zip(lb, tb):
        p = _projector(b)
        terms.append(w**2 * p @ (lop.conj().T @ lop - top.conj().T @ top) @ p)
    sv = np.linalg.svd(st @ np.linalg.inv(sl), compute_uv=False)
    return {
        "analysis_radius": max(_eig_extremes(diff)[1], 0.0),
        "frame_op_diff_norm": float(np.linalg.norm(sl - st, 2)),
        "synthesis_diff_norm": float(np.linalg.norm(kl - kt, 2)),
        "r_certificate": float(sum(np.linalg.norm(t, 2) for t in terms)),
        "lemma_norm": float(sv[0]),
        "lemma_sigma_min": float(sv[-1]),
    }


def radius_between(base: dict, other: dict) -> float:
    """Analysis-side radius sqrt(lambda_max(sum_j v_j^2 P_j E_j^H E_j P_j)) of other - base."""
    return float(np.sqrt(pair_facts(base, other)["analysis_radius"]))


class Facts:
    """Facts for the files of one input directory, each file parsed once."""

    def __init__(self, d):
        self.d = d
        self._systems = {}
        self._pairs = {}

    def load(self, name: str) -> dict:
        with open(self.d / name, encoding="utf-8") as fh:
            return json.load(fh)

    def system(self, name: str) -> dict:
        if name not in self._systems:
            f = system_facts(self.load(name))
            self._systems[name] = {k: v for k, v in f.items() if k not in ("weights", "projectors")}
        return self._systems[name]

    def pair(self, ref: str, pert: str) -> dict:
        if (ref, pert) not in self._pairs:
            self._pairs[ref, pert] = pair_facts(self.load(ref), self.load(pert))
        return self._pairs[ref, pert]

    def for_request(self, req: dict) -> dict:
        e = req["expect"]
        out = {}
        for role in ("system", "theta", "perturbed"):
            if role in e:
                out[role] = self.system(e[role])
        if "perturbed" in e:
            out["pair"] = self.pair(e["system"], e["perturbed"])
        return out
