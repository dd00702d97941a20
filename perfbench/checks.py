"""Payload checks behind ``failed``: each payload against facts known without gfusion.

``check(request, code, text, workdir)`` returns the list of contradictions
found; an empty list means the request succeeded.  A correct negative verdict (exit 1,
such as ``riesz`` on a frame with M > n) is not a failure; exit 2, an
exception or a payload that contradicts a reference fact is.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference

# Relative agreement asked of a spectral quantity, scaled by the largest eigenvalue.
RTOL = 1e-7
# Residual limit of dual, cross and induce: no request sets --tol, so the CLI's default.
TOL = reference.VERDICT_TOL


class _Problems(list):
    def expect(self, ok, what):
        if not ok:
            self.append(what)

    def close(self, got, want, scale, what):
        if got is None or not np.isfinite(got) or abs(got - want) > RTOL * max(abs(scale), 1.0):
            self.append(f"{what}: got {got!r}, reference {float(want)!r}")


def _flag(argv, name):
    return float(argv[argv.index(name) + 1]) if name in argv else 0.0


def check(req: dict, code: int, text: str, workdir: Path) -> list[str]:
    p = _Problems()
    if code not in (0, 1):
        return [f"exit code {code}"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"payload is not JSON: {exc}"]
    cmd = req["argv"][0]
    CHECKERS[cmd](p, req, code, payload, workdir)
    return list(p)


def _analyze(p, req, code, out, _):
    f = req["facts"]["system"]
    p.expect(out["verdict"] == ("frame" if f["frame"] else "not_a_frame"), "frame verdict")
    p.expect(code == (0 if f["frame"] else 1), "exit code vs frame verdict")
    if f["frame"]:
        p.close(out["bounds"]["lower"], f["lmin"], f["lmax"], "lower bound")
        p.close(out["bounds"]["upper"], f["lmax"], f["lmax"], "upper bound")
    p.close(out["spectral_extremes"]["max_eig"], f["lmax"], f["lmax"], "max eigenvalue")
    p.expect(out["gf_complete"] == f["frame"], "gf-completeness of a finite frame")
    p.expect(out["parseval"] == f["parseval"], "parseval flag")
    p.expect(out["blocks"] == f["blocks"] and out["dim"] == f["dim"], "shape echo")


def _dual(p, req, code, out, _):
    p.expect(out["verdict"] == "dual_ok" and code == 0, f"dual verdict {out['verdict']!r} on a frame")
    p.expect(out.get("max_primal_residual", np.inf) <= TOL, "primal residual within the tolerance")
    p.expect(out.get("max_swapped_residual", np.inf) <= TOL, "swapped residual within the tolerance")
    dual = out.get("dual_system")
    p.expect(dual is not None and len(dual["subsystems"]) == req["facts"]["system"]["blocks"], "dual block count")


def _riesz(p, req, code, out, _):
    f = req["facts"]["system"]
    p.expect(out["verdict"] == ("riesz" if f["riesz"] else "not_riesz"), "gf-Riesz verdict")
    p.expect(code == (0 if f["riesz"] else 1), "exit code vs Riesz verdict")
    if f["riesz"]:
        # With M = n the direct-sum Gram and S share their spectrum.
        p.close(out["riesz_bounds"]["lower"], f["lmin"], f["lmax"], "Riesz lower bound")
        p.close(out["riesz_bounds"]["upper"], f["lmax"], f["lmax"], "Riesz upper bound")


def _onb(p, req, code, out, _):
    f = req["facts"]["system"]
    v = out["verdict"]
    p.expect(v["is_gf_orthonormal"] == f["onb"], "gf-orthonormal verdict")
    p.expect(v["is_riesz"] == f["riesz"], "gf-Riesz verdict inside onb")
    p.expect(code == (0 if f["onb"] else 1), "exit code vs ONB verdict")


def _cross(p, req, code, out, _):
    lam = req["facts"]["system"]
    r = out["report"]
    p.expect(req["facts"]["theta"]["onb"], "theta input is gf-orthonormal")
    p.expect(r["surjective"] and r["intertwine_residual"] <= TOL and code == 0, "cross operator intertwines")
    p.expect(r["invertible"] == lam["riesz"], "V invertible iff Lambda is gf-Riesz")
    p.expect(r["adjoint_isometric"] == lam["parseval"], "V* isometric iff Lambda is Parseval")
    p.expect(r["unitary"] == lam["onb"], "V unitary iff Lambda is gf-orthonormal")
    # V V^H = S_Lambda when theta is gf-orthonormal.
    p.close(r["norm"], np.sqrt(lam["lmax"]), np.sqrt(lam["lmax"]), "||V||")


def _induce(p, req, code, out, _):
    f = req["facts"]["system"]
    r = out["report"]
    p.expect(out["family"]["count"] == f["total_block_dim"], "induced vector count = M")
    p.expect(r["bounds_agree"] and r["coincidence_residual"] <= TOL and code == 0, "operator coincidence")
    p.expect(r["system_verdict"]["is_riesz"] == f["riesz"], "system Riesz verdict")
    p.expect(r["family_orthonormal_basis"] == f["onb"], "family is an ONB iff the system is gf-ONB")
    p.close(r["system_extremes"]["max_eig"], f["lmax"], f["lmax"], "system max eigenvalue")
    p.close(r["induced_extremes"]["min_eig"], f["lmin"], f["lmax"], "induced min eigenvalue")


def _perturb(p, req, code, out, _):
    argv = req["argv"]
    theorem = argv[argv.index("--theorem") + 1]
    ref, pert, pair = req["facts"]["system"], req["facts"]["perturbed"], req["facts"]["pair"]
    lam, mu, gamma = _flag(argv, "--lam"), _flag(argv, "--mu"), _flag(argv, "--gamma")
    a, b = ref["lmin"], ref["lmax"]
    r = out["report"]
    if theorem == "lemma":
        p.close(r["norm"], pair["lemma_norm"], pair["lemma_norm"], "||U||")
        p.close(r["sigma_min"], pair["lemma_sigma_min"], pair["lemma_norm"], "sigma_min(U)")
        p.close(r["lam1"], lam + gamma / np.sqrt(a), 1.0, "lam1")
        p.expect(not r["hypothesis_holds"] or r["sandwich_ok"], "lemma hypothesis => sandwich bounds")
        p.expect(code == (0 if r["hypothesis_holds"] and r["sandwich_ok"] else 1), "exit code vs lemma verdict")
        return
    p.close(r["actual"]["lower"], pert["lmin"], pert["lmax"], "actual lower bound")
    p.close(r["actual"]["upper"], pert["lmax"], pert["lmax"], "actual upper bound")
    p.expect(not r["hypothesis_holds"] or r["bracket_ok"], "hypothesis => predicted bounds bracket the spectrum")
    p.expect(code == (0 if r["hypothesis_holds"] and r["bracket_ok"] else 1), "exit code vs certificate")
    if theorem == "analysis":
        radius = pair["analysis_radius"]
        p.expect(r["mode"] == "exact", "analysis mode")
        p.close(r["radius"], radius, b, "analysis radius")
        p.expect(r["hypothesis_holds"] == (radius < a), "analysis hypothesis iff R < A")
        if radius < a:
            p.close(r["predicted"]["lower"], (np.sqrt(a) - np.sqrt(radius)) ** 2, b, "predicted lower")
            p.close(r["predicted"]["upper"], (np.sqrt(radius) + np.sqrt(b)) ** 2, b, "predicted upper")
        return
    if theorem == "cR":
        cert = pair["r_certificate"]
        p.close(r["radius_certificate"], cert, b, "triangle-inequality radius")
        if cert < a:
            p.expect(r["mode"] == "certified_sufficient" and r["hypothesis_holds"], "R certificate decides")
        return
    if theorem == "t52":
        margin = pair["frame_op_diff_norm"] - (lam * a + gamma * np.sqrt(a))
    else:
        margin = pair["synthesis_diff_norm"] - gamma
    p.close(r["cert_margin"], margin, b, "certificate margin")
    if margin < -RTOL * b:
        p.expect(r["mode"] == "certified_sufficient", "sound certificate decides")
    elif margin > RTOL * b:
        p.expect(r["mode"] in ("sampled", "none"), "no certificate when its margin is positive")


def _gen(p, req, code, out, workdir):
    e = req["expect"]
    f = reference.system_facts(out)
    p.expect(code == 0, "gen exit code")
    if "base" in e:
        base_data = json.loads((workdir / e["base"]).read_text(encoding="utf-8"))
        base = reference.system_facts(base_data)
        p.expect(np.allclose(f["weights"], base["weights"], rtol=0, atol=1e-12), "weights kept from --base")
        p.expect(
            all(np.abs(x - y).max() <= 1e-9 for x, y in zip(f["projectors"], base["projectors"])),
            "subspaces kept from --base",
        )
        if "noise" in e:
            p.close(reference.radius_between(base_data, out), e["noise"], 1.0, "--noise analysis radius")
    else:
        p.expect((f["dim"], f["blocks"], f["field"]) == (e["dim"], e["blocks"], e["field"]), "gen shape")
    kind = e["kind"]
    p.expect(f["frame"], "generated system is a frame")
    if kind in ("onb", "parseval", "riesz"):
        p.expect(f["riesz"], f"generated {kind} system is gf-Riesz")
    if kind in ("onb", "parseval"):
        p.expect(f["parseval"], f"generated {kind} system is Parseval")
    if kind == "onb":
        p.expect(f["onb"], "generated onb system is gf-orthonormal")


CHECKERS = {
    "analyze": _analyze,
    "dual": _dual,
    "riesz": _riesz,
    "onb": _onb,
    "cross": _cross,
    "induce": _induce,
    "perturb": _perturb,
    "gen": _gen,
}
