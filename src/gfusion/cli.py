"""Command-line front end.

Subcommands: analyze, dual, riesz, onb, cross, induce, perturb, gen.
Every command prints a deterministic JSON payload to stdout (reports carry
the command echo, input digests, seed and tolerances; gen emits a system
file).  Exit codes: 0 = positive verdict / sound certificate, 1 = negative
verdict, 2 = input error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys as _sys

import numpy as np

from . import bases, induced, perturb
from .errors import GFusionError
from .generate import generate, generate_like, perturbed_copy
from .io import _system_tree, dumps_canonical, load_system, read_system
from .linalg import TOL_LEMMA_SLACK, TOL_PD, TOL_SAMPLED_MARGIN, TOL_VERDICT, adjoint, operator_norm
from .system import analysis_matrix, canonical_dual, frame_bounds, is_gf_complete, spectral_extremes

_THEOREMS = ("t52", "cR", "synth", "analysis", "lemma")


def _run_report(args):
    """Run a report command: stamp the files it reads, wrap its fields in the envelope, map its verdict to 0/1."""
    inputs = {}

    def load(label: str, path: str):
        sys_, digest = read_system(path)  # the sha256 of the very bytes parsed
        inputs[label] = {"path": path, "sha256": digest}
        return sys_

    ok, fields = args.report(args, load)
    report = {
        "command": args.command,
        "argv": list(args._argv),
        "inputs": inputs,
        "seed": getattr(args, "seed", None),
        "tolerances": {args.tol_name: args.tol},
    }
    report.update(fields)
    return (0 if ok else 1), report


def _cmd_analyze(args, load):
    sys_ = load("system", args.system)
    fb = frame_bounds(sys_, tol_pd=args.tol)
    return fb is not None, {
        "dim": sys_.dim,
        "field": sys_.field,
        "blocks": sys_.block_count,
        "verdict": "frame" if fb is not None else "not_a_frame",
        "bounds": fb,
        "spectral_extremes": spectral_extremes(sys_),
        "parseval": bool(fb is not None and abs(fb.lower - 1) <= TOL_VERDICT and abs(fb.upper - 1) <= TOL_VERDICT),
        "gf_complete": is_gf_complete(sys_),
    }


def _cmd_dual(args, load):
    sys_ = load("system", args.system)
    if frame_bounds(sys_) is None:
        return False, {"verdict": "not_a_frame"}
    dual = canonical_dual(sys_)
    # max over unit f of ||f - K_d^H K f||; the other order K^H K_d is its adjoint, with the same norm
    residual = operator_norm(np.eye(sys_.dim) - adjoint(analysis_matrix(dual)) @ analysis_matrix(sys_))
    ok = residual <= args.tol
    dual_tree = _system_tree(dual)
    if args.emit_dual:
        _write_file(args.emit_dual, dumps_canonical(dual_tree))
    return ok, {
        "verdict": "dual_ok" if ok else "dual_residual_too_large",
        "max_primal_residual": residual,
        "max_swapped_residual": residual,
        "dual_system": dual_tree,
    }


def _cmd_riesz(args, load):
    rb = bases.riesz_bounds(load("system", args.system), args.tol)
    return rb is not None, {"verdict": "riesz" if rb is not None else "not_riesz", "riesz_bounds": rb}


def _cmd_onb(args, load):
    verdict = bases.is_gf_orthonormal(load("system", args.system), args.tol)
    return verdict.is_gf_orthonormal, {"verdict": verdict}


def _cmd_cross(args, load):
    theta = load("theta", args.theta)
    rep = bases.cross_operator(theta, load("lambda", args.system), args.tol)
    return rep.intertwine_residual <= args.tol and rep.surjective, {"report": rep}


def _cmd_induce(args, load):
    sys_ = load("system", args.system)
    fam = induced.induce_vectors(sys_)
    rep = induced.verify_correspondence(sys_, fam, args.tol)
    return rep.coincidence_residual <= args.tol and rep.bounds_agree, {
        "family": {
            "count": fam.count,
            "labels": fam.labels,
            "vectors": fam.vectors,
        },
        "report": rep,
    }


def _cmd_perturb(args, load):
    least = 1 if args.theorem == "lemma" else 0
    if args.samples < least:
        raise GFusionError(f"--samples must be at least {least} for --theorem {args.theorem}, got {args.samples}")
    lam_sys = load("system", args.system)
    theta_sys = load("perturbed", args.perturbed)
    params = perturb.PerturbParams(args.lam, args.mu, args.gamma)
    sampling = {"samples": args.samples, "seed": args.seed, "bracket_tol": args.tol}
    if args.theorem == "t52":
        rep = perturb.certify_frame_operator_perturbation(lam_sys, theta_sys, params, **sampling)
    elif args.theorem == "cR":
        rep = perturb.certify_R_condition(lam_sys, theta_sys, **sampling)
    elif args.theorem == "synth":
        rep = perturb.certify_synthesis_perturbation(lam_sys, theta_sys, params, **sampling)
    elif args.theorem == "analysis":
        rep = perturb.certify_analysis_perturbation(lam_sys, theta_sys, bracket_tol=args.tol)
    else:
        rep = perturb.certify_invertibility_lemma(lam_sys, theta_sys, params, samples=args.samples, seed=args.seed)
    ok = rep.hypothesis_holds and bool(rep.sandwich_ok if args.theorem == "lemma" else rep.bracket_ok)
    lemma_tols = {"margin_tol": TOL_SAMPLED_MARGIN, "lemma_slack": TOL_LEMMA_SLACK} if args.theorem == "lemma" else {}
    return ok, {
        "theorem": args.theorem,
        "params": params,
        "samples": args.samples,
        "report": rep,
        "tolerances": {args.tol_name: args.tol, **lemma_tols},
    }


def _cmd_gen(args):
    if args.noise is not None:
        if args.base is None:
            raise GFusionError("--noise needs --base")
        base = load_system(args.base)
        sys_ = perturbed_copy(base, args.seed, radius=args.noise)
    elif args.base is not None:
        base = load_system(args.base)
        sys_ = generate_like(base, args.kind, args.seed)
    else:
        if args.dim is None or args.blocks is None:
            raise GFusionError("gen needs --dim and --blocks (or --base)")
        sys_ = generate(args.kind, args.dim, args.blocks, args.seed, field=args.field)
    return 0, _system_tree(sys_)


def _write_file(path: str, text: str):
    """Write an output file; a path that cannot be written is an input error (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GFusionError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _finite(text: str) -> float:
    """argparse type of the float options: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by every later `main` call, so nothing may mutate it.

    `parse_args` returns a fresh Namespace and leaves the parser as it is; argparse
    reads the terminal width and sys.stdout / sys.stderr anew on each call.
    """
    parser = argparse.ArgumentParser(prog="gfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=TOL_VERDICT, with_seed=False):
        if tol is not None:
            help_ = "the command's verdict tolerance (default: %(default)s)"
            p.add_argument("--tol", type=_tolerance, default=tol, help=help_)
        p.add_argument("-o", "--output", default=None, help="also write the JSON payload to this file")
        if with_seed:
            p.add_argument("--seed", type=int, required=True, help="seed for the randomized parts")

    p = sub.add_parser("analyze", help="frame verdict, optimal bounds, completeness")
    p.add_argument("system")
    add_common(p, tol=TOL_PD)
    p.set_defaults(func=_run_report, report=_cmd_analyze, tol_name="tol_pd")

    p = sub.add_parser("dual", help="canonical dual and its exact reconstruction residual")
    p.add_argument("system")
    p.add_argument("--emit-dual", default=None, help="write the dual as a system file")
    add_common(p)
    p.add_argument("--seed", type=int, required=True, help="echoed in the report; dual draws nothing and ignores it")
    p.set_defaults(func=_run_report, report=_cmd_dual, tol_name="residual_tol")

    p = sub.add_parser("riesz", help="gf-Riesz verdict and bounds")
    p.add_argument("system")
    add_common(p)
    p.set_defaults(func=_run_report, report=_cmd_riesz, tol_name="tol")

    p = sub.add_parser("onb", help="gf-orthonormal basis verdict")
    p.add_argument("system")
    add_common(p)
    p.set_defaults(func=_run_report, report=_cmd_onb, tol_name="tol")

    p = sub.add_parser("cross", help="cross operator between a gf-orthonormal system and a frame")
    p.add_argument("theta", help="gf-orthonormal system file")
    p.add_argument("system", help="g-fusion frame file")
    add_common(p)
    p.set_defaults(func=_run_report, report=_cmd_cross, tol_name="tol")

    p = sub.add_parser("induce", help="induced vector family and correspondence report")
    p.add_argument("system")
    add_common(p)
    p.set_defaults(func=_run_report, report=_cmd_induce, tol_name="tol")

    p = sub.add_parser("perturb", help="perturbation certificates", description="--theorem lemma ignores --tol and "
                       "echoes the thresholds that decide it, margin_tol and lemma_slack, under tolerances.")
    p.add_argument("system", help="reference system file")
    p.add_argument("perturbed", help="perturbed system file")
    p.add_argument("--theorem", choices=_THEOREMS, required=True)
    p.add_argument("--lam", type=_finite, default=0.0)
    p.add_argument("--mu", type=_finite, default=0.0)
    p.add_argument("--gamma", type=_finite, default=0.0)
    p.add_argument("--samples", type=int, default=2000)
    add_common(p, with_seed=True)
    p.set_defaults(func=_run_report, report=_cmd_perturb, tol_name="bracket_tol")

    p = sub.add_parser("gen", help="generate a random system file")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--kind", choices=("frame", "parseval", "onb", "riesz"), default="frame")
    p.add_argument("--field", choices=("real", "complex"), default="real")
    p.add_argument("--base", default=None, help="existing system file providing the structure")
    p.add_argument("--noise", type=_finite, default=None, help="perturb --base by this exact analysis radius")
    add_common(p, tol=None, with_seed=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    argv = list(_sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args._argv = argv
    try:
        code, payload = args.func(args)
        text = dumps_canonical(payload)
        if args.output:
            _write_file(args.output, text)
    except (GFusionError, ValueError, RuntimeError) as exc:
        _sys.stderr.write(dumps_canonical({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    _sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
