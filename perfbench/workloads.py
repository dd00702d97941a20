"""Workload definitions: input systems written from a seed, and the fixed request list.

Every system file is drawn from the workload seed, but its block shape (the
subspace dimensions k_j and block dimensions m_j) is fixed per workload, so
that matrix and file sizes, and with them the cost of every request on a
direct path, do not depend on the seed.  The sampled perturbation certifiers
still do: their ascent stops early on the data.  The shape is drawn
the way ``gfusion.generate("frame")`` draws it (k_j, m_j uniform in 1..n) from
a constant shape stream, keeping the first draw whose totals hit the target.

A workload is two functions, registered in ``WORKLOADS``:

* ``<name>_inputs(seed, d)`` writes the system files into directory ``d``.
  It is what ``setup_s`` times, so it only does what a user preparing the
  inputs would do.
* ``<name>_requests(seed, meta)`` builds the fixed request list; ``plan``
  adds the facts each payload is checked against.  The facts come from
  ``reference.py`` (plain numpy on the written files), never from the code
  under test.
"""

from __future__ import annotations

import functools

import numpy as np

import gfusion as gf
import reference

# (k, m) totals are kept within this share of their target.
SHAPE_TOL = 0.01
# Drawn frames with a larger upper/lower bound ratio are drawn again.
MAX_CONDITION = 1e6


def _near(total, target, share=SHAPE_TOL):
    return abs(total - target) <= max(1.0, share * target)


@functools.lru_cache(maxsize=None)
def fixed_shape(n: int, blocks: int, m_total: int | None = None):
    """Block shape (k_j, m_j) with sum k ~ blocks*(n+1)/2 and sum m ~ m_total."""
    mean = blocks * (n + 1) / 2
    m_total = m_total or mean

    for s in range(100_000):
        rng = np.random.default_rng([7, n, blocks, s])
        k = rng.integers(1, n + 1, blocks)
        m = rng.integers(1, n + 1, blocks)
        if _near(m.sum(), m_total) and _near(k.sum(), mean) and np.minimum(k, m).sum() >= n + 2:
            return [int(x) for x in k], [int(x) for x in m]
    raise RuntimeError(f"no block shape for n={n}, J={blocks}")


def _gaussian(rng, rows, cols, field):
    if field == "complex":
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return rng.standard_normal((rows, cols))


def shaped_frame(n: int, field: str, shape, rng):
    """A random frame with the given block shape, drawn like ``generate("frame")``."""
    k_dims, m_dims = shape
    while True:
        comps = [
            (float(rng.uniform(0.5, 2.0)), _gaussian(rng, n, k, field), _gaussian(rng, m, n, field) / np.sqrt(n))
            for k, m in zip(k_dims, m_dims)
        ]
        sys_ = gf.make_system(n, field, comps)
        fb = gf.frame_bounds(sys_)
        if fb is not None and fb.upper / fb.lower <= MAX_CONDITION:
            return sys_


def _sub_seed(seed: int, *tag: int) -> int:
    """A 31-bit seed for a library call or a CLI flag, derived from the workload seed."""
    return int(np.random.default_rng([seed, *tag]).integers(0, 2**31 - 1))


class _Writer:
    """Writes system files into the input directory and remembers their bounds."""

    def __init__(self, d):
        self.d = d
        self.bounds = {}

    def save(self, name: str, sys_) -> str:
        gf.save_system(sys_, str(self.d / name))
        return name

    def keep(self, name, sys_):
        """Save a frame and record its bounds, which set the radius of its perturbed copy."""
        fb = gf.frame_bounds(sys_)
        self.bounds[name] = (fb.lower, fb.upper)
        self.save(name, sys_)
        return sys_

    def frame(self, name, n, blocks, field, seed, *tag, m_total=None):
        rng = np.random.default_rng([seed, *tag])
        return self.keep(name, shaped_frame(n, field, fixed_shape(n, blocks, m_total), rng))


def _warmup_inputs(w: _Writer, seed: int):
    """Tiny systems on which every command runs once before timing starts."""
    f = w.frame("warm_frame.json", 6, 3, "real", seed, 90)
    w.save("warm_pert.json", gf.perturbed_copy(f, _sub_seed(seed, 91), radius=0.01))
    o = gf.generate("onb", 6, 3, _sub_seed(seed, 92))
    w.save("warm_onb.json", o)
    w.save("warm_riesz.json", gf.generate_like(o, "riesz", _sub_seed(seed, 93)))


def warmup_requests(seed: int) -> list[list[str]]:
    s = str(_sub_seed(seed, 94))
    f, p = "warm_frame.json", "warm_pert.json"
    argvs = [
        ["analyze", f], ["dual", f, "--seed", s], ["riesz", f], ["onb", f], ["induce", f],
        ["cross", "warm_onb.json", "warm_riesz.json"], ["gen", "--dim", "6", "--blocks", "3", "--seed", s],
    ]
    argvs += [
        ["perturb", f, p, "--theorem", t, "--lam", "0.5", "--seed", s] for t in ("t52", "synth", "cR", "analysis", "lemma")
    ]
    return argvs


# ---------------------------------------------------------------- requests


def _req(argv, command, **expect):
    """One request: its argv, the metric it counts towards, what to check, and
    the part of the host-speed probe (``probe.py``) its latency is scaled by."""
    argv = [str(a) for a in argv]
    key = f"cmd_ms.perturb.{argv[argv.index('--theorem') + 1]}" if command == "perturb" else f"cmd_ms.{command}"
    return {"argv": argv, "metric": key, "probe": "interp", "expect": expect}


def _frame_requests(f, seed, tag):
    """analyze, dual, riesz, onb and induce on one frame file."""
    return [
        _req(["analyze", f], "analyze", system=f),
        _req(["dual", f, "--seed", _sub_seed(seed, tag, 1)], "dual", system=f),
        _req(["riesz", f], "riesz", system=f),
        _req(["onb", f], "onb", system=f),
        _req(["induce", f], "induce", system=f),
    ]


def _perturb_request(ref, pert, theorem, seed, tag: tuple, lam=0.0, mu=0.0, gamma=0.0):
    argv = ["perturb", ref, pert, "--theorem", theorem, "--seed", _sub_seed(seed, *tag, 2)]
    for flag, value in (("--lam", lam), ("--mu", mu), ("--gamma", gamma)):
        if value:
            argv += [flag, repr(float(value))]
    return _req(argv, "perturb", system=ref, perturbed=pert)


def _gen_seed(seed, tag, n, blocks, field, kind):
    """First derived seed whose generated system has the typical entry count.

    ``generate("frame")`` draws its block shape from the seed, so the output
    size, and with it the cost of ``gen``, would otherwise vary with the seed.
    """
    if kind != "frame":
        return _sub_seed(seed, tag, 3)
    target = blocks * (n + 1)
    for i in range(10_000):
        s = _sub_seed(seed, tag, 3, i)
        sys_ = gf.generate(kind, n, blocks, s, field=field)
        total = sum(sub.block_dim + sub.subspace.dim for sub in sys_.subsystems)
        if _near(total, target, 2 * SHAPE_TOL):
            return s
    raise RuntimeError("no typical gen seed found")


def _gen_request(seed, tag, n, blocks, field="real", kind="frame"):
    argv = ["gen", "--dim", n, "--blocks", blocks, "--kind", kind, "--field", field,
            "--seed", _gen_seed(seed, tag, n, blocks, field, kind)]
    return _req(argv, "gen", kind=kind, dim=n, blocks=blocks, field=field)


# ---------------------------------------------------------------- cli_large

LARGE_N, LARGE_J, LARGE_M = 128, 16, 1155
LARGE_RADIUS = 0.1
# Analysis radius of the gf-Riesz system's perturbed copy, as a share of
# A/sqrt(B): small enough that the sound certificates decide every theorem.
CERTIFIED_RHO = 0.05


def cli_large_inputs(seed, d):
    w = _Writer(d)
    _warmup_inputs(w, seed)
    f = w.frame("frame.json", LARGE_N, LARGE_J, "real", seed, 1, m_total=LARGE_M)
    w.save("pert.json", gf.perturbed_copy(f, _sub_seed(seed, 2), radius=LARGE_RADIUS))
    o = gf.generate("onb", LARGE_N, LARGE_J, _sub_seed(seed, 3))
    w.save("onb.json", o)
    r = w.keep("riesz.json", gf.generate_like(o, "riesz", _sub_seed(seed, 4)))
    a, b = w.bounds["riesz.json"]
    w.save("riesz_pert.json", gf.perturbed_copy(r, _sub_seed(seed, 5), radius=CERTIFIED_RHO * a / np.sqrt(b)))
    return {"bounds": w.bounds}


def cli_large_requests(seed, meta):
    f = "frame.json"
    a, b = meta["bounds"]["riesz.json"]
    radius = CERTIFIED_RHO * a / np.sqrt(b)
    # The certifiers other than analysis run on the n=128 gf-Riesz system
    # (M = n, so its files load fast), close enough to it that the sound
    # certificates decide: the large-n counterpart of perturb_sampled's path.
    light = [
        _req(["analyze", f], "analyze", system=f),
        _req(["cross", "onb.json", "riesz.json"], "cross", theta="onb.json", system="riesz.json"),
        _perturb_request("riesz.json", "riesz_pert.json", "t52", seed, (12,), lam=0.5),
        _perturb_request("riesz.json", "riesz_pert.json", "synth", seed, (13,), lam=0.3, gamma=2 * radius),
        _perturb_request("riesz.json", "riesz_pert.json", "cR", seed, (14,)),
        _perturb_request("riesz.json", "riesz_pert.json", "lemma", seed, (15,), lam=0.3, mu=0.3),
    ]
    dual, riesz, onb, induce = (r for r in _frame_requests(f, seed, 10) if r["argv"][0] != "analyze")
    # These three spend 60-75% of their time in the M x M eigensolves (traced
    # on the seed code), so they slow with the machine as LAPACK does; every
    # other request here and on perturb_sampled spends most of its time in
    # JSON and the interpreter.
    for r in (riesz, onb, induce):
        r["probe"] = "lapack"
    analysis = _perturb_request(f, "pert.json", "analysis", seed, (11,))
    gen = _gen_request(seed, 16, LARGE_N, LARGE_J)
    # A request's metric is the trimmed mean of its scaled latencies in the
    # run, and the interpreted, JSON-bound requests vary most from sample to
    # sample, so each light request runs three times per pass, spread between
    # the heavy ones, and the JSON-bound dual, analysis and gen twice.
    return [dual, riesz, analysis, gen, *light, onb, induce, *light, dual, gen, analysis, *light]


# ---------------------------------------------------------- perturb_sampled

# Per group: (name, n, J, field).  The groups repeat with fresh system seeds.
SAMPLED_SYSTEMS = (("f8", 8, 3, "real"), ("f32", 32, 16, "real"), ("c64", 64, 16, "complex"))
SAMPLED_GROUPS = 5
# Analysis radius as a share of sqrt(A): large enough that no sound
# norm certificate decides t52/synth/cR, so they sample and ascend.
SAMPLED_RHO = 0.3
# Analysis radius asked of ``gen --base ... --noise``.
GEN_NOISE = 0.05


def perturb_sampled_inputs(seed, d):
    w = _Writer(d)
    _warmup_inputs(w, seed)
    for g in range(SAMPLED_GROUPS):
        for i, (name, n, blocks, field) in enumerate(SAMPLED_SYSTEMS):
            f = w.frame(f"{name}_{g}.json", n, blocks, field, seed, 20, g, i)
            radius = SAMPLED_RHO * np.sqrt(w.bounds[f"{name}_{g}.json"][0])
            w.save(f"{name}_{g}_pert.json", gf.perturbed_copy(f, _sub_seed(seed, 21, g, i), radius=radius))
    o = gf.generate("onb", 8, 3, _sub_seed(seed, 22))
    w.save("onb8.json", o)
    w.save("riesz8.json", gf.generate_like(o, "riesz", _sub_seed(seed, 23)))
    return {"bounds": w.bounds}


def perturb_sampled_requests(seed, meta):
    # One request of every other command after each group, at n=8, so that
    # every end-to-end metric exists on every workload; they are a small share.
    # They are also where per-call overhead dominates, and where ``gen``
    # covers --base and --noise.
    base_seed = _sub_seed(seed, 42)
    others = _frame_requests("f8_0.json", seed, 40) + [
        _req(["cross", "onb8.json", "riesz8.json"], "cross", theta="onb8.json", system="riesz8.json"),
        _gen_request(seed, 41, 8, 3),
        _req(["gen", "--base", "onb8.json", "--kind", "riesz", "--seed", base_seed], "gen", kind="riesz",
             base="onb8.json"),
        _req(["gen", "--base", "f8_0.json", "--noise", GEN_NOISE, "--seed", base_seed], "gen", kind="noise",
             base="f8_0.json", noise=GEN_NOISE),
    ]
    reqs = []
    for g in range(SAMPLED_GROUPS):
        tag = 30 + g
        light = [
            _perturb_request(f"f8_{g}.json", f"f8_{g}_pert.json", "t52", seed, (tag, 1), lam=0.3),
            _perturb_request(f"f8_{g}.json", f"f8_{g}_pert.json", "cR", seed, (tag, 4)),
            _perturb_request(f"f32_{g}.json", f"f32_{g}_pert.json", "lemma", seed, (tag, 5), lam=0.3, mu=0.3),
            _perturb_request(f"f32_{g}.json", f"f32_{g}_pert.json", "analysis", seed, (tag, 6)),
            *others,
        ]
        # The light requests, a fifth of the pass, vary most from sample to
        # sample, so they run twice: before and after the two synth requests.
        reqs += [
            *light,
            _perturb_request(f"f32_{g}.json", f"f32_{g}_pert.json", "synth", seed, (tag, 2), lam=0.3),
            _perturb_request(f"c64_{g}.json", f"c64_{g}_pert.json", "synth", seed, (tag, 3), lam=0.3),
            *light,
        ]
    return reqs


WORKLOADS = {
    "cli_large": (cli_large_inputs, cli_large_requests),
    "perturb_sampled": (perturb_sampled_inputs, perturb_sampled_requests),
}


def plan(name, seed, d, meta):
    """Request list with, for each request, the numpy facts its checks need."""
    reqs = WORKLOADS[name][1](seed, meta)
    facts = reference.Facts(d)
    for r in reqs:
        r["facts"] = facts.for_request(r)
    return reqs
