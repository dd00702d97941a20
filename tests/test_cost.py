"""The LAPACK call budget of each CLI command: which numpy.linalg routines it calls, how often, at what order.

A count does not depend on the machine, so a second eigensolve, or an M x M
matrix where an n x n one does, fails here, where a timing would only drift.
The files are fixed generated ones at n = 8: the frame has M = 15 > n
direct-sum coordinates, and `cross` runs on a gf-orthonormal basis (M = n)
and a frame of its structure.  A change that claims a structural gain edits
BUDGET in the same change.
"""

import contextlib
import io

import numpy as np
import pytest

import gfusion as gf
from gfusion import cli

N = 8
_COUNTED = ("eigh", "eigvalsh", "svd", "qr", "norm", "solve", "inv")


def _order(a) -> int:
    """The order of a factorization of a: the smaller of its matrix dimensions."""
    return min(np.shape(a)[-2:])


def _is_counted(name, a, args, kwargs) -> bool:
    """Every call but a norm other than the matrix 2-norm (an SVD); vector and Frobenius norms take no LAPACK call."""
    return name != "norm" or (np.ndim(a) >= 2 and (args[0] if args else kwargs.get("ord")) == 2)


def _budget(argv) -> dict:
    """{routine: (calls, largest order)} of the numpy.linalg calls that one cli.main run makes."""
    orders = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in _COUNTED:

            def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                if _is_counted(_name, a, args, kwargs):
                    orders.setdefault(_name, []).append(_order(a))
                return _fn(a, *args, **kwargs)

            mp.setattr(np.linalg, name, counted)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 1), argv
    return {name: (len(seen), max(seen)) for name, seen in orders.items()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cost")
    frame = gf.generate("frame", N, 3, seed=1)
    onb = gf.generate("onb", N, 3, seed=1)
    systems = {
        "frame": frame,
        "near": gf.perturbed_copy(frame, 2, radius=0.01),
        "onb": onb,
        "onb_frame": gf.generate_like(onb, "frame", 2),
    }
    for name, sys_ in systems.items():
        gf.save_system(sys_, str(root / f"{name}.json"))
    assert sum(frame.block_dims) > N
    return {name: str(root / f"{name}.json") for name in systems}


def _perturb(theorem):
    return ["perturb", "{frame}", "{near}", "--theorem", theorem, "--lam", "0.3", "--mu", "0.3", "--samples", "50",
            "--seed", "1"]


COMMANDS = {
    "analyze": ["analyze", "{frame}"],
    "dual": ["dual", "{frame}", "--seed", "1"],
    "riesz": ["riesz", "{frame}"],
    "onb": ["onb", "{frame}"],
    "cross": ["cross", "{onb}", "{onb_frame}"],
    "induce": ["induce", "{frame}"],
    "gen": ["gen", "--dim", str(N), "--blocks", "3", "--seed", "1"],
    "gen-like": ["gen", "--base", "{onb}", "--kind", "riesz", "--seed", "2"],
    "gen-noise": ["gen", "--base", "{frame}", "--noise", "0.01", "--seed", "2"],
    **{f"perturb-{theorem}": _perturb(theorem) for theorem in cli._THEOREMS},
}

# {command: {routine: (calls, largest order)}}: norm is the matrix 2-norm only.
BUDGET = {
    "analyze": {"eigh": (1, 8), "svd": (1, 8)},
    "cross": {"eigh": (2, 8), "norm": (3, 4), "svd": (2, 8)},
    "dual": {"eigh": (1, 8), "norm": (1, 8), "svd": (3, 5)},
    "gen": {"eigh": (3, 8), "svd": (9, 8)},
    "gen-like": {"eigh": (1, 8), "qr": (6, 4), "svd": (1, 8)},
    "gen-noise": {"eigh": (1, 8), "norm": (3, 7)},
    "induce": {"eigh": (1, 8), "eigvalsh": (1, 8), "norm": (1, 8)},
    "onb": {"eigh": (1, 8)},
    "perturb-analysis": {"eigh": (2, 8), "eigvalsh": (1, 8)},
    "perturb-cR": {"eigh": (3, 8), "eigvalsh": (3, 8), "qr": (1, 4)},
    "perturb-lemma": {"eigh": (2, 8), "svd": (1, 8)},
    "perturb-synth": {"eigh": (4, 8), "qr": (1, 8)},
    "perturb-t52": {"eigh": (4, 8), "eigvalsh": (1, 8)},
    "riesz": {"eigh": (1, 8)},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_keeps_its_lapack_budget(files, command):
    budget = _budget([arg.format(**files) for arg in COMMANDS[command]])
    assert max(order for _, order in budget.values()) <= N  # no M x M matrix, whatever the counts
    assert budget == BUDGET[command]
