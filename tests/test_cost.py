"""The LAPACK call budget of each CLI command: which numpy.linalg routines it calls, how often, at what order.

A count does not depend on the machine, so a second eigensolve, or an M x M
matrix where an n x n one does, fails here, where a timing would only drift.
The files are fixed generated ones with J = 3 blocks at n = 8 and n = 32: the
frame has M > n direct-sum coordinates, and `cross` runs on a gf-orthonormal
basis (M = n) and a frame of its structure.  The lemma also runs on U =
diag(2, 1, ..., 1), which neither its certificate nor its witness decides, so
its search draws and ascends.  A change that claims a structural gain edits
BUDGET in the same change.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import gfusion as gf
from gfusion import cli

CELLS = (8, 32)  # the dimensions n; every cell has J = 3 blocks
_COUNTED = ("eigh", "eigvalsh", "svd", "qr", "norm", "solve", "inv")


def _order(a) -> int:
    """The order of a factorization of a: the smaller of its matrix dimensions."""
    return min(np.shape(a)[-2:])


def _is_counted(name, a, args, kwargs) -> bool:
    """Every call but a norm other than the matrix 2-norm (an SVD); vector and Frobenius norms take no LAPACK call."""
    return name != "norm" or (np.ndim(a) >= 2 and (args[0] if args else kwargs.get("ord")) == 2)


def _budget(argv) -> tuple[dict, str]:
    """{routine: (calls, largest order)} of the numpy.linalg calls that one cli.main run makes, and its stdout."""
    orders = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in _COUNTED:

            def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                if _is_counted(_name, a, args, kwargs):
                    orders.setdefault(_name, []).append(_order(a))
                return _fn(a, *args, **kwargs)

            mp.setattr(np.linalg, name, counted)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
    assert code in (0, 1), argv
    return {name: (len(seen), max(seen)) for name, seen in orders.items()}, out.getvalue()


def _write_cell(root, n) -> dict:
    frame = gf.generate("frame", n, 3, seed=1)
    onb = gf.generate("onb", n, 3, seed=1)
    stretch = np.eye(n)
    stretch[0, 0] = np.sqrt(2.0)  # S = diag(2, 1, ..., 1) against S = I: the lemma's U
    systems = {
        "frame": frame,
        "near": gf.perturbed_copy(frame, 2, radius=0.01),
        "onb": onb,
        "onb_frame": gf.generate_like(onb, "frame", 2),
        "eye": gf.make_system(n, "real", [(1.0, np.eye(n), np.eye(n))]),
        "stretch": gf.make_system(n, "real", [(1.0, np.eye(n), stretch)]),
    }
    for name, sys_ in systems.items():
        gf.save_system(sys_, str(root / f"{name}.json"))
    assert sum(frame.block_dims) > n
    return {"n": str(n), **{name: str(root / f"{name}.json") for name in systems}}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """n -> the cell's file paths (and n), each cell written once per module."""
    cells = {}

    def cell(n):
        if n not in cells:
            cells[n] = _write_cell(tmp_path_factory.mktemp(f"cost{n}"), n)
        return cells[n]

    return cell


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
    "gen": ["gen", "--dim", "{n}", "--blocks", "3", "--seed", "1"],
    "gen-like": ["gen", "--base", "{onb}", "--kind", "riesz", "--seed", "2"],
    "gen-noise": ["gen", "--base", "{frame}", "--noise", "0.01", "--seed", "2"],
    **{f"perturb-{theorem}": _perturb(theorem) for theorem in cli._THEOREMS},
    # ||I - U|| = 1 > 0.3 + 0.45 and the witness e_1 has margin -0.2, the supremum: the search draws and ascends
    "perturb-lemma-search": ["perturb", "{eye}", "{stretch}", "--theorem", "lemma", "--lam", "0.3", "--mu", "0.45",
                             "--samples", "50", "--seed", "1"],
}

# {n: {command: {routine: (calls, largest order)}}}: norm is the matrix 2-norm only.
BUDGET = {
    8: {
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
        "perturb-lemma-search": {"eigh": (2, 8), "svd": (1, 8)},
        "perturb-synth": {"eigh": (4, 8), "qr": (1, 8)},
        "perturb-t52": {"eigh": (4, 8), "eigvalsh": (1, 8)},
        "riesz": {"eigh": (1, 8)},
    },
    32: {
        "analyze": {"eigh": (1, 32), "svd": (1, 32)},
        "cross": {"eigh": (2, 32), "norm": (3, 16), "svd": (2, 32)},
        "dual": {"eigh": (1, 32), "norm": (1, 32), "svd": (3, 22)},
        "gen": {"eigh": (3, 32), "svd": (9, 30)},
        "gen-like": {"eigh": (1, 32), "qr": (6, 16), "svd": (1, 32)},
        "gen-noise": {"eigh": (1, 32), "norm": (3, 24)},
        "induce": {"eigh": (1, 32), "eigvalsh": (1, 32), "norm": (1, 32)},
        "onb": {"eigh": (1, 32)},
        "perturb-analysis": {"eigh": (2, 32), "eigvalsh": (1, 32)},
        "perturb-cR": {"eigh": (2, 32), "eigvalsh": (3, 32)},
        "perturb-lemma": {"eigh": (2, 32), "svd": (1, 32)},
        "perturb-lemma-search": {"eigh": (2, 32), "svd": (1, 32)},
        "perturb-synth": {"eigh": (4, 32), "qr": (1, 32)},
        "perturb-t52": {"eigh": (2, 32), "eigvalsh": (1, 32)},
        "riesz": {"eigh": (1, 32)},
    },
}


@pytest.mark.parametrize(
    "n, command", [pytest.param(n, c, id=c if n == 8 else f"n{n}-{c}") for n in CELLS for c in sorted(COMMANDS)]
)
def test_each_command_keeps_its_lapack_budget(files, n, command):
    budget, out = _budget([arg.format(**files(n)) for arg in COMMANDS[command]])
    assert max(order for _, order in budget.values()) <= n  # no M x M matrix, whatever the counts
    assert budget == BUDGET[n][command]
    if command == "perturb-lemma-search":  # the search ran, and found the supremum -0.2 at e_1 from the witness
        report = json.loads(out)["report"]
        assert (report["mode"], report["hypothesis_holds"]) == ("sampled", True)
