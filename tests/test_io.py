"""The system-file contract of gfusion.io: entry types, diagnostics, encoding."""

import collections
import copy
import dataclasses
import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import GOLDEN_DIR, run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

import gfusion as gf
import gfusion.io as gfio
from gfusion.errors import SystemFileError
from gfusion.io import (
    dumps_canonical,
    load_system,
    matrix_from_data,
    read_system,
    save_system,
    system_from_dict,
)
from gfusion.linalg import orthonormality_deviation

REAL_FILE = {
    "version": 1,
    "field": "real",
    "dim": 2,
    "subsystems": [
        {"weight": 1.0, "subspace": [[1.0], [0.0]], "lambda": [[1.0, 0.0]]},
        {"weight": 2.0, "subspace": [[0.0], [1.0]], "lambda": [[0.0, 1.0], [0.5, 0.5]]},
    ],
}

COMPLEX_FILE = {
    "version": 1,
    "field": "complex",
    "dim": 2,
    "subsystems": [
        {"weight": 1.0, "subspace": [[[1.0, 0.0]], [[0.0, 0.0]]], "lambda": [[[1.0, 0.0], [0.0, 0.0]]]},
        {
            "weight": 2.0,
            "subspace": [[[0.0, 0.0]], [[1.0, 0.0]]],
            "lambda": [[[0.0, 0.0], [0.0, 1.0]], [[0.5, -0.5], [2.0, 0.0]]],
        },
    ],
}


def _with_entry(base, value):
    """Copy of the file with subsystems[1].lambda[1][0] replaced."""
    data = copy.deepcopy(base)
    data["subsystems"][1]["lambda"][1][0] = value
    return data


BAD_ENTRY = "subsystems[1].lambda[1][0]"


@pytest.mark.parametrize(
    "base, value",
    [
        (REAL_FILE, True),
        (REAL_FILE, "1.0"),
        (REAL_FILE, None),
        (REAL_FILE, [1.0, 0.0]),
        (COMPLEX_FILE, True),
        (COMPLEX_FILE, "1.0"),
        (COMPLEX_FILE, None),
        (COMPLEX_FILE, [True, 0.0]),
        (COMPLEX_FILE, [0.0, False]),
        (COMPLEX_FILE, [1.0]),
        (COMPLEX_FILE, [1.0, 0.0, 0.0]),
        (COMPLEX_FILE, ["1", 0.0]),
    ],
    ids=lambda v: json.dumps(v) if not isinstance(v, dict) else v["field"],
)
def test_malformed_entry_names_its_path(base, value):
    with pytest.raises(SystemFileError, match="^" + re.escape(BAD_ENTRY) + ": "):
        system_from_dict(_with_entry(base, value))


def test_ragged_complex_matrix_names_its_row():
    data = copy.deepcopy(COMPLEX_FILE)
    data["subsystems"][1]["lambda"][1].append([0.0, 0.0])
    message = "subsystems[1].lambda[1]: ragged row (expected 2 entries, got 3)"
    with pytest.raises(SystemFileError, match="^" + re.escape(message)):
        system_from_dict(data)


def _assert_same_system(a, b):
    assert a.field == b.field and a.dim == b.dim
    for sa, sb in zip(a.subsystems, b.subsystems, strict=True):
        assert sa.weight == sb.weight
        assert sa.operator.dtype == sb.operator.dtype
        assert np.array_equal(sa.operator, sb.operator)
        assert np.array_equal(sa.subspace.basis, sb.subspace.basis)


def test_complex_file_may_mix_numbers_and_pairs():
    mixed = copy.deepcopy(COMPLEX_FILE)
    mixed["subsystems"][0]["lambda"] = [[1.0, [0.0, 0.0]]]
    mixed["subsystems"][1]["lambda"][1] = [[0.5, -0.5], 2]
    _assert_same_system(system_from_dict(mixed), system_from_dict(COMPLEX_FILE))


def test_complex_file_of_plain_numbers_loads_with_zero_imaginary_parts():
    plain = copy.deepcopy(COMPLEX_FILE)
    for sub in plain["subsystems"]:
        for key in ("subspace", "lambda"):
            sub[key] = [[re for re, _ in row] for row in sub[key]]
    loaded = system_from_dict(plain)
    assert loaded.subsystems[1].operator.dtype == np.complex128
    assert np.array_equal(loaded.subsystems[1].operator, [[0.0, 0.0], [0.5, 2.0]])
    assert not np.signbit(loaded.subsystems[1].operator.imag).any()


def test_integer_entries_load_as_floats():
    ints = copy.deepcopy(REAL_FILE)
    ints["subsystems"][0]["lambda"] = [[1, 0]]
    ints["subsystems"][1]["subspace"] = [[0], [1]]
    _assert_same_system(system_from_dict(ints), system_from_dict(REAL_FILE))


def _decode_per_entry(data, field):
    def entry(x):
        if field == "real":
            return float(x)
        return complex(float(x[0]), float(x[1])) if isinstance(x, list) else complex(float(x), 0.0)

    return np.array([[entry(x) for x in row] for row in data], dtype=np.complex128 if field == "complex" else np.float64)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_matrix_from_data_matches_per_entry_decoding(field):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((5, 4, 2)).tolist()
    data[0][0] = [-0.0, -0.0]
    data[1][1] = [3, -2]
    data[2][2] = [1e308, 5e-324]
    if field == "real":
        data = [[re for re, _ in row] for row in data]
    got = matrix_from_data(data, field, "m")
    want = _decode_per_entry(data, field)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # bit for bit, signed zeros included


def test_numpy_scalar_entries_are_accepted_by_the_library():
    data = copy.deepcopy(REAL_FILE)
    data["subsystems"][1]["lambda"] = [[np.float64(0.0), np.float64(1.0)], [np.float64(0.5), 0.5]]
    _assert_same_system(system_from_dict(data), system_from_dict(REAL_FILE))


@pytest.mark.parametrize("key", ["version", "dim"])
def test_boolean_header_fields_are_rejected(key):
    # A one-dimensional file, so that "dim": true would otherwise load as dim 1.
    sub = {"weight": 1.0, "subspace": [[1.0]], "lambda": [[1.0]]}
    data = {"version": 1, "field": "real", "dim": 1, "subsystems": [sub]}
    system_from_dict(data)
    data[key] = True
    with pytest.raises(SystemFileError, match=rf"^{key}: expected"):
        system_from_dict(data)


def test_non_utf8_file_is_a_system_file_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(REAL_FILE).encode("utf-16-le"))
    with pytest.raises(SystemFileError, match="utf16.json: not UTF-8 text"):
        load_system(str(path))


# ---------------------------------------------------------------------------
# Encoding: the whole-array conversion against the per-entry formula.


def _entry_formula(x, field):
    if field == "complex":
        return [float(np.real(x)), float(np.imag(x))]
    return float(np.real(x))


def _per_entry(a, field):
    a = np.asarray(a)
    if a.ndim == 1:
        return [_entry_formula(x, field) for x in a]
    return [[_entry_formula(x, field) for x in row] for row in a]


def _arrays():
    rng = np.random.default_rng(11)
    real = rng.standard_normal((4, 3))
    real[0, 0], real[1, 2] = -0.0, 0.0
    cplx = real + 1j * rng.standard_normal((4, 3))
    cplx[2, 1] = complex(-0.0, -0.0)
    return {
        "float64": real,
        "float32": real.astype(np.float32),
        "int": rng.integers(-5, 5, (3, 4)),
        "complex128": cplx,
        "complex64": cplx.astype(np.complex64),
        "float64-1d": real[:, 0],
        "int-1d": np.arange(-2, 3),
        "complex-1d": cplx[1],
        "transposed": cplx.T,
        "extremes": np.array([[np.inf, -np.inf, 1e308, 5e-324]]),
    }


ARRAYS = _arrays()


def _lists(tree):
    """The JSON data that dumps_canonical writes for a tree.

    An integer array is its .tolist() (ints), any other array the per-entry formula's nested lists.
    """
    if isinstance(tree, np.ndarray):
        if tree.dtype.kind in "iu":
            return tree.tolist()
        if tree.ndim in (1, 2):
            return _per_entry(tree, "complex" if np.iscomplexobj(tree) else "real")
        return [_lists(x) for x in tree]
    if isinstance(tree, dict):
        return {k: _lists(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_lists(v) for v in tree]
    return tree


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_dumps_canonical_writes_arrays_by_the_per_entry_formula(name):
    # Compared as JSON text, which tells -0.0 from 0.0 and 1 from 1.0 (== does not).
    tree = {"x": ARRAYS[name]}
    assert dumps_canonical(tree) == _stdlib(_lists(tree))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["frame", "riesz", "onb"])
def test_save_load_save_is_byte_identical(tmp_path, field, kind):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_system(gf.generate(kind, 6, 3, seed=23, field=field), str(first))
    save_system(load_system(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


# A system's normal form (dim an int, each weight a float), whatever path built it, is what the file holds.
@pytest.mark.parametrize("kind", ["onb", "frame"])
@pytest.mark.parametrize("dim", [np.int64(4), np.int32(4)], ids=["int64", "int32"])
def test_a_numpy_dimension_is_saved_as_an_integer(tmp_path, kind, dim):
    numpy_path, int_path = tmp_path / "numpy.json", tmp_path / "int.json"
    save_system(gf.generate(kind, dim, 2, 1), str(numpy_path))
    save_system(gf.generate(kind, 4, 2, 1), str(int_path))
    assert numpy_path.read_bytes() == int_path.read_bytes()
    assert load_system(str(numpy_path)).dim == 4


@pytest.mark.parametrize("weight", [2, np.int64(2), np.float32(2.0), np.float64(2.0)],
                         ids=["int", "int64", "float32", "float64"])
def test_a_weight_is_written_as_a_float(tmp_path, weight):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    space = gf.Subspace(np.eye(2))
    save_system(gf.GFusionSystem(2, "real", (gf.Subsystem(weight, space, np.ones((1, 2))),)), str(first))
    assert '"weight": 2.0\n' in first.read_text(encoding="utf-8")
    save_system(load_system(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# Integers too large for a float are input errors that name their entry.

HUGE = 10**400


def _with_value(base, keys, value):
    data = copy.deepcopy(base)
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return data


@pytest.mark.parametrize(
    "base, keys, value, where",
    [
        (REAL_FILE, ("subsystems", 1, "lambda", 1, 0), HUGE, "subsystems[1].lambda[1][0]"),
        (REAL_FILE, ("subsystems", 1, "lambda", 1, 0), -HUGE, "subsystems[1].lambda[1][0]"),
        (REAL_FILE, ("subsystems", 0, "subspace", 1, 0), HUGE, "subsystems[0].subspace[1][0]"),
        (REAL_FILE, ("subsystems", 1, "weight"), HUGE, "subsystems[1].weight"),
        (COMPLEX_FILE, ("subsystems", 1, "lambda", 1, 0), [0.5, HUGE], "subsystems[1].lambda[1][0]"),
        (COMPLEX_FILE, ("subsystems", 1, "lambda", 1, 0), HUGE, "subsystems[1].lambda[1][0]"),
        (COMPLEX_FILE, ("subsystems", 0, "subspace", 0, 0), [HUGE, 0], "subsystems[0].subspace[0][0]"),
        (COMPLEX_FILE, ("subsystems", 0, "weight"), HUGE, "subsystems[0].weight"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_integer_too_large_for_a_float_names_its_path(base, keys, value, where):
    with pytest.raises(SystemFileError, match="^" + re.escape(where) + ": integer too large for a float$"):
        system_from_dict(_with_value(base, keys, value))


@pytest.mark.parametrize("key", ["lambda", "weight"])
def test_cli_exits_two_on_an_integer_too_large_for_a_float(tmp_path, capsys, key):
    huge = "1" + "0" * 400
    entry = {"lambda": f"[[{huge}]]", "weight": "1"}
    if key == "weight":
        entry = {"lambda": "[[1]]", "weight": huge}
    path = tmp_path / "huge.json"
    path.write_text(
        '{"version": 1, "field": "real", "dim": 1, "subsystems": '
        f'[{{"weight": {entry["weight"]}, "subspace": [[1]], "lambda": {entry["lambda"]}}}]}}'
    )
    code, out = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    err = json.loads(capsys.readouterr().err)
    where = "subsystems[0].lambda[0][0]" if key == "lambda" else "subsystems[0].weight"
    assert err == {"error": "SystemFileError", "message": f"{where}: integer too large for a float"}


# ---------------------------------------------------------------------------
# Numbers that parse as non-finite floats (1e400 reads as inf; the json module
# also accepts NaN and Infinity) are input errors that name their entry.

INF = float("inf")


@pytest.mark.parametrize(
    "base, keys, value, where",
    [
        (REAL_FILE, ("subsystems", 1, "lambda", 1, 0), INF, "subsystems[1].lambda[1][0]"),
        (REAL_FILE, ("subsystems", 1, "lambda", 1, 0), -INF, "subsystems[1].lambda[1][0]"),
        (REAL_FILE, ("subsystems", 1, "lambda", 1, 0), math.nan, "subsystems[1].lambda[1][0]"),
        (REAL_FILE, ("subsystems", 0, "subspace", 1, 0), INF, "subsystems[0].subspace[1][0]"),
        (REAL_FILE, ("subsystems", 1, "weight"), INF, "subsystems[1].weight"),
        (COMPLEX_FILE, ("subsystems", 1, "lambda", 1, 0), [0.5, INF], "subsystems[1].lambda[1][0]"),
        (COMPLEX_FILE, ("subsystems", 1, "lambda", 1, 0), [math.nan, 0.5], "subsystems[1].lambda[1][0]"),
        (COMPLEX_FILE, ("subsystems", 1, "lambda", 1, 0), -INF, "subsystems[1].lambda[1][0]"),
        (COMPLEX_FILE, ("subsystems", 0, "subspace", 0, 0), [INF, 0], "subsystems[0].subspace[0][0]"),
        (COMPLEX_FILE, ("subsystems", 0, "weight"), INF, "subsystems[0].weight"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_non_finite_number_names_its_path(base, keys, value, where):
    with pytest.raises(SystemFileError, match="^" + re.escape(where) + r": expected a finite number, got -?(inf|nan)$"):
        system_from_dict(_with_value(base, keys, value))


@pytest.mark.parametrize(
    "weight, lam, where, shown",
    [
        ("1e400", "[[1]]", "subsystems[0].weight", "inf"),
        ("1", "[[1e400]]", "subsystems[0].lambda[0][0]", "inf"),
        ("1", "[[-1e400]]", "subsystems[0].lambda[0][0]", "-inf"),
        ("1", "[[NaN]]", "subsystems[0].lambda[0][0]", "nan"),
    ],
)
def test_cli_exits_two_on_a_non_finite_number(tmp_path, capsys, weight, lam, where, shown):
    path = tmp_path / "overflow.json"
    path.write_text(
        '{"version": 1, "field": "real", "dim": 1, "subsystems": '
        f'[{{"weight": {weight}, "subspace": [[1]], "lambda": {lam}}}]}}'
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code, out = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "SystemFileError", "message": f"{where}: expected a finite number, got {shown}"}


@pytest.mark.parametrize(
    "subsystems, message",
    [("[]", "subsystems: expected a non-empty list"), ("[1]", "subsystems[0]: expected an object")],
)
def test_cli_exits_two_on_a_subsystems_list_with_no_subsystem_object(tmp_path, capsys, subsystems, message):
    path = tmp_path / "empty.json"
    path.write_text(f'{{"version": 1, "field": "real", "dim": 1, "subsystems": {subsystems}}}')
    code, out = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    assert json.loads(capsys.readouterr().err) == {"error": "SystemFileError", "message": message}


OVERFLOWING = '{"weight": 1e300, "subspace": [[1]], "lambda": [[1e300]]}'  # finite entries, v_j L_j P_j = inf
BLOCK_OVERFLOW = "the weighted block v_j L_j P_j contains NaN or Inf entries"


@pytest.mark.parametrize("command", ["analyze", "onb", "induce"])
@pytest.mark.parametrize(
    "subsystems, message",
    [
        (OVERFLOWING, f"subsystem 0: {BLOCK_OVERFLOW}"),
        ('{"weight": 1, "subspace": [[1]], "lambda": [[1]]}, ' + OVERFLOWING, f"subsystem 1: {BLOCK_OVERFLOW}"),
        # K is finite (1e200) but S = K^H K is not.
        ('{"weight": 1e100, "subspace": [[1]], "lambda": [[1e100]]}', "frame operator K^H K contains NaN or Inf entries"),
    ],
)
def test_cli_exits_two_on_an_overflowing_product(tmp_path, capsys, command, subsystems, message):
    path = tmp_path / "overflow.json"
    path.write_text(f'{{"version": 1, "field": "real", "dim": 1, "subsystems": [{subsystems}]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code, out = run_cli([command, str(path)])
    assert code == 2 and out == ""
    assert json.loads(capsys.readouterr().err) == {"error": "NonFiniteInput", "message": message}


def _unit_weight_file(tmp_path, name, blocks):
    """Real system file with one unit-weight block per ``lambda`` matrix in ``blocks``, each on the whole space."""
    dim = len(blocks[0][0])
    eye = np.eye(dim).tolist()
    subs = ", ".join(json.dumps({"weight": 1.0, "subspace": eye, "lambda": lam}) for lam in blocks)
    path = tmp_path / name
    path.write_text(f'{{"version": 1, "field": "real", "dim": {dim}, "subsystems": [{subs}]}}')
    return str(path)


def _all_finite(x):
    if isinstance(x, dict):
        return all(_all_finite(v) for v in x.values())
    if isinstance(x, list):
        return all(_all_finite(v) for v in x)
    return not isinstance(x, float) or math.isfinite(x)


NEAR_MAX = {"big": [[[1e154]]], "neg": [[[-1e154]]]}  # K = +-1e154, S = 1e308: finite, but S + S^H is not


@pytest.mark.parametrize(
    "argv, want",
    [
        (["analyze", "big"], 0),
        (["analyze", "neg"], 0),
        (["dual", "big", "--seed", "1"], 0),
        (["riesz", "big"], 0),
        (["onb", "big"], 1),
        (["induce", "big"], 0),
        (["perturb", "neg", "neg", "--theorem", "t52", "--seed", "1"], 0),
        (["perturb", "big", "neg", "--theorem", "t52", "--seed", "1"], 0),
        (["perturb", "neg", "neg", "--theorem", "synth", "--seed", "1"], 0),
        (["perturb", "neg", "neg", "--theorem", "cR", "--seed", "1"], 0),
        (["perturb", "neg", "neg", "--theorem", "analysis", "--seed", "1"], 0),
        (["perturb", "neg", "neg", "--theorem", "lemma", "--seed", "1"], 0),
    ],
)
def test_cli_reports_stay_finite_when_the_frame_operator_nears_the_float_maximum(tmp_path, argv, want):
    files = {label: _unit_weight_file(tmp_path, f"{label}.json", blocks) for label, blocks in NEAR_MAX.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code, out = run_cli([files.get(a, a) for a in argv])
    report = json.loads(out)
    assert code == want and _all_finite(report)
    if argv[0] == "analyze":
        assert report["verdict"] == "frame"
        assert report["bounds"]["lower"] == report["bounds"]["upper"] == 1e308
    if argv[0] == "perturb" and argv[4] == "t52":
        assert report["report"]["cert_margin"] == 0.0  # ||S_lam - S_theta|| - (lam A + gamma sqrt(A)), all 0


def test_cli_exits_two_when_the_analysis_perturbation_overflows(tmp_path, capsys):
    # K_lam = 1e154 and K_theta = -1e154 have finite frame operators, but D^H D = 4e308 is not finite.
    big, neg = (_unit_weight_file(tmp_path, f"{label}.json", blocks) for label, blocks in NEAR_MAX.items())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["perturb", big, neg, "--theorem", "analysis", "--seed", "1"])
    assert code == 2 and out == ""
    assert json.loads(capsys.readouterr().err) == {
        "error": "NonFiniteInput",
        "message": "analysis perturbation D^H D contains NaN or Inf entries",
    }


# Finite inputs whose reports would carry a number beyond the float range.
SPECTRUM_OVERFLOW = "the spectrum of the frame operator K^H K contains NaN or Inf entries"
OVERFLOW_FILES = {
    "big": [[[1e154]]],                           # S = 1e308
    "top": [[[1.3e154]]],                         # S = 1.69e308
    "half": [[[0.65e154]]],
    "wide": [[[0.99e154, 0.99e154], [1.0, -1.0]]],  # finite S with the eigenvalue 1.96e308
    "unit": [[[1.0, 0.0], [0.0, 1.0]]],
    "up": [[[0.5e154, 0.5e154], [1e150, -1e150]]],
    "down": [[[-0.5e154, -0.5e154], [1e150, -1e150]]],  # D^H D finite, its eigenvalue 2e308 is not
    "thin": [[[1.0, 0.0], [0.0, 1e-5]]],
    "huge": [[[1e150, 0.0], [0.0, 1e150]]],       # U = S_huge S_thin^-1 has the entry 1e310
    "first": [[[0.9487e154]], [[0.0]]],
    "second": [[[0.0]], [[0.9487e154]]],          # two block differences of 0.9e308 each
}
SAMPLED_OVERFLOW = "the sampled hypothesis margin overflows a float"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["perturb", "big", "big", "--theorem", "t52", "--lam", "0.5", "--mu", "0.5", "--gamma", "1"],
         "predicted.upper overflows a float"),
        (["perturb", "big", "big", "--theorem", "synth", "--lam", "0.5", "--mu", "0.5", "--gamma", "1"],
         "predicted.upper overflows a float"),
        (["perturb", "top", "half", "--theorem", "analysis"], "predicted.upper overflows a float"),
        (["perturb", "top", "half", "--theorem", "cR"], "upper_quadratic overflows a float"),
        # The hypothesis is false (cert_margin 2.5e307); the sampled search overflowed and used to call it true.
        (["perturb", "top", "half", "--theorem", "t52", "--lam", "0.6"], SAMPLED_OVERFLOW),
        (["analyze", "wide"], SPECTRUM_OVERFLOW),
        (["perturb", "unit", "wide", "--theorem", "t52"], SPECTRUM_OVERFLOW),
        (["perturb", "up", "down", "--theorem", "analysis"], "radius overflows a float"),
        (["perturb", "thin", "huge", "--theorem", "lemma"],
         "lemma operator U = S_theta S_lam^-1 contains NaN or Inf entries"),
        (["perturb", "first", "second", "--theorem", "cR", "--samples", "0"], "radius_certificate overflows a float"),
    ],
)
def test_cli_exits_two_when_a_reported_number_overflows(tmp_path, capsys, argv, message):
    files = {name: _unit_weight_file(tmp_path, f"{name}.json", blocks) for name, blocks in OVERFLOW_FILES.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code, out = run_cli([files.get(a, a) for a in argv] + (["--seed", "1"] if argv[0] == "perturb" else []))
    assert code == 2 and out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteInput"
    if message == SAMPLED_OVERFLOW:
        assert err["message"].startswith(f"{message} (overflow encountered in ")
    else:
        assert err["message"] == message


@pytest.mark.parametrize("weight", [INF, math.nan])
def test_library_rejects_a_non_finite_weight(weight):
    with pytest.raises(ValueError, match="weight must be positive and finite"):
        gf.make_system(2, "real", [(weight, np.eye(2), np.ones((1, 2)))])
    space = gf.make_system(2, "real", [(1.0, np.eye(2), np.ones((1, 2)))]).subsystems[0].subspace
    with pytest.raises(ValueError, match="weight must be positive and finite"):
        gf.Subsystem(weight, space, np.ones((1, 2)))


# ---------------------------------------------------------------------------
# dumps_canonical against its oracle, the stdlib's indent=2 encoder.


def _stdlib(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, 1e16, 0.1]),
    st.floats().map(np.float64),
)
_BIG_INTS = st.integers(min_value=10**20, max_value=10**80)
_INTS = st.one_of(st.integers(), _BIG_INTS, _BIG_INTS.map(lambda i: -i))
_NUMBERS = st.one_of(_INTS, _FLOATS)
_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "é", "ü\n", "\x00\x1f\x7f", "\u2028", "\U0001f600", '"\\/']),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXT)
_NUMBER_LISTS = st.one_of(
    st.lists(_NUMBERS, max_size=6),
    st.lists(st.lists(st.lists(_NUMBERS, max_size=4), max_size=3), max_size=3),
)
_MIXED_LISTS = st.lists(st.one_of(_NUMBERS, st.booleans(), st.none(), _TEXT), max_size=6)
# Rows of [re, im] pairs, the shape of a complex matrix row, alone and stacked
# into matrices; exact ints and floats, as a system file's lists hold them.
_PLAIN = st.one_of(_INTS, st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 10**20 + 1]))
_PAIR_ROWS = st.lists(st.lists(_PLAIN, min_size=2, max_size=2), min_size=1, max_size=6)
_PAIR_LISTS = st.one_of(_PAIR_ROWS, st.lists(_PAIR_ROWS, max_size=3))
_TREES = st.recursive(
    st.one_of(_SCALARS, _NUMBER_LISTS, _MIXED_LISTS, _PAIR_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_dumps_canonical_matches_the_stdlib_encoder(tree):
    assert dumps_canonical(tree) == _stdlib(tree)


class _List(list):
    pass


class _Dict(dict):
    pass


@pytest.mark.parametrize(
    "tree",
    [
        {},
        [],
        (),
        [[], {}, ()],
        (1, 2.5),
        [(1, 2), (3.0,), ()],
        {"b": (1, [2, (3,)]), "a": ()},
        _List([1, 2.0]),
        [_List([1, None]), _Dict(b=1, a=[2.0])],
        collections.OrderedDict([("z", 1), ("a", [0.5])]),
        [np.float64(0.5), 1.0],
        {"x": np.float64(-0.0), "y": [np.float64(math.inf)]},
        [True, 1, 0.0],
        [[1, 2], [3, None]],
        "é",
        7,
        None,
        # Rows of exact-int/float pairs, also inside a tuple or a matrix.
        [[1, 2]],
        ([0.5, -0.0], [math.nan, math.inf]),
        {"m": [[[1.0, -0.0], [-math.inf, 10**30]], [[-(10**25), 0.1], [5e-324, 1e308]]]},
        # Not rows of pairs.
        [[1, 2], [3], [4, 5]],
        [[1, 2], [3, 4, 5]],
        [[], []],
        [[1, 2], []],
        [[1, 2], [True, 3]],
        [[np.float64(0.5), 1.0], [2, 3]],
        [(1, 2), (3, 4)],
        [[1, 2], (3, 4)],
        [_List([1, 2]), [3, 4]],
        [[1, 2], ["a", 3]],
    ],
    ids=repr,
)
def test_dumps_canonical_follows_the_stdlib_for_containers(tree):
    assert dumps_canonical(tree) == _stdlib(tree)


def test_dumps_canonical_encodes_a_complex_row_in_one_call(monkeypatch):
    system = gf.generate("frame", 8, 3, seed=3, field="complex")
    data = gfio._system_tree(system)
    calls = []
    encode = gfio._encode

    def counted(obj, indent, out):
        calls.append(obj)
        encode(obj, indent, out)

    monkeypatch.setattr(gfio, "_encode", counted)
    text = dumps_canonical(data)
    # One call per node above the numbers: the payload dict, its four values, and per subsystem
    # the dict, its weight and its two matrices.  No call for a row or an [re, im] pair.
    nodes = [data, *data.values(), *(x for sub in data["subsystems"] for x in (sub, *sub.values()))]
    assert len(calls) == 5 + 4 * len(system.subsystems)
    assert sorted(map(id, calls)) == sorted(map(id, nodes))
    assert text == _stdlib(gf.system_to_dict(system))


# ndarray leaves: written as json writes their per-entry lists (`_lists`).
_EDGE_FLOATS = [-0.0, 5e-324, 9.999999999999999e15, 1e16, 1e-5, 1e-4, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf]
_ARRAY_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_SHAPES = st.one_of(
    st.tuples(st.integers(0, 6)),
    st.tuples(st.integers(0, 4), st.integers(0, 5)),
    st.just((1, 1)),
    st.tuples(st.just(0), st.integers(1, 3)),
)


@st.composite
def _ndarrays(draw):
    dtype = draw(st.sampled_from(["float64", "float32", "int64", "complex64", "complex128"]))
    # An array of another rank is written from the nested lists of its float64 parts too (an integer one from its
    # .tolist()), through `_grid` like rank 1 and 2.
    cube = st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
    shape = draw(st.one_of(_SHAPES, cube))
    size = math.prod(shape)
    if dtype == "int64":
        return np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size)),
                        dtype=np.int64).reshape(shape)
    parts = st.lists(_ARRAY_FLOATS, min_size=size, max_size=size)
    a = np.empty(size, dtype=np.complex128 if dtype.startswith("complex") else np.float64)
    a.real = draw(parts)
    if dtype.startswith("complex"):
        a.imag = draw(parts)
    with np.errstate(over="ignore"):  # +-1.7e308 is +-inf in float32 and complex64
        return a.astype(dtype).reshape(shape)


_ARRAY_TREES = st.recursive(
    st.one_of(_ndarrays(), _SCALARS, _PAIR_ROWS),
    lambda children: st.one_of(st.lists(children, max_size=3), st.dictionaries(_TEXT, children, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(_ARRAY_TREES)
def test_dumps_canonical_writes_arrays_as_the_stdlib_writes_their_lists(tree):
    text = dumps_canonical(tree)
    assert text == _stdlib(_lists(tree))
    json.loads(text)  # NaN, Infinity and -Infinity parse; repr's nan and inf would not


def _reports():
    """One of each report object that a CLI payload carries, built on small generated systems."""
    frame = gf.generate("frame", 4, 3, seed=3)
    near = gf.perturbed_copy(frame, 4, radius=0.01)
    params = gf.PerturbParams(0.3, 0.3, 0.0)
    onbs = {field: gf.generate("onb", 4, 2, seed=5, field=field) for field in ("real", "complex")}
    return {
        "FrameBounds": gf.frame_bounds(frame),
        "SpectralBounds": gf.spectral_extremes(frame),
        "BasisVerdict": gf.is_gf_orthonormal(onbs["real"]),
        **{
            f"CrossOperatorReport-{field}": gf.cross_operator(onb, gf.generate_like(onb, "frame", 6))
            for field, onb in onbs.items()
        },
        "CorrespondenceReport": gf.verify_correspondence(frame, gf.induce_vectors(frame)),
        "PerturbParams": params,
        "PerturbationReport": gf.certify_frame_operator_perturbation(frame, near, params, samples=10, seed=1),
        "LemmaReport": gf.certify_invertibility_lemma(frame, near, params, samples=10, seed=1),
    }


REPORTS = _reports()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_dumps_canonical_writes_a_report_as_the_dict_of_its_fields(name):
    rep = REPORTS[name]
    assert dumps_canonical({"report": rep}) == _stdlib({"report": _lists(dataclasses.asdict(rep))})


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("blocks", [1, 3])
def test_save_system_writes_the_stdlib_bytes(tmp_path, field, n, blocks):
    sys_ = gf.generate("frame", n, blocks, seed=17, field=field)
    path = tmp_path / "sys.json"
    save_system(sys_, str(path))
    assert path.read_text(encoding="utf-8") == _stdlib(gf.system_to_dict(sys_))


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_dumps_canonical_rejects_non_string_keys(key):
    with pytest.raises(TypeError):
        dumps_canonical({"a": [{key: 1}]})


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.name)
def test_golden_files_re_encode_to_their_own_bytes(path):
    text = path.read_text(encoding="utf-8")
    assert dumps_canonical(json.loads(text)) == text


def test_dumps_canonical_of_generated_systems_matches_the_stdlib():
    for field in ("real", "complex"):
        data = gf.system_to_dict(gf.generate("frame", 8, 3, seed=3, field=field))
        assert dumps_canonical(data) == _stdlib(data)


# ---------------------------------------------------------------------------
# read_system: one read of the bytes serves the parse and the digest.


def test_read_system_returns_the_sha256_of_the_file(tmp_path):
    path = tmp_path / "sys.json"
    save_system(gf.generate("frame", 5, 2, seed=9), str(path))
    sys_, digest = read_system(str(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert gf.system_to_dict(sys_) == gf.system_to_dict(load_system(str(path)))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_read_system_checks_each_subspace_once(tmp_path, monkeypatch, field):
    # make_system keeps an orthonormal spanning set verbatim on the strength of the check that Subspace makes.
    path = tmp_path / "sys.json"
    save_system(gf.generate("frame", 6, 4, seed=3, field=field), str(path))
    calls = []

    def counted(b):
        calls.append(b.shape)
        return orthonormality_deviation(b)

    for module in (gf.linalg, gf.system):
        monkeypatch.setattr(module, "orthonormality_deviation", counted, raising=False)
    read_system(str(path))
    assert len(calls) == 4


def _text_mode_location(path: Path) -> str:
    """line:col of the parse error as a text-mode read of the file reports it."""
    with open(path, encoding="utf-8") as fh:
        try:
            json.loads(fh.read())
        except json.JSONDecodeError as exc:
            return f"{exc.lineno}:{exc.colno}"
    raise AssertionError("file parses")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_newline_forms_load_and_fail_alike(tmp_path, newline):
    lf, other = tmp_path / "lf.json", tmp_path / "other.json"
    text = json.dumps(REAL_FILE, indent=2)
    lf.write_bytes(text.encode())
    other.write_bytes(text.replace("\n", newline).encode())
    _assert_same_system(load_system(str(lf)), load_system(str(other)))

    broken = text.replace('"field": "real"', '"field" "real"')
    lf.write_bytes(broken.encode())
    other.write_bytes(broken.replace("\n", newline).encode())
    where = _text_mode_location(lf)
    assert where.startswith("3:")
    for path in (lf, other):
        assert _text_mode_location(path) == where
        with pytest.raises(SystemFileError, match="^" + re.escape(f"{path}:{where}: Expecting ':' delimiter") + "$"):
            load_system(str(path))


def test_non_utf8_byte_is_named_at_its_absolute_offset(tmp_path):
    path = tmp_path / "latin1.json"
    head = b" " * 10_000 + b'{"version": "'
    path.write_bytes(head + b'\xe9"}')
    message = f"latin1.json: not UTF-8 text (invalid continuation byte at byte {len(head)})"
    with pytest.raises(SystemFileError, match=re.escape(message)):
        load_system(str(path))


def test_missing_file_is_a_system_file_error(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(SystemFileError, match="^" + re.escape(f"{path}: [Errno 2]")):
        read_system(str(path))


def test_bom_prefixed_file_is_a_system_file_error(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(REAL_FILE).encode())
    with pytest.raises(SystemFileError, match=re.escape(f"{path}:1:1: Unexpected UTF-8 BOM")):
        read_system(str(path))


def test_every_report_stamps_the_sha256_of_its_input_files(tmp_path):
    def write(name, sys_, crlf=False):
        path = tmp_path / name
        text = json.dumps(gf.system_to_dict(sys_), indent=1)  # not the canonical bytes
        path.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
        return str(path)

    frame = gf.generate("frame", 5, 2, seed=4)
    onb_sys = gf.generate("onb", 4, 2, seed=2)
    onb = write("onb.json", onb_sys)
    riesz = write("riesz.json", gf.generate_like(onb_sys, "riesz", 3), crlf=True)
    ref = write("frame.json", frame)
    pert = write("pert.json", gf.perturbed_copy(frame, 5, radius=1e-3), crlf=True)
    pair = {"system": ref, "perturbed": pert}
    requests = [
        (["analyze", ref], {"system": ref}),
        (["dual", ref, "--seed", "1"], {"system": ref}),
        (["riesz", riesz], {"system": riesz}),
        (["onb", onb], {"system": onb}),
        (["induce", riesz], {"system": riesz}),
        (["cross", onb, riesz], {"theta": onb, "lambda": riesz}),
        (["perturb", ref, pert, "--theorem", "analysis", "--seed", "1"], pair),
        (["perturb", ref, pert, "--theorem", "lemma", "--seed", "1", "--samples", "50"], pair),
    ]
    for argv, files in requests:
        code, out = run_cli(argv)
        assert code in (0, 1), argv
        want = {
            label: {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
            for label, path in files.items()
        }
        assert json.loads(out)["inputs"] == want, argv
