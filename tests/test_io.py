"""The system-file contract of gfusion.io: entry types, diagnostics, encoding."""

import copy
import json
import re

import numpy as np
import pytest

import gfusion as gf
from gfusion.errors import SystemFileError
from gfusion.io import (
    load_system,
    matrix_from_data,
    matrix_to_data,
    save_system,
    system_from_dict,
    to_jsonable,
)

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


@pytest.mark.parametrize("name", sorted(ARRAYS))
@pytest.mark.parametrize("field", ["real", "complex"])
def test_matrix_to_data_matches_per_entry_formula(name, field):
    # Compared as JSON text, which tells -0.0 from 0.0 and 1 from 1.0 (== does not).
    # With field "real", both drop a complex array's imaginary part.
    assert json.dumps(matrix_to_data(ARRAYS[name], field)) == json.dumps(_per_entry(ARRAYS[name], field))


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_to_jsonable_arrays_match_per_entry_formula(name):
    a = ARRAYS[name]
    field = "complex" if np.iscomplexobj(a) else "real"
    assert json.dumps(to_jsonable({"x": a})) == json.dumps({"x": _per_entry(a, field)})


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["frame", "riesz", "onb"])
def test_save_load_save_is_byte_identical(tmp_path, field, kind):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_system(gf.generate(kind, 6, 3, seed=23, field=field), str(first))
    save_system(load_system(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
