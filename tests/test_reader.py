"""The system-file reader against a reference: json.loads of the whole file, then the list path.

`read_system` parses one subsystem at a time and compacts its matrices as soon
as the subsystem is parsed.  The reference below is the reader it replaced,
kept verbatim: json.loads of the whole text (LF-translated for the error of a
CR file), then `matrix_from_data`'s list path.  On every input both must load
bit-identical systems with the same digest, or raise the same
SystemFileError.  The memory tests pin what the one-subsystem-at-a-time read
is for.
"""

import hashlib
import json
import math
import re
import tempfile
import tracemalloc
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

import gfusion as gf
import gfusion.io as gfio
from gfusion.errors import SystemFileError


def reference_matrix_from_data(data, field: str, where: str) -> np.ndarray:
    """`matrix_from_data` as it was before the reader compacted matrices while parsing."""
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SystemFileError(f"{where}: expected a non-empty list of rows")
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise SystemFileError(f"{where}[{i}]: ragged row (expected {width} entries, got {len(row)})")
    dtype = np.complex128 if field == "complex" else np.float64
    items = data
    leaf_types = set(map(type, chain.from_iterable(data)))
    pairs = field == "complex" and leaf_types == {list} and set(map(len, chain.from_iterable(data))) == {2}
    if pairs:
        items = list(chain.from_iterable(chain.from_iterable(data)))
        leaf_types = set(map(type, items))
    if leaf_types <= {int, float}:
        try:
            parts = np.array(items, dtype=np.float64)
        except OverflowError:
            parts = None
        if parts is not None and np.isfinite(parts).all():
            return parts.view(np.complex128).reshape(len(data), width) if pairs else parts.astype(dtype, copy=False)
    rows = [
        [gfio._entry_from_data(x, field, f"{where}[{i}][{k}]") for k, x in enumerate(row)]
        for i, row in enumerate(data)
    ]
    return np.array(rows, dtype=dtype)


def reference_read_system(path: str):
    """`read_system` as it was: the whole file through json.loads, then `system_from_dict` on the lists."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
            raise
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    with mock.patch.object(gfio, "matrix_from_data", reference_matrix_from_data):
        return gfio.system_from_dict(data), digest


def _bits(a: np.ndarray):
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(read, path: str):
    """What a reader makes of a file: the system bit for bit with the digest, or the error message."""
    try:
        sys_, digest = read(path)
    except SystemFileError as exc:
        return "error", str(exc)
    subs = [(sub.weight.hex(), _bits(sub.subspace.basis), _bits(sub.operator)) for sub in sys_.subsystems]
    return "ok", digest, sys_.field, sys_.dim, subs


def _assert_reads_alike(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sys.json")
        Path(path).write_bytes(data)
        got = _outcome(gfio.read_system, path)
        assert got == _outcome(reference_read_system, path)
        return got


# ---------------------------------------------------------------------------
# Files as text: a key-value list renders keys in its own order and may repeat
# one, and a Raw token is written verbatim (1e400, NaN, a 400-digit integer).


class Obj(list):
    """A JSON object as a list of (key, value) pairs, rendered in order, duplicates included."""


class Raw(str):
    """A JSON token written as is."""


def render(x) -> str:
    if isinstance(x, Raw):
        return str(x)
    if isinstance(x, Obj):
        return "{\n" + ",\n".join(f"{json.dumps(k)}: {render(v)}" for k, v in x) + "\n}"
    if isinstance(x, list):
        return "[" + ", ".join(map(render, x)) + "]"
    return json.dumps(x)


def as_obj(data: dict) -> Obj:
    """The file's data with every object a key-value list, in the canonical key order."""
    subs = [Obj(sorted(sub.items())) for sub in data["subsystems"]]
    return Obj(sorted({**data, "subsystems": subs}.items()))


def _replace_entry(doc: Obj, draw, value_for):
    """Replace one drawn entry of one drawn matrix with value_for(entry)."""
    subs = dict(doc)["subsystems"]
    sub = dict(subs[draw(st.integers(0, len(subs) - 1))])
    matrix = sub[draw(st.sampled_from(["subspace", "lambda"]))]
    row = matrix[draw(st.integers(0, len(matrix) - 1))]
    k = draw(st.integers(0, len(row) - 1))
    row[k] = value_for(row[k])


TOKENS = [Raw("1e400"), Raw("-1e400"), Raw("1" + "0" * 400), Raw("NaN"), Raw("Infinity"), Raw("-0"), Raw("true")]


def _mutate(kind: str, doc: Obj, field: str, draw) -> Obj | list:
    if kind == "shuffled":
        # subsystems first, then the header in a drawn order; each subsystem's keys shuffled too
        top = dict(doc)
        for sub in top["subsystems"]:
            sub[:] = draw(st.permutations(sub))
        rest = draw(st.permutations([kv for kv in doc if kv[0] != "subsystems"]))
        return Obj([("subsystems", top["subsystems"]), *rest])
    if kind == "duplicate keys":
        subs = dict(doc)["subsystems"]
        other = "real" if field == "complex" else "complex"
        early = draw(st.sampled_from([("subsystems", []), ("field", other), ("dim", 99), ("version", 2)]))
        late = draw(st.sampled_from([("comment", 1), ("dim", dict(doc)["dim"]), ("subsystems", subs), ("dim", 1)]))
        sub = subs[draw(st.integers(0, len(subs) - 1))]
        sub.insert(0, draw(st.sampled_from([("lambda", [[Raw("true")]]), ("subspace", "x"), ("weight", -1)])))
        return Obj([early, *doc, late])
    if kind == "top-level array":
        return draw(st.sampled_from([[doc], dict(doc)["subsystems"], []]))
    if kind == "ragged row":
        subs = dict(doc)["subsystems"]
        matrix = dict(subs[draw(st.integers(0, len(subs) - 1))])[draw(st.sampled_from(["subspace", "lambda"]))]
        row = matrix[draw(st.integers(0, len(matrix) - 1))]
        if draw(st.booleans()) or len(row) == 1:
            row.append(row[0])
        else:
            row.pop()
        return doc
    if kind == "entry token":
        token = draw(st.sampled_from(TOKENS))
        whole = field == "real" or draw(st.booleans())
        _replace_entry(doc, draw, lambda x: token if whole else [token, x[1]])
        return doc
    if kind == "pair or number":
        # a pair in a real file; a plain number among the pairs of a complex file (which loads)
        _replace_entry(doc, draw, lambda x: [x, 0.0] if field == "real" else x[0])
        return doc
    if kind == "unknown keys":
        extra = draw(st.sampled_from([("comment", "x"), ("notes", [[1.0, 2.0]]), ("more", [Obj([("lambda", [[1]])])])]))
        for sub in dict(doc)["subsystems"]:
            sub.append(("tag", [[[1, 2]]]))
        return Obj([*doc, extra])
    assert kind == "canonical"
    return doc


DOC_KINDS = [
    "canonical",
    "shuffled",
    "duplicate keys",
    "top-level array",
    "ragged row",
    "entry token",
    "pair or number",
    "unknown keys",
]


@st.composite
def documents(draw, kind: str, field: str):
    dim = draw(st.integers(1, 4))
    sys_ = gf.generate("frame", dim, draw(st.integers(1, dim)), seed=draw(st.integers(0, 50)), field=field)
    data = gf.system_to_dict(sys_)
    if kind == "canonical" and draw(st.booleans()):
        return gfio.dumps_canonical(data)  # the bytes save_system writes
    return render(_mutate(kind, as_obj(data), field, draw))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", DOC_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_reader_matches_the_reference(kind, field, data):
    text = data.draw(documents(kind, field))
    _assert_reads_alike(text.encode())


TEXT_KINDS = ["crlf", "cr", "bom", "trailing data", "truncated"]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", TEXT_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_reader_matches_the_reference_on_the_text(kind, field, data):
    text = data.draw(documents(data.draw(st.sampled_from(["canonical", "shuffled"])), field))
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "cr":
        text = text.replace("\n", "\r")
    elif kind == "bom":
        text = "\ufeff" + text
    elif kind == "trailing data":
        text += data.draw(st.sampled_from([" x", "\n{}", "]", "\r\n1", " \n\t\r", ",", "\n\n"]))
    else:
        text = text[: data.draw(st.integers(0, len(text) - 1))]
        if data.draw(st.booleans()):
            text = text.replace("\n", "\r\n")
    got = _assert_reads_alike(text.encode())
    if kind in ("crlf", "cr", "bom"):
        assert got[0] == ("error" if kind == "bom" else "ok")


def test_a_syntax_error_is_located_as_in_the_lf_form_of_the_file(tmp_path):
    text = gfio.dumps_canonical(gf.system_to_dict(gf.generate("frame", 3, 2, seed=1)))[:-40]
    where = []
    for name, eol in [("lf", "\n"), ("cr", "\r"), ("crlf", "\r\n")]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.replace("\n", eol).encode())
        _assert_reads_alike(path.read_bytes())
        with pytest.raises(SystemFileError) as exc:
            gfio.read_system(str(path))
        where.append(str(exc.value).removeprefix(str(path)))
    assert where[0] == where[1] == where[2] and not where[0].startswith(":1:"), where


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("token", TOKENS, ids=lambda t: t[:8])
def test_every_token_reads_as_the_reference_reads_it(token, field):
    doc = as_obj(gf.system_to_dict(gf.generate("frame", 3, 2, seed=1, field=field)))
    row = dict(dict(doc)["subsystems"][1])["lambda"][0]
    row[0] = token
    row[1] = token if field == "real" else [row[1][0], token]
    _assert_reads_alike(render(doc).encode())


def test_integer_minus_zero_loads_as_plus_zero(tmp_path):
    data = as_obj(gf.system_to_dict(gf.generate("frame", 3, 2, seed=1)))
    dict(dict(data)["subsystems"][0])["lambda"][0][0] = Raw("-0")
    dict(dict(data)["subsystems"][1])["lambda"][0][0] = Raw("-0.0")
    _assert_reads_alike(render(data).encode())
    path = tmp_path / "zero.json"
    path.write_text(render(data))
    sys_, _ = gfio.read_system(str(path))
    first, second = (sub.operator[0, 0] for sub in sys_.subsystems)
    assert first == 0.0 and not math.copysign(1.0, first) < 0
    assert second == 0.0 and math.copysign(1.0, second) < 0


# ---------------------------------------------------------------------------
# Memory: the read holds the text and one subsystem's lists at a time.


def test_read_peak_stays_near_the_text(tmp_path):
    # The bytes and the decoded text are both alive for a moment (2x the file); the whole file's
    # lists of floats and [re, im] pairs, as json.loads builds them, took the peak to 2.6x.
    path = tmp_path / "c32.json"
    gfio.save_system(gf.generate("frame", 32, 16, seed=5, field="complex"), str(path))
    size = path.stat().st_size
    gfio.read_system(str(path))  # warm caches, so that only the read is traced
    tracemalloc.start()
    try:
        gfio.read_system(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * size, peak / size


# ---------------------------------------------------------------------------
# An error message prints a bad value as the file wrote it: only a subsystem (an
# object with a "weight") has its matrices compacted while the file is parsed.

NESTED = {"subspace": [[1]], "lambda": [[1]]}
NESTED_REPR = "{'subspace': [[1]], 'lambda': [[1]]}"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("version", [NESTED], f"version: expected 1, got [{NESTED_REPR}]"),
        ("version", NESTED, f"version: expected 1, got {NESTED_REPR}"),
        ("field", [NESTED], f"field: expected 'real' or 'complex', got [{NESTED_REPR}]"),
        ("dim", NESTED, f"dim: expected a positive integer, got {NESTED_REPR}"),
        ("weight", NESTED, f"subsystems[0].weight: expected a positive number, got {NESTED_REPR}"),
        ("weight", [NESTED], f"subsystems[0].weight: expected a positive number, got [{NESTED_REPR}]"),
    ],
    ids=["version-list", "version", "field-list", "dim", "weight", "weight-list"],
)
def test_a_bad_value_prints_the_files_own_lists(key, value, message):
    sub = {"weight": 1.0, "subspace": [[1]], "lambda": [[1]]}
    data = {"version": 1, "field": "real", "dim": 1, "subsystems": [sub]}
    if key == "weight":
        sub["weight"] = value
    else:
        data[key] = value
    assert _assert_reads_alike(json.dumps(data).encode()) == ("error", message)


@pytest.mark.parametrize("matrix", [np.eye(2), (np.eye(2),)], ids=["ndarray", "tuple"])
def test_library_still_rejects_an_array_for_a_matrix(matrix):
    sub = {"weight": 1.0, "subspace": matrix, "lambda": [[1.0, 0.0]]}
    data = {"version": 1, "field": "real", "dim": 2, "subsystems": [sub]}
    with pytest.raises(SystemFileError, match=re.escape("subsystems[0].subspace: expected a non-empty list of rows")):
        gfio.system_from_dict(data)


# ---------------------------------------------------------------------------
# Nesting too deep for the parser is an input error that names the file.

DEEP = '{"version": 1, "field": "real", "dim": 1, "subsystems": ' + "[" * 100_000 + "]" * 100_000 + "}"


def test_deeply_nested_file_is_a_system_file_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    with pytest.raises(SystemFileError, match="^" + re.escape(f"{path}: ") + ".*recursion"):
        gfio.read_system(str(path))


def test_cli_exits_two_on_a_deeply_nested_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, out = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "SystemFileError" and error["message"].startswith(f"{path}: ")
