"""System files and report serialization.

A system file is human-writable JSON with an explicit version field:

    {
      "version": 1,
      "field": "real" | "complex",
      "dim": n,
      "subsystems": [
        {"weight": v, "subspace": <n x k matrix>, "lambda": <m x n matrix>},
        ...
      ]
    }

Matrices are row-major nested lists of plain numbers (ints are accepted,
booleans are not); complex entries are [re, im] pairs or plain numbers.
Subspace matrices hold spanning columns; columns that are already
orthonormal are kept verbatim (so canonical files round-trip exactly),
anything else is orthonormalized on load.  A read holds the file's text and
one subsystem's lists at a time, never the whole file's (`_read_json`).
A write (`save_system`, and every CLI payload through `dumps_canonical`,
its report objects and arrays as they are) goes straight from each array's
numbers (a matrix's float64 parts, an integer array's ints) to its text,
holding one array's number texts at a time and never the file's nested
lists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .errors import GFusionError, SystemFileError
from .system import GFusionSystem, make_system

SYSTEM_FILE_VERSION = 1


def _parts(m: np.ndarray, field: str) -> np.ndarray:
    """The float64 parts of m: m itself if real, rows x cols x [re, im] (the interleaved view) if complex."""
    m = np.asarray(m)
    if field == "complex":
        return np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).reshape(m.shape + (2,))
    return m.real.astype(np.float64)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _float(x, where: str) -> float:
    try:
        out = float(x)
    except OverflowError:
        raise SystemFileError(f"{where}: integer too large for a float") from None
    if not math.isfinite(out):  # e.g. 1e400, which JSON parses as inf
        raise SystemFileError(f"{where}: expected a finite number, got {out!r}")
    return out


def _entry_from_data(x, field: str, where: str) -> complex | float:
    if field == "complex":
        if _is_number(x):
            return complex(_float(x, where), 0.0)
        if isinstance(x, list) and len(x) == 2 and all(_is_number(p) for p in x):
            return complex(_float(x[0], where), _float(x[1], where))
        raise SystemFileError(f"{where}: complex entries must be numbers or [re, im] pairs")
    if _is_number(x):
        return _float(x, where)
    raise SystemFileError(f"{where}: real entries must be plain numbers")


_PLAIN_NUMBERS = {int, float}


def _compact(rows) -> np.ndarray | None:
    """The float64 parts (rows x width, x 2 for [re, im] pairs) of a non-empty list of equal-length rows, or None.

    One np.array call takes entries that are all plain numbers or all pairs of them (by exact type: not bool).
    The per-entry path names any other entry, an int too large for a float and a non-finite number (1e400).
    """
    if type(rows) is not list or set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
        return None
    items, shape = rows, (len(rows), len(rows[0]))
    leaf_types = set(map(type, chain.from_iterable(rows)))
    if leaf_types == {list} and set(map(len, chain.from_iterable(rows))) == {2}:
        items, shape = list(chain.from_iterable(chain.from_iterable(rows))), shape + (2,)
        leaf_types = set(map(type, items))
    if not leaf_types <= _PLAIN_NUMBERS:
        return None
    try:
        parts = np.array(items, dtype=np.float64).reshape(shape)
    except OverflowError:
        return None
    return parts if np.isfinite(parts).all() else None


class _Parts(tuple):
    """(parts,): a matrix that `_read_json` compacted while parsing, so no caller of the library can pass one."""


def matrix_from_data(data, field: str, where: str) -> np.ndarray:
    dtype = np.complex128 if field == "complex" else np.float64
    parts = data[0] if type(data) is _Parts else _compact(data)
    if parts is not None and parts.ndim == 3 and field == "real":
        raise SystemFileError(f"{where}[0][0]: real entries must be plain numbers")
    if parts is not None:
        return parts.view(np.complex128)[..., 0] if parts.ndim == 3 else parts.astype(dtype, copy=False)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SystemFileError(f"{where}: expected a non-empty list of rows")
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise SystemFileError(f"{where}[{i}]: ragged row (expected {width} entries, got {len(row)})")
    # Per entry: names the offending entry, and accepts complex rows that mix plain numbers and [re, im] pairs.
    rows = [
        [_entry_from_data(x, field, f"{where}[{i}][{k}]") for k, x in enumerate(row)] for i, row in enumerate(data)
    ]
    return np.array(rows, dtype=dtype)


def _system_tree(sys: GFusionSystem) -> dict:
    """The system file's data with the matrices left as arrays, for `dumps_canonical` to write."""
    return {
        "version": SYSTEM_FILE_VERSION,
        "field": sys.field,
        "dim": sys.dim,
        "subsystems": [
            {"weight": sub.weight, "subspace": sub.subspace.basis, "lambda": sub.operator} for sub in sys.subsystems
        ],
    }


def system_to_dict(sys: GFusionSystem) -> dict:
    """The system file's data as plain lists (a matrix's dtype is its system's field)."""
    data = _system_tree(sys)
    for sub in data["subsystems"]:
        for key in ("subspace", "lambda"):
            sub[key] = _parts(sub[key], sys.field).tolist()
    return data


def system_from_dict(data: dict) -> GFusionSystem:
    if not isinstance(data, dict):
        raise SystemFileError("top level: expected an object")
    version = data.get("version")
    if isinstance(version, bool) or version != SYSTEM_FILE_VERSION:
        raise SystemFileError(f"version: expected {SYSTEM_FILE_VERSION}, got {version!r}")
    field = data.get("field")
    if field not in ("real", "complex"):
        raise SystemFileError(f"field: expected 'real' or 'complex', got {field!r}")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SystemFileError(f"dim: expected a positive integer, got {dim!r}")
    raw_subs = data.get("subsystems")
    if not isinstance(raw_subs, list) or not raw_subs:
        raise SystemFileError("subsystems: expected a non-empty list")
    components = []
    for i, raw in enumerate(raw_subs):
        where = f"subsystems[{i}]"
        if not isinstance(raw, dict):
            raise SystemFileError(f"{where}: expected an object")
        weight = raw.get("weight")
        if not _is_number(weight) or not weight > 0:
            raise SystemFileError(f"{where}.weight: expected a positive number, got {weight!r}")
        weight = _float(weight, f"{where}.weight")
        span = matrix_from_data(raw.get("subspace"), field, f"{where}.subspace")
        if span.shape[0] != dim:
            raise SystemFileError(f"{where}.subspace: expected {dim} rows, got {span.shape[0]}")
        lam = matrix_from_data(raw.get("lambda"), field, f"{where}.lambda")
        if lam.shape[1] != dim:
            raise SystemFileError(f"{where}.lambda: expected {dim} columns, got {lam.shape[1]}")
        components.append((weight, span, lam))
    try:
        return make_system(dim, field, components)
    except GFusionError as exc:
        raise SystemFileError(f"system validation failed: {exc}") from exc


def read_system(path: str) -> tuple[GFusionSystem, str]:
    """Load a system file; also return the sha256 hex digest of the bytes that were parsed."""
    try:
        data, digest = _read_json(path)
    except (OSError, RecursionError) as exc:  # RecursionError: nesting too deep for the parser
        raise SystemFileError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return system_from_dict(data), digest


def _compact_subsystem(obj: dict) -> dict:
    """json.loads's object_hook: a subsystem's (an object with a weight) matrices are compacted once it is parsed.

    Any other object keeps its lists, so an error message prints a bad value as the file wrote it.
    """
    for key in ("subspace", "lambda") if "weight" in obj else ():
        parts = _compact(obj.get(key))
        if parts is not None:
            obj[key] = _Parts((parts,))
    return obj


def _read_json(path: str) -> tuple[Any, str]:
    """Parse a file's UTF-8 JSON text as json.loads does; return it with the sha256 hex digest of the bytes.

    One read of the bytes serves both.  The read holds the text and one
    subsystem's lists at a time (`_compact_subsystem`).  A text with a CR is
    newline-translated first (CR is JSON whitespace), so an error is located
    as a text-mode read locates it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    del raw  # parse with only the text alive, as after a text-mode read
    if "\r" in text:  # a memchr scan, ~30x faster than the CRLF search of replace() (Python 3.11)
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text, object_hook=_compact_subsystem), digest


def load_system(path: str) -> GFusionSystem:
    return read_system(path)[0]


def save_system(sys: GFusionSystem, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(_system_tree(sys)))


_encode_scalar = json.JSONEncoder(check_circular=False).encode
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number_texts(numbers: list, finite: bool):
    """How json writes each plain number: its repr, but NaN, Infinity and -Infinity for non-finite floats.

    Lazy, so that `_grid` holds one innermost list's texts at a time.
    """
    texts = map(repr, numbers)
    return texts if finite else (_NON_FINITE.get(t, t) for t in texts)


def _grid(texts, shape: tuple, indent: str) -> str:
    """The indent=2 text at nesting `indent` of the nest of lists of `shape` whose leaves, in order, read `texts`.

    Leaves are joined into the innermost lists, those into the next level,
    and so on: one str.join per list.  The separator between two items of
    axis d closes the levels below d and opens them again.
    """
    depth = len(shape)
    ind = [indent + "  " * d for d in range(depth + 1)]

    def close(d):
        return "".join("\n" + ind[j] + "]" for j in range(depth - 1, d, -1))

    def opening(d):
        return "".join("\n" + ind[j] + "[" for j in range(d + 1, depth)) + "\n" + ind[depth]

    items = texts
    for d in range(depth - 1, 0, -1):
        items = map((close(d) + "," + opening(d)).join, zip(*[iter(items)] * shape[d]))
    return "[" + opening(0) + (close(0) + "," + opening(0)).join(items) + close(0) + "\n" + indent + "]"


def _encode(obj, indent: str, out: list):
    """Append to `out` the json.dumps(indent=2, sort_keys=True) text of obj at nesting `indent`.

    An integer ndarray is written as json writes its .tolist() (ints), any
    other ndarray as json writes the nested lists of its float64 parts
    (`_parts`), and a dataclass instance as json writes the dict of its
    fields.  A non-empty array of rank >= 1 goes through `_grid`; a list or
    tuple is written item by item.
    """
    if isinstance(obj, np.ndarray):
        parts = obj if obj.dtype.kind in "iu" else _parts(obj, "complex" if np.iscomplexobj(obj) else "real")
        if not obj.ndim or not obj.size:
            _encode(parts.tolist(), indent, out)
            return
        out.append(_grid(_number_texts(parts.ravel().tolist(), np.isfinite(parts).all()), parts.shape, indent))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        out.append("[\n" + inner)
        for i, item in enumerate(obj):
            if i:
                out.append(",\n" + inner)
            _encode(item, inner, out)
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{\n" + inner)
        for i, (key, value) in enumerate(sorted(obj.items())):
            if i:
                out.append(",\n" + inner)
            out.append(json.encoder.encode_basestring_ascii(key) + ": ")
            _encode(value, inner, out)
        out.append("\n" + indent + "}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _encode({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, indent, out)
    else:
        out.append(_encode_scalar(obj))


def dumps_canonical(payload: dict) -> str:
    """Deterministic JSON: exactly json.dumps(payload, sort_keys=True, indent=2) plus a newline.

    The payload may hold report objects as they are.  An integer ndarray
    (`induce`'s [j, k] labels) is written as json writes its .tolist(), any
    other ndarray as json writes the nested lists of its float64 parts (a
    complex entry as an [re, im] pair), and a dataclass instance as json
    writes the dict of its fields.  Keys must be str (a TypeError otherwise).
    The stdlib's indent=2 encoder is pure Python; here every non-empty
    ndarray of rank >= 1 is written by `_grid`: one repr per number and one
    str.join per list.  Lists and tuples get no special handling.
    """
    out: list = []
    _encode(payload, "", out)
    out.append("\n")
    return "".join(out)

