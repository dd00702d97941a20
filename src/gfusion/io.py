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
anything else is orthonormalized on load.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .errors import GFusionError, SystemFileError
from .system import FrameBounds, GFusionSystem, make_system

SYSTEM_FILE_VERSION = 1


def matrix_to_data(m: np.ndarray, field: str) -> list:
    """Nested lists of Python floats; complex entries become [re, im] pairs.

    The float64 cast makes int and float32 arrays print as floats.
    """
    m = np.asarray(m)
    parts = np.stack((m.real, m.imag), axis=-1) if field == "complex" else m.real
    return parts.astype(np.float64).tolist()


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


def matrix_from_data(data, field: str, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SystemFileError(f"{where}: expected a non-empty list of rows")
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise SystemFileError(f"{where}[{i}]: ragged row (expected {width} entries, got {len(row)})")
    dtype = np.complex128 if field == "complex" else np.float64
    # Whole-matrix fast paths: leaf types are checked by exact type (so bool,
    # a subclass of int, is left to the per-entry path) and one np.array call
    # converts every entry.  An (m, n, 2) float64 array of [re, im] pairs has
    # the memory layout of an (m, n) complex128 one, so the view is exact.
    leaf_types = set(map(type, chain.from_iterable(data)))
    pairs = (
        field == "complex"
        and leaf_types == {list}
        and set(map(len, chain.from_iterable(data))) == {2}
        and set(map(type, chain.from_iterable(chain.from_iterable(data)))) <= _PLAIN_NUMBERS
    )
    if leaf_types <= _PLAIN_NUMBERS or pairs:
        try:
            parts = np.array(data, dtype=np.float64)
        except OverflowError:
            parts = None  # an int too large for a float; the per-entry path names it
        # A non-finite entry (1e400 parses as inf) is also named per entry.
        if parts is not None and np.isfinite(parts).all():
            return parts.view(np.complex128)[..., 0] if pairs else parts.astype(dtype, copy=False)
    # Per entry: names the offending entry, and accepts complex matrices that
    # mix plain numbers and [re, im] pairs.
    rows = [
        [_entry_from_data(x, field, f"{where}[{i}][{k}]") for k, x in enumerate(row)] for i, row in enumerate(data)
    ]
    return np.array(rows, dtype=dtype)


def system_to_dict(sys: GFusionSystem) -> dict:
    return {
        "version": SYSTEM_FILE_VERSION,
        "field": sys.field,
        "dim": sys.dim,
        "subsystems": [
            {
                "weight": sub.weight,
                "subspace": matrix_to_data(sub.subspace.basis, sys.field),
                "lambda": matrix_to_data(sub.operator, sys.field),
            }
            for sub in sys.subsystems
        ],
    }


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
    except OSError as exc:
        raise SystemFileError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return system_from_dict(data), digest


def _read_json(path: str) -> tuple[Any, str]:
    """Parse a file's UTF-8 JSON text; return it with the sha256 hex digest of the file's bytes.

    One read of the bytes serves both.  CR is JSON whitespace, so the text
    parses as the newline-translated text of a text-mode read would; a syntax
    error is located in the translated text, as a text-mode read locates it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    del raw  # parse with only the text alive, as after a text-mode read
    try:
        return json.loads(text), digest
    except json.JSONDecodeError:
        json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
        raise


def load_system(path: str) -> GFusionSystem:
    return read_system(path)[0]


def save_system(sys: GFusionSystem, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(system_to_dict(sys)))


_encode_scalar = json.JSONEncoder(check_circular=False).encode


@functools.cache
def _number_list_encoder(indent: str):
    """Encodes a list of numbers as '[a,<newline+indent>b, ...]' with the C encoder; one per nesting depth."""
    return json.JSONEncoder(separators=(",\n" + indent, ": "), check_circular=False).encode


def _encode(obj, indent: str, out: list):
    """Append to `out` the json.dumps(indent=2, sort_keys=True) text of obj at nesting `indent`."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        if set(map(type, obj)) <= _PLAIN_NUMBERS:
            out.append("[\n" + inner + _number_list_encoder(inner)(obj)[1:-1] + "\n" + indent + "]")
            return
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
    else:
        out.append(_encode_scalar(obj))


def dumps_canonical(payload: dict) -> str:
    """Deterministic JSON: exactly json.dumps(payload, sort_keys=True, indent=2) plus a newline.

    Keys must be str (a TypeError otherwise).  Lists of plain numbers, the
    bulk of every payload, are encoded by the C encoder in one call each; the
    stdlib's indent=2 encoder is pure Python.
    """
    out: list = []
    _encode(payload, "", out)
    out.append("\n")
    return "".join(out)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert reports (dataclasses, arrays, numpy scalars) to JSON data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        if obj.ndim in (1, 2):
            return matrix_to_data(obj, "complex" if np.iscomplexobj(obj) else "real")
        return obj.tolist()
    if isinstance(obj, FrameBounds):
        return {"lower": obj.lower, "upper": obj.upper, "kind": obj.kind}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")
