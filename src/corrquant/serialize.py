"""JSON save/load for the domain objects.

Schemas (indexing order is part of the contract):

* measurement set: {"m", "n", "d", "effects": [x][a] matrix}
* assemblage:      {"m", "n", "dB", "members": [x][a] matrix}
* behaviour:       {"mA", "nA", "mB", "nB", "table": [x][y][a][b],
                    "signalling": bool}
* counts:          {"counts": [x][y][a][b] int}

Complex matrices serialize as nested arrays of [re, im] pairs.  Floats
round-trip exactly (json uses shortest-repr, 17 significant digits).
Malformed input raises ValidationError with the offending field path.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .scenario import Assemblage, Behaviour, MeasurementSet


def _matrix_to_json(mat: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _matrix_from_json(obj, path: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: not a numeric matrix ({exc})") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{path}: expected a square matrix of [re, im] pairs, "
            f"got shape {arr.shape}")
    mat = arr[..., 0] + 1j * arr[..., 1]
    asym = np.max(np.abs(mat - mat.conj().T))
    if asym > 1e-8:
        raise ValidationError(f"{path}: not Hermitian (asymmetry {asym:.2e})")
    return mat


def _fields(obj, what: str, keys) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(
            f"{what}: expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValidationError(f"{what}: missing field {key!r}")


def _size(obj: dict, key: str) -> int:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int) or val < 1:
        raise ValidationError(f"{key}: expected a positive integer, got {val!r}")
    return val


def _length(val) -> str:
    return str(len(val)) if isinstance(val, list) else type(val).__name__


def _matrices(obj: dict, key: str, sizes) -> np.ndarray:
    """The [x][a] matrices of field ``key``, checked against the m, n and
    d named by ``sizes``, as one (m, n, d, d) array."""
    m, n, d = (_size(obj, k) for k in sizes)
    rows = obj[key]
    if not isinstance(rows, list) or len(rows) != m:
        raise ValidationError(f"{key}: expected {m} inputs, got {_length(rows)}")
    mats = []
    for x, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(
                f"{key}[{x}]: expected {n} outcomes, got {_length(row)}")
        for a, entry in enumerate(row):
            mat = _matrix_from_json(entry, f"{key}[{x}][{a}]")
            if mat.shape != (d, d):
                raise ValidationError(
                    f"{key}[{x}][{a}]: expected {d}x{d}, got {mat.shape}")
            mats.append(mat)
    return np.array(mats, dtype=complex).reshape(m, n, d, d)


def measurements_to_dict(ms: MeasurementSet) -> dict:
    return {"m": ms.m, "n": ms.n, "d": ms.d,
            "effects": [[_matrix_to_json(ms.effects[x, a])
                         for a in range(ms.n)] for x in range(ms.m)]}


def measurements_from_dict(obj: dict) -> MeasurementSet:
    _fields(obj, "measurements", ("m", "n", "d", "effects"))
    eff = _matrices(obj, "effects", ("m", "n", "d"))
    try:
        return MeasurementSet(eff)
    except ValueError as exc:
        raise ValidationError(f"effects: {exc}") from exc


def assemblage_to_dict(asm: Assemblage) -> dict:
    return {"m": asm.m, "n": asm.n, "dB": asm.dB,
            "members": [[_matrix_to_json(asm.members[x, a])
                         for a in range(asm.n)] for x in range(asm.m)]}


def assemblage_from_dict(obj: dict) -> Assemblage:
    _fields(obj, "assemblage", ("m", "n", "dB", "members"))
    mem = _matrices(obj, "members", ("m", "n", "dB"))
    try:
        return Assemblage(mem)
    except ValueError as exc:
        raise ValidationError(f"members: {exc}") from exc


def behaviour_to_dict(b: Behaviour) -> dict:
    return {"mA": b.mA, "nA": b.nA, "mB": b.mB, "nB": b.nB,
            "table": b.table.tolist(), "signalling": b.signalling}


def behaviour_from_dict(obj: dict) -> Behaviour:
    _fields(obj, "behaviour", ("mA", "nA", "mB", "nB", "table"))
    try:
        tab = np.asarray(obj["table"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"table: not numeric ({exc})") from exc
    want = (obj["mA"], obj["mB"], obj["nA"], obj["nB"])
    if tab.shape != want:
        raise ValidationError(
            f"table: expected shape [x][y][a][b] = {want}, got {tab.shape}")
    try:
        return Behaviour(tab)
    except ValueError as exc:
        raise ValidationError(f"table: {exc}") from exc


def counts_from_dict(obj: dict) -> np.ndarray:
    _fields(obj, "counts", ("counts",))
    try:
        arr = np.asarray(obj["counts"], dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"counts: not integer ({exc})") from exc
    if arr.ndim != 4:
        raise ValidationError(f"counts: expected 4 axes, got {arr.ndim}")
    if np.any(arr < 0):
        raise ValidationError("counts: negative entries")
    empty = np.argwhere(arr.sum(axis=(2, 3)) == 0)
    if len(empty):
        x, y = empty[0]
        raise ValidationError(f"counts[{x}][{y}]: the slice has no counts")
    return arr


_TO_DICT = {MeasurementSet: measurements_to_dict,
            Assemblage: assemblage_to_dict,
            Behaviour: behaviour_to_dict}


def object_to_dict(obj) -> dict:
    for cls, fn in _TO_DICT.items():
        if isinstance(obj, cls):
            out = fn(obj)
            out["type"] = cls.__name__.lower()
            return out
    raise ValidationError(f"unsupported object type {type(obj).__name__}")


def object_from_dict(obj: dict):
    _fields(obj, "top level", ())
    kind = obj.get("type")
    if kind == "measurementset":
        return measurements_from_dict(obj)
    if kind == "assemblage":
        return assemblage_from_dict(obj)
    if kind == "behaviour":
        return behaviour_from_dict(obj)
    if "counts" in obj:
        return counts_from_dict(obj)
    # untyped: guess by fields
    if "effects" in obj:
        return measurements_from_dict(obj)
    if "members" in obj:
        return assemblage_from_dict(obj)
    if "table" in obj:
        return behaviour_from_dict(obj)
    raise ValidationError("unrecognized object (no type field or known fields)")


def save(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(object_to_dict(obj), fh, indent=1)


def load(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line "
                                  f"{exc.lineno}, column {exc.colno}") from exc
    return object_from_dict(data)
