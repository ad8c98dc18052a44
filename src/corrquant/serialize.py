"""JSON save/load for the domain objects.

Schemas (indexing order is part of the contract):

* measurement set: {"m", "n", "d", "effects": [x][a] matrix}
* assemblage:      {"m", "n", "dB", "members": [x][a] matrix}
* behaviour:       {"mA", "nA", "mB", "nB", "table": [x][y][a][b],
                    "signalling": bool}
* counts:          {"counts": [x][y][a][b] int}

Complex matrices serialize as nested arrays of [re, im] pairs.  Floats
round-trip exactly (json uses shortest-repr, 17 significant digits).
This module only parses: the JSON's shape, and ``operators.hermitize``
on each matrix to name a non-Hermitian one by its path.  The objects'
constructors and ``nonlocality.behaviour_from_counts`` check the rest,
and malformed input raises ValidationError with the offending field path.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import NotHermitian, ValidationError
from .operators import hermitize
from .scenario import Assemblage, Behaviour, MeasurementSet

# per operator-grid class: the object's name, its size fields, its grid field
_GRIDS = {MeasurementSet: ("measurements", ("m", "n", "d"), "effects"),
          Assemblage: ("assemblage", ("m", "n", "dB"), "members")}


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
    try:
        hermitize(mat)
    except NotHermitian as exc:
        raise ValidationError(f"{path}: not Hermitian ({exc})") from exc
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


def grid_to_dict(obj) -> dict:
    """The JSON object of a measurement set or an assemblage."""
    _, sizes, key = _GRIDS[type(obj)]
    out = {size: getattr(obj, size) for size in sizes}
    out[key] = [[_matrix_to_json(mat) for mat in row] for row in getattr(obj, key)]
    return out


def grid_from_dict(cls, obj: dict):
    """The ``cls`` (MeasurementSet or Assemblage) a JSON object describes:
    its [x][a] matrices checked against its m, n and d, then handed to
    ``cls``, whose refusal names the grid field."""
    what, sizes, key = _GRIDS[cls]
    _fields(obj, what, (*sizes, key))
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
    try:
        return cls(np.array(mats, dtype=complex).reshape(m, n, d, d))
    except ValueError as exc:
        raise ValidationError(f"{key}: {exc}") from exc


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
    """The array of a counts object as parsed, so a fraction stays one;
    only its entries' being numbers is checked here.  The one check of a
    count table, its axes and whole-number entries too, is
    ``nonlocality.behaviour_from_counts``."""
    _fields(obj, "counts", ("counts",))
    try:
        arr = np.asarray(obj["counts"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"counts: not numeric ({exc})") from exc
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"counts: not numeric ({arr.dtype} entries)")
    return arr


def object_to_dict(obj) -> dict:
    if not isinstance(obj, (MeasurementSet, Assemblage, Behaviour)):
        raise ValidationError(f"unsupported object type {type(obj).__name__}")
    out = behaviour_to_dict(obj) if isinstance(obj, Behaviour) else grid_to_dict(obj)
    out["type"] = type(obj).__name__.lower()
    return out


# each type's reader, after the field that marks an untyped object of it
_READERS = {"measurementset": ("effects", lambda obj: grid_from_dict(MeasurementSet, obj)),
            "assemblage": ("members", lambda obj: grid_from_dict(Assemblage, obj)),
            "behaviour": ("table", behaviour_from_dict)}


def object_from_dict(obj: dict):
    _fields(obj, "top level", ())
    kind = obj.get("type")
    if isinstance(kind, str) and kind in _READERS:
        return _READERS[kind][1](obj)
    if "counts" in obj:
        return counts_from_dict(obj)
    for key, read in _READERS.values():       # untyped: guess by fields
        if key in obj:
            return read(obj)
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
