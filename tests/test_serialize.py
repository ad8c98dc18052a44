import json
from pathlib import Path

import numpy as np
import pytest

from corrquant import scenario as sc
from corrquant import serialize
from corrquant.errors import ValidationError


def io_roundtrip(path, obj):
    """save + load; the result reproduces ``obj`` bit-for-bit in every float."""
    serialize.save(path, obj)
    return serialize.load(path)


def test_measurement_roundtrip(tmp_path):
    ms = sc.lossy(sc.paulis("XY"), (0.3817263546172635, 0.9123456789012345))
    back = io_roundtrip(tmp_path / "ms.json", ms)
    assert np.array_equal(back.effects, ms.effects)


def test_assemblage_roundtrip(tmp_path):
    asm = sc.steer(sc.werner(0.87654321), sc.paulis("XZ"))
    back = io_roundtrip(tmp_path / "asm.json", asm)
    assert np.array_equal(back.members, asm.members)


def test_behaviour_roundtrip_with_signalling_flag(tmp_path):
    tab = np.full((2, 2, 2, 2), 0.25)
    tab[0, 0] = [[0.6, 0.2], [0.1, 0.1]]
    beh = sc.Behaviour(tab)
    assert beh.signalling
    path = tmp_path / "beh.json"
    serialize.save(path, beh)
    data = json.loads(path.read_text())
    assert data["signalling"] is True
    back = serialize.load(path)
    assert back.signalling
    assert np.array_equal(back.table, beh.table)


def test_counts_loading(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(
        {"counts": np.arange(1, 17).reshape(2, 2, 2, 2).tolist()}))
    arr = serialize.load(path)
    assert arr.shape == (2, 2, 2, 2)
    assert arr.dtype == np.int64
    # parsed as written: a fraction is not cut to an integer (the count
    # check refuses it), and a non-number is refused here
    counts = np.arange(1, 17).reshape(2, 2, 2, 2).tolist()
    counts[0][1][1][0] = 2.7
    path.write_text(json.dumps({"counts": counts}))
    assert serialize.load(path)[0, 1, 1, 0] == 2.7
    counts[0][1][1][0] = "2"
    path.write_text(json.dumps({"counts": counts}))
    with pytest.raises(ValidationError, match=r"^counts: not numeric \(<U"):
        serialize.load(path)


def test_non_hermitian_rejected_with_path(tmp_path):
    ms = sc.paulis("XZ")
    obj = serialize.grid_to_dict(ms)
    obj["effects"][1][0][0][1] = [0.5, 0.4]    # break hermiticity hard
    obj["type"] = "measurementset"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError) as err:
        serialize.load(path)
    assert "effects[1][0]" in str(err.value)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"type": "behaviour", "mA": 2}))
    with pytest.raises(ValidationError):
        serialize.load(path)


def test_malformed_json_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"m\": 2,\n  oops\n}")
    with pytest.raises(ValidationError) as err:
        serialize.load(path)
    assert "line" in str(err.value)


def _pauli_dict(kind):
    if kind == "assemblage":
        return serialize.object_to_dict(sc.steer(sc.werner(0.5), sc.paulis("XZ")))
    return serialize.object_to_dict(sc.paulis("XZ"))


@pytest.mark.parametrize("kind, field, value, name", [
    ("measurementset", "m", -1, "m"),
    ("measurementset", "n", 2.0, "n"),
    ("measurementset", "d", 0, "d"),
    ("measurementset", "m", True, "m"),
    ("assemblage", "dB", -2, "dB"),
    ("assemblage", "n", 1.5, "n"),
    ("measurementset", "effects", 3, "effects"),
    ("measurementset", "effects", [3, 4], "effects[0]"),
    ("assemblage", "members", 3, "members"),
    ("assemblage", "members", "XZ", "members"),
    ("assemblage", "dB", 3, "members[0][0]"),     # 2x2 members
])
def test_malformed_field_names_it(tmp_path, kind, field, value, name):
    obj = _pauli_dict(kind)
    obj[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError) as err:
        serialize.load(path)
    assert str(err.value).startswith(f"{name}:")


@pytest.mark.parametrize("top", [[1, 2], "abc", 3, None])
def test_top_level_must_be_an_object(tmp_path, top):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(top))
    with pytest.raises(ValidationError) as err:
        serialize.load(path)
    assert "expected a JSON object" in str(err.value)


DATA = Path(__file__).parent / "data"


def _saved_objects():
    tab = np.full((2, 2, 2, 2), 0.25)
    tab[0, 0] = [[0.6, 0.2], [0.1, 0.1]]
    return {
        "measurements": sc.lossy(sc.paulis("XY"),
                                 (0.3817263546172635, 0.9123456789012345)),
        "assemblage": sc.steer(sc.werner(0.87654321), sc.paulis("XZ")),
        "behaviour": sc.Behaviour(tab),
    }


@pytest.mark.parametrize("name", ["measurements", "assemblage", "behaviour"])
def test_save_writes_the_committed_bytes(tmp_path, name):
    # tests/data/saved_<name>.json holds the bytes an earlier writer gave
    # for these objects; writing them, or reading and rewriting the file,
    # gives the same bytes
    want = (DATA / f"saved_{name}.json").read_bytes()
    serialize.save(tmp_path / "now.json", _saved_objects()[name])
    assert (tmp_path / "now.json").read_bytes() == want
    serialize.save(tmp_path / "again.json", serialize.load(DATA / f"saved_{name}.json"))
    assert (tmp_path / "again.json").read_bytes() == want


@pytest.mark.parametrize("name, field", [("measurements", "effects"),
                                         ("assemblage", "members"),
                                         ("behaviour", "table")])
def test_untyped_objects_are_read_by_their_fields(tmp_path, name, field):
    # the README's schemas carry no "type": the grid or table field names
    # the object (an untyped counts object: test_counts_loading)
    want = _saved_objects()[name]
    obj = serialize.object_to_dict(want)
    del obj["type"]
    path = tmp_path / "untyped.json"
    path.write_text(json.dumps(obj))
    back = serialize.load(path)
    assert type(back) is type(want)
    assert np.array_equal(getattr(back, field), getattr(want, field))


def test_an_object_of_no_known_schema_is_refused(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({"type": "state", "rho": [[1, 0], [0, 0]]}))
    with pytest.raises(ValidationError) as err:
        serialize.load(path)
    assert str(err.value) == "unrecognized object (no type field or known fields)"
