import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from corrquant import conic
from corrquant import incompat as ic
from corrquant import nonlocality as nl
from corrquant import scenario as sc
from corrquant import serialize
from corrquant import steering as st
from corrquant.cli import main
from corrquant.decomposition import parse_kind


CHSH = sc.measure(sc.steer(sc.werner(1.0), sc.paulis("XZ")),
                  sc.bloch_measurements([np.array([1, 0, 1]) / np.sqrt(2),
                                         np.array([1, 0, -1]) / np.sqrt(2)]))


def test_quantify_incompat(tmp_path):
    path = tmp_path / "ms.json"
    serialize.save(path, sc.paulis("XZ"))
    runner = CliRunner()
    res = runner.invoke(main, ["quantify", "incompat", "-k", "random_robustness",
                               "-i", str(path)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert abs(payload["value"] - (np.sqrt(2) - 1)) < 1e-6


def test_quantify_steer_and_certificate(tmp_path):
    # one input per certificate branch: assemblage, behaviour, measurement set
    runner = CliRunner()
    for domain, kind, obj in [
            ("steer", "SR_c", sc.steer(sc.werner(0.95), sc.paulis("XZ"))),
            ("nonlocal", "NLR_mar", CHSH),
            ("incompat", "robustness", sc.paulis("XZ"))]:
        path = tmp_path / f"{domain}.json"
        serialize.save(path, obj)
        res = runner.invoke(main, ["quantify", domain, "-k", kind, "-i", str(path)])
        assert res.exit_code == 0, res.output
        value = json.loads(res.output)["value"]
        res2 = runner.invoke(main, ["certificate", "-i", str(path), "-k", kind])
        assert res2.exit_code == 0, res2.output
        cert = json.loads(res2.output)
        assert cert["domain"] == domain
        assert abs(cert["violation"] - value) < 1e-6, domain


def test_quantify_nonlocal(tmp_path):
    beh = sc.measure(sc.steer(sc.werner(1.0), sc.paulis("XZ")),
                     sc.bloch_measurements([np.array([1, 0, 1]) / np.sqrt(2),
                                            np.array([1, 0, -1]) / np.sqrt(2)]))
    path = tmp_path / "beh.json"
    serialize.save(path, beh)
    runner = CliRunner()
    res = runner.invoke(main, ["quantify", "nonlocal", "-k", "NLR_mar",
                               "-i", str(path)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert abs(payload["value"] - (np.sqrt(2) - 1)) < 1e-6
    assert payload["certified_lower_bound"] is False


def test_validation_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"type\": \"behaviour\", \"mA\": 1}")
    runner = CliRunner()
    res = runner.invoke(main, ["quantify", "nonlocal", "-k", "NLR", "-i",
                               str(path)])
    assert res.exit_code == 2
    # wrong object type also exits 2
    path2 = tmp_path / "ms.json"
    serialize.save(path2, sc.paulis("XZ"))
    res2 = runner.invoke(main, ["quantify", "steer", "-k", "SR", "-i", str(path2)])
    assert res2.exit_code == 2
    # a top-level JSON list is not an object
    path3 = tmp_path / "list.json"
    path3.write_text("[1, 2]")
    res3 = runner.invoke(main, ["quantify", "incompat", "-k", "IR", "-i", str(path3)])
    assert res3.exit_code == 2 and "error:" in res3.output


def test_non_finite_behaviour_exits_2(tmp_path):
    # json reads NaN, and a NaN entry fails every comparison of the checks
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 1, 0, 0] = np.nan
    path, out = tmp_path / "nan.json", tmp_path / "out.json"
    path.write_text(json.dumps({"mA": 2, "nA": 2, "mB": 2, "nB": 2, "table": table.tolist()}))
    res = CliRunner().invoke(main, ["quantify", "nonlocal", "-k", "NLR_mar", "-l", "1",
                                    "-i", str(path), "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stdout == "" and not out.exists()
    assert "error: table: table entry [0, 1, 0, 0] is nan" in res.stderr


@pytest.mark.parametrize("obj, args", [
    (sc.paulis("XZ"), ["quantify", "incompat", "-k", "bogus"]),
    (sc.paulis("XZ"), ["certificate", "-k", "bogus"]),
    (CHSH, ["quantify", "nonlocal", "-k", "NLR", "-l", "3"]),
    (CHSH, ["quantify", "nonlocal", "-k", "NLR_mar", "-l", "3"]),
    (CHSH, ["certificate", "-k", "NLR_c_lhv", "-l", "3"]),
])
def test_unknown_kind_or_level_exits_2(tmp_path, obj, args):
    path = tmp_path / "obj.json"
    serialize.save(path, obj)
    res = CliRunner().invoke(main, args + ["-i", str(path)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output


@pytest.mark.parametrize("kind", ["NLR_mar", "NLR_lhv", "NLR_c_lhv"])
def test_seesaw_refuses_an_unsupported_level(kind):
    # the linear-program kinds build no moment matrix, and are refused too
    res = CliRunner().invoke(main, ["seesaw", "-t", "0.5", "-k", kind,
                                    "-l", "7", "-r", "1"])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert "error: unsupported level 7 (only 1 and 2)" in res.stderr


# spellings the per-domain parsers accepted, with the kind each gave
IK, SK, NK = ic.IncompatKind, st.SteeringKind, nl.NonlocalityKind
ALIASES = {IK: ic._ALIASES, SK: {}, NK: {}}


@pytest.mark.parametrize("text, kind", [
    ("robustness", IK.robustness), ("IR", IK.robustness),
    ("Random-Robustness", IK.random_robustness), ("IR^r", IK.random_robustness),
    ("ir_r", IK.random_robustness), ("IRr", IK.random_robustness),
    ("jm_robustness", IK.jm_robustness), ("IR^jm", IK.jm_robustness),
    ("ir-jm", IK.jm_robustness), (" weight ", IK.weight), ("IW", IK.weight),
    ("SR", SK.SR), ("sr", SK.SR), ("SR^red", SK.SR_red), ("SRred", SK.SR_red),
    ("sr-lhs", SK.SR_lhs), ("SW", SK.SW), ("SR^c", SK.SR_c), ("src", SK.SR_c),
    ("SR^c/lhs", SK.SR_c_lhs), ("SRclhs", SK.SR_c_lhs),
    ("SR_c-lhs", SK.SR_c_lhs), ("SW^c", SK.SW_c), ("swc", SK.SW_c),
    ("NLR", NK.NLR), ("NLR^mar", NK.NLR_mar), ("nlrmar", NK.NLR_mar),
    ("NLR/lhv", NK.NLR_lhv), ("nlw", NK.NLW), ("NLR^c", NK.NLR_c),
    ("NLRc", NK.NLR_c), ("NLR^c/lhv", NK.NLR_c_lhv), ("nlrclhv", NK.NLR_c_lhv),
    ("NLW-c", NK.NLW_c), ("NLWc", NK.NLW_c),
])
def test_parse_kind_keeps_old_spellings(text, kind):
    enum = type(kind)
    assert parse_kind(enum, text, ALIASES[enum]) is kind
    assert parse_kind(enum, kind, ALIASES[enum]) is kind


def test_sweep_command(tmp_path):
    spec = {"state_family": "werner", "grid": {"start": 0.2, "stop": 0.5,
                                               "num": 2},
            "kinds": ["SR_red"], "scenario": "steering"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "sweep.csv"
    runner = CliRunner()
    res = runner.invoke(main, ["sweep", "-s", str(spec_path), "-o", str(out_path)])
    assert res.exit_code == 0, res.output
    assert out_path.read_text().startswith("parameter,kind,value")


def test_sweep_command_refuses_a_malformed_spec(tmp_path):
    spec_path = tmp_path / "list.json"
    spec_path.write_text("[1, 2]")
    out_path = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["sweep", "-s", str(spec_path), "-o", str(out_path)])
    assert res.exit_code == 2 and "error:" in res.output
    assert not out_path.exists()


@pytest.mark.parametrize("spec", [
    {"state_family": "pure_theta", "grid": {"start": 0.0, "stop": 0.5, "num": 2},
     "kinds": ["NLR_mar"], "scenario": "nonlocality", "level": 1},
    {"state_family": "werner", "grid": {"start": 0.5, "stop": 1.5, "num": 3},
     "kinds": ["SR_red"]},
    {"state_family": "werner", "grid": [0.2, 0.5], "kinds": ["SR_red"], "psi": "foo"}])
def test_sweep_command_refuses_parameters_outside_the_family(tmp_path, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["sweep", "-s", str(spec_path), "-o", str(out_path)])
    assert res.exit_code == 2, res.output
    assert res.stdout == "" and "error:" in res.stderr
    assert not out_path.exists()


@pytest.mark.parametrize("spec, field", [
    ({"alice": {"family": "nope"}}, "alice"),
    ({"alice": {"family": "lossy", "base": {"family": "paulis"},
                "etas": [0.5, 0.5, 2.0]}}, "alice"),
    ({"alice": {"family": "bloch", "vectors": [[1, 0, 1]]}}, "alice"),
    ({"kinds": ["SR_red", "NOPE"]}, "kinds"),
    ({"kinds": ["NLR_mar", "NLR_c"], "scenario": "nonlocality", "level": 3}, "level")])
def test_sweep_command_refuses_a_bad_field_before_solving(tmp_path, spec, field):
    spec = {"state_family": "werner", "grid": [0.2, 0.5], "kinds": ["SR_red"], **spec}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["sweep", "-s", str(spec_path), "-o", str(out_path)])
    assert res.exit_code == 2, res.output
    assert res.stdout == "" and res.stderr.startswith(f"error: {field}: ")
    assert not out_path.exists()


def test_reproduce_table1_refuses_a_malformed_history(tmp_path):
    (tmp_path / "table1_deviations.json").write_text("[1, 2]")
    res = CliRunner().invoke(main, ["reproduce", "table1", "-d", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.stdout == "" and "table1_deviations.json: not a table-1" in res.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["table1_deviations.json"]


def test_reproduce_table1_flags_a_deviation_that_grew_tenfold(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["reproduce", "table1", "-d", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "regression:" not in res.stderr
    # persist an SRc deviation 100x smaller than the one this run gives
    history = tmp_path / "table1_deviations.json"
    data = json.loads(history.read_text())
    data["wittmann"]["deviations"]["SRc"] /= 100
    history.write_text(json.dumps(data))
    res = runner.invoke(main, ["reproduce", "table1", "-d", str(tmp_path)])
    assert res.exit_code == 3, res.output
    alerts = [line for line in res.stderr.splitlines() if line.startswith("regression:")]
    assert len(alerts) == 1 and alerts[0].startswith("regression: wittmann.SRc: ")


def test_seesaw_command_deterministic(tmp_path):
    runner = CliRunner()
    args = ["seesaw", "-t", str(np.pi / 4), "-k", "NLR_mar", "-r", "1",
            "-S", "11", "-l", "1"]
    r1 = runner.invoke(main, args)
    r2 = runner.invoke(main, args)
    assert r1.exit_code == 0, r1.output
    assert json.loads(r1.output)["value"] == json.loads(r2.output)["value"]


@pytest.mark.parametrize("args, field", [(["-r", "0"], "restarts"), (["-S", "-1"], "seed")],
                         ids=["r0", "S-1"])
def test_seesaw_refuses_a_restart_count_below_1_and_a_negative_seed(args, field):
    res = CliRunner().invoke(main, ["seesaw", "-t", "0.5", "-k", "NLR_mar", *args])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert f"error: {field}: " in res.stderr


def test_seesaw_refuses_an_angle_outside_its_range():
    res = CliRunner().invoke(main, ["seesaw", "-t", "2.0", "-k", "NLR_c"])
    assert res.exit_code == 2, res.output
    assert "error: theta" in res.output


def test_project_ns_refuses_a_slice_without_counts(tmp_path):
    counts = np.full((2, 2, 2, 2), 10)
    counts[1, 0] = 0
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"counts": counts.tolist()}))
    res = CliRunner().invoke(main, ["project-ns", "-i", str(path)])
    assert res.exit_code == 2, res.output
    assert "error: counts[1][0]" in res.output


@pytest.mark.parametrize("value, message", [
    (2.7, "error: counts: non-integer entries"),
    (-0.5, "error: counts: negative entries")], ids=["fraction", "negative fraction"])
def test_project_ns_refuses_a_count_that_is_not_a_whole_number(tmp_path, value, message):
    counts = np.full((2, 2, 2, 2), 10.0)
    counts[0, 1, 1, 0] = value
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"counts": counts.tolist()}))
    out = tmp_path / "out.json"
    res = CliRunner().invoke(main, ["project-ns", "-i", str(path), "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stdout == "" and res.stderr.strip() == message
    assert not out.exists()


def test_project_ns_command(tmp_path):
    rng = np.random.default_rng(0)
    counts = rng.integers(100, 500, size=(2, 2, 2, 2))
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"counts": counts.tolist()}))
    runner = CliRunner()
    res = runner.invoke(main, ["project-ns", "-i", str(path)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["signalling"] is False
    assert payload["divergence"] >= 0


def test_reproduce_table2_refused(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["reproduce", "table2", "-d", str(tmp_path)])
    assert res.exit_code == 2
    assert "not reproducible" in res.output or "not reproducible" in (res.stderr or "")


def test_solver_failure_dump_goes_to_a_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "ms.json"
    serialize.save(path, sc.paulis("XZ"))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(conic, "MAXITER", 1)
    res = CliRunner().invoke(main, ["quantify", "incompat", "-k", "robustness",
                                    "-i", str(path)])
    assert res.exit_code == 3, res.output
    line = next(ln for ln in res.stderr.splitlines()
                if ln.startswith("program dump written to "))
    dump = Path(line.removeprefix("program dump written to "))
    try:
        assert dump.is_file()
        assert dump.read_text().startswith("# conic program")
    finally:
        dump.unlink(missing_ok=True)
    assert list(work.iterdir()) == []
