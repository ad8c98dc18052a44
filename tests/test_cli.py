import json
import tempfile
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
from corrquant.errors import SolverFailure


CHSH = sc.measure(sc.steer(sc.werner(1.0), sc.paulis("XZ")),
                  sc.bloch_measurements([np.array([1, 0, 1]) / np.sqrt(2),
                                         np.array([1, 0, -1]) / np.sqrt(2)]))


def assert_refused(args, *unwritten):
    """The CLI refuses ``args`` with exit 2 before writing anything: its
    stdout is empty and no path of ``unwritten`` exists.  Returns the
    result."""
    res = CliRunner().invoke(main, [str(a) for a in args])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert not [p for p in unwritten if p.exists()]
    return res


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
    out = tmp_path / "out.json"
    path = tmp_path / "bad.json"
    path.write_text("{\"type\": \"behaviour\", \"mA\": 1}")
    assert_refused(["quantify", "nonlocal", "-k", "NLR", "-i", path, "-o", out], out)
    # wrong object type also exits 2
    path2 = tmp_path / "ms.json"
    serialize.save(path2, sc.paulis("XZ"))
    assert_refused(["quantify", "steer", "-k", "SR", "-i", path2, "-o", out], out)
    # a top-level JSON list is not an object
    path3 = tmp_path / "list.json"
    path3.write_text("[1, 2]")
    res = assert_refused(["quantify", "incompat", "-k", "IR", "-i", path3, "-o", out], out)
    assert "error:" in res.stderr


@pytest.mark.parametrize("args", [
    ["quantify", "incompat", "-k", "IR", "-i", "{dir}", "-o", "{out}"],
    ["certificate", "-k", "IR", "-i", "{dir}", "-o", "{out}"],
    ["project-ns", "-i", "{dir}", "-o", "{out}"],
    ["sweep", "-s", "{dir}", "-o", "{out}"],
    ["quantify", "incompat", "-k", "IR", "-i", "{ms}", "-o", "{dir}"],
    ["reproduce", "fig1", "-d", "{ms}"],
], ids=["quantify-in", "certificate-in", "project-ns-in", "sweep-spec", "quantify-out",
        "reproduce-outdir"])
def test_a_path_of_the_wrong_kind_exits_2_before_any_solve(tmp_path, args):
    # a directory where a file goes, or a file where a directory goes
    ms, folder, out = tmp_path / "ms.json", tmp_path / "dir", tmp_path / "out.json"
    serialize.save(ms, sc.paulis("XZ"))
    folder.mkdir()
    saved = ms.read_text()
    res = assert_refused([a.format(dir=folder, ms=ms, out=out) for a in args], out)
    assert "Error: Invalid value for" in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "ms.json"]
    assert list(folder.iterdir()) == [] and ms.read_text() == saved


@pytest.mark.parametrize("args", [
    ["quantify", "incompat", "-k", "IR", "-i", "{ms}"],
    ["certificate", "-k", "IR", "-i", "{ms}"],
    ["project-ns", "-i", "{ms}"],
    ["sweep", "-s", "{ms}"],
    ["seesaw", "-t", "0.5", "-k", "NLR_mar", "-r", "1"],
], ids=["quantify", "certificate", "project-ns", "sweep", "seesaw"])
@pytest.mark.parametrize("folder", ["missing", "ms.json"], ids=["missing", "a-file"])
def test_an_out_path_in_a_missing_directory_exits_2_before_any_solve(tmp_path, monkeypatch,
                                                                    args, folder):
    """An --out whose folder does not exist, or is a file, is refused."""
    def solve(*_, **__):
        raise AssertionError("solved")

    monkeypatch.setattr(conic, "_solve_hsd", solve)
    ms, out = tmp_path / "ms.json", tmp_path / folder / "out.json"
    serialize.save(ms, sc.paulis("XZ"))
    saved = ms.read_text()
    res = assert_refused([a.format(ms=ms) for a in args] + ["-o", out], out)
    assert f"{str(out.parent)!r} is not an existing directory." in res.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["ms.json"] and ms.read_text() == saved


def test_non_finite_behaviour_exits_2(tmp_path):
    # json reads NaN, and a NaN entry fails every comparison of the checks
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 1, 0, 0] = np.nan
    path, out = tmp_path / "nan.json", tmp_path / "out.json"
    path.write_text(json.dumps({"mA": 2, "nA": 2, "mB": 2, "nB": 2, "table": table.tolist()}))
    res = assert_refused(["quantify", "nonlocal", "-k", "NLR_mar", "-l", "1",
                          "-i", path, "-o", out], out)
    assert "error: table: table entry [0, 1, 0, 0] is nan" in res.stderr


@pytest.mark.parametrize("obj, args", [
    (sc.paulis("XZ"), ["quantify", "incompat", "-k", "bogus"]),
    (sc.paulis("XZ"), ["certificate", "-k", "bogus"]),
    (CHSH, ["quantify", "nonlocal", "-k", "NLR", "-l", "3"]),
    (CHSH, ["quantify", "nonlocal", "-k", "NLR_mar", "-l", "3"]),
    (CHSH, ["certificate", "-k", "NLR_c_lhv", "-l", "3"]),
])
def test_unknown_kind_or_level_exits_2(tmp_path, obj, args):
    path, out = tmp_path / "obj.json", tmp_path / "out.json"
    serialize.save(path, obj)
    res = assert_refused(args + ["-i", path, "-o", out], out)
    assert "error:" in res.stderr


@pytest.mark.parametrize("kind", ["NLR_mar", "NLR_lhv", "NLR_c_lhv"])
def test_seesaw_refuses_an_unsupported_level(tmp_path, kind):
    # the linear-program kinds build no moment matrix, and are refused too
    out = tmp_path / "out.json"
    res = assert_refused(["seesaw", "-t", "0.5", "-k", kind, "-l", "7", "-r", "1",
                          "-o", out], out)
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
    res = assert_refused(["sweep", "-s", spec_path, "-o", out_path], out_path)
    assert "error:" in res.stderr


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
    res = assert_refused(["sweep", "-s", spec_path, "-o", out_path], out_path)
    assert "error:" in res.stderr


@pytest.mark.parametrize("spec, field", [
    ({"alice": {"family": "nope"}}, "alice"),
    ({"alice": {"family": "lossy", "base": {"family": "paulis"},
                "etas": [0.5, 0.5, 2.0]}}, "alice"),
    ({"alice": {"family": "bloch", "vectors": [[1, 0, 1]]}}, "alice"),
    ({"kinds": ["SR_red", "NOPE"]}, "kinds"),
    ({"kinds": ["NLR_mar", "NLR_c"], "scenario": "nonlocality", "level": 3}, "level"),
    ({"grid": [0.2, float("nan"), 0.5]}, "grid")])
def test_sweep_command_refuses_a_bad_field_before_solving(tmp_path, spec, field):
    spec = {"state_family": "werner", "grid": [0.2, 0.5], "kinds": ["SR_red"], **spec}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "out.csv"
    res = assert_refused(["sweep", "-s", spec_path, "-o", out_path], out_path)
    # the field, then the message; never the repr of the exception behind it
    assert res.stderr.startswith(f"error: {field}: ") and "Error(" not in res.stderr
    if field == "grid":
        assert res.stderr == "error: grid: grid entry [1] is nan\n"


def test_reproduce_table1_refuses_a_malformed_history(tmp_path):
    (tmp_path / "table1_deviations.json").write_text("[1, 2]")
    res = assert_refused(["reproduce", "table1", "-d", tmp_path])
    assert "table1_deviations.json: not a table-1" in res.stderr
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
def test_seesaw_refuses_a_restart_count_below_1_and_a_negative_seed(tmp_path, args, field):
    out = tmp_path / "out.json"
    res = assert_refused(["seesaw", "-t", "0.5", "-k", "NLR_mar", *args, "-o", out], out)
    assert f"error: {field}: " in res.stderr


def test_seesaw_refuses_an_angle_outside_its_range(tmp_path):
    out = tmp_path / "out.json"
    res = assert_refused(["seesaw", "-t", "2.0", "-k", "NLR_c", "-o", out], out)
    assert "error: theta" in res.stderr


def test_project_ns_refuses_a_slice_without_counts(tmp_path):
    counts = np.full((2, 2, 2, 2), 10)
    counts[1, 0] = 0
    path, out = tmp_path / "counts.json", tmp_path / "out.json"
    path.write_text(json.dumps({"counts": counts.tolist()}))
    res = assert_refused(["project-ns", "-i", path, "-o", out], out)
    assert "error: counts[1][0]" in res.stderr


@pytest.mark.parametrize("value, message", [
    (2.7, "error: counts: non-integer entries"),
    (-0.5, "error: counts: negative entries")], ids=["fraction", "negative fraction"])
def test_project_ns_refuses_a_count_that_is_not_a_whole_number(tmp_path, value, message):
    counts = np.full((2, 2, 2, 2), 10.0)
    counts[0, 1, 1, 0] = value
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"counts": counts.tolist()}))
    out = tmp_path / "out.json"
    res = assert_refused(["project-ns", "-i", path, "-o", out], out)
    assert res.stderr.strip() == message


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
    outdir = tmp_path / "t2"
    res = assert_refused(["reproduce", "table2", "-d", outdir], outdir)
    assert "not reproducible" in res.stderr


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


@pytest.mark.parametrize("fails", ["mkstemp", "write_dump"])
def test_solver_failure_says_when_its_dump_was_not_written(tmp_path, monkeypatch, fails):
    path = tmp_path / "ms.json"
    serialize.save(path, sc.paulis("XZ"))
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(conic, "MAXITER", 1)

    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    target = tempfile if fails == "mkstemp" else SolverFailure
    monkeypatch.setattr(target, fails, refuse)
    res = CliRunner().invoke(main, ["quantify", "incompat", "-k", "robustness",
                                    "-i", str(path)])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1] == \
        "program dump not written: [Errno 28] No space left on device"
    assert list(temp.iterdir()) == []
