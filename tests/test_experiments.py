import csv
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from corrquant import experiments as ex
from corrquant import incompat as ic
from corrquant import nonlocality as nl
from corrquant import scenario as sc
from corrquant.errors import ValidationError


def test_sweep_spec_validation():
    spec = ex.SweepSpec.from_dict(
        {"state_family": "werner", "grid": {"start": 0, "stop": 1, "num": 3},
         "kinds": ["SR_red"]})
    assert spec.grid.size == 3
    # malformed spec files name the field they break
    base = {"state_family": "werner", "grid": [0.2, 0.5], "kinds": ["SR_red"]}
    for obj, field in [
            ([1, 2], "sweep spec"),
            ({**base, "grid": "abc"}, "grid"),
            ({**base, "level": "x"}, "level"),
            ({**base, "grid": {"start": 0, "stop": 1, "num": "q"}}, "grid"),
            ({**base, "kinds": 5}, "kinds"),
            ({**base, "kinds": "SR_red"}, "kinds"),
            ({k: v for k, v in base.items() if k != "state_family"}, "state_family")]:
        with pytest.raises(ValidationError, match=field):
            ex.SweepSpec.from_dict(obj)


@pytest.mark.parametrize("obj, field", [
    ({"state_family": "pure_theta", "grid": {"start": 0.0, "stop": 0.5, "num": 2}}, "grid"),
    ({"state_family": "pure_theta", "grid": [0.5, 0.8]}, "grid"),
    ({"state_family": "werner", "grid": {"start": 0.5, "stop": 1.5, "num": 3}}, "grid"),
    ({"state_family": "werner", "grid": [-0.1, 0.5]}, "grid"),
    ({"state_family": "werner", "grid": [0.2, 0.5], "psi": "foo"}, "psi"),
    ({"state_family": "pure_theta", "grid": [0.2, 0.5], "psi": "psi-"}, "psi")])
def test_sweep_spec_refuses_parameters_outside_the_family(obj, field):
    # the grid lies in the family's range, [0, 1] for werner and
    # (0, pi/4] for pure_theta, and psi is phi+ or singlet
    with pytest.raises(ValidationError, match=field):
        ex.SweepSpec.from_dict({"kinds": ["NLR_mar"], **obj})


def test_sweep_spec_takes_the_ends_of_each_range():
    assert ex.SweepSpec("werner", [0.0, 1.0], ["SR_red"], psi="singlet").grid[-1] == 1.0
    assert ex.SweepSpec("pure_theta", [0.1, np.pi / 4], ["NLR_mar"],
                        scenario="nonlocality").grid[-1] == np.pi / 4


SPEC = {"state_family": "werner", "grid": [0.2, 0.5], "kinds": ["SR_red"]}
NONLOCAL_SPEC = {**SPEC, "kinds": ["NLR_mar", "NLR_c"], "scenario": "nonlocality"}
BAD_SPECS = [
    ({**SPEC, "alice": {"family": "nope"}}, "alice"),
    ({**SPEC, "alice": {"family": "lossy", "base": {"family": "paulis"},
                        "etas": [0.5, 0.5, 2.0]}}, "alice"),
    ({**SPEC, "alice": {"family": "bloch", "vectors": [[1, 0, 1]]}}, "alice"),
    ({**NONLOCAL_SPEC, "bob": {"family": "bloch", "vectors": [[1, 0, 1]]}}, "bob"),
    ({**SPEC, "kinds": ["SR_red", "NOPE"]}, "kinds"),
    ({**SPEC, "kinds": ["NLR_mar"]}, "kinds"),       # not a steering kind
    ({**NONLOCAL_SPEC, "level": 3}, "level"),
    ({**SPEC, "grid": [0.1, float("nan"), 0.5]}, "grid"),
    ({**SPEC, "grid": [0.5]}, "grid"),
    ({**SPEC, "grid": [0.5, 0.2]}, "grid"),
    ({**SPEC, "state_family": "nope"}, "state_family"),
    ({**SPEC, "scenario": "nope"}, "scenario"),
]


@pytest.mark.parametrize("obj, field", BAD_SPECS)
def test_sweep_spec_is_refused_before_any_solve(monkeypatch, obj, field):
    def no_solve(*args, **kwargs):
        raise AssertionError("a point of a bad spec was solved")

    monkeypatch.setattr(ex.st, "steering_quantifier", no_solve)
    monkeypatch.setattr(ex.nl, "nonlocality_quantifier", no_solve)
    with pytest.raises(ValidationError, match=f"^{field}: "):
        ex.sweep(ex.SweepSpec.from_dict(obj))


def test_sweep_spec_builds_its_measurement_sets():
    spec = ex.SweepSpec.from_dict({**NONLOCAL_SPEC, "alice": {"family": "paulis",
                                                              "which": "XZ"}})
    assert (spec.alice.m, spec.bob.m) == (2, 2)
    assert spec.bob.effects.shape == (2, 2, 2, 2)


def test_werner_refuses_an_unknown_psi():
    with pytest.raises(ValueError, match="psi"):
        sc.werner(0.5, psi="foo")


def test_werner_steering_sweep_below_threshold():
    spec = ex.SweepSpec(state_family="werner",
                        grid=np.linspace(0.1, 0.5, 3),
                        kinds=["SR_c", "SR_red", "SW_c"])
    res = ex.sweep(spec)
    for _, _, val in res.rows:
        assert val < 1e-6


def test_werner_steering_sweep_threshold_detection():
    vth = 1 / np.sqrt(3)
    grid = np.concatenate([np.linspace(vth - 0.02, vth + 0.02, 17),
                           np.linspace(0.62, 1.0, 8)])
    grid = np.unique(grid)
    spec = ex.SweepSpec(state_family="werner", grid=grid, kinds=["SR_red"])
    res = ex.sweep(spec)
    assert abs(res.thresholds["SR_red"] - vth) < 3e-3
    assert res.linfit_max_dev["SR_red"] < 1e-4


def test_sweep_csv_shape():
    spec = ex.SweepSpec(state_family="werner", grid=[0.2, 0.9],
                        kinds=["SR_red"])
    res = ex.sweep(spec)
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "parameter,kind,value"
    assert len(lines) == 3


def test_seesaw_maxent_nlr_c_matches_fixed():
    fixed = nl.nonlocality_quantifier(
        sc.measure(sc.steer(sc.max_entangled(2), sc.paulis("XZ")),
                   sc.bloch_measurements(ex.CHSH_BOB)), "NLR_c", level=2).value
    out = ex.seesaw_optimize(np.pi / 4, "NLR_c", restarts=1, seed=1, level=2)
    assert abs(out.value - fixed) < 1e-4
    # accepted objective history is non-decreasing
    hist = out.state.history
    assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))


def test_seesaw_starts_at_the_chsh_optimal_bob():
    # at theta = pi/16 the CHSH_BOB behaviour is local and its see-saw
    # stays at 0; the CHSH-optimal Bob for Alice's X and Z is nonlocal
    out = ex.seesaw_optimize(np.pi / 16, "NLR_c", restarts=1, level=2)
    assert out.value >= 0.0339


def test_seesaw_nlw_c_is_one_at_pi4():
    out = ex.seesaw_optimize(np.pi / 4, "NLW_c", restarts=2, seed=3, level=2)
    assert abs(out.value - 1.0) < 1e-3


@pytest.mark.parametrize("last, kept", [
    (0.6 + ex.SEESAW_TOL / 2, True),     # gains, but at most SEESAW_TOL
    (0.6, False),                        # gains nothing
    (0.6 - 1e-3, False)])                # loses
def test_seesaw_last_round(monkeypatch, last, kept):
    values = iter([0.5, 0.6, last])
    coefficients = np.arange(16.0).reshape(2, 2, 2, 2)

    def stub(beh, kind, level):
        return SimpleNamespace(value=next(values),
                               inequality=SimpleNamespace(coefficients=coefficients))

    monkeypatch.setattr(ex.nl, "nonlocality_quantifier", stub)
    out = ex.seesaw_optimize(np.pi / 6, "NLR_mar", restarts=1)
    assert out.state.converged
    assert out.state.history == [0.5, 0.6] + [last] * kept
    assert out.value == out.state.history[-1]
    assert out.restarts == 1


@pytest.mark.parametrize("args, field", [
    ({"restarts": 0}, "restarts: expected at least 1, got 0"),
    ({"restarts": -2}, "restarts: expected at least 1, got -2"),
    ({"seed": -1}, "seed: ValueError('expected non-negative integer')")],
    ids=["restarts=0", "restarts=-2", "seed=-1"])
def test_seesaw_refuses_a_restart_count_below_1_and_a_negative_seed(monkeypatch, args, field):
    # refused before any solve
    def solve(*_, **__):
        raise AssertionError("solved")

    monkeypatch.setattr(ex.nl, "nonlocality_quantifier", solve)
    with pytest.raises(ValidationError) as info:
        ex.seesaw_optimize(np.pi / 6, "NLR_mar", **args)
    assert str(info.value) == field


def test_seesaw_restarts_monotone():
    v1 = ex.seesaw_optimize(np.pi / 6, "NLR_mar", restarts=1, seed=5).value
    v3 = ex.seesaw_optimize(np.pi / 6, "NLR_mar", restarts=3, seed=5).value
    assert v3 >= v1 - 1e-12


def test_reproduce_table1_wittmann(tmp_path):
    summary = ex.reproduce("table1", tmp_path)
    row = summary["rows"][0]
    assert row["row"] == "wittmann"
    assert row["status"] == "complete"
    assert set(row["values"]) == {"IR", "IRr", "IW", "SRc", "SRred", "SWc"}
    # deviations persisted for the regression rule
    data = json.loads((tmp_path / "table1_deviations.json").read_text())
    assert "wittmann" in data
    # steering side reproduces the published row closely
    assert row["deviations"]["SRc"] < 1e-5
    assert row["deviations"]["SRred"] < 1e-4
    assert row["deviations"]["SWc"] < 1e-4
    md = (tmp_path / "table1.md").read_text()
    assert "wittmann" in md and "SRc" in md
    with open(tmp_path / "table1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "quantity", "computed", "reference", "deviation"]
    ref = ex.REFERENCE_TABLE1["wittmann"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("wittmann", k) for k in row["values"]]
    for r in rows[1:]:
        assert [float(x) for x in r[2:]] == [
            row["values"][r[1]], ref[r[1]], row["deviations"][r[1]]]


def test_reproduce_table1_regression_alert(tmp_path):
    summary = ex.reproduce("table1", tmp_path)
    # fake a historical run with much smaller deviations
    path = tmp_path / "table1_deviations.json"
    data = json.loads(path.read_text())
    for label in data["wittmann"]["deviations"]:
        data["wittmann"]["deviations"][label] = 1e-12
    path.write_text(json.dumps(data))
    summary2 = ex.reproduce("table1", tmp_path)
    assert summary2["regression_alerts"]


def test_reproduce_fig1_monotone(tmp_path):
    out = ex.reproduce("fig1", tmp_path, num=9)
    by_kind = {}
    for v, kind, val in out["sweep"].rows:
        by_kind.setdefault(kind, []).append(val)
    for kind, vals in by_kind.items():
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:])), kind
    assert (tmp_path / "fig1.csv").exists()


def test_reproduce_fig2_endpoints_match_incompat(tmp_path):
    # at v=1 the consistent nonlocality quantifiers coincide with the
    # incompatibility quantifiers of the fixed X, Z pair
    out = ex.reproduce("fig2", tmp_path, num=3, level=2)
    meas = sc.paulis("XZ")
    end = {kind: val for v, kind, val in out["sweep"].rows if v == 1.0}
    assert abs(end["NLR_mar"]
               - ic.incompatibility_quantifier(meas, "random_robustness").value) < 1e-4
    assert abs(end["NLR_c"]
               - ic.incompatibility_quantifier(meas, "robustness").value) < 1e-4
    assert abs(end["NLR_c_lhv"]
               - ic.incompatibility_quantifier(meas, "jm_robustness").value) < 1e-4
    assert abs(end["NLW_c"]
               - ic.incompatibility_quantifier(meas, "weight").value) < 1e-4


# each figure's note line, formatted with its dashed values
FIGURE_NOTES = {"fig1": "incompatibility values: IR={IR!r} IRr={IRr!r} IW={IW!r}",
                "fig2": "incompatibility values of the fixed pair: {dashed!r}"}


@pytest.mark.parametrize("fig, kwargs, kinds", [
    ("fig1", {"num": 5}, ["SR_c", "SR_red", "SW_c"]),
    ("fig2", {"num": 3, "level": 2}, ["NLR_c", "NLR_mar", "NLR_c_lhv", "NLW_c"]),
])
def test_figure_csv_holds_the_sweep(tmp_path, fig, kwargs, kinds):
    out = ex.reproduce(fig, tmp_path, **kwargs)
    assert out["files"] == [str(tmp_path / f"{fig}.csv")]
    lines = (tmp_path / f"{fig}.csv").read_text().splitlines()
    assert lines[0] == f"# columns: v, {', '.join(kinds)}"
    dashed = out["dashed"]
    assert lines[1] == "# " + FIGURE_NOTES[fig].format(dashed=dashed, **dashed)
    rows = list(csv.reader(lines[2:]))
    assert rows[0] == ["v"] + kinds
    want = {}
    for v, kind, val in out["sweep"].rows:
        want.setdefault(v, {})[kind] = val
    assert [float(r[0]) for r in rows[1:]] == sorted(want)
    for r in rows[1:]:
        assert [float(x) for x in r[1:]] == [want[float(r[0])][k] for k in kinds]


def _table1_row_unsolved(name):
    """A table-1 row with one quantity, made without a solve."""
    return {"row": name, "status": "complete", "values": {"SRc": 7.5e-3},
            "deviations": {"SRc": 1e-4}}


def test_table1_history_feeds_the_regression_alert(tmp_path, monkeypatch):
    monkeypatch.setattr(ex, "_table1_row", _table1_row_unsolved)
    assert ex.reproduce("table1", tmp_path)["regression_alerts"] == []
    path = tmp_path / "table1_deviations.json"
    history = json.loads(path.read_text())
    history["wittmann"]["deviations"]["SRc"] = 1e-6
    path.write_text(json.dumps(history))
    alerts = ex.reproduce("table1", tmp_path)["regression_alerts"]
    assert len(alerts) == 1 and alerts[0].startswith("wittmann.SRc: deviation")


@pytest.mark.parametrize("text", [
    "[1, 2]", "{oops", '{"wittmann": [1]}', '{"wittmann": {}}',
    '{"wittmann": {"deviations": {"SRc": "x"}}}',
    '{"wittmann": {"deviations": [1e-3]}}'])
def test_table1_refuses_a_malformed_history_before_solving(tmp_path, monkeypatch, text):
    def no_solve(name):
        raise AssertionError("a row was solved before the history was read")

    monkeypatch.setattr(ex, "_table1_row", no_solve)
    path = tmp_path / "table1_deviations.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
        ex.reproduce("table1", tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["table1_deviations.json"]


def test_reproduce_table2_refused(tmp_path):
    with pytest.raises(ValidationError):
        ex.reproduce("table2", tmp_path)


@pytest.mark.parametrize("spec", [
    ex.SweepSpec("werner", [0.3, 0.6, 0.9], ["SR_red", "SR_c"]),
    ex.SweepSpec("pure_theta", [0.3, 0.6], ["NLR_mar", "NLR_c"],
                 scenario="nonlocality", level=1)])
def test_sweep_builds_each_grid_point_once(monkeypatch, spec):
    built = {"steer": 0, "measure": 0}

    def spy(name):
        real = getattr(ex, name)

        def counted(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in built:
        monkeypatch.setattr(ex, name, spy(name))
    res = ex.sweep(spec)
    assert built == {"steer": spec.grid.size,
                     "measure": spec.grid.size * (spec.scenario == "nonlocality")}
    # every kind still runs at every point, in grid order, then kind order
    assert [row[:2] for row in res.rows] == [
        (float(p), k) for p in spec.grid for k in spec.kinds]


def test_sweep_workers_deterministic():
    spec = ex.SweepSpec(state_family="werner", grid=[0.3, 0.8],
                        kinds=["SR_red", "SR_c"])
    serial = ex.sweep(spec, workers=1)
    threaded = ex.sweep(spec, workers=4)
    assert serial.rows == threaded.rows


def test_reproduce_fig3_smoke(tmp_path):
    out = ex.reproduce("fig3", tmp_path, num=2, restarts=1, seed=2, level=1)
    assert len(out["rows"]) == 2
    endpoint = out["rows"][-1]
    assert abs(endpoint["theta"] - np.pi / 4) < 1e-12
    assert abs(endpoint["NLW_c"] - 1.0) < 1e-3
    assert out["files"] == [str(tmp_path / "fig3.csv")]
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    columns = ["theta", "NLR_c", "NLR_mar", "NLW_c"]
    assert lines[0] == f"# columns: {', '.join(columns)} (see-saw optimized)"
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == columns
    assert [[float(x) for x in r] for r in rows[1:]] == [
        [point[c] for c in columns] for point in out["rows"]]


def test_reproduce_fig3_at_its_defaults(tmp_path):
    """fig3 at its default angles, restarts, seed and NPA level 2 returns,
    and every value sits in the paper's chain: NLW_c = 1 at every angle
    (the NLW_c see-saw programs have no strictly feasible point), and
    NLR_c <= SR_c = IR(X, Z) = 3 - 2 sqrt2, with the see-saw's pi/16 value
    at least its CHSH-optimal start's."""
    out = ex.reproduce("fig3", tmp_path)
    rows = out["rows"]
    assert len(rows) == 7 and abs(rows[0]["theta"] - np.pi / 16) < 1e-12
    assert rows[0]["NLR_c"] >= 0.0339
    for point in rows:
        assert abs(point["NLW_c"] - 1.0) <= 1e-8 and point["NLW_c"] <= 1 + 1e-9
        assert point["NLR_c"] <= 3 - 2 * np.sqrt(2) + 1e-9
    assert (tmp_path / "fig3.csv").is_file()
