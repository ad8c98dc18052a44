"""Parameter sweeps, see-saw measurement optimization, and the
reproduction commands behind the CLI.

Sweeps evaluate quantifier grids over Werner visibility or pure-state
angle, detect the activation threshold (largest grid point with value
below 1e-6), and report the worst deviation from the best linear fit
above threshold.  The see-saw alternates quantifier solves with a
per-input eigenvector update of Bob's measurements driven by the dual
Bell functional.  Reproduction targets emit plot-data CSV (no
rendering) and, for the steering table, a markdown comparison against
the published reference values with persisted deviations.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from . import incompat as ic
from . import nonlocality as nl
from . import steering as st
from .decomposition import parse_kind
from .errors import ValidationError
from .npa import build_npa_block
from .scenario import (
    MeasurementSet,
    _require_finite,
    bloch_measurements,
    dodecahedron,
    lossy,
    make_measurements,
    measure,
    paulis,
    pure_theta,
    steer,
    werner,
)
from .serialize import _fields

THRESHOLD_EPS = 1e-6
SEESAW_ROUNDS = 100       # see-saw rounds per restart
SEESAW_TOL = 1e-7         # a round gaining at most this has converged

# Published reference values for the loophole-free steering data sets
# (Wittmann et al. and Bennet et al. experiments), used by reproduce().
# The Wittmann visibility is rounded to four digits: the published SRc
# pins v = 0.9556297.  Its incompatibility trio is not a function of the
# stated efficiencies; it matches lossy sharp XYZ at a single mean
# efficiency eta' ~ 0.36642 (pinned from IW; IR and IRr then agree to 6e-6).
REFERENCE_TABLE1 = {
    "wittmann": {
        "params": {"v": 0.9556, "etas": (0.382, 0.383, 0.383), "psi": "singlet"},
        "IR": 1.204e-2, "IRr": 4.112e-2, "IW": 4.963e-2,
        "SRc": 7.406e-3, "SRred": 2.528e-2, "SWc": 3.052e-2,
    },
    "bennet": {
        "params": {"v": 0.992, "eta": 0.132, "psi": "singlet"},
        "IR": 1.841e-3, "IRr": 5.840e-3, "IW": 3.556e-2,
        "SRc": 1.283e-3, "SRred": 4.071e-3, "SWc": 2.228e-2,
    },
}

CHSH_BOB = [np.array([1, 0, 1]) / np.sqrt(2), np.array([1, 0, -1]) / np.sqrt(2)]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepSpec:
    """Grid description: which state family, measurements, and kinds.
    Checked whole when made: a bad field raises ValidationError naming it."""

    state_family: str                      # "werner" | "pure_theta"
    grid: np.ndarray                       # monotone increasing parameters
    kinds: list                            # quantifier kind names
    scenario: str = "steering"             # "steering" | "nonlocality"
    alice: dict | None = None              # measurement spec (default XYZ / XZ),
    bob: dict | None = None                # nonlocality only (default CHSH pair);
                                           # each becomes its MeasurementSet
    level: int = 2                         # NPA level, nonlocality only
    psi: str = "phi+"

    def __post_init__(self):
        self.grid = _spec_field("grid", lambda g: np.asarray(g, dtype=float), self.grid)
        _spec_field("grid", _require_finite, self.grid, "grid")
        if self.grid.size < 2:
            raise ValidationError("grid: resolution must be at least 2")
        if np.any(np.diff(self.grid) <= 0):
            raise ValidationError("grid: must be strictly increasing")
        if self.state_family not in ("werner", "pure_theta"):
            raise ValidationError(f"state_family: unknown family {self.state_family!r}")
        # the state constructors check the grid's range (the grid is
        # increasing) and psi
        family = werner if self.state_family == "werner" else pure_theta
        for param in (self.grid[0], self.grid[-1]):
            _spec_field("grid", family, float(param))
        _spec_field("psi", lambda psi: werner(1.0, psi=psi), self.psi)
        if self.scenario not in ("steering", "nonlocality"):
            raise ValidationError(f"scenario: unknown scenario {self.scenario!r}")
        steering = self.scenario == "steering"
        if not (isinstance(self.kinds, list)
                and all(isinstance(k, str) for k in self.kinds)):
            raise ValidationError(
                f"kinds: expected a list of kind names, got {self.kinds!r}")
        enum = st.SteeringKind if steering else nl.NonlocalityKind
        _spec_field("kinds", lambda: [parse_kind(enum, k, {}) for k in self.kinds])
        self.alice = (paulis("XYZ" if steering else "XZ") if self.alice is None
                      else _spec_field("alice", make_measurements, self.alice))
        self.bob = (bloch_measurements(CHSH_BOB) if self.bob is None
                    else _spec_field("bob", make_measurements, self.bob))
        self.level = _spec_field("level", int, self.level)
        if not steering:
            # the template the solves share checks the level, once
            _spec_field("level", build_npa_block, (
                self.alice.m, self.alice.n, self.bob.m, self.bob.n), self.level)

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepSpec":
        """The spec a JSON object describes; a malformed field raises
        ValidationError naming it."""
        _fields(obj, "sweep spec", ("state_family", "grid", "kinds"))
        grid = obj["grid"]
        if isinstance(grid, dict):
            grid = _spec_field("grid", lambda g: np.linspace(
                float(g["start"]), float(g["stop"]), int(g["num"])), grid)
        return cls(state_family=obj["state_family"], grid=grid, kinds=obj["kinds"],
                   scenario=obj.get("scenario", "steering"),
                   alice=obj.get("alice"), bob=obj.get("bob"),
                   level=obj.get("level", 2), psi=obj.get("psi", "phi+"))


def _spec_field(name: str, convert, *args):
    """``convert(*args)``, or ValidationError naming field ``name``."""
    try:
        return convert(*args)
    except KeyError as exc:
        raise ValidationError(f"{name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list                    # (parameter, kind, value)
    thresholds: dict              # kind -> largest parameter with value < eps
    linfit_max_dev: dict          # kind -> worst |residual| above threshold

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["parameter", "kind", "value"])
        for row in self.rows:
            writer.writerow([repr(row[0]), row[1], repr(row[2])])
        return buf.getvalue()


def sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the grid and report thresholds and linearity diagnostics.

    Grid points are evaluated one after another, in grid order: each
    point's assemblage (and, for nonlocality, its behaviour) is built
    once and every kind is solved on it, in the order of ``spec.kinds``.
    ``workers`` is accepted for compatibility and ignored: the solves are
    small and spend most of their time in Python, which holds the GIL,
    so a thread pool measured slower than the serial loop on 2 cores.
    """
    rows = []
    for param in spec.grid:
        param = float(param)
        state = (werner(param, psi=spec.psi) if spec.state_family == "werner"
                 else pure_theta(param))
        asm = steer(state, spec.alice)
        if spec.scenario == "steering":
            rows += [(param, kind, st.steering_quantifier(asm, kind).value)
                     for kind in spec.kinds]
        else:
            beh = measure(asm, spec.bob)
            rows += [(param, kind,
                      nl.nonlocality_quantifier(beh, kind, level=spec.level).value)
                     for kind in spec.kinds]
    thresholds, lindev = {}, {}
    for kind in spec.kinds:
        vals = np.asarray([val for _, k, val in rows if k == kind])
        below = spec.grid[vals < THRESHOLD_EPS]
        thresholds[kind] = float(below[-1]) if below.size else float("nan")
        above = vals >= THRESHOLD_EPS
        if np.count_nonzero(above) >= 2:
            xs, ys = spec.grid[above], vals[above]
            coef = np.polyfit(xs, ys, 1)
            lindev[kind] = float(np.max(np.abs(np.polyval(coef, xs) - ys)))
        else:
            lindev[kind] = float("nan")
    return SweepResult(spec=spec, rows=rows, thresholds=thresholds,
                       linfit_max_dev=lindev)


# ---------------------------------------------------------------------------
# see-saw optimization of Bob's measurements
# ---------------------------------------------------------------------------

@dataclass
class SeesawState:
    bob: MeasurementSet
    history: list = field(default_factory=list)   # accepted objective values
    converged: bool = False


@dataclass
class SeesawOutcome:
    value: float
    bob: MeasurementSet
    state: SeesawState
    restarts: int


def _bob_update(certificate: np.ndarray, members: np.ndarray) -> MeasurementSet:
    """Per-input eigenvector step: maximize the functional over Bob POVMs.

    For each y the optimum assigns outcome 0 the projector onto the
    nonnegative eigenspace of sum_ax B[x,y,a,:] difference operator;
    zero eigenvalues go to outcome 0 (first-index tie break).
    """
    mB, nB = certificate.shape[1], certificate.shape[3]
    d = members.shape[2]
    grid = np.zeros((mB, nB, d, d), dtype=complex)
    for y in range(mB):
        f = np.einsum("xab,xaij->bij", certificate[:, y], members)
        diff = f[0] - f[1]
        vals, vecs = np.linalg.eigh((diff + diff.conj().T) / 2)
        pos = vecs[:, vals >= -1e-12]
        proj = pos @ pos.conj().T
        grid[y, 0] = proj
        grid[y, 1] = np.eye(d) - proj
    return MeasurementSet(grid)


def seesaw_optimize(theta: float, kind, restarts: int = 3, seed: int = 0,
                    level: int = 2) -> SeesawOutcome:
    """Alternating optimization of Bob's two dichotomic measurements.

    Alice stays fixed at the X and Z measurements on the partially
    entangled state of angle ``theta``; each round solves the quantifier
    with Bob fixed, then updates Bob from the dual Bell functional.
    Restart 0 starts at the CHSH-optimal Bob for that Alice, whose
    behaviour is nonlocal at every theta > 0: with correlation matrix
    T = diag(sin 2theta, -sin 2theta, 1), Bob's Bloch vectors are
    T(x +- z) normalized (Horodecki, Horodecki & Horodecki, Phys. Lett.
    A 200, 1995), CHSH_BOB at theta = pi/4; the others at random.
    Heuristic: reports the best value found over ``restarts`` (at least
    1) starts; ``seed``, a nonnegative integer, seeds the random ones.
    """
    kind = parse_kind(nl.NonlocalityKind, kind, {})
    state = _spec_field("theta", pure_theta, theta)
    if restarts < 1:
        raise ValidationError(f"restarts: expected at least 1, got {restarts!r}")
    rng = _spec_field("seed", np.random.default_rng, seed)
    alice = paulis("XZ")
    asm = steer(state, alice)

    best: SeesawOutcome | None = None
    for restart in range(restarts):
        if restart == 0:
            vecs = np.array([[np.sin(2 * theta), 0.0, 1.0], [np.sin(2 * theta), 0.0, -1.0]])
        else:
            vecs = rng.normal(size=(2, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        bob = bloch_measurements(vecs)
        state_rec = SeesawState(bob=bob)
        current = -np.inf
        for _ in range(SEESAW_ROUNDS):
            beh = measure(asm, bob)
            res = nl.nonlocality_quantifier(beh, kind, level=level)
            # a round that gains is kept; one gaining at most SEESAW_TOL ends
            state_rec.converged = res.value <= current + SEESAW_TOL
            if res.value > current:
                current = res.value
                state_rec.bob = bob
                state_rec.history.append(res.value)
            if state_rec.converged:
                break
            bob = _bob_update(res.inequality.coefficients, asm.members)
        if best is None or current > best.value:
            best = SeesawOutcome(value=current, bob=state_rec.bob,
                                 state=state_rec, restarts=restarts)
    return best


# ---------------------------------------------------------------------------
# reproduction targets
# ---------------------------------------------------------------------------

def _quantity(label: str, meas: MeasurementSet, asm=None) -> float:
    """The paper's quantity ``label``: an incompatibility quantifier (IR,
    IRr, IRjm, IW) of ``meas``, or a steering quantifier (SRc, SRred,
    SWc) of ``asm``."""
    try:
        kind = parse_kind(ic.IncompatKind, label, ic._ALIASES)
    except ValidationError:
        return st.steering_quantifier(asm, label).value
    return ic.incompatibility_quantifier(meas, kind).value


def _table1_labels(ref: dict) -> list:
    """The quantities of a REFERENCE_TABLE1 row, in the paper's order."""
    return [label for label in ref if label != "params"]


def _table1_row(name: str) -> dict:
    ref = REFERENCE_TABLE1[name]
    params = ref["params"]
    if name == "wittmann":
        meas = lossy(paulis("XYZ"), params["etas"])
    else:
        meas = lossy(dodecahedron(), params["eta"])
    state = werner(params["v"], psi=params["psi"])
    asm = steer(state, meas)
    values = {label: _quantity(label, meas, asm) for label in _table1_labels(ref)}
    return {"row": name, "status": "complete", "values": values,
            "deviations": {label: abs(val - ref[label]) for label, val in values.items()}}


def _table1_markdown(rows: list) -> str:
    lines = ["| row | quantity | computed | reference | abs deviation |",
             "|---|---|---|---|---|"]
    for row in rows:
        ref = REFERENCE_TABLE1[row["row"]]
        for label, val in row["values"].items():
            lines.append(
                f"| {row['row']} | {label} | {val:.6e} "
                f"| {ref[label]:.4e} | {row['deviations'][label]:.2e} |")
    return "\n".join(lines) + "\n"


def _read_deviations(path) -> dict:
    """{row: {quantity: deviation}} as an earlier run persisted it at
    ``path``, {} if there is none; a file ``reproduce_table1`` did not
    write raises ValidationError naming it."""
    try:
        with open(path) as fh:
            previous = json.load(fh)
        return {name: {label: float(dev) for label, dev in row["deviations"].items()}
                for name, row in previous.items()}
    except FileNotFoundError:
        return {}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"{path}: not a table-1 deviation history ({exc!r})") from exc


def _deviation_alerts(previous: dict, rows) -> list:
    """One alert per deviation that grew more than 10x from ``previous``."""
    alerts = []
    for row in rows:
        prev = previous.get(row["row"], {})
        for label, dev in row["deviations"].items():
            if label in prev and prev[label] > 0 and dev > 10 * prev[label]:
                alerts.append(
                    f"{row['row']}.{label}: deviation {dev:.3e} grew more "
                    f"than 10x from {prev[label]:.3e}")
    return alerts


def reproduce_table1(outdir, extended: bool = False) -> dict:
    """Steering-table reproduction: CSV + markdown + persisted deviations.

    The Bennet row sits behind ``extended`` (a 3^10-outcome parent).  The
    deviations of an earlier run are read before the first solve, and a
    malformed file is refused then.
    """
    outdir = pathlib.Path(outdir)
    dev_path = outdir / "table1_deviations.json"
    previous = _read_deviations(dev_path)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [_table1_row("wittmann")]
    if extended:
        rows.append(_table1_row("bennet"))
    alerts = _deviation_alerts(previous, rows)
    with open(outdir / "table1.md", "w") as fh:
        fh.write(_table1_markdown(rows))
    _write_csv(outdir / "table1.csv", [],
               ["row", "quantity", "computed", "reference", "deviation"],
               [[row["row"], label, repr(val), REFERENCE_TABLE1[row["row"]][label],
                 repr(row["deviations"][label])]
                for row in rows for label, val in row["values"].items()])
    with open(dev_path, "w") as fh:
        json.dump({row["row"]: row for row in rows}, fh, indent=1)
    return {"rows": rows, "regression_alerts": alerts,
            "files": [str(outdir / "table1.md"), str(outdir / "table1.csv"),
                      str(dev_path)]}


def _write_csv(path, comments, header, rows) -> str:
    """Write one '# ' line per comment, then ``header`` and ``rows`` as CSV."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def _write_sweep_csv(path, kinds, note: str, res: SweepResult) -> str:
    """Write ``res.rows`` as one CSV row per grid point v, the repr of v
    and of each kind's value, under a '# columns' line and '# note'."""
    by_param = {}
    for param, kind, val in res.rows:
        by_param.setdefault(param, {})[kind] = val
    return _write_csv(path, [f"columns: v, {', '.join(kinds)}", note], ["v"] + kinds,
                      [[repr(param)] + [repr(by_param[param][k]) for k in kinds]
                       for param in sorted(by_param)])


def _werner_figure(name: str, outdir, num: int, kinds: list, scenario: str,
                   alice: str, labels: tuple, note, level: int = 2) -> dict:
    """Sweep ``kinds`` over Werner visibility with Alice's Paulis
    ``alice``, take the dashed values ``labels`` of that sharp set, and
    write ``<name>.csv`` under the line ``note(dashed)``."""
    spec = SweepSpec(state_family="werner", grid=np.linspace(0.0, 1.0, num),
                     kinds=kinds, scenario=scenario, level=level,
                     alice={"family": "paulis", "which": alice})
    res = sweep(spec)
    dashed = {label: _quantity(label, spec.alice) for label in labels}
    path = _write_sweep_csv(pathlib.Path(outdir) / f"{name}.csv", kinds,
                            note(dashed), res)
    return {"sweep": res, "dashed": dashed, "files": [path]}


def reproduce_fig1(outdir, num: int = 41) -> dict:
    """Consistent steering quantifiers vs Werner visibility, plus the
    constant incompatibility values of the sharp X, Y, Z set."""
    return _werner_figure(
        "fig1", outdir, num, ["SR_c", "SR_red", "SW_c"], "steering", "XYZ",
        ("IR", "IRr", "IW"), lambda dashed: "incompatibility values: " + " ".join(
            f"{label}={val!r}" for label, val in dashed.items()))


def reproduce_fig2(outdir, num: int = 21, level: int = 2) -> dict:
    """Consistent nonlocality quantifiers vs Werner visibility for the
    CHSH configuration, plus the incompatibility values of sharp X, Z."""
    return _werner_figure(
        "fig2", outdir, num, ["NLR_c", "NLR_mar", "NLR_c_lhv", "NLW_c"],
        "nonlocality", "XZ", ("IR", "IRr", "IRjm", "IW"),
        lambda dashed: f"incompatibility values of the fixed pair: {dashed!r}",
        level=level)


def reproduce_fig3(outdir, num: int = 7, restarts: int = 2, seed: int = 7,
                   level: int = 2) -> dict:
    """See-saw-optimized consistent nonlocality quantifiers vs the
    pure-state angle theta."""
    thetas = np.linspace(np.pi / 16, np.pi / 4, num)
    rows = []
    for theta in thetas:
        point = {"theta": float(theta)}
        for kind in ("NLR_c", "NLR_mar", "NLW_c"):
            out = seesaw_optimize(float(theta), kind, restarts=restarts,
                                  seed=seed, level=level)
            point[kind] = out.value
        rows.append(point)
    columns = ["theta", "NLR_c", "NLR_mar", "NLW_c"]
    path = _write_csv(pathlib.Path(outdir) / "fig3.csv",
                      [f"columns: {', '.join(columns)} (see-saw optimized)"], columns,
                      [[repr(point[c]) for c in columns] for point in rows])
    return {"rows": rows, "files": [path]}


def reproduce(target: str, outdir, extended: bool = False, **kwargs) -> dict:
    if target == "table1":
        return reproduce_table1(outdir, extended=extended, **kwargs)
    if target == "fig1":
        return reproduce_fig1(outdir, **kwargs)
    if target == "fig2":
        return reproduce_fig2(outdir, **kwargs)
    if target == "fig3":
        return reproduce_fig3(outdir, **kwargs)
    if target == "table2":
        raise ValidationError(
            "table2 is not reproducible: the raw experimental behaviours "
            "behind it are not published; ingest count tables with "
            "'project-ns' and 'quantify nonlocal' instead")
    raise ValidationError(f"unknown reproduction target {target!r}")
