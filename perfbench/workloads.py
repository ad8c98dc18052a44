"""The three benchmark workloads: inputs made from a seed, and one round.

A round is a fixed block of public quantifier calls.  Every round of a
run repeats the same inputs, so per-round counts repeat exactly and the
share of failed calls is the same in every run, however many rounds fit.

* chain:  CHAIN_TRIPLES random triples (qubit measurement pair, mixed
  two-qubit state, Bob pair); per triple the 4 incompatibility, 7
  steering and 7 nonlocality (NPA level 1) kinds, 18 calls.
* ladder: lossy dodecahedron sets: IR and IW on the m = 6 set (729
  strategy blocks), SR_c and SW_c on its singlet assemblage, and the
  failing SW_c call at m = 7 (2187 blocks), 5 calls.
* sweep:  experiments.sweep(..., workers=2) over Werner visibility on the
  criterion-4 grids: steering (X, Y, Z; SR_c, SR_red, SW_c) and CHSH
  nonlocality at NPA level 2 (NLR_mar, NLR_c, NLR_c_lhv, NLW_c).

``round(between)`` calls ``between()`` after each step of the round (a
chain triple, a ladder call, one sweep), where the run measures the
host's speed.  Calls go through the module attributes
(``incompat.incompatibility_quantifier`` and so on), which is where the
timer and the tracer are installed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from corrquant import experiments, incompat, nonlocality, steering
from corrquant import scenario as sc
from corrquant.errors import SolverFailure

CHAIN_TRIPLES = 15
INCOMPAT_KINDS = ("robustness", "random_robustness", "jm_robustness", "weight")
STEERING_KINDS = tuple(k.value for k in steering.SteeringKind)
NONLOCALITY_KINDS = tuple(k.value for k in nonlocality.NonlocalityKind)

LADDER_ETA = 0.4
# IR and IW on the m = 6 set (729 strategy blocks), SR_c and SW_c on its
# singlet assemblage, and SW_c at m = 7 (2187 blocks), which fails on
# every run (see README)
LADDER_CALLS = ((6, "IR"), (6, "IW"), (6, "SR_c"), (6, "SW_c"), (7, "SW_c"))
LADDER_SIZES = (6, 7)
LADDER_KINDS = {"IR": "robustness", "IW": "weight", "SR_c": "SR_c", "SW_c": "SW_c"}
SWEEP_WORKERS = 2
STEERING_SWEEP_KINDS = ("SR_c", "SR_red", "SW_c")
NONLOCALITY_SWEEP_KINDS = ("NLR_mar", "NLR_c", "NLR_c_lhv", "NLW_c")


def random_qubit_povms(rng, m=2, n=2) -> sc.MeasurementSet:
    """m random n-outcome qubit POVMs: normalized Wishart effects."""
    grid = np.empty((m, n, 2, 2), dtype=complex)
    for x in range(m):
        raw = []
        for _ in range(n):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            raw.append(g @ g.conj().T)
        vals, vecs = np.linalg.eigh(sum(raw))
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        for a in range(n):
            grid[x, a] = inv_root @ raw[a] @ inv_root
    return sc.MeasurementSet(grid)


@dataclass
class Triple:
    meas: sc.MeasurementSet     # Alice's pair
    asm: sc.Assemblage          # steered by the random mixed state
    beh: sc.Behaviour           # measured by Bob's pair


def chain_triples(seed: int, count: int = CHAIN_TRIPLES) -> list[Triple]:
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(count):
        meas = random_qubit_povms(rng)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        mix = rng.uniform(0.0, 0.5)
        state = sc.BipartiteState((1 - mix) * rho + mix * np.eye(4) / 4, (2, 2))
        bob = random_qubit_povms(rng)
        asm = sc.steer(state, meas)
        triples.append(Triple(meas, asm, sc.measure(asm, bob)))
    return triples


@dataclass
class ChainRecord:
    """What the checks need from one triple: values and dual coefficients."""

    triple: Triple
    incompat: dict          # kind -> value
    steering: dict          # kind -> value
    nonlocality: dict       # kind -> value
    witnesses: dict         # incompat kind -> (Y coefficients, reported bound)
    inequalities: dict      # steering kind -> (F coefficients, reported bound)


class Chain:
    name = "chain"
    threads = 1                 # threads that run calls at once

    def __init__(self, seed: int):
        self.triples = chain_triples(seed)

    def warm_up(self):
        incompat.incompatibility_quantifier(self.triples[0].meas, INCOMPAT_KINDS[0])

    def round(self, between=None):
        records, failed = [], []
        for t in self.triples:
            rec = ChainRecord(t, {}, {}, {}, {}, {})
            for kind in INCOMPAT_KINDS:
                try:
                    res = incompat.incompatibility_quantifier(t.meas, kind)
                except SolverFailure:
                    failed.append(("incompat", kind))
                    continue
                rec.incompat[kind] = res.value
                rec.witnesses[kind] = (res.witness.coefficients, res.witness.bound)
            for kind in STEERING_KINDS:
                try:
                    res = steering.steering_quantifier(t.asm, kind)
                except SolverFailure:
                    failed.append(("steering", kind))
                    continue
                rec.steering[kind] = res.value
                rec.inequalities[kind] = (res.inequality.coefficients,
                                          res.inequality.bound)
            for kind in NONLOCALITY_KINDS:
                try:
                    res = nonlocality.nonlocality_quantifier(t.beh, kind, level=1)
                except SolverFailure:
                    failed.append(("nonlocality", kind))
                    continue
                rec.nonlocality[kind] = res.value
            records.append(rec)
            if between:
                between()
        return records, failed


def ladder_set(m: int) -> sc.MeasurementSet:
    return sc.lossy(sc.bloch_measurements(sc.dodecahedron_vectors()[:m]), LADDER_ETA)


class Ladder:
    name = "ladder"
    threads = 1

    def __init__(self, seed: int):
        # the sets are fixed by the paper's example; the seed does not enter
        self.sets = {m: ladder_set(m) for m in LADDER_SIZES}
        singlet = sc.werner(1.0, psi="singlet")
        self.assemblages = {m: sc.steer(singlet, ms) for m, ms in self.sets.items()}

    def warm_up(self):
        incompat.incompatibility_quantifier(ladder_set(5), "robustness")

    def round(self, between=None):
        values, failed = {}, []
        for m, label in LADDER_CALLS:
            if label in ("IR", "IW"):
                fn, arg = incompat.incompatibility_quantifier, self.sets[m]
            else:
                fn, arg = steering.steering_quantifier, self.assemblages[m]
            try:
                values[(m, label)] = fn(arg, LADDER_KINDS[label]).value
            except SolverFailure:
                failed.append((m, label))
            if between:
                between()
        return values, failed


def steering_grid() -> np.ndarray:
    vth = 1 / np.sqrt(3)
    return np.unique(np.concatenate([
        np.arange(vth - 3e-3, vth + 3e-3, 5e-4), np.linspace(0.62, 1.0, 9)]))


def nonlocality_grid() -> np.ndarray:
    vth = 1 / np.sqrt(2)
    return np.unique(np.concatenate([
        np.arange(vth - 3e-3, vth + 3e-3, 5e-4), np.linspace(0.72, 1.0, 8)]))


class Sweep:
    name = "sweep"
    threads = SWEEP_WORKERS

    def __init__(self, seed: int):
        # the criterion-4 grids are fixed; the seed does not enter
        self.specs = (
            experiments.SweepSpec(state_family="werner", grid=steering_grid(),
                                  kinds=list(STEERING_SWEEP_KINDS)),
            experiments.SweepSpec(state_family="werner", grid=nonlocality_grid(),
                                  kinds=list(NONLOCALITY_SWEEP_KINDS),
                                  scenario="nonlocality", level=2),
        )

    def warm_up(self):
        steering.steering_quantifier(
            sc.steer(sc.werner(1.0), sc.paulis("XYZ")), STEERING_SWEEP_KINDS[0])

    def round(self, between=None):
        rows = []
        for spec in self.specs:
            res = experiments.sweep(spec, workers=SWEEP_WORKERS)
            rows.extend((spec.scenario, p, k, v) for p, k, v in res.rows)
            if between:
                between()
        return rows, []


WORKLOADS = {cls.name: cls for cls in (Chain, Ladder, Sweep)}
