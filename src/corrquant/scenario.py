"""Quantum objects of the steering/nonlocality pipeline.

Measurement sets, bipartite states, assemblages, behaviours, deterministic
strategies and hidden-variable models, plus the maps between them
(steer, measure) and the named constructors used by the experiments
(Werner states, partially entangled pure states, Pauli / Bloch / lossy /
dodecahedron measurement sets).

Index conventions: measurement grids are ``(m, n, d, d)`` arrays indexed
``[x, a]``; assemblages ``(m, n, dB, dB)`` indexed ``[x, a]``; behaviour
tables ``(mA, mB, nA, nB)`` indexed ``[x, y, a, b]``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentAssemblage,
    NotHermitian,
    NotPositiveSemidefinite,
    SignallingError,
    StrategyCapExceeded,
)
from .operators import (
    PAULIS,
    asmatrix,
    bloch_projectors,
    hermitize,
    partial_trace,
    tensor,
)

# every strategy count is checked against this module attribute when the
# check runs, so setting it moves every check at once
STRATEGY_CAP = 10 ** 6
PSD_TOL = 1e-9
SUM_TOL = 1e-9
SIGNALLING_TOL = 1e-9


def _require_finite(arr, what):
    """Refuse the first non-finite entry: NaN passes every later check."""
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        raise ValueError(f"{what} entry {bad.tolist()} is {arr[tuple(bad)]}")


def _check_psd_grid(grid, what="effect"):
    """Raise on the first block, in index order, with an eigenvalue below -PSD_TOL."""
    low = np.linalg.eigvalsh(grid)[..., 0]
    if low.size and low.min() < -PSD_TOL:
        idx = tuple(int(i) for i in np.argwhere(low < -PSD_TOL)[0])
        raise NotPositiveSemidefinite(
            f"{what}{list(idx)} has eigenvalue {low[idx]:.3e}")


def _operator_grid(ops, shape, what="effect") -> np.ndarray:
    """A read-only copy of the grid of square blocks ``ops``: its shape is
    ``shape`` (an int fixes that axis, a name leaves it free), each block
    Hermitian by ``hermitize`` (which symmetrizes it) and PSD.  A failure
    names the first bad block in index order."""
    grid = np.asarray(ops, dtype=complex)
    fixed = tuple(k if isinstance(k, int) else s for k, s in zip(shape, grid.shape))
    if (grid.ndim != len(shape) or fixed != grid.shape
            or grid.shape[-1] != grid.shape[-2]):
        raise DimensionMismatch(
            f"{what}s must be ({', '.join(map(str, shape))}), got {grid.shape}")
    _require_finite(grid, what)
    try:
        grid = hermitize(grid)
    except NotHermitian as exc:
        raise NotHermitian(f"{what}{exc}") from None
    _check_psd_grid(grid, what)
    grid.setflags(write=False)
    return grid


class MeasurementSet:
    """m measurements with n outcomes each, acting on dimension d.

    Unequal outcome counts are padded with zero effects so the grid stays
    rectangular; padded outcomes simply never occur.
    """

    def __init__(self, effects):
        eff = _operator_grid(effects, ("m", "n", "d", "d"))
        self.m, self.n, self.d = eff.shape[:3]
        eye = np.eye(self.d)
        for x in range(self.m):
            dev = np.max(np.abs(eff[x].sum(axis=0) - eye))
            if dev > SUM_TOL:
                raise DimensionMismatch(
                    f"effects of input {x} sum to identity only within {dev:.2e}")
        self.effects = eff

    def __repr__(self):
        return f"MeasurementSet(m={self.m}, n={self.n}, d={self.d})"

    def conjugated(self, u) -> "MeasurementSet":
        """Same set with every effect conjugated by the unitary ``u``."""
        u = np.asarray(u, dtype=complex)
        return MeasurementSet(np.einsum("ij,xajk,lk->xail",
                                        u, self.effects, u.conj()))

    def dropped(self, x: int) -> "MeasurementSet":
        """Set with measurement ``x`` removed."""
        keep = [i for i in range(self.m) if i != x]
        return MeasurementSet(self.effects[keep])


class BipartiteState:
    """Density matrix on dA x dB with PSD and unit-trace validation."""

    def __init__(self, rho, dims):
        self.dA, self.dB = dims
        rho = hermitize(asmatrix(rho))
        _require_finite(rho, "state")
        if rho.shape != (self.dA * self.dB,) * 2:
            raise DimensionMismatch(
                f"state dim {rho.shape[0]} != dA*dB = {self.dA * self.dB}")
        ev = np.linalg.eigvalsh(rho)[0]
        if ev < -PSD_TOL:
            raise NotPositiveSemidefinite(f"state eigenvalue {ev:.3e}")
        tr = np.trace(rho).real
        if abs(tr - 1) > PSD_TOL:
            raise ValueError(f"state trace {tr!r} is not 1")
        rho.setflags(write=False)
        self.rho = rho

    def __repr__(self):
        return f"BipartiteState(dA={self.dA}, dB={self.dB})"


class Assemblage:
    """Subnormalized conditional states sigma_{a|x} on Bob's side."""

    def __init__(self, members):
        mem = _operator_grid(members, ("m", "n", "dB", "dB"), what="member")
        self.m, self.n, self.dB = mem.shape[:3]
        sums = mem.sum(axis=1)
        dev = np.max(np.abs(sums - sums[0]))
        if dev > SUM_TOL:
            raise InconsistentAssemblage(
                f"reduced state differs across inputs by {dev:.2e}")
        tr = np.trace(sums[0]).real
        if abs(tr - 1) > SUM_TOL:
            raise InconsistentAssemblage(f"total trace {tr!r} is not 1")
        self.members = mem

    def __repr__(self):
        return f"Assemblage(m={self.m}, n={self.n}, dB={self.dB})"

    def conjugated(self, u) -> "Assemblage":
        u = np.asarray(u, dtype=complex)
        return Assemblage(np.einsum("ij,xajk,lk->xail",
                                    u, self.members, u.conj()))


class Behaviour:
    """Joint conditional probability table P(ab|xy).

    Internally constructed behaviours are no-signalling to rounding;
    ingested experimental tables may violate it and carry
    ``signalling=True`` together with the observed deviation.
    """

    def __init__(self, table):
        # a copy, so that freezing it leaves the caller's array writable
        tab = np.array(table, dtype=float)
        if tab.ndim != 4:
            raise DimensionMismatch(f"table must be (mA, mB, nA, nB), got {tab.shape}")
        self.mA, self.mB, self.nA, self.nB = tab.shape
        _require_finite(tab, "table")
        if np.min(tab) < -1e-12:
            raise ValueError(f"negative probability {np.min(tab):.3e}")
        norms = tab.sum(axis=(2, 3))
        if np.max(np.abs(norms - 1)) > SUM_TOL:
            raise ValueError(
                f"slice normalization off by {np.max(np.abs(norms - 1)):.2e}")
        # no-signalling deviation, both directions
        pa = tab.sum(axis=3)                      # (mA, mB, nA)
        pb = tab.sum(axis=2)                      # (mA, mB, nB)
        dev = max(np.max(np.abs(pa - pa[:, :1])),
                  np.max(np.abs(pb - pb[:1, :])))
        self.signalling_deviation = float(dev)
        self.signalling = bool(dev > SIGNALLING_TOL)
        tab.setflags(write=False)
        self.table = tab

    def __repr__(self):
        flag = ", signalling" if self.signalling else ""
        return (f"Behaviour(mA={self.mA}, nA={self.nA}, "
                f"mB={self.mB}, nB={self.nB}{flag})")

    def require_no_signalling(self):
        if self.signalling_deviation > SIGNALLING_TOL:
            raise SignallingError(
                f"signalling deviation {self.signalling_deviation:.2e} "
                f"> {SIGNALLING_TOL:.1e}")


def behaviour_marginal(b: Behaviour, party: str) -> np.ndarray:
    """Marginal table P(a|x) (party="A") or P(b|y) (party="B") of a
    no-signalling behaviour."""
    b.require_no_signalling()
    if party in ("A", "a"):
        return b.table[:, 0].sum(axis=2)        # (mA, nA), read at y = 0
    if party in ("B", "b"):
        return b.table[0].sum(axis=1)           # (mB, nB), read at x = 0
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


def strategy_count(m: int, n: int) -> int:
    return n ** m


def check_strategy_cap(m: int, n: int) -> int:
    total = strategy_count(m, n)
    if total > STRATEGY_CAP:
        raise StrategyCapExceeded(
            f"n^m = {total} deterministic strategies exceed the cap {STRATEGY_CAP}")
    return total


def strategy_assignments(m: int, n: int) -> np.ndarray:
    """(n^m, m) integer array of the deterministic strategies' outcome
    assignments, lexicographic: strategy i assigns input x the x-th
    base-n digit of i, most significant first."""
    total = check_strategy_cap(m, n)
    idx = np.arange(total)
    cols = []
    for x in range(m):
        cols.append((idx // n ** (m - 1 - x)) % n)
    return np.stack(cols, axis=1)


def strategy_masks(m: int, n: int):
    """masks[x][a] = indices of strategies assigning outcome a to input x."""
    assign = strategy_assignments(m, n)
    return [[np.nonzero(assign[:, x] == a)[0] for a in range(n)]
            for x in range(m)]


def coarse_grain(blocks: np.ndarray, m: int, n: int) -> np.ndarray:
    """(m, n, d, d) grid of sum_{lambda: lambda_x = a} blocks[lambda]: the
    marginals of a parent POVM, or the assemblage of an LHS model.  Only
    the nonzero blocks are summed, read by their strategies' digits."""
    live = np.flatnonzero(np.any(blocks.reshape(len(blocks), -1) != 0, axis=1))
    assign = strategy_assignments(m, n)[live]
    d = blocks.shape[1]
    out = np.zeros((m, n, d, d), dtype=complex)
    for x in range(m):
        np.add.at(out[x], assign[:, x], blocks[live])
    return out


class LocalModel:
    """Weights q(mu, nu) over deterministic strategy pairs."""

    def __init__(self, weights, scenario):
        self.mA, self.nA, self.mB, self.nB = scenario
        w = np.array(weights, dtype=float)     # a copy, frozen below
        la = strategy_count(self.mA, self.nA)
        lb = strategy_count(self.mB, self.nB)
        if w.shape != (la, lb):
            raise DimensionMismatch(f"weights must be ({la}, {lb}), got {w.shape}")
        _require_finite(w, "weight")
        if np.min(w) < -PSD_TOL:
            raise ValueError(f"negative weight {np.min(w):.3e}")
        if abs(w.sum() - 1) > SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        w.setflags(write=False)
        self.weights = w

    def behaviour(self) -> Behaviour:
        ea = np.eye(self.nA)[strategy_assignments(self.mA, self.nA)]
        eb = np.eye(self.nB)[strategy_assignments(self.mB, self.nB)]
        return Behaviour(np.einsum("mn,mxa,nyb->xyab", self.weights, ea, eb))


class LhsModel:
    """Subnormalized hidden states sigma_lambda, one per strategy."""

    def __init__(self, states, scenario):
        self.m, self.n = scenario
        st = _operator_grid(states, (strategy_count(self.m, self.n), "d", "d"),
                            what="state")
        tr = np.einsum("lii->", st).real
        if abs(tr - 1) > SUM_TOL:
            raise ValueError(f"model trace {tr!r} is not 1")
        self.states = st

    def assemblage(self) -> Assemblage:
        return Assemblage(coarse_grain(self.states, self.m, self.n))


class ParentPovm:
    """Effects G_vec indexed by outcome vectors in strategy order."""

    def __init__(self, effects, scenario):
        self.m, self.n = scenario
        eff = _operator_grid(effects, (strategy_count(self.m, self.n), "d", "d"))
        self.d = eff.shape[1]
        dev = np.max(np.abs(eff.sum(axis=0) - np.eye(self.d)))
        if dev > SUM_TOL:
            raise ValueError(f"parent effects sum to identity within {dev:.2e} only")
        self.effects = eff

    def coarse_grain(self) -> MeasurementSet:
        """Marginal measurements sum_{vec: vec_x = a} G_vec."""
        return MeasurementSet(coarse_grain(self.effects, self.m, self.n))


# ---------------------------------------------------------------------------
# the two maps of the pipeline
# ---------------------------------------------------------------------------

def steer(state: BipartiteState, measurements: MeasurementSet) -> Assemblage:
    """sigma_{a|x} = tr_A[(M_{a|x} (x) 1) rho]."""
    if measurements.d != state.dA:
        raise DimensionMismatch(
            f"measurement dim {measurements.d} != Alice dim {state.dA}")
    eyeB = np.eye(state.dB)
    mem = np.empty((measurements.m, measurements.n, state.dB, state.dB),
                   dtype=complex)
    for x in range(measurements.m):
        for a in range(measurements.n):
            big = tensor(measurements.effects[x, a], eyeB) @ state.rho
            mem[x, a] = partial_trace(big, (state.dA, state.dB), "B")
    return Assemblage(mem)


def measure(assemblage: Assemblage, bob: MeasurementSet) -> Behaviour:
    """P(ab|xy) = tr[M'_{b|y} sigma_{a|x}]."""
    if bob.d != assemblage.dB:
        raise DimensionMismatch(
            f"Bob dim {bob.d} != assemblage dim {assemblage.dB}")
    tab = np.einsum("ybij,xaji->xyab", bob.effects, assemblage.members).real
    return Behaviour(np.clip(tab, 0.0, None))


def reduced_state(assemblage: Assemblage) -> np.ndarray:
    """rho_B = sum_a sigma_{a|0}, the same for every x (``Assemblage``
    checked it)."""
    return assemblage.members[0].sum(axis=0)


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def max_entangled(d: int = 2) -> BipartiteState:
    """|phi+> = sum_i |ii>/sqrt(d)."""
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1 / np.sqrt(d)
    return BipartiteState(np.outer(vec, vec.conj()), (d, d))


def singlet() -> BipartiteState:
    """(|01> - |10>)/sqrt(2)."""
    vec = np.zeros(4, dtype=complex)
    vec[1], vec[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    return BipartiteState(np.outer(vec, vec.conj()), (2, 2))


def werner(v: float, psi: str = "phi+") -> BipartiteState:
    """v |psi><psi| + (1-v) 1/4 with |psi> maximally entangled.

    ``psi`` picks the entangled component: "phi+" (default) or "singlet".
    """
    if not 0 <= v <= 1:
        raise ValueError(f"visibility {v!r} outside [0, 1]")
    if psi not in ("phi+", "singlet"):
        raise ValueError(f"psi {psi!r} is neither 'phi+' nor 'singlet'")
    base = max_entangled(2) if psi == "phi+" else singlet()
    rho = v * base.rho + (1 - v) * np.eye(4) / 4
    return BipartiteState(rho, (2, 2))


def pure_theta(theta: float) -> BipartiteState:
    """cos(theta)|00> + sin(theta)|11>, full Schmidt rank for 0 < theta <= pi/4."""
    if not 0 < theta <= np.pi / 4:
        raise ValueError(f"theta {theta!r} outside (0, pi/4]")
    vec = np.zeros(4, dtype=complex)
    vec[0], vec[3] = np.cos(theta), np.sin(theta)
    return BipartiteState(np.outer(vec, vec.conj()), (2, 2))


def paulis(which: str = "XYZ") -> MeasurementSet:
    """Sharp qubit measurements of the named Pauli operators."""
    grid = []
    for ch in which:
        sigma = PAULIS[ch.upper()]
        vals, vecs = np.linalg.eigh(sigma)
        # outcome 0 = +1 eigenvalue, outcome 1 = -1
        order = np.argsort(-vals)
        grid.append([np.outer(vecs[:, i], vecs[:, i].conj()) for i in order])
    return MeasurementSet(np.asarray(grid))


def bloch_measurements(vectors) -> MeasurementSet:
    """Projective qubit measurements along unit Bloch vectors."""
    grid = [bloch_projectors(v) for v in np.asarray(vectors, dtype=float)]
    return MeasurementSet(np.asarray(grid))


def lossy(base: MeasurementSet, etas) -> MeasurementSet:
    """Lossy POVMs: effects (eta_x P_0, eta_x P_1, (1-eta_x) I).

    ``base`` must be dichotomic; the third outcome collects no-click events.
    """
    etas = np.broadcast_to(np.asarray(etas, dtype=float), (base.m,))
    if np.any((etas < 0) | (etas > 1)):
        raise ValueError(f"efficiencies {etas} outside [0, 1]")
    if base.n != 2:
        raise DimensionMismatch("lossy() expects a dichotomic base set")
    eye = np.eye(base.d)
    grid = np.zeros((base.m, 3, base.d, base.d), dtype=complex)
    for x in range(base.m):
        grid[x, 0] = etas[x] * base.effects[x, 0]
        grid[x, 1] = etas[x] * base.effects[x, 1]
        grid[x, 2] = (1 - etas[x]) * eye
    return MeasurementSet(grid)


def dodecahedron_vectors() -> np.ndarray:
    """Ten unit Bloch vectors: antipodal-pair representatives of the 20
    vertices (+-1,+-1,+-1), (0,+-1/phi,+-phi) and cyclic permutations,
    picked with positive first nonzero coordinate."""
    phi = (1 + np.sqrt(5)) / 2
    verts = []
    for signs in itertools.product([1, -1], repeat=3):
        verts.append([signs[0], signs[1], signs[2]])
    for s1, s2 in itertools.product([1, -1], repeat=2):
        verts.append([0, s1 / phi, s2 * phi])
        verts.append([s1 / phi, s2 * phi, 0])
        verts.append([s1 * phi, 0, s2 / phi])
    verts = np.asarray(verts, dtype=float)
    reps = []
    for v in verts:
        first = v[np.nonzero(v)[0][0]]
        if first > 0:
            reps.append(v / np.linalg.norm(v))
    reps = np.asarray(reps)
    assert reps.shape == (10, 3)
    return reps


def dodecahedron() -> MeasurementSet:
    """Ten projective qubit measurements along dodecahedron vertex pairs."""
    return bloch_measurements(dodecahedron_vectors())


def make_measurements(spec: dict) -> MeasurementSet:
    """Dispatch on {"family": "paulis"|"bloch"|"lossy"|"dodecahedron", ...}."""
    family = spec["family"]
    if family == "paulis":
        return paulis(spec.get("which", "XYZ"))
    if family == "bloch":
        return bloch_measurements(spec["vectors"])
    if family == "lossy":
        return lossy(make_measurements(spec["base"]), spec["etas"])
    if family == "dodecahedron":
        return dodecahedron()
    raise ValueError(f"unknown measurement family {family!r}")
