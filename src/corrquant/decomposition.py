"""One conic program behind every incompatibility and steering quantifier,
and behind membership of the jointly measurable and LHS sets.

Steering quantifiers are incompatibility quantifiers with the reference
R = rho_B standing where R = 1 stood (the quantitative form of the
steering / joint-measurability map of Uola, Budroni, Guehne & Pellonpaa,
PRL 115, 230402, 2015): the consistent steering kinds solve the four
incompatibility rows at R = rho_B (:data:`corrquant.steering.ROW`), and
the table adds the rows whose noise keeps a free reduced state.  Every
kind matches, per input x and outcome a,

    sum_{lambda: lambda_x = a} G_lambda + sign * noise_{a|x} = D_{a|x},

with data D (effects M_{a|x}, or members sigma_{a|x}), PSD blocks G_lambda
over the deterministic strategies, and noise weight t minimized.  Each
kind is one row of :data:`KINDS`:

* ``noise``: "free", one PSD block N_{a|x} per (x, a); "white", t R/n;
  or "model", a strategy model sum_{lambda_x = a} H_lambda;
* ``sign``: -1 for robustness kinds, +1 for weight kinds;
* ``norm``: "consistent", the noise sums to t R over every input's
  outcomes (one row, sum_a N_{a|0} = t R or sum_lambda H_lambda = t R,
  and none for white noise, which sums to t R as it is); or "trace",
  one scalar row fixing only the noise's total trace to t (on H, or
  through the x = 0 match rows on G).

The weight t is nonnegative in every row.  Membership (:func:`max_margin`)
solves sum_{lambda_x = a} G_lambda = D_{a|x} - w 1/n for the largest
margin w, which is >= 0 exactly on members.  Its x = 0
rows give sum_lambda G_lambda = sum_a D_{a|0} - w 1, PSD, and
sum_a D_{a|0} is 1 (effects) or a state (members), so w <= 1: the
program is the "random_robustness" row at R = 1 on the data D - 1/n,
with t = 1 - w >= 0, and no row has a free variable.

The variables are the scaled-variable linearization: G absorbs the
mixture denominator (G = (1 - sign*t) times the normalized parent or
model) and the noise absorbs t, so the fractional mixture constraints
are linear.  Free noise keeps every match row; white and model noise
drop the last outcome for x > 0, where summed over outcomes every
input's rows give the same equation, so A keeps full row rank.  Families
are declared in one order: N, G, H, then t.

Dual multipliers of the match rows are the witness (incompatibility) or
steering-inequality (steering) coefficients; their bound is enumerated
over the deterministic strategies.

The nonlocality quantifiers read the same rows: each is the program of
the steering kind it bounds, with the parent changed to nonnegative
weights over strategy pairs and the match rows written on Collins-Gisin
coordinates (:func:`corrquant.nonlocality.build_program`).
:func:`solve` is the one solve-or-raise step of every program.

At the optimum almost every strategy block is empty, so
:func:`solve_strategies` solves a program of :func:`build_program` with
more than WORKING_SET strategies by Dantzig-Wolfe column generation
(Dantzig & Wolfe, Oper. Res. 8, 1960), and a smaller one in one pass, as built:

* **Working set.** Each strategy family keeps its own.  G starts with
  the WORKING_SET strategies of largest data price
  lambda_max(sum_x D_{lambda_x|x}) (:func:`strategy_prices` on the
  caller's data, the witness bound's kernel), plus the best strategy of
  every match row they miss.  The H blocks of the model-noise kinds,
  which enter the match rows with the opposite sign, start the same way
  on the negated data.
* **Restricted program.** The builders' program with the other G and H
  blocks dropped at the conic layer (:meth:`ConicProgram.restrict`),
  solved by :meth:`ConicProgram.solve`.
* **Pricing.** Each dropped block's reduced cost is lambda_min of its
  dual slack c - A^T y (closed form at d = 2); when the restricted
  program is infeasible, of -A^T y on its ray (Farkas pricing).  In
  each family the most violated blocks, at most WORKING_SET, join, and
  the loop repeats until none is below -conic.MARGIN_TOL.
* **Certificate.** That last pricing pass over all strategies makes the
  restricted duals dual-feasible for the whole program.  The returned
  solution has the whole program's shapes: zero primal blocks and the
  priced dual slack off the working set, so ``verify_solution`` on the
  whole program checks it.  It records the working-set size, the
  rounds and the worst reduced cost.

Reconstruction.  :func:`reconstruct` unscales a solution into the
defining decomposition for every kind, and :func:`max_margin` does the
same for membership, by one normalization rule
(:func:`_normalize`): the nonzero blocks are clipped PSD and mapped by
one congruence X -> C X C^H, C = T^1/2 S^-1/2 on the support of T and S
their sum, so they sum to T exactly and zero blocks (those off a
column-generation working set) stay zero.  T = R on the "consistent"
rows, membership included.  The "trace" rows (SR, SW, SR_lhs) fix only
the noise's trace, so the noise
has a free reduced state and the parent or model sums to
(rho_B - sign * t * rho_N) / (1 - sign * t), not to rho_B; there T is
the blocks' own sum at unit trace.  Free noise is rebuilt from the
normalized parent, sign * (D - (1 - sign*t) * coarse_grain(parent)) / t,
so the decomposition holds to rounding rather than to the (1/t)-amplified
solver residual, and a tiny negative eigenvalue left in it is repaired
by a blend that keeps every input's sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import conic
from .conic import (ConicProgram, ConicSolution, duals_to_vec, hermitian_coords,
                    hermitian_eigvalsh, hermitian_from_coords)
from .errors import SolverFailure, ValidationError
from .operators import hermitize
from .scenario import (check_strategy_cap, coarse_grain, strategy_assignments,
                       strategy_masks)

TINY = 1e-9     # noise weights and scales below this are treated as zero
MEMBERSHIP_TOL = 5e-8   # margins down to -MEMBERSHIP_TOL count as members
# column generation: strategies in the first restricted program, and the
# most added per pricing round; programs with no more are solved whole
WORKING_SET = 256


@dataclass(frozen=True)
class Decomposition:
    noise: str          # "free" | "white" | "model"
    sign: float         # -1 robustness, +1 weight
    norm: str           # "consistent" | "trace"


KINDS = {
    # incompatibility at R = 1; the consistent steering kinds at R = rho_B
    "robustness": Decomposition("free", -1.0, "consistent"),
    "random_robustness": Decomposition("white", -1.0, "consistent"),
    "jm_robustness": Decomposition("model", -1.0, "consistent"),
    "weight": Decomposition("free", +1.0, "consistent"),
    # steering with the noise's reduced state free, R = rho_B
    "SR": Decomposition("free", -1.0, "trace"),
    "SR_lhs": Decomposition("model", -1.0, "trace"),
    "SW": Decomposition("free", +1.0, "trace"),
}


def parse_kind(enum: type[Enum], text: str, aliases: dict) -> Enum:
    """The member of ``enum`` named by ``text`` (``text`` itself if it is
    one), matched after dropping case and the separators ^ / - _;
    ``aliases`` maps further names, so flattened, to members."""
    if isinstance(text, enum):
        return text
    key = _flat(text)
    kind = _flat_members(enum).get(key, aliases.get(key))
    if kind is None:
        raise ValidationError(f"unknown {enum.__name__} {text!r}: expected one of "
                              f"{', '.join(k.value for k in enum)}")
    return kind


def _flat(text: str) -> str:
    return (text.strip().lower().replace("^", "").replace("/", "")
            .replace("-", "").replace("_", ""))


@lru_cache(maxsize=None)
def _flat_members(enum: type[Enum]) -> dict:
    """Flattened value -> member of ``enum``, the first member of each."""
    members = {}
    for kind in enum:
        members.setdefault(_flat(kind.value), kind)
    return members


def match_rows(m: int, n: int, noise: str):
    """(x, a) pairs of the match rows: all for free noise; otherwise the
    last outcome dropped for x > 0, as every input's rows sum to the same
    equation."""
    return [(x, a) for x in range(m)
            for a in range(n if noise == "free" or x == 0 else n - 1)]


def build_program(name: str, kind: str, data: np.ndarray,
                  reference: np.ndarray) -> ConicProgram:
    """The program ``name`` of ``KINDS[kind]`` on an (m, n, d, d) data grid:
    the shared structure of its shape (:func:`_structure`) with this
    call's values, b from the data and t's coefficients from the
    reference.  A program with more than WORKING_SET strategies is solved
    by column generation on restricted programs, each a structure of its
    own, so its structure is built afresh and not kept."""
    row = KINDS[kind]
    m, n, d = data.shape[:3]
    total = check_strategy_cap(m, n)
    # the one data matrix in A: white noise's sign R/n in every match row,
    # or -R in the norm row of consistent free and model noise
    noise = (row.sign * reference / n if row.noise == "white"
             else -reference if row.norm == "consistent" else None)
    structure = (_structure if total <= WORKING_SET else _structure.__wrapped__)(
        kind, m, n, d)
    xs, outcomes = _match_index(m, n, row.noise)
    rhs = structure.rhs().copy()
    match = hermitian_coords(hermitize(data[xs, outcomes]), d).ravel()
    rhs[:match.size] = match
    values = {}
    if noise is not None:
        # every touch of t reads all d * d coordinates of the noise matrix
        coords = hermitian_coords(hermitize(noise), d)
        _, _, _, U = structure.families["t"].stacked()
        values["t"] = (np.concatenate([coords] * len(U))[:, None], None)
    return structure.with_values(name, rhs, values)


@lru_cache(maxsize=None)
def _match_index(m: int, n: int, noise: str):
    """(xs, outcomes): :func:`match_rows` as two read-only index arrays."""
    index = np.array(match_rows(m, n, noise), dtype=np.int64).reshape(-1, 2).T
    index.flags.writeable = False
    return index[0], index[1]


@lru_cache(maxsize=None)
def _structure(kind: str, m: int, n: int, d: int) -> ConicProgram:
    """The shared, read-only structure of ``KINDS[kind]`` on (m, n, d) data:
    the program at zero data, with t reading the matrix of unit Hermitian
    coordinates, which :func:`build_program` overwrites.  ``__wrapped__``
    builds a new one."""
    row = KINDS[kind]
    total = check_strategy_cap(m, n)
    masks = strategy_masks(m, n)
    every = np.arange(total)
    unit = hermitian_from_coords(np.ones(d * d), d)

    prog = ConicProgram(kind)
    if row.noise == "free":
        prog.add_hermitian_family("N", m * n, d)
    prog.add_hermitian_family("G", total, d)
    if row.noise == "model":
        prog.add_hermitian_family("H", total, d)
    prog.add_nonneg("t", 1)
    for x, a in match_rows(m, n, row.noise):
        if row.noise == "free":
            noise = ("sum", "N", x * n + a, row.sign)
        elif row.noise == "white":
            noise = ("scalar_mat", "t", 0, unit)
        else:
            noise = ("sum", "H", masks[x][a], row.sign)
        prog.add_matrix_row_group(("match", x, a), np.zeros((d, d)),
                                  [("sum", "G", masks[x][a], 1.0), noise])
    if row.norm == "trace" and row.noise == "model":
        # tr sum_lambda H_lambda = t
        prog.add_scalar_row(("norm",), 0.0, [("tr", "H", every, 1.0),
                                             ("lin", "t", [0], [-1.0])])
    elif row.norm == "trace":
        # the x = 0 match rows carry tr sum_a N_{a|0} = t over to G:
        # tr sum_lambda G_lambda = 1 - sign * t
        prog.add_scalar_row(("norm",), 1.0, [("tr", "G", every, 1.0),
                                             ("lin", "t", [0], [row.sign])])
    elif row.noise == "free":
        # sum_a N_{a|0} = t R; the match rows carry it to every x
        prog.add_matrix_row_group(
            ("norm", 0), np.zeros((d, d)),
            [("sum", "N", np.arange(n), 1.0), ("scalar_mat", "t", 0, unit)])
    elif row.noise == "model":
        # sum_lambda H_lambda = t R (white noise t R/n sums to t R as it is)
        prog.add_matrix_row_group(
            ("norm",), np.zeros((d, d)),
            [("sum", "H", every, 1.0), ("scalar_mat", "t", 0, unit)])
    prog.set_objective([("lin", "t", [0], [1.0])])
    return prog.share()


def solve(prog: ConicProgram) -> ConicSolution:
    """Solve; raise unless optimal."""
    return _optimal(prog, prog.solve())


def solve_strategies(prog: ConicProgram, data: np.ndarray) -> ConicSolution:
    """Solve a program of :func:`build_program` on its (m, n, d, d) data
    grid; raise unless optimal.  With more than WORKING_SET strategy
    blocks it runs column generation (module docstring)."""
    families = prog.families
    fams = [families[name] for name in ("G", "H") if name in families]
    if fams[0].count <= WORKING_SET:
        return solve(prog)
    keep = {f.name: _starting_set(f, strategy_prices(sign * data))
            for f, sign in zip(fams, (1, -1))}
    iterations = 0
    for rounds in itertools.count(1):
        sol = prog.restrict(keep).solve()
        iterations += sol.iterations
        if sol.status == "optimal":
            y = duals_to_vec(prog, sol.dual_rows)
            slack = {f.name: f.cost - prog.column_products(f.name, y)
                     for f in fams}
        elif sol.status == "infeasible":
            # Farkas pricing: the ray stops certifying infeasibility once
            # a block on which -A^T y leaves the cone joins
            y = duals_to_vec(prog, sol.ray)
            slack = {f.name: -prog.column_products(f.name, y) for f in fams}
        else:
            break
        cost = {}
        for f in fams:
            cost[f.name] = hermitian_eigvalsh(slack[f.name], f.dim)[:, 0]
            cost[f.name][keep[f.name]] = np.inf
        worst = min(c.min() for c in cost.values())
        if worst >= -conic.MARGIN_TOL:
            break
        for name, c in cost.items():
            add = np.argsort(c, kind="stable")[:WORKING_SET]
            keep[name] = np.union1d(keep[name], add[c[add] < -conic.MARGIN_TOL])
    sol = _optimal(prog, sol)
    full = replace(sol, primal=dict(sol.primal), dual_slack=dict(sol.dual_slack),
                   iterations=iterations, rounds=rounds, reduced_cost=float(worst),
                   working_set=np.unique(np.concatenate(list(keep.values()))).size)
    for f in fams:
        full.primal[f.name] = np.zeros((f.count, f.dim, f.dim), dtype=complex)
        full.primal[f.name][keep[f.name]] = sol.primal[f.name]
        full.dual_slack[f.name] = f.mats(slack[f.name])
        full.dual_slack[f.name][keep[f.name]] = sol.dual_slack[f.name]
    return full


def _optimal(prog: ConicProgram, sol: ConicSolution) -> ConicSolution:
    if sol.status != "optimal":
        raise SolverFailure(f"{prog.name} solve returned {sol.status}",
                            program=prog)
    return sol


def _starting_set(fam, price: np.ndarray) -> np.ndarray:
    """The WORKING_SET strategies of highest ``price``, plus the best one
    in each row group they miss, so every (x, a) has a strategy; sorted."""
    chosen = np.zeros(price.size, dtype=bool)
    chosen[np.argsort(-price, kind="stable")[:WORKING_SET]] = True
    _, _, _, U = fam.stacked()
    for weights in U:
        hit = np.flatnonzero(weights)
        if not chosen[hit].any():
            chosen[hit[np.argmax(price[hit])]] = True
    return np.flatnonzero(chosen)


def match_duals(sol: ConicSolution, m: int, n: int, d: int) -> np.ndarray:
    """(m, n, d, d) grid of the match rows' dual matrices (zero where a
    row was pruned)."""
    grid = np.zeros((m, n, d, d), dtype=complex)
    for key, val in sol.dual_rows.items():
        if key[0] == "match":
            _, x, a = key
            grid[x, a] = val
    return grid


def quantify(name: str, kind: str, data: np.ndarray, reference: np.ndarray):
    """Solve program ``name`` of one kind: (noise weight t >= 0, solution,
    match-row duals)."""
    m, n, d = data.shape[:3]
    sol = solve_strategies(build_program(name, kind, data, reference), data)
    t = max(float(sol.primal["t"][0]), 0.0)
    return t, sol, match_duals(sol, m, n, d)


def max_margin(name: str, data: np.ndarray, reference: np.ndarray):
    """Solve membership, the "random_robustness" row at R = 1 on D - 1/n
    (module docstring): (margin w* = 1 - t*, blocks, duals).

    Within MEMBERSHIP_TOL of the boundary, ``blocks`` are the G_lambda
    shifted by w*/L (so they reproduce D) and normalized to sum to the
    reference, and ``duals`` is None; otherwise ``blocks`` is None and
    ``duals`` is the match-row dual grid, the certificate of
    non-membership.
    """
    n, d = data.shape[1:3]
    t, sol, duals = quantify(name, "random_robustness", data - np.eye(d) / n, np.eye(d))
    margin = 1.0 - t
    if margin >= -MEMBERSHIP_TOL:
        blocks = sol.primal["G"] + (margin / len(sol.primal["G"])) * np.eye(d)
        return margin, _normalize(blocks, reference), None
    return margin, None, duals


def reconstruct(kind: str, sol: ConicSolution, data: np.ndarray,
                reference: np.ndarray, t: float):
    """The defining decomposition of ``KINDS[kind]`` from its solution at
    noise weight ``t``: (noise grid, parent blocks, noise-parent blocks or
    None), by the rule of the module docstring."""
    row = KINDS[kind]
    m, n = data.shape[:2]
    target = None if row.norm == "trace" else reference
    scale = 1.0 - row.sign * t
    G = sol.primal["G"]

    def uniform():
        return np.broadcast_to(reference / len(G), G.shape)

    parent = _normalize(G, target) if scale > TINY else uniform()
    if row.noise == "model":
        noise_parent = _normalize(sol.primal["H"], target) if t > TINY else uniform()
        return coarse_grain(noise_parent, m, n), parent, noise_parent
    if row.noise == "free" and t > TINY:
        noise = row.sign * (data - scale * coarse_grain(parent, m, n)) / t
        return _blend_rows(noise), parent, None
    return np.broadcast_to(reference / n, data.shape).copy(), parent, None


def _normalize(blocks: np.ndarray, target: np.ndarray | None) -> np.ndarray:
    """``blocks`` (Hermitian) with their nonzero members clipped PSD and all
    mapped by X -> C X C^H, C = T^1/2 S^-1/2 on the support of T, S the
    clipped sum: they then sum to T exactly, and zero blocks stay zero.
    T is ``target``, or S at unit trace when ``target`` is None.  Only a
    block with a negative eigenvalue (closed form at d = 2) is clipped."""
    d = blocks.shape[-1]
    live = np.flatnonzero(blocks.any(axis=(1, 2)))
    clipped = blocks[live]
    neg = np.flatnonzero(hermitian_eigvalsh(hermitian_coords(clipped, d), d)[:, 0] < 0)
    if neg.size:
        vals, vecs = np.linalg.eigh(clipped[neg])
        clipped[neg] = np.einsum("lik,lk,ljk->lij", vecs, np.clip(vals, 0.0, None),
                                 vecs.conj())
    total = clipped.sum(axis=0)
    if target is None:
        target = total / np.trace(total).real
    vals, vecs = np.linalg.eigh(target)
    vecs, root = vecs[:, vals > TINY], np.sqrt(vals[vals > TINY])
    s_vals, s_vecs = np.linalg.eigh(vecs.conj().T @ total @ vecs)
    inv_root = (s_vecs / np.sqrt(s_vals)) @ s_vecs.conj().T
    c = vecs @ (root[:, None] * inv_root) @ vecs.conj().T
    out = np.zeros(blocks.shape, dtype=complex)
    out[live] = c @ clipped @ c.conj().T
    return out


def _blend_rows(grid: np.ndarray) -> np.ndarray:
    """Repair tiny negative eigenvalues in an (m, n, d, d) grid by blending
    each input's row toward its outcome average, which preserves the
    per-input sums exactly; a row whose average is not positive definite
    is left as it is."""
    out = grid.copy()
    for row in out:
        avg = row.mean(axis=0)
        lam = np.linalg.eigvalsh(row).min()
        lam_avg = np.linalg.eigvalsh(avg)[0]
        if lam < 0 < lam_avg:
            w = min(1.0, -lam / (-lam + lam_avg) * (1 + 1e-9))
            row[...] = (1 - w) * row + w * avg
    return out


def strategy_prices(coefficients: np.ndarray) -> np.ndarray:
    """lambda_max(sum_x C_{lambda_x|x}) of every strategy lambda, from an
    (m, n, d, d) grid C (closed form at d = 2)."""
    m, n, d = coefficients.shape[:3]
    coords = conic.hermitian_coords(coefficients, d)
    assign = strategy_assignments(m, n)
    sums = sum(coords[x, assign[:, x]] for x in range(m))
    return hermitian_eigvalsh(sums, d)[:, -1]


def strategy_bound(coefficients: np.ndarray) -> float:
    """max over strategies lambda of lambda_max(sum_x Y_{lambda_x|x}): the
    largest value sum tr[Y D] takes on any D with a parent / LHS model."""
    return float(np.max(strategy_prices(coefficients)))
