"""Local-polytope membership, the seven nonlocality quantifiers,
no-signalling projection of experimental data, and Bell-inequality
extraction.

Each nonlocality quantifier is a lower bound on one steering quantifier
(:data:`STEERING_KIND`), because it is the same decomposition with the
parent changed from PSD blocks over strategies to weights G over strategy
pairs: :func:`build_program` writes a row of
:data:`corrquant.decomposition.KINDS` at a Bob marginal, as
:func:`corrquant.decomposition.build_program` writes one at a reference
R, on Collins-Gisin coordinates (full tables are rank deficient under
no-signalling).  A quantifier writes the row its steering kind solves
(:data:`corrquant.steering.ROW`) at the behaviour's Bob marginal, and
:func:`is_local` NLR_mar's row ("random_robustness") at the uniform one
on the table shifted by the uniform behaviour (the membership program of
:mod:`corrquant.decomposition`),

    sum_p G_p S_pk + sign * noise_k = cg_k,

with noise_k a cell of a scaled moment block Qtilde = t*Q with
Gamma[0,0] = t ("free" noise: the quantum set, which keeps the bilinear
product linear and makes the value a certified lower bound at the chosen
relaxation level), t times the uniform-Alice noise at the Bob marginal
("white"; the uniform behaviour at the uniform marginal), or
sum_p H_p S_pk with t = sum_p H_p ("model": local noise).  A
"consistent" row with free or model noise adds the rows fixing the
noise's Bob marginal to t times the marginal (white noise has it as it
is).  Kinds with polyhedral noise are LP-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import scenario
from .cg import CgLayout, strategy_cg_matrix
from .conic import ConicProgram, ConicSolution
from .decomposition import KINDS, MEMBERSHIP_TOL, TINY, parse_kind, solve
from .errors import SolverFailure, StrategyCapExceeded, ValidationError
from .npa import build_npa_block, cell_functional
from .scenario import (
    Behaviour,
    LocalModel,
    behaviour_marginal,
    check_strategy_cap,
)
from .steering import ROW, SteeringKind

# ns_project: the log-barrier weight keeping its iterate interior, and
# its Newton iteration limit
NS_BARRIER = 1e-12
NS_MAXITER = 200


class NonlocalityKind(str, Enum):
    NLR = "NLR"                  # arbitrary quantum noise (SDP-relaxed)
    NLR_mar = "NLR_mar"          # uniform-Alice marginal noise (LP)
    NLR_lhv = "NLR_lhv"          # local noise (LP)
    NLW = "NLW"                  # nonlocal weight / EPR2 (SDP-relaxed)
    NLR_c = "NLR_c"              # consistent quantum noise (SDP-relaxed)
    NLR_c_lhv = "NLR_c_lhv"      # consistent local noise (LP)
    NLW_c = "NLW_c"              # consistent weight (SDP-relaxed)


# the steering kind each nonlocality kind bounds from below
STEERING_KIND = {
    NonlocalityKind.NLR: SteeringKind.SR,
    NonlocalityKind.NLR_mar: SteeringKind.SR_red,
    NonlocalityKind.NLR_lhv: SteeringKind.SR_lhs,
    NonlocalityKind.NLW: SteeringKind.SW,
    NonlocalityKind.NLR_c: SteeringKind.SR_c,
    NonlocalityKind.NLR_c_lhv: SteeringKind.SR_c_lhs,
    NonlocalityKind.NLW_c: SteeringKind.SW_c,
}


@dataclass
class BellInequality:
    """Bell functional with its enumerated classical bound.

    Every local behaviour R satisfies sum coeffs*R <= bound; the
    certified behaviour violates it by ``violation``, which equals the
    quantifier value for LP-exact kinds.  For SDP-relaxed kinds the
    certificate is valid at the stated relaxation level only and
    ``level`` records it (None for LP-exact).
    """

    coefficients: np.ndarray     # (mA, mB, nA, nB)
    bound: float
    violation: float
    level: int | None = None

    def evaluate(self, table: np.ndarray) -> float:
        return float(np.sum(self.coefficients * table))


@dataclass
class LocalDecision:
    local: bool
    margin: float
    model: LocalModel | None = None
    inequality: BellInequality | None = None


@dataclass
class NonlocalityResult:
    kind: NonlocalityKind
    value: float
    certified_lower_bound: bool          # True for SDP-relaxed kinds
    level: int | None
    noise_table: np.ndarray | None       # witness noise behaviour table
    model: LocalModel                    # local model of mixture / remainder
    noise_model: LocalModel | None       # for local-noise kinds
    inequality: BellInequality
    gap: float
    solution: ConicSolution


def _scenario(b: Behaviour):
    return (b.mA, b.nA, b.mB, b.nB)


def _pair_weights_to_model(q: np.ndarray, scenario) -> LocalModel:
    mA, nA, mB, nB = scenario
    la = nA ** mA
    lb = nB ** mB
    w = np.clip(q, 0.0, None).reshape(la, lb)
    w = w / w.sum()
    return LocalModel(w, scenario)


def _dual_coefficients(sol: ConicSolution, layout: CgLayout) -> np.ndarray:
    """The full-table functional of the CG rows' duals."""
    y = np.array([sol.dual_rows[("cg", k)] for k in range(layout.dim)])
    return layout.functional_to_table(y)


def _inequality(coeffs: np.ndarray, b: Behaviour, layout: CgLayout,
                S: np.ndarray, level=None) -> BellInequality:
    """The inequality of full-table ``coeffs`` on ``b``, its bound the
    largest value on the deterministic strategy pairs S."""
    bound = float(np.max(S @ (layout.table_matrix().T @ coeffs.ravel())))
    value = float(np.sum(coeffs * b.table))
    return BellInequality(coefficients=coeffs, bound=bound,
                          violation=value - bound, level=level)


def _strategy_pairs(b: Behaviour):
    """(layout, S) of a no-signalling behaviour, with S the CG vectors of
    the deterministic strategy pairs, one per row; the pair count is
    checked against the strategy cap before S is built."""
    b.require_no_signalling()
    mA, nA, mB, nB = _scenario(b)
    npairs = check_strategy_cap(mA, nA) * check_strategy_cap(mB, nB)
    if npairs > scenario.STRATEGY_CAP:
        raise StrategyCapExceeded(
            f"{npairs} deterministic strategy pairs exceed the cap "
            f"{scenario.STRATEGY_CAP}")
    return _cg_scenario((mA, nA, mB, nB))


@lru_cache(maxsize=None)
def _cg_scenario(key: tuple):
    """(layout, S) of one (mA, nA, mB, nB) scenario, built once per
    scenario and shared, so S and the layout's table matrix are read-only."""
    layout = CgLayout(*key)
    S = strategy_cg_matrix(layout)
    S.flags.writeable = False
    return layout, S


def is_local(b: Behaviour) -> LocalDecision:
    """Max-margin membership in the local polytope, sum_p G_p S_p =
    cg(b) - w cg(u) maximizing w, u the uniform behaviour: the
    "random_robustness" row at the uniform Bob marginal, whose white
    noise is u, on the table b - u, with w = 1 - t.

    Its margin w* >= 0 (down to -MEMBERSHIP_TOL) means local, with
    weights q = G + w*/N; otherwise the duals of the CG rows give a Bell
    inequality.
    """
    layout, S = _strategy_pairs(b)
    uniform = np.full((b.mB, b.nB), 1.0 / b.nB)
    prog, _ = build_program("is_local", "random_robustness",
                            b.table - 1.0 / (b.nA * b.nB), uniform, None)
    sol = solve(prog)
    margin = 1.0 - sol.value
    if margin >= -MEMBERSHIP_TOL:
        q = sol.primal["G"] + margin / S.shape[0]
        return LocalDecision(True, margin, model=_pair_weights_to_model(q, _scenario(b)))
    ineq = _inequality(_dual_coefficients(sol, layout), b, layout, S)
    return LocalDecision(False, margin, inequality=ineq)


def build_program(name: str, kind: str, table: np.ndarray, reference: np.ndarray,
                  level: int | None):
    """The program ``name`` of ``KINDS[kind]`` on CG rows, at Bob
    marginal ``reference`` (mB, nB); ``level`` is the NPA level of free
    noise.  It is the shared structure of its shape (:func:`_structure`)
    with this call's values: b from the (mA, mB, nA, nB) ``table``, a
    behaviour's or any other (the CG map is linear), and the reference's
    coefficients on t (on sum H for model noise).

    Returns (program, NPA template or None).
    """
    row = KINDS[kind]
    mA, mB, nA, nB = table.shape
    key = (mA, nA, mB, nB)
    structure, tmpl = _structure(kind, key, level if row.noise == "free" else None)
    layout, _ = _cg_scenario(key)
    rhs = structure.rhs().copy()
    rhs[:layout.dim] = layout.of_table(table)
    fam = coef = None
    if row.noise == "white":
        # t's weight in every CG row: uniform-Alice noise reference[y, b]/nA
        fam, coef = "t", row.sign * layout.of_table(np.broadcast_to(
            reference[None, :, None, :] / nA, table.shape).copy())
    elif row.norm == "consistent":
        # the weight on t of the last rows, which fix the noise's Bob marginal
        fam, coef = ("H" if row.noise == "model" else "t"), -reference[:, :-1].ravel()
    values = {}
    if fam is not None:
        U = structure.families[fam].stacked()[3].copy()
        U[len(U) - coef.size:] += coef[:, None]
        values[fam] = (None, U)
    return structure.with_values(name, rhs, values), tmpl


@lru_cache(maxsize=None)
def _structure(kind: str, key: tuple, level: int | None):
    """(program, NPA template or None): the shared, read-only structure of
    ``KINDS[kind]`` on the CG rows of scenario ``key``, the program at a
    zero behaviour and a zero Bob marginal, so every weight the marginal
    adds to is written and holds its data-free part.  ``__wrapped__``
    builds a new one."""
    row = KINDS[kind]
    layout, S = _cg_scenario(key)
    every = np.arange(S.shape[0])
    tmpl = build_npa_block(key, level) if row.noise == "free" else None
    prog = ConicProgram(kind)
    if tmpl is not None:
        prog.add_psd_family("N", 1, tmpl.size)
    prog.add_nonneg("G", len(every))
    if row.noise == "model":
        prog.add_nonneg("H", len(every))
    else:
        prog.add_nonneg("t", 1)

    def noise(k, coef):
        """coef * noise_k: the moment cell, t * white_k or sum H S_k."""
        if row.noise == "free":
            return ("mat", "N", 0,
                    coef * cell_functional(tmpl.size, tmpl.cg_cells[k]))
        if row.noise == "white":
            return ("lin", "t", [0], [0.0])      # white_k, written per call
        return ("lin", "H", every, coef * S[:, k])

    def weight(coef):
        """coef * t, with t = sum H for model noise."""
        if row.noise == "model":
            return ("lin", "H", every, coef)
        return ("lin", "t", [0], [coef])

    for k in range(layout.dim):
        prog.add_scalar_row(("cg", k), 0.0,
                            [("lin", "G", every, S[:, k]), noise(k, row.sign)])
    if tmpl is not None:
        tmpl.add_structure_rows(prog, "N", ("t", 0))
    if row.norm == "consistent" and row.noise != "white":
        # the noise's Bob marginal is t reference (white noise has it as it
        # is); -reference[y, bb] is added to the weight per call
        _, _, mB, nB = key
        for y in range(mB):
            for bb in range(nB - 1):
                prog.add_scalar_row(
                    ("consis", y, bb), 0.0,
                    [noise(layout.index[("B", y, bb)], 1.0), weight(0.0)])
    prog.set_objective([weight(1.0)])
    return prog.share(), tmpl


def nonlocality_quantifier(b: Behaviour, kind: NonlocalityKind | str,
                           level: int = 2) -> NonlocalityResult:
    """One of NLR, NLR^mar, NLR^lhv, NLW, NLR^c, NLR^c/lhv, NLW^c.

    ``level`` selects the moment-matrix relaxation for the SDP-relaxed
    kinds (quantum-noise sets); their values are certified lower bounds.
    The consistency/marginal kinds pin Bob's marginal, estimating Alice's
    incompatibility; Bob's side is quantified by passing
    ``Behaviour(b.table.transpose(1, 0, 3, 2))``.
    """
    kind = parse_kind(NonlocalityKind, kind, {})
    # the NPA template refuses a level it has no relaxation for; every
    # kind takes ``level``, so every kind is refused it
    build_npa_block(_scenario(b), level)
    layout, S = _strategy_pairs(b)
    row_name = ROW[STEERING_KIND[kind]]
    row = KINDS[row_name]
    pb = behaviour_marginal(b, "B")
    name = f"nonlocality:{kind.value}" + (f":l{level}" if row.noise == "free" else "")
    prog, tmpl = build_program(name, row_name, b.table, pb, level)
    sol = solve(prog)
    model = _pair_weights_to_model(sol.primal["G"], _scenario(b))
    noise_model = noise = None
    if row.noise == "model":
        r = float(np.sum(sol.primal["H"]))
        if r > TINY:
            noise_model = _pair_weights_to_model(sol.primal["H"], _scenario(b))
            noise = noise_model.behaviour().table
    else:
        r = float(sol.primal["t"][0])
        if row.noise == "white":
            noise = np.broadcast_to(pb[None, :, None, :] / b.nA, b.table.shape).copy()
        elif r > TINY:
            gamma = sol.primal["N"][0]
            reads = np.array([gamma[c] for c in tmpl.cg_cells]) / r
            noise = layout.table_of(reads)
    level = level if row.noise == "free" else None
    return NonlocalityResult(
        kind=kind, value=max(r, 0.0), certified_lower_bound=level is not None,
        level=level, noise_table=noise, model=model, noise_model=noise_model,
        inequality=_inequality(_dual_coefficients(sol, layout), b, layout, S, level),
        gap=abs(sol.pobj - sol.dobj), solution=sol)


def bell_certificate(result: NonlocalityResult, b: Behaviour) -> BellInequality:
    """Inequality record re-verified against full strategy enumeration."""
    if result.solution.status != "optimal":
        raise ValueError("certificate requires an optimal solve")
    return _inequality(result.inequality.coefficients, b, *_strategy_pairs(b),
                       result.level)


# ---------------------------------------------------------------------------
# no-signalling projection
# ---------------------------------------------------------------------------

@dataclass
class NsProjection:
    behaviour: Behaviour
    divergence: float            # relative entropy D(raw || projected)
    kkt_residual: float          # stationarity of the true objective
    iterations: int
    boundary_flag: bool          # raw mass on events the projection floors


def ns_project(raw_table: np.ndarray, weights=None) -> NsProjection:
    """Closest no-signalling behaviour in relative entropy.

    Minimizes  sum_xy w_xy sum_ab raw log(raw / P(z))  over the
    no-signalling polytope, parameterized affinely in Collins-Gisin
    coordinates, by damped Newton with a log-barrier NS_BARRIER keeping
    the iterate in the relative interior.  Weights default to uniform
    1/(mA*mB) per setting pair.
    """
    raw = np.asarray(raw_table, dtype=float)
    if raw.ndim != 4:
        raise ValueError(f"table must be 4-d, got shape {raw.shape}")
    scenario._require_finite(raw, "raw table")
    mA, mB, nA, nB = raw.shape
    if np.min(raw) < -1e-12:
        raise ValueError("raw table has negative entries")
    sums = raw.sum(axis=(2, 3))
    if np.max(np.abs(sums - 1)) > 1e-6:
        raise ValueError(
            f"raw slices sum to 1 within {np.max(np.abs(sums - 1)):.2e} only")
    if weights is None:
        weights = np.full((mA, mB), 1.0 / (mA * mB))
    w = np.broadcast_to(np.asarray(weights, dtype=float), (mA, mB))
    scenario._require_finite(w, "weights")

    layout = CgLayout(mA, nA, mB, nB)
    T = layout.table_matrix()            # vec(table) = T @ cg
    cvec = (w[:, :, None, None] * raw).ravel()
    # start from the uniform behaviour (strictly interior)
    z = layout.of_table(np.full((mA, mB, nA, nB), 1.0 / (nA * nB)))
    Tred = T[:, 1:]
    t0 = T[:, 0]
    v = z[1:]

    def table_vec(vv):
        return t0 + Tred @ vv

    it = 0
    for it in range(1, NS_MAXITER + 1):
        p = table_vec(v)
        if np.min(p) <= 0:
            raise SolverFailure("ns_project iterate left the positive orthant")
        coef = cvec + NS_BARRIER
        g = -Tred.T @ (coef / p)
        h = Tred.T @ ((coef / p ** 2)[:, None] * Tred)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h, -g, rcond=None)[0]
        decrement = float(-g @ step)
        alpha = 1.0
        # keep strictly positive, then backtrack on the objective
        dvec = Tred @ step
        neg = dvec < 0
        if np.any(neg):
            alpha = min(alpha, 0.95 * np.min(-p[neg] / dvec[neg]))
        f0 = -coef @ np.log(p)
        while alpha > 1e-16:
            pn = table_vec(v + alpha * step)
            if np.min(pn) > 0 and -coef @ np.log(pn) <= f0 + 1e-12:
                break
            alpha /= 2
        v = v + alpha * step
        if decrement < 1e-16:
            break

    p = table_vec(v)
    kkt = float(np.max(np.abs(Tred.T @ (cvec / p))))
    table = p.reshape(mA, mB, nA, nB)
    mask = raw > 0
    div = float(np.sum((w[:, :, None, None] * raw)[mask]
                       * np.log(raw[mask] / table[mask])))
    floored = bool(np.min(table) < 10 * NS_BARRIER)
    norms = table.sum(axis=(2, 3))[:, :, None, None]
    beh = Behaviour(np.clip(table, 0.0, None) / norms)
    return NsProjection(behaviour=beh, divergence=div, kkt_residual=kkt,
                        iterations=it, boundary_flag=floored)


def behaviour_from_counts(counts) -> Behaviour:
    """Empirical behaviour from integer count tables counts[x][y][a][b],
    the one check of a count table (ValidationError naming ``counts``)."""
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 4:
        raise ValidationError(f"counts: expected 4 axes, got {arr.ndim}")
    if np.any(arr < 0):
        raise ValidationError("counts: negative entries")
    if not np.all(np.isfinite(arr) & (arr == np.round(arr))):
        raise ValidationError("counts: non-integer entries")
    totals = arr.sum(axis=(2, 3), keepdims=True)
    empty = np.argwhere(totals[..., 0, 0] == 0)
    if len(empty):
        x, y = empty[0]
        raise ValidationError(f"counts[{x}][{y}]: the slice has no counts")
    return Behaviour(arr / totals)
