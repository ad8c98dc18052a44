"""LHS membership and the seven steering quantifiers.

The programs, and the reconstruction of the defining decomposition (LHS
model states at unit total trace, the noise as an assemblage), are those
of :mod:`corrquant.decomposition` with the reference R = rho_B and the
members sigma_{a|x} as data.  :data:`ROW` names each kind's row: the
consistent kinds SR_c, SR_red, SR_c_lhs and SW_c solve the
incompatibility rows robustness, random_robustness, jm_robustness and
weight, and SR, SR_lhs and SW the rows that leave the noise's reduced
state free.  This module holds the kinds, that map, and the result and
inequality records.

Dual multipliers of the model-matching rows are steering-inequality
coefficients F_{a|x}: every LHS assemblage gamma satisfies
sum tr[F gamma] <= bound with bound enumerated over deterministic
strategies, and the certified input violates the bound by the
quantifier value below weight 1, and by at least it at weight 1
(:class:`SteeringInequality`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conic import ConicSolution
from .decomposition import (TINY, max_margin, parse_kind, quantify, reconstruct,
                            strategy_bound)
from .scenario import Assemblage, LhsModel, reduced_state


class SteeringKind(str, Enum):
    SR = "SR"                # arbitrary noise robustness
    SR_red = "SR_red"        # reduced-state noise
    SR_lhs = "SR_lhs"        # LHS noise
    SW = "SW"                # steering weight
    SR_c = "SR_c"            # consistent robustness
    SR_c_lhs = "SR_c_lhs"    # consistent LHS robustness
    SW_c = "SW_c"            # consistent weight


# the row of decomposition.KINDS each kind solves at R = rho_B: the
# consistent kinds are the incompatibility rows
ROW = {
    SteeringKind.SR: "SR",
    SteeringKind.SR_red: "random_robustness",
    SteeringKind.SR_lhs: "SR_lhs",
    SteeringKind.SW: "SW",
    SteeringKind.SR_c: "robustness",
    SteeringKind.SR_c_lhs: "jm_robustness",
    SteeringKind.SW_c: "weight",
}


@dataclass
class SteeringInequality:
    """Linear steering inequality from the dual of a quantifier solve.

    LHS assemblages obey  sum_{a,x} tr[F_{a|x} gamma_{a|x}] <= bound;
    the certified assemblage violates it by ``violation``, which equals
    the quantifier value below weight 1.  A nonzero LHS part of the
    optimum pins the bound by complementary slackness; at weight 1 (SW,
    SW_c) that part is empty, the bound can fall lower, and the violation
    is at least the value (1.83 for SW_c on the Werner v = 1 XZ
    assemblage).
    """

    coefficients: np.ndarray        # (m, n, dB, dB)
    bound: float
    violation: float

    def evaluate(self, assemblage: Assemblage) -> float:
        return float(np.einsum("xaij,xaji->", self.coefficients,
                               assemblage.members).real)

    def to_text(self) -> str:
        """Human-readable inequality: coefficients per (a|x) plus the bound."""
        m, n = self.coefficients.shape[:2]
        lines = [f"sum_ax tr[F(a|x) sigma(a|x)] <= {self.bound!r} "
                 "for every LHS assemblage"]
        for x in range(m):
            for a in range(n):
                f = self.coefficients[x, a]
                entries = "; ".join(
                    f"[{i},{j}]={f[i, j]:.6g}" for i in range(f.shape[0])
                    for j in range(f.shape[1]) if abs(f[i, j]) > 1e-12)
                lines.append(f"F({a}|{x}): {entries or '0'}")
        lines.append(f"certified violation: {self.violation!r}")
        return "\n".join(lines)


@dataclass
class LhsDecision:
    has_model: bool
    margin: float
    model: LhsModel | None = None
    inequality: SteeringInequality | None = None


@dataclass
class SteeringResult:
    kind: SteeringKind
    value: float
    noise: np.ndarray               # optimal noise assemblage (pi or gamma grid)
    model: LhsModel                 # LHS model of the mixture / remainder
    noise_model: LhsModel | None    # gamma_lambda for the lhs-noise kinds
    inequality: SteeringInequality
    gap: float
    solution: ConicSolution


def _inequality(f: np.ndarray, asm: Assemblage) -> SteeringInequality:
    ineq = SteeringInequality(coefficients=f, bound=strategy_bound(f),
                              violation=0.0)
    ineq.violation = ineq.evaluate(asm) - ineq.bound
    return ineq


def has_lhs_model(assemblage: Assemblage) -> LhsDecision:
    """Max-margin LHS membership: maximize w such that the model states
    omega_lambda - w*I/L stay PSD while reproducing the assemblage."""
    m, n = assemblage.m, assemblage.n
    margin, states, f = max_margin("has_lhs_model", assemblage.members,
                                   reduced_state(assemblage))
    if states is not None:
        return LhsDecision(True, margin, model=LhsModel(states, (m, n)))
    return LhsDecision(False, margin, inequality=_inequality(f, assemblage))


def steering_quantifier(assemblage: Assemblage,
                        kind: SteeringKind | str) -> SteeringResult:
    """One of SR, SR^red, SR^lhs, SW, SR^c, SR^c/lhs, SW^c."""
    kind = parse_kind(SteeringKind, kind, {})
    m, n = assemblage.m, assemblage.n
    rho_b = reduced_state(assemblage)
    s, sol, f = quantify(f"steering:{kind.value}", ROW[kind], assemblage.members,
                         rho_b)
    noise, model, noise_model = reconstruct(ROW[kind], sol, assemblage.members,
                                            rho_b, s)
    return SteeringResult(kind=kind, value=s, noise=noise,
                          model=LhsModel(model, (m, n)),
                          noise_model=None if noise_model is None
                          else LhsModel(noise_model, (m, n)),
                          inequality=_inequality(f, assemblage),
                          gap=abs(sol.pobj - sol.dobj), solution=sol)


def steering_certificate(result: SteeringResult,
                         assemblage: Assemblage) -> SteeringInequality:
    """Re-derive the inequality record for ``assemblage`` and re-verify the
    enumerated LHS bound; raises if the solve was not optimal."""
    if result.solution.status != "optimal":
        raise ValueError("certificate requires an optimal solve")
    return _inequality(result.inequality.coefficients, assemblage)


def weight_remainder(assemblage: Assemblage, noise: np.ndarray,
                     s: float) -> Assemblage:
    """gamma = (sigma - s*pi)/(1-s), the LHS part of the weight split."""
    if 1 - s < TINY:
        d = assemblage.dB
        grid = np.broadcast_to(np.eye(d) / (assemblage.n * d),
                               (assemblage.m, assemblage.n, d, d))
        return Assemblage(grid.copy())
    return Assemblage((assemblage.members - s * noise) / (1 - s))
