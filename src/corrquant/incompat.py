"""Joint-measurability membership and the four incompatibility quantifiers.

The programs, and the reconstruction of the defining decomposition
(parent effects summing to the identity, the noise as a measurement
set), are those of :mod:`corrquant.decomposition` with the reference
R = 1 and the effects M_{a|x} as data; this module holds the kinds and
the result and witness records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conic import ConicSolution
from .decomposition import (TINY, max_margin, parse_kind, quantify, reconstruct,
                            strategy_bound)
from .scenario import MeasurementSet, ParentPovm


class IncompatKind(str, Enum):
    robustness = "robustness"                # arbitrary noise, IR
    random_robustness = "random_robustness"  # white noise 1/n, IR^r
    jm_robustness = "jm_robustness"          # jointly measurable noise, IR^jm
    weight = "weight"                        # convex-split weight, IW


# the paper's symbols, flattened as parse_kind matches them
_ALIASES = {
    "ir": IncompatKind.robustness,
    "irr": IncompatKind.random_robustness,
    "irjm": IncompatKind.jm_robustness,
    "iw": IncompatKind.weight,
}


@dataclass
class IncompatWitness:
    """Incompatibility witness from the dual of a quantifier solve.

    Coefficients Y_{a|x} satisfy  sum_{a,x} tr[Y_{a|x} N_{a|x}] <= 0  for
    every jointly measurable set N (``bound`` <= 0, checked by enumerating
    all parent outcome vectors), while the input set reaches the
    quantifier value.  A nonzero parent of the optimum pins the bound at
    0 by complementary slackness; at IW = 1 the parent is empty and the
    bound can be negative (-0.684 for the sharp X, Z pair).
    """

    coefficients: np.ndarray     # (m, n, d, d)
    value: float                 # sum tr[Y M] on the certified set
    bound: float                 # enumerated JM bound (0 up to solver tol below IW = 1)

    def evaluate(self, measurements: MeasurementSet) -> float:
        return float(np.einsum("xaij,xaji->", self.coefficients,
                               measurements.effects).real)


@dataclass
class JmDecision:
    jointly_measurable: bool
    margin: float                       # max-margin value w*
    parent: ParentPovm | None = None
    witness: IncompatWitness | None = None


@dataclass
class IncompatResult:
    kind: IncompatKind
    value: float
    noise: np.ndarray                   # optimal N*_{a|x} (O* for weight)
    parent: ParentPovm                  # parent of the JM part
    noise_parent: ParentPovm | None     # parent of the noise (jm_robustness)
    witness: IncompatWitness
    gap: float
    solution: ConicSolution


def _witness(y: np.ndarray, measurements: MeasurementSet) -> IncompatWitness:
    value = float(np.einsum("xaij,xaji->", y, measurements.effects).real)
    return IncompatWitness(coefficients=y, value=value, bound=strategy_bound(y))


def is_jointly_measurable(measurements: MeasurementSet) -> JmDecision:
    """Max-margin membership test for the jointly measurable set.

    Solves  max w  s.t.  sum_{vec: vec_x=a} (S_vec + w*I/L) = M_{a|x},
    S_vec >= 0.  The sign of w* decides membership; the duals of the
    coarse-graining rows are the witness when incompatible.

    Inputs within ``decomposition.MEMBERSHIP_TOL`` of the JM boundary are
    classified as jointly measurable; witnesses for barely incompatible
    sets carry the honest (possibly tiny) violation |w*|.
    """
    m, n, d = measurements.m, measurements.n, measurements.d
    margin, effects, y = max_margin("is_jointly_measurable",
                                    measurements.effects, np.eye(d))
    if effects is not None:
        return JmDecision(True, margin, parent=ParentPovm(effects, (m, n)))
    return JmDecision(False, margin, witness=_witness(y, measurements))


def incompatibility_quantifier(measurements: MeasurementSet,
                               kind: IncompatKind | str) -> IncompatResult:
    """One of IR, IR^r, IR^jm, IW as a single conic solve."""
    kind = parse_kind(IncompatKind, kind, _ALIASES)
    m, n, d = measurements.m, measurements.n, measurements.d
    t, sol, y = quantify(f"incompat:{kind.value}", kind.value,
                         measurements.effects, np.eye(d))
    noise, parent, noise_parent = reconstruct(
        kind.value, sol, measurements.effects, np.eye(d), t)
    return IncompatResult(kind=kind, value=t, noise=noise,
                          parent=ParentPovm(parent, (m, n)),
                          noise_parent=None if noise_parent is None
                          else ParentPovm(noise_parent, (m, n)),
                          witness=_witness(y, measurements),
                          gap=abs(sol.pobj - sol.dobj), solution=sol)


def mixture(measurements: MeasurementSet, noise: np.ndarray,
            t: float) -> MeasurementSet:
    """(M + t N)/(1 + t), the defining mixture of the robustness kinds."""
    grid = (measurements.effects + t * noise) / (1 + t)
    return MeasurementSet(grid)


def weight_remainder(measurements: MeasurementSet, generic: np.ndarray,
                     t: float) -> MeasurementSet:
    """N = (M - t O)/(1 - t), the JM part of the weight decomposition."""
    if 1 - t < TINY:
        d = measurements.d
        return MeasurementSet(np.broadcast_to(
            np.eye(d) / measurements.n,
            (measurements.m, measurements.n, d, d)).copy())
    grid = (measurements.effects - t * generic) / (1 - t)
    return MeasurementSet(grid)
