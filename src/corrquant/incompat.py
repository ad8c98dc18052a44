"""Joint-measurability membership and the four incompatibility quantifiers.

The programs are those of :mod:`corrquant.decomposition` with the
reference R = 1 and the effects M_{a|x} as data; this module holds the
kinds, the result and witness records, and the reconstruction of the
defining decomposition: parent effects normalized to sum to the identity,
and the noise as a measurement set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conic import ConicSolution
from .decomposition import (KINDS, TINY, clip_psd, max_margin, parse_kind,
                            quantify, strategy_bound)
from .scenario import MeasurementSet, ParentPovm, coarse_grain


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
    every jointly measurable set N (bound 0, checked by enumerating all
    parent outcome vectors), while the input set reaches the quantifier
    value.
    """

    coefficients: np.ndarray     # (m, n, d, d)
    value: float                 # sum tr[Y M] on the certified set
    bound: float                 # enumerated JM bound (== 0 up to solver tol)

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
    m, n = measurements.m, measurements.n
    margin, effects, y = max_margin("is_jointly_measurable",
                                    measurements.effects)
    if effects is not None:
        return JmDecision(True, margin,
                          parent=ParentPovm(_renorm_povm(effects), (m, n)))
    return JmDecision(False, margin, witness=_witness(y, measurements))


def _renorm_povm(effects: np.ndarray) -> np.ndarray:
    """Normalize a near-POVM: shift so the effects sum to the identity
    exactly, then blend minimally toward the uniform POVM if the shift
    left a tiny negative eigenvalue."""
    count, d = effects.shape[0], effects.shape[1]
    out = effects + (np.eye(d) - effects.sum(axis=0)) / count
    lam = float(np.min(np.linalg.eigvalsh(out)))
    if lam < 0:
        w = min(1.0, -lam / (-lam + 1.0 / count) * (1 + 1e-9))
        uniform = np.broadcast_to(np.eye(d) / count, out.shape)
        out = (1 - w) * out + w * uniform
    return out


def _renorm_grid(grid: np.ndarray) -> np.ndarray:
    """Per-input exact normalization of an (m, n, d, d) measurement grid."""
    return np.stack([_renorm_povm(row) for row in grid])


def incompatibility_quantifier(measurements: MeasurementSet,
                               kind: IncompatKind | str) -> IncompatResult:
    """One of IR, IR^r, IR^jm, IW as a single conic solve."""
    kind = parse_kind(IncompatKind, kind, _ALIASES)
    d = measurements.d
    t, sol, y = quantify("incompat", kind.value, measurements.effects,
                         np.eye(d))
    noise, parent, noise_parent = _reconstruct(kind, sol, measurements, t)
    return IncompatResult(kind=kind, value=t, noise=noise, parent=parent,
                          noise_parent=noise_parent,
                          witness=_witness(y, measurements),
                          gap=abs(sol.pobj - sol.dobj), solution=sol)


def _reconstruct(kind, sol, measurements, t):
    """Unscale the solver blocks into the defining decomposition."""
    row = KINDS[kind.value]
    m, n, d = measurements.m, measurements.n, measurements.d
    total = len(sol.primal["G"])
    eye = np.eye(d)
    uniform = np.broadcast_to(eye / total, (total, d, d))
    scale = 1.0 - row.sign * t
    parent = ParentPovm(_renorm_povm(clip_psd(sol.primal["G"] / scale))
                        if scale > TINY else uniform, (m, n))
    if row.noise == "white":
        return np.broadcast_to(eye / n, (m, n, d, d)).copy(), parent, None
    if row.noise == "model":
        noise_parent = ParentPovm(_renorm_povm(clip_psd(sol.primal["H"] / t))
                                  if t > TINY else uniform, (m, n))
        return coarse_grain(noise_parent.effects, m, n), parent, noise_parent
    noise = (sol.primal["N"] / t if t > TINY
             else np.broadcast_to(eye / n, (m * n, d, d))).reshape(m, n, d, d)
    return _renorm_grid(noise), parent, None


def mixture(measurements: MeasurementSet, noise: np.ndarray,
            t: float) -> MeasurementSet:
    """(M + t N)/(1 + t), the defining mixture of the robustness kinds."""
    grid = (measurements.effects + t * noise) / (1 + t)
    return MeasurementSet(grid)


def weight_remainder(measurements: MeasurementSet, generic: np.ndarray,
                     t: float) -> MeasurementSet:
    """N = (M - t O)/(1 - t), the JM part of the weight decomposition."""
    if 1 - t < 1e-9:
        d = measurements.d
        return MeasurementSet(np.broadcast_to(
            np.eye(d) / measurements.n,
            (measurements.m, measurements.n, d, d)).copy())
    grid = (measurements.effects - t * generic) / (1 - t)
    return MeasurementSet(grid)
