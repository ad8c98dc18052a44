"""Output checks, computed apart from the program.

Every check returns a list of failure messages, each starting with the
name of the check; an empty list means the outputs passed.  Nothing here
calls corrquant: deterministic strategies are enumerated with itertools
and the local-polytope LPs are solved by scipy's HiGHS on full
probability tables.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

CHAIN_TOL = 1e-7          # chain inequalities (criterion 6)
LP_TOL = 1e-7             # LP-exact kinds against HiGHS (criterion 7)
CERT_TOL = 1e-6           # certified violation against the value
BOUND_TOL = 1e-7          # enumerated witness bound
CLOSED_FORM_TOL = 1e-6    # ladder and sweep closed forms

# (larger, smaller) pairs of the criterion-6 chain: 19 inequalities
CHAIN_INEQUALITIES = (
    ("SR", "NLR"), ("SR_red", "NLR_mar"), ("SR_lhs", "NLR_lhv"), ("SW", "NLW"),
    ("IR", "SR"), ("IRr", "SR_red"), ("IRjm", "SR_lhs"), ("IW", "SW"),
    ("IR", "SR_c"), ("SR_c", "SR"), ("IRjm", "SR_c_lhs"), ("SR_c_lhs", "SR_lhs"),
    ("IW", "SW_c"), ("SW_c", "SW"),
    ("SR_c", "NLR_c"), ("SR_c_lhs", "NLR_c_lhv"), ("SW_c", "NLW_c"),
    ("NLR_c", "NLR"), ("NLW_c", "NLW"),
)
INCOMPAT_LABELS = {"robustness": "IR", "random_robustness": "IRr",
                   "jm_robustness": "IRjm", "weight": "IW"}

S3, S2 = math.sqrt(3), math.sqrt(2)
# Werner visibility v: threshold and value above it, for each sweep kind
SWEEP_CLOSED_FORMS = {
    "SR_red": (1 / S3, lambda v: S3 * v - 1),
    "SR_c": (1 / S3, lambda v: (S3 * v - 1) / (S3 + 1)),
    "SW_c": (1 / S3, lambda v: (S3 * v - 1) / (S3 - 1)),
    "NLR_mar": (1 / S2, lambda v: S2 * v - 1),
    "NLR_c": (1 / S2, lambda v: (S2 * v - 1) / (S2 + 1)),
    "NLR_c_lhv": (1 / S2, lambda v: (S2 * v - 1) / 2),
    "NLW_c": (1 / S2, lambda v: (S2 * v - 1) / (S2 - 1)),
}


def enumerated_bound(coefficients: np.ndarray) -> float:
    """max over deterministic strategies lam of lambda_max(sum_x C[x, lam_x])."""
    m, n = coefficients.shape[:2]
    return max(float(np.linalg.eigvalsh(
        sum(coefficients[x, lam[x]] for x in range(m)))[-1])
        for lam in itertools.product(range(n), repeat=m))


def pairing(coefficients: np.ndarray, grid: np.ndarray) -> float:
    """sum_{x,a} tr[C_{a|x} X_{a|x}]."""
    return float(np.einsum("xaij,xaji->", coefficients, grid).real)


def deterministic_tables(mA: int, nA: int, mB: int, nB: int) -> np.ndarray:
    """(pairs, mA*mB*nA*nB) full tables of the deterministic strategy pairs."""
    rows = []
    for la in itertools.product(range(nA), repeat=mA):
        for lb in itertools.product(range(nB), repeat=mB):
            t = np.zeros((mA, mB, nA, nB))
            for x in range(mA):
                for y in range(mB):
                    t[x, y, la[x], lb[y]] = 1.0
            rows.append(t.ravel())
    return np.array(rows)


def lp_nlr_lhv(table: np.ndarray) -> float:
    """min sum p  s.t.  P = sum_l (q_l - p_l) D_l,  q, p >= 0."""
    D = deterministic_tables(*table.shape[:2], *table.shape[2:]).T
    pairs = D.shape[1]
    res = linprog(np.r_[np.zeros(pairs), np.ones(pairs)], A_eq=np.hstack([D, -D]),
                  b_eq=table.ravel(), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"NLR_lhv reference LP failed: {res.message}")
    return float(res.fun)


def lp_nlr_mar(table: np.ndarray) -> float:
    """min r  s.t.  P + r N = sum_l q_l D_l,  N(ab|xy) = P(b|y)/nA,  q, r >= 0."""
    mA, mB, nA, nB = table.shape
    D = deterministic_tables(mA, nA, mB, nB).T
    pb = table.sum(axis=2)[0]                     # P(b|y), read at x = 0
    noise = np.broadcast_to(pb[None, :, None, :] / nA, table.shape)
    pairs = D.shape[1]
    res = linprog(np.r_[np.zeros(pairs), 1.0], A_eq=np.hstack([D, -noise.reshape(-1, 1)]),
                  b_eq=table.ravel(), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"NLR_mar reference LP failed: {res.message}")
    return float(res.fun)


def check_chain(records) -> list[str]:
    """Chain inequalities, LP-exact kinds and certificates for every triple."""
    errors = []
    for i, rec in enumerate(records):
        t = rec.triple
        values = {INCOMPAT_LABELS[k]: v for k, v in rec.incompat.items()}
        values.update(rec.steering)
        values.update(rec.nonlocality)
        for big, small in CHAIN_INEQUALITIES:
            if big in values and small in values and \
                    values[big] - values[small] < -CHAIN_TOL:
                errors.append(f"chain.inequality: triple {i}: {big} = {values[big]!r} "
                              f"< {small} = {values[small]!r}")
        for kind, oracle in (("NLR_mar", lp_nlr_mar), ("NLR_lhv", lp_nlr_lhv)):
            if kind in rec.nonlocality:
                ref = oracle(t.beh.table)
                if abs(rec.nonlocality[kind] - ref) > LP_TOL:
                    errors.append(f"chain.lp: triple {i}: {kind} = "
                                  f"{rec.nonlocality[kind]!r}, HiGHS LP = {ref!r}")
        for kind, (y, _) in rec.witnesses.items():
            bound = enumerated_bound(y)
            violation = pairing(y, t.meas.effects) - bound
            if bound > BOUND_TOL or abs(violation - rec.incompat[kind]) > CERT_TOL:
                errors.append(f"chain.witness: triple {i}: {kind} bound {bound!r}, "
                              f"violation {violation!r}, value {rec.incompat[kind]!r}")
        for kind, (f, reported) in rec.inequalities.items():
            bound = enumerated_bound(f)
            violation = pairing(f, t.asm.members) - bound
            if abs(bound - reported) > BOUND_TOL or \
                    abs(violation - rec.steering[kind]) > CERT_TOL:
                errors.append(f"chain.inequality_cert: triple {i}: {kind} bound "
                              f"{bound!r} (reported {reported!r}), violation "
                              f"{violation!r}, value {rec.steering[kind]!r}")
    return errors


def check_ladder(rounds, failed, eta: float, allowed_failures) -> list[str]:
    """Per round: IW closed form, and SR_c = IR, SW_c = IW for the singlet."""
    errors = [f"ladder.failure: m = {m}, {label} failed unexpectedly"
              for m, label in failed if (m, label) not in allowed_failures]
    for values in rounds:
        for m in sorted({m for m, _ in values}):
            iw = values.get((m, "IW"))
            expected = (eta - 1 / m) / (1 - 1 / m)
            if iw is not None and abs(iw - expected) > CLOSED_FORM_TOL:
                errors.append(f"ladder.iw_closed_form: m = {m}: IW = {iw!r}, "
                              f"expected {expected!r}")
            for steer_label, incompat_label in (("SR_c", "IR"), ("SW_c", "IW")):
                s, i = values.get((m, steer_label)), values.get((m, incompat_label))
                if s is not None and i is not None and abs(s - i) > CLOSED_FORM_TOL:
                    errors.append(f"ladder.equality: m = {m}: {steer_label} = {s!r}, "
                                  f"{incompat_label} = {i!r}")
    return errors


def check_sweep(rows, closed_forms=SWEEP_CLOSED_FORMS) -> list[str]:
    """Every (visibility, kind) point against its closed form; 0 below threshold."""
    errors = []
    for _, v, kind, value in rows:
        threshold, form = closed_forms[kind]
        expected = form(v) if v > threshold else 0.0
        if abs(value - expected) > CLOSED_FORM_TOL:
            errors.append(f"sweep.closed_form: {kind} at v = {v!r}: {value!r}, "
                          f"expected {expected!r}")
    return errors
