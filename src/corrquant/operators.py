"""Dense complex-Hermitian matrix arithmetic.

Everything downstream (measurements, assemblages, parent POVMs, model
states) is a small dense Hermitian matrix; this module owns the few
primitives they need: tensor products, partial traces and the
hermiticity check used by every constructor.

Values are never mutated in place.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERM_REJECT = 1e-8     # construction rejects asymmetry beyond this


def asmatrix(op) -> np.ndarray:
    """Return ``op`` as a complex ndarray."""
    return np.asarray(op, dtype=complex)


def hermitize(mat) -> np.ndarray:
    """Symmetrize ``(M + M†)/2``, rejecting asymmetry beyond HERM_REJECT.

    Batched over leading axes; the error then names the first offending
    matrix in index order, as ``[x, a]: ...``.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    adj = mat.conj().swapaxes(-1, -2)
    diff = np.abs(mat - adj)
    if mat.size and diff.max() > HERM_REJECT:
        asym = diff.max(axis=(-2, -1))
        idx = tuple(int(i) for i in np.argwhere(asym > HERM_REJECT)[0])
        where = f"{list(idx)}: " if idx else ""
        raise NotHermitian(
            f"{where}asymmetry {asym[idx]:.3e} exceeds tolerance {HERM_REJECT:.1e}")
    return (mat + adj) / 2


def tensor(a, b) -> np.ndarray:
    """Kronecker product, first factor varying slowest (row-major)."""
    return np.kron(asmatrix(a), asmatrix(b))


def partial_trace(op, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Args:
        op: operator on the composite space, dimension ``dA * dB``.
        dims: pair ``(dA, dB)``.
        keep: ``"A"`` or ``"B"``, the subsystem to keep.

    Returns:
        dB x dB (keep="B") or dA x dA (keep="A") matrix; trace preserved.
    """
    mat = asmatrix(op)
    dA, dB = dims
    if mat.shape != (dA * dB, dA * dB):
        raise DimensionMismatch(
            f"operator dim {mat.shape[0]} != dA*dB = {dA * dB}")
    t = mat.reshape(dA, dB, dA, dB)
    if keep in ("B", "b"):
        return np.einsum("ibid->bd", t)
    if keep in ("A", "a"):
        return np.einsum("aibi->ab", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


# Pauli matrices and friends, used all over the scenario constructors.
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"X": SX, "Y": SY, "Z": SZ}


def bloch_projectors(vec) -> tuple[np.ndarray, np.ndarray]:
    """Projectors ``(I ± v·σ)/2`` for a unit Bloch vector ``v``."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatch("Bloch vector must have 3 components")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError(f"Bloch vector norm {np.linalg.norm(v)!r} is not 1")
    vdots = v[0] * SX + v[1] * SY + v[2] * SZ
    return (I2 + vdots) / 2, (I2 - vdots) / 2
