"""Dense complex-Hermitian matrix arithmetic.

Everything downstream (measurements, assemblages, parent POVMs, model
states) is a small dense Hermitian matrix; this module owns the few
primitives they need: tensor products, partial traces, matrix square
roots, transposition in an arbitrary orthonormal basis, and the
positivity/hermiticity checks used by every constructor.

Values are never mutated in place.
"""

from __future__ import annotations

import numpy as np

from .errors import BasisError, DimensionMismatch, NotHermitian, NotPositiveSemidefinite

HERM_REJECT = 1e-8     # construction rejects asymmetry beyond this
PSD_TOL = 1e-10        # eigenvalues above -PSD_TOL are clipped to zero
UNITARY_TOL = 1e-10


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


def eigh_clipped(op):
    """Eigendecomposition with small negative eigenvalues clipped to 0.

    Raises NotPositiveSemidefinite if any eigenvalue is below -PSD_TOL.
    """
    mat = hermitize(asmatrix(op))
    vals, vecs = np.linalg.eigh(mat)
    if vals.size and vals[0] < -PSD_TOL:
        raise NotPositiveSemidefinite(
            f"smallest eigenvalue {vals[0]:.3e} below -{PSD_TOL:.1e}")
    return np.clip(vals, 0.0, None), vecs


def matrix_sqrt(op) -> np.ndarray:
    """PSD square root; input must be PSD within 1e-10."""
    vals, vecs = eigh_clipped(op)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def basis_transpose(op, basis) -> np.ndarray:
    """Transpose in the orthonormal basis given by the columns of ``basis``.

    Returns ``U (U† M U)ᵀ U†``; applying it twice is the identity.
    """
    mat = asmatrix(op)
    u = np.asarray(basis, dtype=complex)
    if u.shape != mat.shape:
        raise DimensionMismatch(
            f"basis shape {u.shape} does not match operator {mat.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > UNITARY_TOL:
        raise BasisError("basis columns are not orthonormal within 1e-10")
    return u @ (u.conj().T @ mat @ u).T @ u.conj().T


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
