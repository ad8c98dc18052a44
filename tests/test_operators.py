import numpy as np
import pytest

from corrquant import operators as op
from corrquant.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositiveSemidefinite,
)

PSD_TOL = 1e-10     # matrix_sqrt clips eigenvalues above -PSD_TOL to zero


def random_hermitian(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def matrix_sqrt(mat) -> np.ndarray:
    """PSD square root, eigenvalues above -PSD_TOL clipped to zero (the
    steer oracle of test_scenario reads it too)."""
    vals, vecs = np.linalg.eigh(op.hermitize(mat))
    if vals[0] < -PSD_TOL:
        raise NotPositiveSemidefinite(f"smallest eigenvalue {vals[0]:.3e}")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def basis_transpose(mat, basis) -> np.ndarray:
    """Transpose in the orthonormal basis given by the columns of ``basis``,
    U (U^H M U)^T U^H; applying it twice is the identity."""
    u = np.asarray(basis, dtype=complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) > 1e-10:
        raise ValueError("basis columns are not orthonormal within 1e-10")
    return u @ (u.conj().T @ np.asarray(mat, dtype=complex) @ u).T @ u.conj().T


def random_density(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_hermitize_invariants():
    h = op.hermitize([[1, 1j], [-1j, 2]])
    assert h.shape == (2, 2)
    assert np.array_equal(h, h.conj().T)
    with pytest.raises(NotHermitian):
        op.hermitize([[0, 1], [0, 0]])
    with pytest.raises(DimensionMismatch):
        op.hermitize(np.zeros((2, 3)))


def test_hermitize_names_the_first_bad_matrix():
    with pytest.raises(NotHermitian, match=r"^asymmetry 1\.000e\+00 exceeds"):
        op.hermitize([[0, 1], [0, 0]])
    grid = np.zeros((2, 3, 2, 2), dtype=complex)
    grid[1, 2, 0, 1] = 0.5
    grid[1, 0, 1, 0] = 1e-9             # within the tolerance
    grid[1, 1, 1, 0] = 0.1
    with pytest.raises(NotHermitian, match=r"^\[1, 1\]: asymmetry 1\.000e-01 exceeds"):
        op.hermitize(grid)


def test_tensor_identity_cases():
    assert np.allclose(op.tensor(op.I2, op.I2), np.eye(4))
    assert np.allclose(op.tensor(op.SZ, op.I2), np.diag([1, 1, -1, -1]))


def test_tensor_trace_multiplicative():
    # oracle: direct multiplication of traces
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        assert np.isclose(np.trace(op.tensor(a, b)),
                          np.trace(a) * np.trace(b))


def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(op.partial_trace(rho, (2, 2), "B"), np.eye(2) / 2)
    assert np.allclose(op.partial_trace(rho, (2, 2), "A"), np.eye(2) / 2)


def test_partial_trace_product_case():
    rng = np.random.default_rng(2)
    a = random_density(2, rng)
    b = random_density(3, rng)
    got = op.partial_trace(op.tensor(a, b), (2, 3), "B")
    assert np.allclose(got, np.trace(a) * b)
    got_a = op.partial_trace(op.tensor(a, b), (2, 3), "A")
    assert np.allclose(got_a, np.trace(b) * a)


def test_partial_trace_index_sum_oracle():
    # entry-wise index summation oracle on tr_A[(M (x) I) rho]
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_density(4, rng)
        m = random_hermitian(2, rng)
        big = op.tensor(m, np.eye(2)) @ rho
        got = op.partial_trace(big, (2, 2), "B")
        want = np.zeros((2, 2), dtype=complex)
        for b1 in range(2):
            for b2 in range(2):
                want[b1, b2] = sum(big[a * 2 + b1, a * 2 + b2] for a in range(2))
        assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_dimension_error():
    with pytest.raises(DimensionMismatch):
        op.partial_trace(np.eye(4), (2, 3), "B")


def test_matrix_sqrt_cases():
    assert np.allclose(matrix_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = random_density(3, rng)
        root = matrix_sqrt(rho)
        assert np.linalg.norm(root @ root - rho) < 1e-9
        assert np.linalg.eigvalsh(root)[0] > -1e-12


def test_matrix_sqrt_eigenvalues():
    rng = np.random.default_rng(5)
    rho = random_density(4, rng)
    got = np.linalg.eigvalsh(matrix_sqrt(rho))
    want = np.sqrt(np.linalg.eigvalsh(rho))
    assert np.allclose(got, want, atol=1e-9)


def test_matrix_sqrt_rejects_negative():
    with pytest.raises(NotPositiveSemidefinite):
        matrix_sqrt(np.diag([1.0, -1e-3]))


def test_basis_transpose_computational():
    rng = np.random.default_rng(6)
    h = random_hermitian(3, rng)
    assert np.allclose(basis_transpose(h, np.eye(3)), h.T)


def test_basis_transpose_involution():
    rng = np.random.default_rng(7)
    h = random_hermitian(3, rng)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert np.allclose(basis_transpose(basis_transpose(h, u), u), h)


def test_basis_transpose_pauli_y():
    # explicit matrix oracle: Y^T = -Y in the computational basis
    assert np.allclose(basis_transpose(op.SY, np.eye(2)), -op.SY)


def test_basis_transpose_rejects_nonunitary():
    with pytest.raises(ValueError, match="not orthonormal"):
        basis_transpose(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_hermiticity_preserved():
    rng = np.random.default_rng(8)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    for mat in (op.tensor(a, b), op.partial_trace(op.tensor(a, b), (2, 3), "A"),
                matrix_sqrt(random_density(4, rng))):
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


def test_bloch_projectors():
    p0, p1 = op.bloch_projectors([0, 0, 1])
    assert np.allclose(p0, np.diag([1.0, 0.0]))
    assert np.allclose(p0 + p1, np.eye(2))
    with pytest.raises(ValueError):
        op.bloch_projectors([0, 0, 2])
