import itertools
import re

import numpy as np
import pytest

from corrquant import scenario as sc
from corrquant.operators import partial_trace
from corrquant.errors import (
    DimensionMismatch,
    InconsistentAssemblage,
    NotHermitian,
    NotPositiveSemidefinite,
    StrategyCapExceeded,
)
from test_operators import basis_transpose, matrix_sqrt


def random_povm_set(m, n, d, rng):
    grid = np.empty((m, n, d, d), dtype=complex)
    for x in range(m):
        raw = []
        for _ in range(n):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            raw.append(g @ g.conj().T)
        total = sum(raw)
        vals, vecs = np.linalg.eigh(total)
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        for a in range(n):
            grid[x, a] = inv_root @ raw[a] @ inv_root
    return sc.MeasurementSet(grid)


def test_measurement_set_validation():
    ms = sc.paulis("XZ")
    assert (ms.m, ms.n, ms.d) == (2, 2, 2)
    bad = np.zeros((1, 2, 2, 2), dtype=complex)
    bad[0, 0] = np.eye(2)
    bad[0, 1] = 0.5 * np.eye(2)
    with pytest.raises(DimensionMismatch):
        sc.MeasurementSet(bad)


def test_measurement_set_rejects_negative_effect():
    # effects sum to the identity, but effect[0, 1] and effect[1, 1] are not
    # PSD; the first in index order is named, not the most negative
    bad = np.zeros((2, 2, 2, 2), dtype=complex)
    bad[0, 0], bad[0, 1] = np.diag([1.0, 1.2]), np.diag([0.0, -0.2])
    bad[1, 0], bad[1, 1] = np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])
    with pytest.raises(NotPositiveSemidefinite,
                       match=r"^effect\[0, 1\] has eigenvalue -2\.000e-01$"):
        sc.MeasurementSet(bad)


def test_steer_schmidt_basis_case():
    # maximally entangled + Z: sigma_{a|0} = |a><a| / 2
    asm = sc.steer(sc.max_entangled(2), sc.paulis("Z"))
    assert np.allclose(asm.members[0, 0], np.diag([0.5, 0.0]))
    assert np.allclose(asm.members[0, 1], np.diag([0.0, 0.5]))


def test_steer_product_state():
    rng = np.random.default_rng(0)
    rho_a = np.diag([0.7, 0.3]).astype(complex)
    rho_b = np.diag([0.2, 0.8]).astype(complex)
    state = sc.BipartiteState(np.kron(rho_a, rho_b), (2, 2))
    ms = random_povm_set(2, 2, 2, rng)
    asm = sc.steer(state, ms)
    for x in range(2):
        for a in range(2):
            p = np.trace(ms.effects[x, a] @ rho_a).real
            assert np.allclose(asm.members[x, a], p * rho_b, atol=1e-12)


def pure_state_assemblage(state, measurements):
    """Closed form rho_B^1/2 M^T rho_B^1/2 for pure states, the transpose
    taken in the eigenbasis of rho_B."""
    rho_b = partial_trace(state.rho, (state.dA, state.dB), "B")
    _, basis = np.linalg.eigh(rho_b)
    root = matrix_sqrt(rho_b)
    return sc.Assemblage(np.array([[root @ basis_transpose(eff, basis) @ root
                                    for eff in row] for row in measurements.effects]))


@pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 6, np.pi / 4])
def test_steer_pure_state_closed_form(theta):
    # oracle: rho_B^1/2 M^T rho_B^1/2 via matrix_sqrt + basis_transpose
    rng = np.random.default_rng(int(theta * 1000))
    state = sc.pure_theta(theta)
    ms = random_povm_set(3, 2, 2, rng)
    direct = sc.steer(state, ms)
    closed = pure_state_assemblage(state, ms)
    assert np.max(np.abs(direct.members - closed.members)) < 1e-10


def test_measure_chsh_value():
    # analytic correlator oracle: E(x, y) = +-1/sqrt2, CHSH = 2 sqrt 2
    alice = sc.paulis("XZ")
    bob = sc.bloch_measurements([
        np.array([1, 0, 1]) / np.sqrt(2),
        np.array([1, 0, -1]) / np.sqrt(2),
    ])
    beh = sc.measure(sc.steer(sc.werner(1.0), alice), bob)
    corr = np.zeros((2, 2))
    for x, y in itertools.product(range(2), repeat=2):
        for a, b in itertools.product(range(2), repeat=2):
            corr[x, y] += (-1) ** (a + b) * beh.table[x, y, a, b]
    chsh = corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1]
    assert abs(chsh - 2 * np.sqrt(2)) < 1e-9
    assert not beh.signalling
    assert beh.signalling_deviation < 1e-12


def test_measure_uniform_noise_assemblage():
    n = 2
    mem = np.broadcast_to(np.eye(2) / (2 * n), (3, n, 2, 2)).astype(complex)
    asm = sc.Assemblage(mem)
    bob = sc.paulis("XY")
    beh = sc.measure(asm, bob)
    pb = sc.behaviour_marginal(beh, "B")
    for x in range(3):
        for y in range(2):
            assert np.allclose(beh.table[x, y], pb[y][None, :] / n)


def test_strategy_counts_and_cap():
    assert sc.check_strategy_cap(1, 2) == 2
    assert sc.strategy_assignments(1, 2).shape == (2, 1)
    assign = sc.strategy_assignments(3, 3)
    assert assign.shape == (27, 3)
    assert len({tuple(row) for row in assign}) == 27
    assert sc.strategy_count(10, 3) == 59049
    assert sc.strategy_assignments(10, 3).shape == (59049, 10)
    with pytest.raises(StrategyCapExceeded):
        sc.check_strategy_cap(30, 3)
    with pytest.raises(StrategyCapExceeded):
        sc.strategy_assignments(13, 3)


def test_strategy_order_lexicographic():
    assign = sc.strategy_assignments(2, 3)
    assert [tuple(row) for row in assign] == list(itertools.product(range(3), repeat=2))
    masks = sc.strategy_masks(2, 3)
    for x in range(2):
        for a in range(3):
            assign = sc.strategy_assignments(2, 3)
            assert all(assign[i, x] == a for i in masks[x][a])


def test_make_state_cases():
    assert np.allclose(sc.werner(0.0).rho, np.eye(4) / 4)
    assert np.allclose(sc.werner(1.0).rho, sc.max_entangled(2).rho)
    assert np.allclose(sc.pure_theta(np.pi / 4).rho, sc.max_entangled(2).rho)
    red = np.linalg.eigvalsh(
        sc.steer(sc.pure_theta(np.pi / 6), sc.paulis("Z")).members.sum(axis=1)[0])
    assert np.allclose(sorted(red), [0.25, 0.75])
    with pytest.raises(ValueError):
        sc.werner(1.2)
    with pytest.raises(ValueError):
        sc.pure_theta(0.0)


def test_wittmann_state_parameters():
    state = sc.werner(0.9556, psi="singlet")
    assert abs(np.trace(state.rho).real - 1) < 1e-12
    # fidelity with the singlet equals v + (1-v)/4
    fid = np.trace(state.rho @ sc.singlet().rho).real
    assert abs(fid - (0.9556 + (1 - 0.9556) / 4)) < 1e-12


def test_lossy_measurements():
    full = sc.lossy(sc.paulis("Z"), 1.0)
    assert np.allclose(full.effects[0, 0], np.diag([1.0, 0.0]))
    assert np.allclose(full.effects[0, 2], np.zeros((2, 2)))
    wit = sc.lossy(sc.paulis("XYZ"), (0.382, 0.383, 0.383))
    assert wit.n == 3
    assert np.allclose(wit.effects[0, 2], (1 - 0.382) * np.eye(2))
    with pytest.raises(ValueError):
        sc.lossy(sc.paulis("Z"), 1.5)


def test_dodecahedron_angles():
    # golden-ratio coordinate oracle, rebuilt from scratch
    phi = (1 + np.sqrt(5)) / 2
    verts = []
    for signs in itertools.product([1, -1], repeat=3):
        verts.append(np.array(signs, dtype=float))
    for s1, s2 in itertools.product([1, -1], repeat=2):
        verts.append(np.array([0, s1 / phi, s2 * phi]))
        verts.append(np.array([s1 / phi, s2 * phi, 0]))
        verts.append(np.array([s1 * phi, 0, s2 / phi]))
    verts = np.array([v / np.linalg.norm(v) for v in verts])

    reps = sc.dodecahedron_vectors()
    assert reps.shape == (10, 3)
    full = np.concatenate([reps, -reps])
    want = np.sort(np.round((verts @ verts.T).ravel(), 9))
    got = np.sort(np.round((full @ full.T).ravel(), 9))
    assert np.allclose(want, got)
    ms = sc.dodecahedron()
    assert (ms.m, ms.n, ms.d) == (10, 2, 2)


def test_reduced_state_properties():
    rng = np.random.default_rng(5)
    ms = random_povm_set(2, 3, 2, rng)
    state = sc.werner(0.7)
    asm = sc.steer(state, ms)
    red = sc.reduced_state(asm)
    from corrquant.operators import partial_trace
    assert np.allclose(red, partial_trace(state.rho, (2, 2), "B"), atol=1e-12)
    assert np.allclose(sc.reduced_state(sc.steer(sc.werner(0.3), sc.paulis("XYZ"))),
                       np.eye(2) / 2)


def test_assemblage_rejects_inconsistent():
    mem = np.zeros((2, 2, 2, 2), dtype=complex)
    mem[0, 0] = np.diag([0.5, 0.0])
    mem[0, 1] = np.diag([0.0, 0.5])
    mem[1, 0] = np.diag([0.6, 0.0])
    mem[1, 1] = np.diag([0.0, 0.4])
    with pytest.raises(InconsistentAssemblage):
        sc.Assemblage(mem)


def test_behaviour_marginals():
    uniform = np.full((2, 2, 2, 2), 0.25)
    b = sc.Behaviour(uniform)
    assert np.allclose(sc.behaviour_marginal(b, "B"), 0.5)
    # marginal of measure() equals tr[M rho_B]   [direct trace oracle]
    rng = np.random.default_rng(6)
    asm = sc.steer(sc.werner(0.8), random_povm_set(2, 2, 2, rng))
    bob = random_povm_set(2, 2, 2, rng)
    beh = sc.measure(asm, bob)
    rho_b = sc.reduced_state(asm)
    pb = sc.behaviour_marginal(beh, "B")
    for y in range(2):
        for bb in range(2):
            assert abs(pb[y, bb] - np.trace(bob.effects[y, bb] @ rho_b).real) < 1e-12


def test_behaviour_copies_the_callers_table():
    t = np.full((2, 2, 2, 2), 0.25)
    b = sc.Behaviour(t)
    t[0, 0, 0, 0] = 0.5                 # the caller's array stays writable
    assert b.table[0, 0, 0, 0] == 0.25
    with pytest.raises(ValueError, match="read-only"):
        b.table[0, 0, 0, 0] = 0.0


def test_lhs_model_roundtrip():
    rng = np.random.default_rng(7)
    states = []
    for _ in range(4):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        states.append(g @ g.conj().T)
    states = np.array(states)
    states /= np.einsum("lii->", states).real
    model = sc.LhsModel(states, (2, 2))
    asm = model.assemblage()
    # members rebuild from D(a|x,lam) weights
    assign = sc.strategy_assignments(2, 2)
    for x in range(2):
        for a in range(2):
            want = sum(states[l] for l in range(4) if assign[l, x] == a)
            assert np.allclose(asm.members[x, a], want)


def test_local_model_behaviour_is_normalized():
    rng = np.random.default_rng(8)
    w = rng.random((4, 4))
    w /= w.sum()
    model = sc.LocalModel(w, (2, 2, 2, 2))
    beh = model.behaviour()
    assert not beh.signalling
    assert np.allclose(beh.table.sum(axis=(2, 3)), 1.0)


def test_steer_pipeline_invariants():
    rng = np.random.default_rng(9)
    for trial in range(5):
        ms = random_povm_set(2, 2, 2, rng)
        state = sc.werner(rng.random())
        asm = sc.steer(state, ms)        # constructor validates invariants
        beh = sc.measure(asm, random_povm_set(2, 2, 2, rng))
        assert beh.signalling_deviation < 1e-12


# each operator-grid way in: constructor, grid of scaled identities it
# accepts, its block name, the attribute holding the grid, and two blocks
# whose sum over outcomes (or strategies) a one-sided off-diagonal leaves
# unchanged
GRIDS = [
    pytest.param(sc.MeasurementSet, np.eye(2) / 2, (2, 2), "effect", "effects",
                 ((1, 0), (1, 1)), id="MeasurementSet"),
    pytest.param(sc.Assemblage, np.eye(2) / 4, (2, 2), "member", "members",
                 ((1, 0), (1, 1)), id="Assemblage"),
    pytest.param(lambda g: sc.ParentPovm(g, (2, 2)), np.eye(2) / 4, (4,), "effect",
                 "effects", ((1,), (2,)), id="ParentPovm"),
    pytest.param(lambda g: sc.LhsModel(g, (2, 2)), np.eye(2) / 8, (4,), "state",
                 "states", ((1,), (2,)), id="LhsModel"),
]


def _grid(block, lead):
    return np.broadcast_to(block, lead + (2, 2)).astype(complex)


@pytest.mark.parametrize("make, block, lead, what, attr, pair", GRIDS)
def test_non_hermitian_block_is_refused_by_name(make, block, lead, what, attr, pair):
    # [[s, 0.8 s], [0, s]] is PSD once symmetrized and the pair's sum is
    # unchanged, so only the Hermitian check can refuse it
    grid = _grid(block, lead)
    grid[pair[0]][0, 1] += 0.8 * block[0, 0]
    grid[pair[1]][0, 1] -= 0.8 * block[0, 0]
    name = re.escape(f"{what}{list(pair[0])}")
    with pytest.raises(NotHermitian, match=rf"^{name}: asymmetry"):
        make(grid)


@pytest.mark.parametrize("make, block, lead, what, attr, pair", GRIDS)
def test_non_finite_block_is_refused_by_name(make, block, lead, what, attr, pair):
    # NaN fails every comparison, so only a finiteness check refuses it
    grid = _grid(block, lead)
    grid[pair[0]][0, 1] = np.nan
    name = re.escape(f"{what} entry {[*pair[0], 0, 1]} is (nan")
    with pytest.raises(ValueError, match=rf"^{name}"):
        make(grid)


def _nan_at(arr, idx):
    arr = np.array(arr)
    arr[idx] = np.nan
    return arr


@pytest.mark.parametrize("make, message", [
    (lambda: sc.Behaviour(_nan_at(np.full((2, 2, 2, 2), 0.25), (0, 1, 0, 0))),
     "table entry [0, 1, 0, 0] is nan"),
    (lambda: sc.BipartiteState(_nan_at(np.eye(4, dtype=complex) / 4, (0, 1)), (2, 2)),
     "state entry [0, 1] is (nan"),
    (lambda: sc.LocalModel(_nan_at(np.full((4, 4), 1 / 16), (0, 1)), (2, 2, 2, 2)),
     "weight entry [0, 1] is nan"),
], ids=["Behaviour", "BipartiteState", "LocalModel"])
def test_non_finite_entry_is_refused_by_index(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        make()


@pytest.mark.parametrize("make, block, lead, what, attr, pair", GRIDS)
def test_operator_grid_is_a_read_only_copy(make, block, lead, what, attr, pair):
    grid = _grid(block, lead)
    obj = make(grid)
    stored = getattr(obj, attr)
    with pytest.raises(ValueError, match="read-only"):
        stored[pair[0]] = 0.0
    grid[...] = 0.0                      # the caller's array stays its own
    assert np.array_equal(stored, _grid(block, lead))


def test_local_model_weights_are_a_read_only_copy():
    w = np.full((4, 4), 1 / 16)
    model = sc.LocalModel(w, (2, 2, 2, 2))
    with pytest.raises(ValueError, match="read-only"):
        model.weights[0, 0] = 0.0
    w[0, 0] = 1.0
    assert model.weights[0, 0] == 1 / 16
