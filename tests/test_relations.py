"""Cross-module property tests: the quantifier chains and the pure-state
tightness equalities, on small randomized instances (the fuller sweeps
live in the acceptance suite)."""

import numpy as np
import pytest

from corrquant import incompat as ic
from corrquant import nonlocality as nl
from corrquant import scenario as sc
from corrquant import steering as st

TOL = 1e-7
LOSSY_ETA = 0.4


def random_qubit_povm_set(m, n, rng):
    grid = np.empty((m, n, 2, 2), dtype=complex)
    for x in range(m):
        raw = []
        for _ in range(n):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            raw.append(g @ g.conj().T)
        tot = sum(raw)
        vals, vecs = np.linalg.eigh(tot)
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        for a in range(n):
            grid[x, a] = inv_root @ raw[a] @ inv_root
    return sc.MeasurementSet(grid)


def random_two_qubit_state(rng, mix=0.3):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (1 - mix) * rho + mix * np.eye(4) / 4
    return sc.BipartiteState(rho, (2, 2))


def incompat_values(meas):
    return {k: ic.incompatibility_quantifier(meas, k).value
            for k in ("robustness", "random_robustness", "jm_robustness",
                      "weight")}


def steering_values(asm):
    return {k.value: st.steering_quantifier(asm, k).value
            for k in st.SteeringKind}


def nonlocality_values(beh, level=1):
    return {k.value: nl.nonlocality_quantifier(beh, k, level=level).value
            for k in nl.NonlocalityKind}


def assert_chain(iv, sv, nv):
    # incompatibility dominates steering
    assert iv["robustness"] >= sv["SR_c"] - TOL
    assert sv["SR_c"] >= sv["SR"] - TOL
    assert iv["random_robustness"] >= sv["SR_red"] - TOL
    assert iv["jm_robustness"] >= sv["SR_c_lhs"] - TOL
    assert sv["SR_c_lhs"] >= sv["SR_lhs"] - TOL
    assert iv["weight"] >= sv["SW_c"] - TOL
    assert sv["SW_c"] >= sv["SW"] - TOL
    # steering dominates nonlocality (SDP kinds are lower bounds, so the
    # comparison only tightens)
    assert sv["SR"] >= nv["NLR"] - TOL
    assert sv["SR_red"] >= nv["NLR_mar"] - TOL
    assert sv["SR_lhs"] >= nv["NLR_lhv"] - TOL
    assert sv["SW"] >= nv["NLW"] - TOL
    assert sv["SR_c"] >= nv["NLR_c"] - TOL
    assert sv["SR_c_lhs"] >= nv["NLR_c_lhv"] - TOL
    assert sv["SW_c"] >= nv["NLW_c"] - TOL
    # consistent variants dominate the plain ones
    assert nv["NLR_c"] >= nv["NLR"] - TOL
    assert nv["NLW_c"] >= nv["NLW"] - TOL


@pytest.mark.parametrize("trial", range(4))
def test_chain_random_triples(trial):
    rng = np.random.default_rng(1000 + trial)
    meas = random_qubit_povm_set(2, 2, rng)
    state = random_two_qubit_state(rng, mix=rng.uniform(0.0, 0.4))
    bob = random_qubit_povm_set(2, 2, rng)
    asm = sc.steer(state, meas)
    beh = sc.measure(asm, bob)
    assert_chain(incompat_values(meas), steering_values(asm),
                 nonlocality_values(beh, level=1))


def test_chain_werner_chsh():
    meas = sc.paulis("XZ")
    state = sc.werner(0.9)
    bob = sc.bloch_measurements([np.array([1, 0, 1]) / np.sqrt(2),
                                 np.array([1, 0, -1]) / np.sqrt(2)])
    asm = sc.steer(state, meas)
    beh = sc.measure(asm, bob)
    assert_chain(incompat_values(meas), steering_values(asm),
                 nonlocality_values(beh, level=2))


def pure_theta_2x3(theta):
    """cos(theta)|00> + sin(theta)|11> in C^2 x C^3: rho_B has rank 2."""
    vec = np.zeros(6, dtype=complex)
    vec[0], vec[4] = np.cos(theta), np.sin(theta)
    return sc.BipartiteState(np.outer(vec, vec.conj()), (2, 3))


@pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 6, np.pi / 4])
def test_tightness_pure_states(theta):
    # the two-qubit state, and the same state in 2 x 3, whose reduced
    # state, the steering kinds' reference, is rank deficient
    rng = np.random.default_rng(int(theta * 10000))
    meas = random_qubit_povm_set(2, 2, rng)
    iv = incompat_values(meas)
    for state in (sc.pure_theta(theta), pure_theta_2x3(theta)):
        asm = sc.steer(state, meas)
        assert abs(iv["robustness"]
                   - st.steering_quantifier(asm, "SR_c").value) <= 1e-6
        assert abs(iv["random_robustness"]
                   - st.steering_quantifier(asm, "SR_red").value) <= 1e-6
        assert abs(iv["jm_robustness"]
                   - st.steering_quantifier(asm, "SR_c_lhs").value) <= 1e-6
        assert abs(iv["weight"]
                   - st.steering_quantifier(asm, "SW_c").value) <= 1e-6


def assert_bound_by_enumeration(coefficients, bound):
    """lambda_max(sum_x C_{lambda_x|x}) <= bound on every deterministic
    strategy lambda."""
    m, n = coefficients.shape[:2]
    for lam in sc.strategy_assignments(m, n):
        top = np.linalg.eigvalsh(sum(coefficients[x, lam[x]] for x in range(m)))[-1]
        assert top <= bound + 1e-9


def test_certificates_at_weight_one():
    # below weight 1 the certificate's violation is the value.  At weight 1
    # the optimum's parent / LHS part is empty, so nothing pins the
    # enumerated bound where it sits below 1, and the violation is only at
    # least the value: IW(X, Z) = 1 has witness bound -0.684, and SW_c on
    # the Werner v = 1 XZ assemblage violates its bound by 1.83
    xz = sc.paulis("XZ")
    cases = [(sc.steer(state, xz), kind)
             for state in (sc.werner(1.0), sc.werner(0.9)) for kind in ("SW_c", "SW")]
    cases.append((sc.steer(pure_theta_2x3(0.5), xz), "SW_c"))
    weights = []
    for asm, kind in cases:
        res = st.steering_quantifier(asm, kind)
        assert_bound_by_enumeration(res.inequality.coefficients, res.inequality.bound)
        weights.append((res.value, res.inequality.violation))
    for meas in (xz, sc.lossy(xz, 0.9)):
        res = ic.incompatibility_quantifier(meas, "weight")
        witness = res.witness
        assert_bound_by_enumeration(witness.coefficients, witness.bound)
        assert abs(witness.value - res.value) < 1e-7
        assert witness.bound < 1e-7
        weights.append((res.value, witness.value - witness.bound))
    assert sum(value > 1 - 1e-6 for value, _ in weights) == 4
    for value, violation in weights:
        if value > 1 - 1e-6:
            assert violation >= value - 1e-9
        else:
            assert abs(violation - value) < 1e-6


def lossy_dodecahedron(m):
    """The first m dodecahedron directions at detection efficiency 0.4:
    n^m = 3^m strategy blocks, IW = (eta - 1/m) / (1 - 1/m)."""
    meas = sc.lossy(sc.bloch_measurements(sc.dodecahedron_vectors()[:m]), LOSSY_ETA)
    return meas, sc.steer(sc.werner(1.0, psi="singlet"), meas)


def test_tightness_lossy_dodecahedron_m5():
    meas, asm = lossy_dodecahedron(5)
    ir = ic.incompatibility_quantifier(meas, "robustness").value
    iw = ic.incompatibility_quantifier(meas, "weight").value
    assert abs(iw - (LOSSY_ETA - 1 / 5) / (1 - 1 / 5)) <= 1e-6
    assert abs(st.steering_quantifier(asm, "SR_c").value - ir) <= 1e-6
    assert abs(st.steering_quantifier(asm, "SW_c").value - iw) <= 1e-6


def test_lossy_dodecahedron_m7_sw_c_is_right_or_loud():
    # 2187 strategy blocks; this solve once stalled just above feastol and
    # raised SolverFailure at 2 BLAS threads.  It must return the IW
    # closed form at every thread count (CI runs it at 1 and at 2)
    _, asm = lossy_dodecahedron(7)
    value = st.steering_quantifier(asm, "SW_c").value
    assert abs(value - (LOSSY_ETA - 1 / 7) / (1 - 1 / 7)) <= 1e-6


def test_proof_construction_mixture_is_lhs():
    # the chain proof's intermediate object: mixing the optimal
    # incompatibility noise into the measurements yields an LHS assemblage
    rng = np.random.default_rng(5)
    meas = sc.paulis("XZ")
    state = random_two_qubit_state(rng)
    res = ic.incompatibility_quantifier(meas, "robustness")
    mixed = ic.mixture(meas, res.noise, res.value)
    asm = sc.steer(state, mixed)
    dec = st.has_lhs_model(asm)
    assert dec.has_model
