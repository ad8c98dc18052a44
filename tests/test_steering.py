import numpy as np
import pytest

from corrquant import decomposition as dc
from corrquant import incompat as ic
from corrquant import scenario as sc
from corrquant import steering as st


def random_povm_set(m, n, d, rng):
    grid = np.empty((m, n, d, d), dtype=complex)
    for x in range(m):
        raw = []
        for _ in range(n):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            raw.append(g @ g.conj().T)
        tot = sum(raw)
        vals, vecs = np.linalg.eigh(tot)
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        for a in range(n):
            grid[x, a] = inv_root @ raw[a] @ inv_root
    return sc.MeasurementSet(grid)


def row_rank_deficiency(prog) -> int:
    """Rows minus numerical rank of the program's A (dense, small programs)."""
    A = prog.build()[0].toarray()
    return A.shape[0] - np.linalg.matrix_rank(A)


def lhs_assemblage(rng, m=2, n=2, d=2):
    states = []
    for _ in range(n ** m):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        states.append(g @ g.conj().T)
    states = np.array(states)
    states /= np.einsum("lii->", states).real
    return sc.LhsModel(states, (m, n)).assemblage()


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_product_state_has_model():
    rng = np.random.default_rng(0)
    rho_a = np.diag([0.6, 0.4]).astype(complex)
    rho_b = np.diag([0.3, 0.7]).astype(complex)
    state = sc.BipartiteState(np.kron(rho_a, rho_b), (2, 2))
    asm = sc.steer(state, random_povm_set(2, 2, 2, rng))
    dec = st.has_lhs_model(asm)
    assert dec.has_model
    rebuilt = dec.model.assemblage()
    assert np.max(np.abs(rebuilt.members - asm.members)) < 1e-8


def test_werner_xyz_thresholds():
    # 1/sqrt3 threshold: steerable above, LHS below
    meas = sc.paulis("XYZ")
    dec_hi = st.has_lhs_model(sc.steer(sc.werner(1.0), meas))
    assert not dec_hi.has_model
    assert dec_hi.inequality.violation >= 1e-7
    dec_lo = st.has_lhs_model(sc.steer(sc.werner(0.5), meas))
    assert dec_lo.has_model


def test_lhs_model_assemblage_quantifier_zero():
    # a random LHS assemblage, and a product state whose rho_B = |0><0| is
    # rank deficient, so the models are normalized on its support
    rng = np.random.default_rng(1)
    rho_a = np.diag([0.6, 0.4]).astype(complex)
    product = sc.BipartiteState(np.kron(rho_a, np.diag([1.0, 0.0])), (2, 2))
    for asm in (lhs_assemblage(rng), sc.steer(product, sc.paulis("XZ"))):
        for kind in st.SteeringKind:
            res = st.steering_quantifier(asm, kind)
            assert res.value < 1e-7, kind
            rebuilt = res.model.assemblage().members
            assert np.max(np.abs(rebuilt - asm.members)) < 1e-8, kind
        rebuilt = st.has_lhs_model(asm).model.assemblage().members
        assert np.max(np.abs(rebuilt - asm.members)) < 1e-8


# ---------------------------------------------------------------------------
# quantifiers
# ---------------------------------------------------------------------------


def test_sr_red_max_entangled_xyz():
    # tightness with IR^r of the sharp set: sqrt3 - 1
    asm = sc.steer(sc.max_entangled(2), sc.paulis("XYZ"))
    res = st.steering_quantifier(asm, "SR_red")
    assert abs(res.value - (np.sqrt(3) - 1)) < 1e-6
    assert res.gap < 1e-7


@pytest.mark.parametrize("kind", list(st.SteeringKind))
def test_witnesses_and_certificates(kind):
    # rho_B = 1/2 for the Werner state; the partially entangled mixture has
    # an asymmetric rho_B, to which the SR, SW and SR_lhs models do not sum
    asym = sc.BipartiteState(0.9 * sc.pure_theta(np.pi / 7).rho
                             + 0.1 * np.eye(4) / 4, (2, 2))
    for state in (sc.werner(0.95), asym):
        check_witness_and_certificate(sc.steer(state, sc.paulis("XZ")), kind)


def lhs_mixture(asm, noise, s):
    """(sigma + s*noise)/(1+s), the mixture the robustness kinds certify."""
    return sc.Assemblage((asm.members + s * noise) / (1 + s))


def relabeled(asm, input_perm, outcome_perm):
    """``asm`` with its inputs and outcomes permuted."""
    return sc.Assemblage(asm.members[list(input_perm)][:, list(outcome_perm)])


def check_witness_and_certificate(asm, kind):
    res = st.steering_quantifier(asm, kind)
    assert res.value > 1e-4
    # defining decomposition reconstructs within 1e-8
    if dc.KINDS[st.ROW[kind]].sign > 0:
        remainder = st.weight_remainder(asm, res.noise, res.value)
        dec = st.has_lhs_model(remainder)
        assert dec.has_model
        rebuilt = res.value * res.noise + (1 - res.value) * \
            res.model.assemblage().members
    else:
        mix = lhs_mixture(asm, res.noise, res.value)
        dec = st.has_lhs_model(mix)
        assert dec.has_model
        rebuilt = (1 + res.value) * res.model.assemblage().members \
            - res.value * res.noise
    assert np.max(np.abs(rebuilt - asm.members)) < 1e-7
    # certificate: violation equals the value; bound honored by enumeration
    cert = st.steering_certificate(res, asm)
    assert abs(cert.violation - res.value) < 1e-6
    # the model of the optimal mixture certifies the bound is attained
    assert cert.bound <= res.inequality.evaluate(asm)


def test_certificate_on_lhs_input_is_zero():
    rng = np.random.default_rng(2)
    asm = lhs_assemblage(rng)
    res = st.steering_quantifier(asm, "SR")
    cert = st.steering_certificate(res, asm)
    assert abs(cert.violation) < 1e-6


def test_certificate_bound_by_enumeration_werner():
    asm = sc.steer(sc.werner(1.0), sc.paulis("XYZ"))
    res = st.steering_quantifier(asm, "SR")
    ineq = res.inequality
    # every deterministic strategy against the bound
    assign = sc.strategy_assignments(3, 2)
    f = ineq.coefficients
    for lam in range(assign.shape[0]):
        op = sum(f[x, assign[lam, x]] for x in range(3))
        assert np.linalg.eigvalsh(op)[-1] <= ineq.bound + 1e-9


def test_consistent_dominance():
    asm = sc.steer(sc.werner(0.9), sc.paulis("XZ"))
    sr = st.steering_quantifier(asm, "SR").value
    src = st.steering_quantifier(asm, "SR_c").value
    srlhs = st.steering_quantifier(asm, "SR_lhs").value
    srclhs = st.steering_quantifier(asm, "SR_c_lhs").value
    sw = st.steering_quantifier(asm, "SW").value
    swc = st.steering_quantifier(asm, "SW_c").value
    assert src >= sr - 1e-7
    assert srclhs >= srlhs - 1e-7
    assert swc >= sw - 1e-7


def test_noise_consistency_constraints_hold():
    asm = sc.steer(sc.werner(0.92), sc.paulis("XZ"))
    rho_b = sc.reduced_state(asm)
    for kind in ("SR_c", "SW_c"):
        res = st.steering_quantifier(asm, kind)
        if res.value > 1e-6:
            sums = res.noise.sum(axis=1)
            assert np.max(np.abs(sums - rho_b)) < 1e-6
    res = st.steering_quantifier(asm, "SR_c_lhs")
    if res.value > 1e-6:
        assert np.max(np.abs(res.noise.sum(axis=1) - rho_b)) < 1e-6
        # gamma model normalized (trace 1 after unscaling)
        tr = np.einsum("lii->", res.noise_model.states).real
        assert abs(tr - 1) < 1e-6


def test_local_unitary_invariance():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    asm = sc.steer(sc.werner(0.9), sc.paulis("XZ"))
    rot = asm.conjugated(q)
    for kind in ("SR", "SW_c"):
        assert abs(st.steering_quantifier(asm, kind).value
                   - st.steering_quantifier(rot, kind).value) < 1e-7


def test_relabeling_invariance():
    asm = sc.steer(sc.werner(0.9), sc.paulis("XZ"))
    rel = relabeled(asm, input_perm=[1, 0], outcome_perm=[1, 0])
    for kind in ("SR_red", "SR_c"):
        assert abs(st.steering_quantifier(asm, kind).value
                   - st.steering_quantifier(rel, kind).value) < 1e-7


@pytest.mark.parametrize("kind", [*(k.value for k in ic.IncompatKind),
                                  *(k.value for k in st.SteeringKind)])
def test_row_sets_full_rank(kind):
    # the pruned row sets must leave A with full row rank, for every row
    # of the decomposition table: at R = 1 and at R = rho_B through the
    # steering kinds (membership solves the random_robustness row at R = 1)
    ms = sc.lossy(sc.paulis("XZ"), (0.7, 0.9))
    asm = sc.steer(sc.werner(0.8),
                   random_povm_set(2, 3, 2, np.random.default_rng(4)))
    if kind in {k.value for k in ic.IncompatKind}:
        progs = [dc.build_program("incompat", kind, ms.effects, np.eye(2))]
    else:
        row = st.ROW[st.SteeringKind(kind)]
        progs = [dc.build_program("steering", row, asm.members, sc.reduced_state(asm))]
    for prog in progs:
        assert row_rank_deficiency(prog) == 0, prog.name


def test_tightness_pure_state_small():
    # IR = SR_c and IR^r = SR_red for a full-rank pure state
    rng = np.random.default_rng(5)
    state = sc.pure_theta(np.pi / 6)
    meas = random_povm_set(2, 2, 2, rng)
    asm = sc.steer(state, meas)
    ir = ic.incompatibility_quantifier(meas, "robustness").value
    src = st.steering_quantifier(asm, "SR_c").value
    assert abs(ir - src) < 1e-6
    irr = ic.incompatibility_quantifier(meas, "random_robustness").value
    srred = st.steering_quantifier(asm, "SR_red").value
    assert abs(irr - srred) < 1e-6


def test_inequality_text_export():
    asm = sc.steer(sc.werner(0.95), sc.paulis("XZ"))
    res = st.steering_quantifier(asm, "SR")
    text = res.inequality.to_text()
    assert "LHS assemblage" in text and "F(0|0)" in text


def test_certificate_consistency_random_assemblages():
    # violation/value agreement across random steerable assemblages
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(20):
        vecs = rng.normal(size=(2, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        asm = sc.steer(sc.werner(rng.uniform(0.85, 1.0)),
                       sc.bloch_measurements(vecs))
        res = st.steering_quantifier(asm, "SR")
        if res.value < 1e-6:
            continue
        cert = st.steering_certificate(res, asm)
        assert abs(cert.violation - res.value) < 1e-6
        checked += 1
    assert checked >= 5
