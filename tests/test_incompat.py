import numpy as np
import pytest

from corrquant import incompat as ic
from corrquant import scenario as sc
from corrquant.errors import StrategyCapExceeded

# ---------------------------------------------------------------------------
# independent oracles for the analytic values
# ---------------------------------------------------------------------------


def busch_pair_jm(eta: float, b0, b1) -> bool:
    """Pairwise criterion for unbiased qubit effects (1 +- eta b.sigma)/2:
    jointly measurable iff |eta(b0+b1)| + |eta(b0-b1)| <= 2."""
    b0, b1 = np.asarray(b0, float), np.asarray(b1, float)
    return (np.linalg.norm(eta * (b0 + b1))
            + np.linalg.norm(eta * (b0 - b1))) <= 2 + 1e-15


def bisect_eta(feasible, lo=0.0, hi=1.0, iters=60):
    for _ in range(iters):
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def xyz_parent_ansatz_feasible(eta: float) -> bool:
    """Eight-outcome parent ansatz for depolarized X, Y, Z:
    G_vec = (1 + eta * v.sigma/sqrt3 ... ) is PSD iff eta <= 1/sqrt3.
    Checked constructively: build the ansatz, verify PSD and marginals."""
    from corrquant.operators import I2, SX, SY, SZ
    sigmas = [SX, SY, SZ]
    effects = []
    for v in np.ndindex(2, 2, 2):
        signs = [1 - 2 * int(bit) for bit in v]
        g = I2.copy()
        for s, sigma in zip(signs, sigmas):
            g = g + eta * s * sigma
        effects.append(g / 8)
    effects = np.array(effects)
    if np.min(np.linalg.eigvalsh(effects)) < -1e-12:
        return False
    # marginals must equal the depolarized sharp effects
    for x in range(3):
        for a in range(2):
            marg = sum(effects[i] for i, v in enumerate(np.ndindex(2, 2, 2))
                       if v[x] == a)
            sign = 1 - 2 * a
            want = (I2 + eta * sign * sigmas[x]) / 2
            if np.max(np.abs(marg - want)) > 1e-12:
                return False
    return True


# frozen from the oracles: critical eta and the corresponding t* = 1/eta - 1
ETA_XZ = bisect_eta(lambda e: busch_pair_jm(e, [1, 0, 0], [0, 0, 1]))
ETA_XYZ = bisect_eta(xyz_parent_ansatz_feasible)
IRR_XZ = 1 / ETA_XZ - 1          # = sqrt(2) - 1
IRR_XYZ = 1 / ETA_XYZ - 1        # = sqrt(3) - 1


def test_oracles_agree_with_closed_forms():
    assert abs(ETA_XZ - 1 / np.sqrt(2)) < 1e-9
    assert abs(ETA_XYZ - 1 / np.sqrt(3)) < 1e-9
    assert abs(IRR_XZ - (np.sqrt(2) - 1)) < 1e-8
    assert abs(IRR_XYZ - (np.sqrt(3) - 1)) < 1e-8


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_single_measurement_jm():
    dec = ic.is_jointly_measurable(sc.paulis("Z"))
    assert dec.jointly_measurable
    cg = dec.parent.coarse_grain()
    assert np.max(np.abs(cg.effects - sc.paulis("Z").effects)) < 1e-8


def test_identical_pair_jm():
    ms = sc.MeasurementSet(np.array([sc.paulis("Z").effects[0]] * 2))
    dec = ic.is_jointly_measurable(ms)
    assert dec.jointly_measurable
    assert np.max(np.abs(dec.parent.coarse_grain().effects - ms.effects)) < 1e-8


def test_sharp_xz_incompatible():
    dec = ic.is_jointly_measurable(sc.paulis("XZ"))
    assert not dec.jointly_measurable
    w = dec.witness
    assert w.value >= 1e-7
    assert w.bound <= 1e-7
    assert abs(w.value - (-dec.margin)) < 1e-6


def test_membership_matches_busch_threshold():
    # depolarized X, Z around the oracle threshold
    for eta, expect in ((ETA_XZ - 1e-3, True), (ETA_XZ + 1e-3, False)):
        grid = sc.paulis("XZ").effects * eta + (1 - eta) * np.eye(2) / 2
        dec = ic.is_jointly_measurable(sc.MeasurementSet(grid))
        assert dec.jointly_measurable is expect


# ---------------------------------------------------------------------------
# quantifiers
# ---------------------------------------------------------------------------


def test_jm_set_all_kinds_zero():
    ms = sc.MeasurementSet(
        sc.paulis("XZ").effects * 0.5 + 0.5 * np.eye(2) / 2)
    assert ic.is_jointly_measurable(ms).jointly_measurable
    for kind in ic.IncompatKind:
        res = ic.incompatibility_quantifier(ms, kind)
        assert res.value < 1e-7, kind


def test_random_robustness_xz():
    res = ic.incompatibility_quantifier(sc.paulis("XZ"), "random_robustness")
    assert abs(res.value - IRR_XZ) < 1e-6
    assert res.gap < 1e-7


def test_random_robustness_xyz():
    res = ic.incompatibility_quantifier(sc.paulis("XYZ"), "random_robustness")
    assert abs(res.value - IRR_XYZ) < 1e-6


def test_robustness_xz_analytic():
    # IR({X,Z}) = 3 - 2 sqrt2: upper bound from the biased-noise
    # construction via the Busch criterion; the chain and tightness
    # properties in test_relations corroborate it from below.
    res = ic.incompatibility_quantifier(sc.paulis("XZ"), "robustness")
    assert abs(res.value - (3 - 2 * np.sqrt(2))) < 1e-6


def test_jm_robustness_xz_analytic():
    # IR^jm({X,Z}) = (sqrt2 - 1)/2: identical-pair noise along -(x+z)/sqrt2
    res = ic.incompatibility_quantifier(sc.paulis("XZ"), "jm_robustness")
    assert abs(res.value - (np.sqrt(2) - 1) / 2) < 1e-6


def test_weight_of_sharp_pair_is_one():
    res = ic.incompatibility_quantifier(sc.paulis("XZ"), "weight")
    assert abs(res.value - 1.0) < 1e-6


def test_witness_reconstruction_invariants():
    ms = sc.lossy(sc.paulis("XYZ"), (0.8, 0.8, 0.8))
    for kind in ic.IncompatKind:
        res = ic.incompatibility_quantifier(ms, kind)
        # dual certificate value matches primal within 1e-7
        assert abs(res.witness.value - res.value) < 1e-7
        assert res.witness.bound < 1e-7
        # reconstructed decomposition is jointly measurable
        if kind is ic.IncompatKind.weight:
            remainder = ic.weight_remainder(ms, res.noise.reshape(ms.m, ms.n, 2, 2),
                                            res.value)
            dec = ic.is_jointly_measurable(remainder)
        else:
            mix = ic.mixture(ms, res.noise, res.value)
            dec = ic.is_jointly_measurable(mix)
        assert dec.jointly_measurable, kind
        # the parent returned by the solve coarse-grains to the mixture
        if kind is not ic.IncompatKind.weight:
            cg = res.parent.coarse_grain()
            mix = ic.mixture(ms, res.noise, res.value)
            assert np.max(np.abs(cg.effects - mix.effects)) < 1e-8


def test_monotonicity_under_noise_restriction():
    rng = np.random.default_rng(13)
    for _ in range(3):
        vecs = rng.normal(size=(2, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ms = sc.bloch_measurements(vecs)
        ir = ic.incompatibility_quantifier(ms, "robustness").value
        irr = ic.incompatibility_quantifier(ms, "random_robustness").value
        irjm = ic.incompatibility_quantifier(ms, "jm_robustness").value
        assert ir <= irr + 1e-7
        assert ir <= irjm + 1e-7


def test_unitary_invariance():
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    ms = sc.paulis("XZ")
    rot = ms.conjugated(q)
    for kind in ("robustness", "weight"):
        v1 = ic.incompatibility_quantifier(ms, kind).value
        v2 = ic.incompatibility_quantifier(rot, kind).value
        assert abs(v1 - v2) < 1e-7


def test_dropping_measurement_never_increases():
    ms = sc.paulis("XYZ")
    for kind in ("random_robustness", "weight"):
        full = ic.incompatibility_quantifier(ms, kind).value
        for x in range(3):
            sub = ic.incompatibility_quantifier(ms.dropped(x), kind).value
            assert sub <= full + 1e-7


def test_linearization_reproduces_fractional_constraints():
    ms = sc.paulis("XZ")
    res = ic.incompatibility_quantifier(ms, "robustness")
    t = res.value
    mix = (ms.effects + t * res.noise) / (1 + t)
    cg = res.parent.coarse_grain()
    assert np.max(np.abs(cg.effects - mix)) < 1e-8
    # noise is a valid measurement set
    sc.MeasurementSet(res.noise)


def test_cap_exceeded():
    # 20 dichotomic measurements: 2^20 > 10^6 strategies
    vecs = np.random.default_rng(3).normal(size=(20, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    with pytest.raises(StrategyCapExceeded):
        ic.incompatibility_quantifier(sc.bloch_measurements(vecs),
                                      "random_robustness")


def mub_pair(d: int) -> sc.MeasurementSet:
    """Computational and Fourier bases of C^d as projective measurements."""
    omega = np.exp(2j * np.pi / d)
    fourier = omega ** np.outer(np.arange(d), np.arange(d)) / np.sqrt(d)
    bases = (np.eye(d), fourier)
    return sc.MeasurementSet(np.array(
        [[np.outer(u[:, k], u[:, k].conj()) for k in range(d)] for u in bases]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_robustness_mub_pair(d):
    # a MUB pair mixed with white noise is jointly measurable iff
    # eta <= (2 + sqrt d)/(2 + 2 sqrt d) (Carmeli, Heinosaari & Toigo,
    # 2012), so IR^r = 1/eta* - 1 = sqrt d/(sqrt d + 2); d > 2 sends
    # Hermitian blocks of dimension 3 and 4 through the quantifier
    res = ic.incompatibility_quantifier(mub_pair(d), "random_robustness")
    assert abs(res.value - np.sqrt(d) / (np.sqrt(d) + 2)) < 1e-8
