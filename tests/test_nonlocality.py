import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from corrquant import nonlocality as nl
from corrquant import npa
from corrquant import scenario as sc
from corrquant.cg import CgLayout, strategy_cg_matrix
from corrquant.conic import verify_solution
from corrquant.errors import SignallingError, StrategyCapExceeded, ValidationError
from corrquant.steering import ROW


def isotropic_chsh(v, alice=None):
    alice = sc.paulis("XZ") if alice is None else alice
    bob = sc.bloch_measurements([
        np.array([1, 0, 1]) / np.sqrt(2),
        np.array([1, 0, -1]) / np.sqrt(2),
    ])
    return sc.measure(sc.steer(sc.werner(v), alice), bob)


def local_behaviour(rng, scenario=(2, 2, 2, 2)):
    la = scenario[1] ** scenario[0]
    lb = scenario[3] ** scenario[2]
    w = rng.random((la, lb))
    w /= w.sum()
    return sc.LocalModel(w, scenario).behaviour()


# ---------------------------------------------------------------------------
# independent LP oracle via scipy.optimize.linprog (HiGHS)
# ---------------------------------------------------------------------------


def oracle_nlr_mar(beh):
    """min r s.t. cg(P) + r*cg(U) = sum q S,  q >= 0 over 16 pairs."""
    layout = CgLayout(beh.mA, beh.nA, beh.mB, beh.nB)
    S = strategy_cg_matrix(layout)
    pb = beh.table.sum(axis=2)[0]
    noise = np.broadcast_to(pb[None, :, None, :] / beh.nA,
                            beh.table.shape)
    a_eq = np.hstack([S.T, -layout.of_table(np.asarray(noise))[:, None]])
    b_eq = layout.of_table(beh.table)
    c = np.zeros(S.shape[0] + 1)
    c[-1] = 1.0
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def oracle_nlr_lhv(beh):
    layout = CgLayout(beh.mA, beh.nA, beh.mB, beh.nB)
    S = strategy_cg_matrix(layout)
    n = S.shape[0]
    a_eq = np.hstack([S.T, -S.T])
    b_eq = layout.of_table(beh.table)
    c = np.concatenate([np.zeros(n), np.ones(n)])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_uniform_behaviour_local():
    tab = np.full((2, 2, 2, 2), 0.25)
    dec = nl.is_local(sc.Behaviour(tab))
    assert dec.local
    rebuilt = dec.model.behaviour()
    assert np.max(np.abs(rebuilt.table - tab)) < 1e-8


def test_isotropic_threshold():
    dec_lo = nl.is_local(isotropic_chsh(0.6))
    assert dec_lo.local
    dec_hi = nl.is_local(isotropic_chsh(0.8))
    assert not dec_hi.local
    ineq = dec_hi.inequality
    assert ineq.violation >= 1e-7
    # CHSH-type certificate: bound honored by all 16 deterministic pairs
    layout = CgLayout(2, 2, 2, 2)
    S = strategy_cg_matrix(layout)
    fcg = layout.table_matrix().T @ ineq.coefficients.ravel()
    assert np.max(S @ fcg) <= ineq.bound + 1e-9


@pytest.mark.parametrize("v, eta", [
    *((v, None) for v in (0.66, 0.69, 1 / np.sqrt(2) - 1e-3, 1 / np.sqrt(2),
                          1 / np.sqrt(2) + 1e-3, 0.72, 0.76, 0.85, 1.0)),
    (0.8, 0.9)])
def test_membership_is_the_marginal_row_at_a_uniform_bob_marginal(v, eta):
    """With Bob's marginal uniform, is_local solves NLR_mar's row on the
    table b - u, u the uniform behaviour: NLR_mar's program with its t
    shifted by one, so t >= -1 in place of t >= 0, and the margin is
    -NLR_mar wherever the behaviour is nonlocal (NLR_mar reads 0 where
    the margin is positive).  ``eta``: Alice's X and Z lossy, with a
    third no-click outcome."""
    alice = None if eta is None else sc.lossy(sc.paulis("XZ"), eta)
    beh = isotropic_chsh(v, alice)
    assert np.allclose(sc.behaviour_marginal(beh, "B"), 1 / beh.nB, atol=1e-14)
    margin = nl.is_local(beh).margin
    value = nl.nonlocality_quantifier(beh, "NLR_mar").value
    assert min(margin, 0.0) == pytest.approx(-value, abs=1e-8)
    if eta is not None:
        assert margin == pytest.approx(-0.0182337649, abs=1e-9)


def test_signalling_rejected():
    # Alice's marginal depends on y: P(a=0|x=0) is 0.8 vs 0.5
    tab = np.full((2, 2, 2, 2), 0.25)
    tab[0, 0] = [[0.6, 0.2], [0.1, 0.1]]
    beh = sc.Behaviour(tab)
    with pytest.raises(SignallingError):
        nl.is_local(beh)


# "B": every kind pins Bob's marginal
@pytest.mark.parametrize("kind", list(nl.NonlocalityKind), ids=lambda k: f"B-{k.value}")
def test_every_kind_refuses_an_unsupported_level(kind):
    # the level is checked before the behaviour: a signalling one is
    # refused for its level, not for signalling
    tab = np.full((2, 2, 2, 2), 0.25)
    tab[0, 0] = [[0.6, 0.2], [0.1, 0.1]]
    for beh in (isotropic_chsh(1.0), sc.Behaviour(tab)):
        for level in (0, 3, 7):
            with pytest.raises(ValidationError,
                               match=rf"^unsupported level {level} \(only 1 and 2\)$"):
                nl.nonlocality_quantifier(beh, kind, level=level)


def test_pair_cap_checked_before_strategy_matrix(monkeypatch):
    # 4 strategies per party fit a cap of 10, their 16 pairs do not: both
    # programs refuse before building the (16, 9) strategy matrix, and the
    # one setting moves every strategy check
    monkeypatch.setattr(sc, "STRATEGY_CAP", 10)

    def spy(layout):
        raise AssertionError("strategy matrix built past the cap")

    monkeypatch.setattr(nl, "strategy_cg_matrix", spy)
    beh = isotropic_chsh(1.0)
    with pytest.raises(StrategyCapExceeded):
        nl.is_local(beh)
    with pytest.raises(StrategyCapExceeded):
        nl.nonlocality_quantifier(beh, "NLR_mar")
    with pytest.raises(StrategyCapExceeded):
        sc.strategy_masks(4, 2)


def test_strategy_pairs_are_built_once_per_scenario():
    # two behaviours of one scenario share its layout, S and table matrix,
    # all read-only, and they are the arrays a fresh layout gives
    layout, S = nl._strategy_pairs(isotropic_chsh(1.0))
    again, S_again = nl._strategy_pairs(isotropic_chsh(0.5))
    assert again is layout and S_again is S
    assert again.table_matrix() is layout.table_matrix()
    for arr in (S, layout.table_matrix()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    fresh = CgLayout(2, 2, 2, 2)
    assert np.array_equal(S, strategy_cg_matrix(fresh))
    assert np.array_equal(layout.table_matrix(), fresh.table_matrix())


def test_bell_certificate_checks_the_pair_cap(monkeypatch):
    # the certificate enumerates the same 16 strategy pairs as the solve,
    # so a cap they exceed refuses it too
    beh = isotropic_chsh(1.0)
    res = nl.nonlocality_quantifier(beh, "NLR_mar")
    monkeypatch.setattr(sc, "STRATEGY_CAP", 10)
    with pytest.raises(StrategyCapExceeded):
        nl.bell_certificate(res, beh)


# ---------------------------------------------------------------------------
# quantifiers
# ---------------------------------------------------------------------------


def test_local_behaviour_all_kinds_zero():
    rng = np.random.default_rng(0)
    beh = local_behaviour(rng)
    for kind in nl.NonlocalityKind:
        res = nl.nonlocality_quantifier(beh, kind, level=1)
        assert res.value < 1e-7, kind


def test_nlr_mar_isotropic():
    beh = isotropic_chsh(1.0)
    res = nl.nonlocality_quantifier(beh, "NLR_mar")
    want = oracle_nlr_mar(beh)
    assert abs(res.value - want) < 1e-7
    assert abs(res.value - (np.sqrt(2) - 1)) < 1e-6
    assert not res.certified_lower_bound


def test_nlr_lhv_isotropic():
    beh = isotropic_chsh(1.0)
    res = nl.nonlocality_quantifier(beh, "NLR_lhv")
    want = oracle_nlr_lhv(beh)
    assert abs(res.value - want) < 1e-7
    assert abs(res.value - (np.sqrt(2) - 1) / 2) < 1e-6


def test_lp_witness_reconstruction():
    beh = isotropic_chsh(0.9)
    for kind in ("NLR_mar", "NLR_lhv", "NLR_c_lhv"):
        res = nl.nonlocality_quantifier(beh, kind)
        assert res.value > 1e-4
        mixture = (beh.table + res.value * res.noise_table) / (1 + res.value)
        model_tab = res.model.behaviour().table
        assert np.max(np.abs(mixture - model_tab)) < 1e-8, kind
        dec = nl.is_local(sc.Behaviour(mixture))
        assert dec.local or dec.margin > -1e-7


def test_sdp_kinds_are_lower_bounds():
    beh = isotropic_chsh(1.0)
    res_c = nl.nonlocality_quantifier(beh, "NLR_c", level=2)
    assert res_c.certified_lower_bound and res_c.level == 2
    # analytic: optimal uniform-marginal quantum noise reaches 3 - 2 sqrt2
    assert res_c.value <= (3 - 2 * np.sqrt(2)) + 1e-6
    assert res_c.value >= (3 - 2 * np.sqrt(2)) - 1e-5
    res = nl.nonlocality_quantifier(beh, "NLR", level=2)
    assert res.value <= res_c.value + 1e-7


def test_nlw_c_tsirelson_is_one():
    beh = isotropic_chsh(1.0)
    res = nl.nonlocality_quantifier(beh, "NLW_c", level=1)
    assert abs(res.value - 1.0) < 1e-6
    res2 = nl.nonlocality_quantifier(beh, "NLW_c", level=2)
    assert abs(res2.value - 1.0) < 1e-6


def test_nlw_c_level2_at_full_visibility_converges():
    """The last grid point of the CHSH Werner sweep: its NLW_c level-2
    program has no strictly feasible point (the optimum t = 1 forces every
    local weight to 0), yet the solve ends converged at 1."""
    res = nl.nonlocality_quantifier(isotropic_chsh(1.0), "NLW_c", level=2)
    assert res.solution.ended == "converged"
    assert abs(res.value - 1.0) <= 1e-8


def test_consistency_pins_bob_marginal():
    beh = isotropic_chsh(0.95)
    pb = sc.behaviour_marginal(beh, "B")
    res = nl.nonlocality_quantifier(beh, "NLR_c", level=1)
    assert res.value > 1e-4
    qb = res.noise_table.sum(axis=2)[0]       # noise marginal for Bob
    assert np.max(np.abs(qb - pb)) < 1e-6
    res = nl.nonlocality_quantifier(beh, "NLR_c_lhv")
    qb = res.noise_table.sum(axis=2)[0]
    assert np.max(np.abs(qb - pb)) < 1e-6


def test_consistent_dominates_plain():
    beh = isotropic_chsh(0.93)
    plain = nl.nonlocality_quantifier(beh, "NLR", level=1).value
    cons = nl.nonlocality_quantifier(beh, "NLR_c", level=1).value
    assert cons >= plain - 1e-7
    w = nl.nonlocality_quantifier(beh, "NLW", level=1).value
    wc = nl.nonlocality_quantifier(beh, "NLW_c", level=1).value
    assert wc >= w - 1e-7


def test_bell_certificates():
    beh = isotropic_chsh(1.0)
    res = nl.nonlocality_quantifier(beh, "NLR_lhv")
    cert = nl.bell_certificate(res, beh)
    assert abs(cert.violation - res.value) < 1e-6
    assert cert.level is None
    # local input: zero violation
    rng = np.random.default_rng(1)
    loc = local_behaviour(rng)
    res0 = nl.nonlocality_quantifier(loc, "NLR_mar")
    cert0 = nl.bell_certificate(res0, loc)
    assert abs(cert0.violation) < 1e-6


def test_relabeling_invariance():
    beh = isotropic_chsh(0.9)
    perm = sc.Behaviour(beh.table[[1, 0]][:, [1, 0]])
    for kind in ("NLR_mar", "NLR_lhv"):
        v1 = nl.nonlocality_quantifier(beh, kind).value
        v2 = nl.nonlocality_quantifier(perm, kind).value
        assert abs(v1 - v2) < 1e-7


# ---------------------------------------------------------------------------
# no-signalling projection
# ---------------------------------------------------------------------------


def test_ns_project_fixed_point():
    beh = isotropic_chsh(0.8)
    proj = nl.ns_project(beh.table)
    assert proj.divergence < 1e-9
    assert np.max(np.abs(proj.behaviour.table - beh.table)) < 1e-6
    assert proj.behaviour.signalling_deviation < 1e-10
    assert proj.kkt_residual < 1e-8


def test_ns_project_quadratic_divergence():
    # +delta/-delta perturbation on one slice: D = O(delta^2) [KL expansion]
    beh = isotropic_chsh(0.7)
    delta = 1e-3
    raw = beh.table.copy()
    raw[0, 0, 0, 0] += delta
    raw[0, 0, 0, 1] -= delta
    proj = nl.ns_project(raw)
    assert proj.behaviour.signalling_deviation < 1e-10
    # the raw slice sums are still 1, divergence should be ~ delta^2 / p
    assert proj.divergence < 50 * delta ** 2
    assert proj.divergence > 1e-9


def test_ns_project_idempotent():
    beh = isotropic_chsh(0.7)
    raw = beh.table.copy()
    raw[0, 0, 0, 0] += 5e-3
    raw[0, 0, 1, 1] -= 5e-3
    p1 = nl.ns_project(raw)
    p2 = nl.ns_project(p1.behaviour.table)
    assert np.max(np.abs(p2.behaviour.table - p1.behaviour.table)) < 1e-9


def test_ns_project_refuses_a_non_finite_raw_entry_by_name():
    raw = isotropic_chsh(0.7).table.copy()
    raw[1, 1, 1, 1] = np.nan
    with pytest.raises(ValueError, match=r"^raw table entry \[1, 1, 1, 1\] is nan$"):
        nl.ns_project(raw)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ns_project_refuses_a_non_finite_weight_by_name(bad):
    weights = np.full((2, 2), 0.25)
    weights[0, 1] = bad
    with pytest.raises(ValueError, match=rf"^weights entry \[0, 1\] is {bad}$"):
        nl.ns_project(isotropic_chsh(0.7).table, weights=weights)


def test_ns_project_pipeline():
    rng = np.random.default_rng(2)
    for _ in range(20):
        beh = local_behaviour(rng)
        raw = beh.table + rng.normal(scale=2e-4, size=beh.table.shape)
        raw = np.clip(raw, 1e-9, None)
        raw /= raw.sum(axis=(2, 3), keepdims=True)
        proj = nl.ns_project(raw)
        res = nl.nonlocality_quantifier(proj.behaviour, "NLR_mar")
        assert res.value < 0.2


def test_behaviour_from_counts():
    rng = np.random.default_rng(3)
    counts = rng.integers(50, 1000, size=(2, 2, 2, 2))
    beh = nl.behaviour_from_counts(counts)
    assert np.allclose(beh.table.sum(axis=(2, 3)), 1.0)
    assert beh.signalling            # finite statistics always signal a bit
    proj = nl.ns_project(beh.table)
    assert proj.behaviour.signalling_deviation < 1e-10


@pytest.mark.parametrize("cell, value, message", [
    ((0, 1, 1, 0), -3, r"^counts: negative entries$"),
    ((0, 1, 1, 0), -0.5, r"^counts: negative entries$"),
    ((0, 1, 1, 0), 2.7, r"^counts: non-integer entries$"),
    ((0, 1, 1, 0), np.nan, r"^counts: non-integer entries$"),
    ((0, 1, 1, 0), np.inf, r"^counts: non-integer entries$"),
    ((1, 0), 0, r"^counts\[1\]\[0\]: the slice has no counts$")],
    ids=["negative", "negative fraction", "fraction", "nan", "inf", "empty slice"])
def test_behaviour_from_counts_refuses_a_bad_table(cell, value, message):
    counts = np.full((2, 2, 2, 2), 10.0)
    counts[cell] = value
    with pytest.raises(ValidationError, match=message):
        nl.behaviour_from_counts(counts)


def test_three_outcome_quantifiers():
    rng = np.random.default_rng(5)
    w = rng.random((9, 4))
    w /= w.sum()
    loc = sc.LocalModel(w, (2, 3, 2, 2)).behaviour()
    for kind in ("NLR_mar", "NLR_lhv", "NLR_c", "NLW_c"):
        res = nl.nonlocality_quantifier(loc, kind, level=1)
        assert res.value < 1e-7, kind
    # a nonlocal 3-outcome behaviour: pad the Tsirelson point with a
    # never-occurring Alice outcome
    beh22 = isotropic_chsh(1.0)
    tab = np.zeros((2, 2, 3, 2))
    tab[:, :, :2, :] = beh22.table
    beh32 = sc.Behaviour(tab)
    res = nl.nonlocality_quantifier(beh32, "NLR_mar")
    # the padding outcome dilutes the uniform-Alice noise: same mixture
    # geometry, noise now 1/3 instead of 1/2 per click outcome
    assert res.value > 0.1
    dec = nl.is_local(beh32)
    assert not dec.local


def test_nlr_c_level2_converges_on_the_criterion_4_grid():
    """Every NLR_c level-2 solve on the CHSH Werner grid of criterion 4
    ends converged and verifies.  The step bound reads the scaled ds that
    the step applies, c dtau - eta rx - As^T dy mapped by W^T; the scaled ds
    taken as d - W^-1 dx (d the scaled centring direction), equal in exact
    arithmetic, let an iterate on this grid leave the cone."""
    vth = 1 / np.sqrt(2)
    grid = np.unique(np.concatenate([np.arange(vth - 3e-3, vth + 3e-3, 5e-4),
                                     np.linspace(0.72, 1.0, 8)]))
    for v in grid:
        beh = isotropic_chsh(v)
        prog, _ = nl.build_program("nonlocality:NLR_c:l2", "robustness", beh.table,
                                   sc.behaviour_marginal(beh, "B"), 2)
        sol = prog.solve()
        assert sol.ended == "converged", (v, sol.ended)
        assert verify_solution(prog, sol).ok(), v


def _solution_arrays(sol):
    """Every array of a solution, in a fixed order, for byte comparison."""
    return [np.asarray(part[key]) for part in (sol.primal, sol.dual_rows, sol.dual_slack)
            for key in part]


def test_shared_npa_template_builds_the_same_programs(monkeypatch):
    """build_npa_block hands every caller one read-only template, and the
    level-2 programs it builds and their solutions are the ones a template
    built afresh gives, to the last bit."""
    tmpl = npa.build_npa_block((2, 2, 2, 2), 2)
    assert npa.build_npa_block((2, 2, 2, 2), 2) is tmpl
    # only tuples, ints and its layout: no array to write into
    for field in dataclasses.fields(tmpl):
        assert isinstance(getattr(tmpl, field.name), (tuple, int, CgLayout)), field.name
    for seq in (tmpl.words, tmpl.classes, tmpl.zero_cells, tmpl.cg_class,
                tmpl.cg_cells, *tmpl.classes):
        assert isinstance(seq, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tmpl.level = 1
    beh = isotropic_chsh(0.9)
    memo = nl._structure
    # iteration bounds at 1 BLAS thread
    for kind, most in (("NLW_c", 15), ("NLR_c", 15)):
        runs = []
        for build, structure in ((npa.build_npa_block, memo),
                                 (npa.build_npa_block.__wrapped__, memo.__wrapped__)):
            # the fresh template reaches the program only past the structure memo
            monkeypatch.setattr(nl, "build_npa_block", build)
            monkeypatch.setattr(nl, "_structure", structure)
            row = ROW[nl.STEERING_KIND[nl.NonlocalityKind(kind)]]
            prog, _ = nl.build_program(f"nonlocality:{kind}:l2", row, beh.table,
                                       sc.behaviour_marginal(beh, "B"), 2)
            A, b, c = prog.build()
            res = nl.nonlocality_quantifier(beh, kind, level=2)
            runs.append(([A.indptr, A.indices, A.data, b, c], res.solution))
        (shared, sol), (fresh, sol_fresh) = runs
        assert all(x.tobytes() == y.tobytes() for x, y in zip(shared, fresh))
        assert (sol.iterations, sol.ended, sol.pobj.hex(), sol.dobj.hex()) == (
            sol_fresh.iterations, sol_fresh.ended, sol_fresh.pobj.hex(),
            sol_fresh.dobj.hex())
        assert all(x.tobytes() == y.tobytes() for x, y in
                   zip(_solution_arrays(sol), _solution_arrays(sol_fresh)))
        assert sol.ended == "converged"
        assert sol.iterations <= most
