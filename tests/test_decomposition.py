"""Column generation in decomposition.solve_strategies: the restricted
path against the whole program, its lifted certificate, the one-pass
path, and the reconstruction of a restricted solution; membership against
the free-margin program it replaced, and at the 59049-strategy scale."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from corrquant import conic
from corrquant import decomposition as dc
from corrquant import experiments as ex
from corrquant import incompat as ic
from corrquant import nonlocality as nl
from corrquant import npa
from corrquant import scenario as sc
from corrquant import steering as st
from corrquant.conic import ConicProgram, verify_solution
from corrquant.errors import NotPositiveSemidefinite

DATA = Path(__file__).parent / "data"
LOSSY_ETA = 0.4
TOL = 1e-8
INCOMPAT_KINDS = ("robustness", "random_robustness", "jm_robustness", "weight")
# every incompatibility and steering kind (the steering kinds solve their
# st.ROW rows at R = rho_B, so every KINDS row is here), and membership,
# the random_robustness row at R = 1 on the shifted data D - 1/n, on the
# measurement set and on the assemblage
CASES = [*INCOMPAT_KINDS, *(k.value for k in st.SteeringKind), "membership:incompat",
         "membership:steering"]


def lossy_dodecahedron(m):
    meas = sc.lossy(sc.bloch_measurements(sc.dodecahedron_vectors()[:m]), LOSSY_ETA)
    return meas, sc.steer(sc.werner(1.0, psi="singlet"), meas)


def program(m, kind):
    """The program of ``kind`` (one of CASES) on the lossy dodecahedron set
    or its singlet assemblage, and that data grid."""
    meas, asm = lossy_dodecahedron(m)
    row, _, domain = kind.partition(":")
    if row == "membership":
        data = meas.effects if domain == "incompat" else asm.members
        data = data - np.eye(2) / data.shape[1]
        return dc.build_program(domain, "random_robustness", data, np.eye(2)), data
    if kind in INCOMPAT_KINDS:
        return dc.build_program("incompat", kind, meas.effects, np.eye(2)), meas.effects
    row = st.ROW[st.SteeringKind(kind)]
    return dc.build_program("steering", row, asm.members,
                            asm.members[0].sum(axis=0)), asm.members


def whole(prog):
    """The program solved in one pass, every strategy block included."""
    sol = prog.solve()
    assert sol.status == "optimal"
    return sol


def assert_restricted_matches_whole(m, kind):
    prog, data = program(m, kind)
    sol = dc.solve_strategies(prog, data)
    assert sol.working_set is not None and sol.working_set < 3 ** m
    assert sol.reduced_cost >= -conic.MARGIN_TOL
    assert abs(sol.primal["t"][0] - whole(program(m, kind)[0]).primal["t"][0]) <= TOL
    report = verify_solution(prog, sol)
    assert report.ok(), report
    return sol


@pytest.mark.parametrize("kind", CASES)
@pytest.mark.parametrize("m", [5, 6])
def test_restricted_matches_whole_program(monkeypatch, m, kind):
    # the 243-block m = 5 programs fit in the default working set, so it
    # is cut below their size to send them through the restricted path
    if 3 ** m <= dc.WORKING_SET:
        monkeypatch.setattr(dc, "WORKING_SET", 64)
    assert_restricted_matches_whole(m, kind)


@pytest.mark.parametrize("kind", ["robustness", "weight", "SR_c", "SW_c"])
@pytest.mark.parametrize("m", [7, 8])
def test_restricted_matches_whole_program_m7_m8(m, kind):
    # the m <= 8 ladder: 2187 and 6561 strategy blocks
    assert_restricted_matches_whole(m, kind)


@pytest.mark.parametrize("kind", ["robustness", "jm_robustness"])
def test_parent_of_m8_solution_stays_on_the_working_set(kind):
    # the reconstruction maps the solved blocks by one congruence, so the
    # 6561-outcome parent is nonzero only where the working set was
    meas, _ = lossy_dodecahedron(8)
    res = ic.incompatibility_quantifier(meas, kind)
    effects = res.parent.effects
    assert np.count_nonzero(effects.any(axis=(1, 2))) <= res.solution.working_set
    assert np.max(np.abs(effects.sum(axis=0) - np.eye(2))) <= 1e-12
    mix = ic.mixture(meas, res.noise, res.value)
    assert np.max(np.abs(res.parent.coarse_grain().effects - mix.effects)) <= TOL


def test_start_missing_an_outcome_converges(monkeypatch):
    # a working set with no strategy assigning outcome 0 to input 0: the
    # first restricted robustness program is infeasible, and Farkas
    # pricing on its ray brings the missing strategies in
    m, n = 6, 3
    start = np.flatnonzero(sc.strategy_assignments(m, n)[:, 0] != 0)[:dc.WORKING_SET]
    monkeypatch.setattr(dc, "_starting_set", lambda fam, price: start)
    sol = assert_restricted_matches_whole(m, "robustness")
    assert sol.rounds >= 2


@pytest.mark.parametrize("kind", ["robustness", "random_robustness", "jm_robustness"])
def test_start_fills_the_row_groups_the_top_strategies_miss(monkeypatch, kind):
    # the 2 strategies of highest data price on the m = 4 set leave some
    # (x, a) without a strategy, so the start adds the best one of each
    monkeypatch.setattr(dc, "WORKING_SET", 2)
    starting_set, starts = dc._starting_set, []

    def spy(fam, price):
        starts.append(starting_set(fam, price))
        return starts[-1]

    monkeypatch.setattr(dc, "_starting_set", spy)
    assert_restricted_matches_whole(4, kind)
    assert starts[0].size > dc.WORKING_SET
    outcomes = sc.strategy_assignments(4, 3)[starts[0]]
    assert all(set(outcomes[:, x]) == {0, 1, 2} for x in range(4))


def test_small_program_is_solved_once_as_built(monkeypatch):
    # the program goes to the solver as built, which reads its touches and
    # assembles no A
    meas = sc.paulis("XZ")
    prog = dc.build_program("incompat", "robustness", meas.effects, np.eye(2))
    solved, built = [], []
    solve, build = ConicProgram.solve, ConicProgram.build

    def spy_solve(self):
        solved.append(self)
        return solve(self)

    def spy_build(self):
        out = build(self)
        built.append(out)
        return out

    monkeypatch.setattr(ConicProgram, "solve", spy_solve)
    monkeypatch.setattr(ConicProgram, "build", spy_build)
    sol = dc.solve_strategies(prog, meas.effects)
    assert solved == [prog] and built == []
    assert sol.working_set is None and sol.rounds == 1


def test_restrict_keeps_the_kept_columns():
    meas, _ = lossy_dodecahedron(3)
    prog = dc.build_program("incompat", "jm_robustness", meas.effects, np.eye(2))
    keep = np.array([0, 4, 5, 26])
    small = prog.restrict({"G": keep, "H": keep})
    A, b, c = prog.build()
    As, bs, cs = small.build()
    fams = prog.families
    cols = np.concatenate([
        np.arange(f.offset, f.offset + f.width).reshape(f.count, -1)[keep].ravel()
        if f.name in ("G", "H") else np.arange(f.offset, f.offset + f.width)
        for f in sorted(fams.values(), key=lambda f: f.offset)])
    assert (As != A[:, cols]).nnz == 0
    assert np.array_equal(bs, b) and np.array_equal(cs, c[cols])
    for name in ("G", "H"):
        rows, F, owner, U = fams[name].stacked()
        rows_s, F_s, owner_s, U_s = small.families[name].stacked()
        assert np.array_equal(rows_s, rows) and np.array_equal(F_s, F)
        assert np.array_equal(owner_s, owner) and np.array_equal(U_s, U[:, keep])


def test_strategy_bound_takes_qubit_eigenvalues_in_closed_form(monkeypatch):
    rng = np.random.default_rng(11)

    def grid(m, n, d):
        g = rng.normal(size=(m, n, d, d)) + 1j * rng.normal(size=(m, n, d, d))
        return g + np.swapaxes(g, -1, -2).conj()

    def enumerated(coefficients):
        m, n = coefficients.shape[:2]
        sums = coefficients[np.arange(m), sc.strategy_assignments(m, n)].sum(axis=1)
        return np.linalg.eigvalsh(sums)[:, -1].max()

    qubit = [grid(m, n, 2) for m in range(1, 7) for n in (2, 3)]
    qutrit = grid(4, 3, 3)
    expected = [enumerated(y) for y in qubit + [qutrit]]
    lapack, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or lapack(a))
    for y, bound in zip(qubit, expected):
        assert abs(dc.strategy_bound(y) - bound) <= 1e-12
    assert calls == []
    assert abs(dc.strategy_bound(qutrit) - expected[-1]) <= 1e-12
    assert calls == [(3 ** 4, 3, 3)]


def _normalize_by_eigh(blocks, target):
    """The normalization rule with every nonzero block clipped through
    np.linalg.eigh, as it was before the closed-form clip test."""
    live = np.flatnonzero(blocks.any(axis=(1, 2)))
    vals, vecs = np.linalg.eigh(blocks[live])
    clipped = np.einsum("lik,lk,ljk->lij", vecs, np.clip(vals, 0.0, None), vecs.conj())
    total = clipped.sum(axis=0)
    if target is None:
        target = total / np.trace(total).real
    vals, vecs = np.linalg.eigh(target)
    vecs, root = vecs[:, vals > dc.TINY], np.sqrt(vals[vals > dc.TINY])
    s_vals, s_vecs = np.linalg.eigh(vecs.conj().T @ total @ vecs)
    c = vecs @ (root[:, None] * ((s_vecs / np.sqrt(s_vals)) @ s_vecs.conj().T)) @ vecs.conj().T
    out = np.zeros(blocks.shape, dtype=complex)
    out[live] = c @ clipped @ c.conj().T
    return out


def test_normalize_matches_the_eigh_path(monkeypatch):
    """On 2x2 blocks the clip test of _normalize reads the least
    eigenvalues in closed form: they and the results match the
    np.linalg.eigh path to 1e-13, and only a block with a negative
    eigenvalue is clipped (one eigh more).  The PSD check of the same
    blocks names the first one below -PSD_TOL and its eigenvalue."""
    rng = np.random.default_rng(5)

    def herm(n):
        g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        return g @ np.swapaxes(g, -1, -2).conj()

    def with_least(lam):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        return u @ np.diag([lam, 0.7]) @ u.conj().T

    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rank_one, scalar = np.outer(v, v.conj()), 0.3 * np.eye(2)
    psd = np.concatenate([herm(3), [rank_one, scalar, np.zeros((2, 2))]])
    negative = np.concatenate([psd, [with_least(-1e-10)]])
    targets = [np.eye(2), herm(1)[0] / 3, rank_one / np.trace(rank_one).real, None]
    lapack, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or lapack(a))
    for blocks, clipped in ((psd, 0), (negative, 1)):
        for target in targets:
            calls.clear()
            out = dc._normalize(blocks, target)
            assert len(calls) == 2 + clipped
            assert np.abs(out - _normalize_by_eigh(blocks, target)).max() <= 1e-13
            assert not out[5].any()     # the zero block stays zero
    # the least eigenvalues, and the check's verdict and message
    grid = np.concatenate([negative, [with_least(-2e-9), with_least(-3e-6)]]).reshape(3, 3, 2, 2)
    low = conic.hermitian_eigvalsh(conic.hermitian_coords(grid, 2).reshape(-1, 4), 2)[:, 0]
    assert np.abs(low - np.linalg.eigvalsh(grid).reshape(-1, 2)[:, 0]).max() <= 1e-13
    sc._check_psd_grid(grid[:2], "effect")
    with pytest.raises(NotPositiveSemidefinite, match=r"^state\[2, 1\] has eigenvalue -2\.000e-09$"):
        sc._check_psd_grid(grid, "state")


def replaced_membership_margin(data):
    """The max-margin program that membership replaced, written out:
    Hermitian G over the strategies and a free w = w+ - w- (two
    nonnegative families, as the solver once split a free variable) with
    sum_{lambda_x = a} G_lambda + w 1/n = D_{a|x} on the pruned rows,
    maximizing w; its margin w*."""
    m, n, d = data.shape[:3]
    masks = sc.strategy_masks(m, n)
    prog = ConicProgram("replaced membership")
    prog.add_hermitian_family("G", n ** m, d)
    prog.add_nonneg("w+", 1)
    prog.add_nonneg("w-", 1)
    for x, a in dc.match_rows(m, n, "white"):
        prog.add_matrix_row_group(("match", x, a), data[x, a],
                                  [("sum", "G", masks[x][a], 1.0),
                                   ("scalar_mat", "w+", 0, np.eye(d) / n),
                                   ("scalar_mat", "w-", 0, -np.eye(d) / n)])
    prog.set_objective([("lin", "w+", [0], [-1.0]), ("lin", "w-", [0], [1.0])])
    return -whole(prog).value


def test_membership_row_matches_the_program_it_replaced():
    rng = np.random.default_rng(23)
    grids = []
    for m in (2, 3, 3, 4):
        vecs = rng.normal(size=(m, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        meas = sc.lossy(sc.bloch_measurements(vecs), rng.uniform(0.3, 0.9, size=m))
        asm = sc.steer(sc.werner(rng.uniform(0.5, 1.0), psi="singlet"), meas)
        grids += [(meas.effects, np.eye(2)), (asm.members, sc.reduced_state(asm))]
    meas, _ = lossy_dodecahedron(4)
    grids.append((meas.effects, np.eye(2)))
    margins = []
    for data, reference in grids:
        margin = dc.max_margin("membership", data, reference)[0]
        assert abs(margin - replaced_membership_margin(data)) <= 1e-10
        margins.append(margin)
    # members and non-members both
    assert min(margins) < -dc.MEMBERSHIP_TOL and max(margins) > dc.MEMBERSHIP_TOL


EDGE_CASES = [("jm", (2, 2), 1.0), ("jm", (2, 3), 1.0), ("jm", (6, 3), 1.0),
              ("lhs", "werner-0", 0.5), ("local", "uniform-chsh", 1.0),
              *(("npa", (fill, level), 4.0 * fill) for fill in (0.0, 1.0)
                for level in (1, 2))]


@pytest.mark.parametrize("test, arg, want", EDGE_CASES,
                         ids=["jm-2x2", "jm-2x3", "jm-6x3", "lhs-werner-0",
                              "local-uniform-chsh", "npa-zero-l1", "npa-zero-l2",
                              "npa-ones-l1", "npa-ones-l2"])
def test_membership_at_the_edge_of_the_shift(test, arg, want):
    # where the data is the white noise (every effect 1/n, the uniform
    # behaviour), the shifted data D - 1/n is 0, so b = 0 and the optimal
    # t = 1 - margin = 0 sits on the boundary of its cone: the trivial
    # sets (the m = 6 one, 729 strategies, through column generation) and
    # the uniform CHSH behaviour have margin 1, and the Werner v = 0
    # assemblage has lambda_min(rho_B) = 1/2; npa_optimize bounds the zero
    # and all-ones CHSH-scenario functionals by 0 and 4, their value on
    # every behaviour
    member = True
    if test == "jm":
        m, n = arg
        res = ic.is_jointly_measurable(
            sc.MeasurementSet(np.broadcast_to(np.eye(2) / n, (m, n, 2, 2)).copy()))
        value, member = res.margin, res.jointly_measurable
    elif test == "lhs":
        res = st.has_lhs_model(sc.steer(sc.werner(0.0), sc.paulis("XZ")))
        value, member = res.margin, res.has_model
    elif test == "local":
        res = nl.is_local(sc.Behaviour(np.full((2, 2, 2, 2), 0.25)))
        value, member = res.margin, res.local
    else:
        fill, level = arg
        value, _ = npa.npa_optimize(np.full((2, 2, 2, 2), fill), (2, 2, 2, 2), level)
    assert member
    assert abs(value - want) <= 1e-9, value


def test_membership_at_bennet_scale():
    # 59049 strategies, through column generation: the lossy dodecahedron
    # set just inside its incompatible region, and its singlet assemblage
    meas = sc.lossy(sc.dodecahedron(), 0.132)
    jm = ic.is_jointly_measurable(meas)
    lhs = st.has_lhs_model(sc.steer(sc.werner(0.992, psi="singlet"), meas))
    assert not jm.jointly_measurable and not lhs.has_model
    assert abs(jm.margin - -0.00711575645725) <= TOL
    assert abs(lhs.margin - -0.00266607977234) <= TOL
    assert abs(jm.witness.value - abs(jm.margin)) <= TOL
    assert abs(lhs.inequality.violation - abs(lhs.margin)) <= TOL
    assert jm.witness.bound <= TOL and lhs.inequality.bound <= TOL
    # the lifted solution is a solution of the whole program
    shifted = meas.effects - np.eye(2) / meas.n
    prog = dc.build_program("incompat", "random_robustness", shifted, np.eye(2))
    sol = dc.solve_strategies(prog, shifted)
    assert sol.working_set < 3 ** 10
    report = verify_solution(prog, sol)
    assert report.ok(), report


@pytest.mark.extended
@pytest.mark.skipif(os.environ.get("CORRQUANT_EXTENDED") != "1",
                    reason="extended run: set CORRQUANT_EXTENDED=1")
def test_bennet_row_matches_whole_program_run():
    # tests/data/bennet_values.json: one run of the whole 59049-block
    # programs, before column generation
    reference = json.loads((DATA / "bennet_values.json").read_text())["values"]
    values = ex._table1_row("bennet")["values"]
    assert values.keys() == reference.keys()
    for label, value in values.items():
        assert abs(value - reference[label]) <= TOL, label


def test_model_noise_starts_h_on_its_own_prices():
    # H enters the match rows against G, so its start is priced on the
    # negated data: the m = 6 jm_robustness program needs no second round
    prog, data = program(6, "jm_robustness")
    sol = dc.solve_strategies(prog, data)
    assert sol.rounds == 1
    assert abs(sol.value - whole(program(6, "jm_robustness")[0]).value) <= 1e-8
