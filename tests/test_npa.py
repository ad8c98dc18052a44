import numpy as np
import pytest

from corrquant import npa
from corrquant import scenario as sc
from corrquant.cg import CgLayout, strategy_cg_matrix

CHSH = (2, 2, 2, 2)


def chsh_functional():
    """CHSH as full-table coefficients: E00 + E01 + E10 - E11."""
    coeffs = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            sign = -1.0 if (x, y) == (1, 1) else 1.0
            for a in range(2):
                for b in range(2):
                    coeffs[x, y, a, b] = sign * (-1.0) ** (a + b)
    return coeffs


def tsirelson_behaviour(v=1.0):
    alice = sc.paulis("XZ")
    bob = sc.bloch_measurements([
        np.array([1, 0, 1]) / np.sqrt(2),
        np.array([1, 0, -1]) / np.sqrt(2),
    ])
    return sc.measure(sc.steer(sc.werner(v), alice), bob)


def pr_box():
    tab = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a + b) % 2 == (x * y):
                        tab[x, y, a, b] = 0.5
    return sc.Behaviour(tab)


def cg_reference(layout, table):
    """CG vector of a table read coordinate by coordinate from its label,
    marginals at the other party's first input."""
    out = []
    for c in layout.coords:
        if not c:
            out.append(table[0, 0].sum())
        elif c[0] == "A":
            out.append(table[c[1], 0, c[2], :].sum())
        elif c[0] == "B":
            out.append(table[0, c[1], :, c[2]].sum())
        else:
            out.append(table[c[1], c[3], c[2], c[4]])
    return np.array(out)


@pytest.mark.parametrize("mA, nA, mB, nB", [
    (2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 3), (3, 3, 2, 2)])
def test_cg_roundtrip(mA, nA, mB, nB):
    layout = CgLayout(mA, nA, mB, nB)
    assert layout.coords == (
        [()] + [("A", x, a) for x in range(mA) for a in range(nA - 1)]
        + [("B", y, b) for y in range(mB) for b in range(nB - 1)]
        + [("AB", x, a, y, b) for x in range(mA) for a in range(nA - 1)
           for y in range(mB) for b in range(nB - 1)])
    rng = np.random.default_rng([mA, nA, mB, nB])
    la, lb = nA ** mA, nB ** mB
    w = rng.random((la, lb))
    local = sc.LocalModel(w / w.sum(), (mA, nA, mB, nB)).behaviour().table
    cg = layout.of_table(local)
    assert abs(cg[0] - 1.0) < 1e-12
    assert np.max(np.abs(layout.table_of(cg) - local)) < 1e-12
    # off the no-signalling subspace, of_table still reads each label and
    # functional_to_table is its transpose
    signalling = rng.random((mA, mB, nA, nB))
    read = layout.of_table(signalling)
    assert np.max(np.abs(read - cg_reference(layout, signalling))) < 1e-12
    coeffs = rng.normal(size=layout.dim)
    lhs = np.sum(layout.functional_to_table(coeffs) * signalling)
    assert abs(lhs - coeffs @ read) < 1e-12
    # row mu * lb + nu is the CG vector of pair (mu, nu)'s deterministic table
    S = strategy_cg_matrix(layout)
    assert S.shape == (la * lb, layout.dim)
    da = sc.strategy_assignments(mA, nA)
    db = sc.strategy_assignments(mB, nB)
    x, y = np.ix_(range(mA), range(mB))
    for mu in range(la):
        for nu in range(lb):
            det = np.zeros((mA, mB, nA, nB))
            det[x, y, da[mu][:, None], db[nu][None, :]] = 1.0
            assert np.array_equal(S[mu * lb + nu], layout.of_table(det))


def test_cg_strategy_matrix_spans():
    layout = CgLayout(2, 3, 2, 2)
    S = strategy_cg_matrix(layout)
    assert S.shape == (9 * 4, layout.dim)
    assert np.linalg.matrix_rank(S) == layout.dim


def test_word_counts_chsh():
    t1 = npa.build_npa_block(CHSH, 1)
    assert t1.size == 5          # identity + 2 Alice + 2 Bob projectors
    t2 = npa.build_npa_block(CHSH, 2)
    assert t2.size == 13         # + AA', BB', AB products
    with pytest.raises(ValueError):
        npa.build_npa_block(CHSH, 3)


def test_word_canonicalization():
    a0 = (0, 0, 0)
    a1 = (0, 1, 0)
    b0 = (1, 0, 0)
    assert npa.canonical_word((b0, a0)) == (a0, b0)
    assert npa.canonical_word((a0, a0)) == (a0,)
    assert npa.canonical_word(((0, 0, 0), (0, 0, 1))) is None
    # adjoint identification: A0 A1 B and its reverse share a class key
    k1 = npa.word_class_key((), (a0, a1, b0))
    k2 = npa.word_class_key((), (b0, a1, a0))
    assert k1 == k2


def test_chsh_level1_tsirelson():
    # oracle: explicit qubit strategy achieves 2 sqrt 2 (test_scenario),
    # and the level-1 relaxation is tight for CHSH
    value, mm = npa.npa_optimize(chsh_functional(), CHSH, level=1)
    assert abs(value - 2 * np.sqrt(2)) < 1e-6
    # moment matrix PSD within the accepted margin, exactly class-shared
    gamma = mm.gamma
    assert np.linalg.eigvalsh(gamma)[0] > -1e-9
    for cells in mm.template.classes:
        vals = [gamma[c] for c in cells]
        assert max(vals) - min(vals) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_optimize_refuses_non_finite_coefficients(monkeypatch, bad):
    def no_program(*args, **kwargs):
        raise AssertionError("a program was built")

    monkeypatch.setattr(npa, "ConicProgram", no_program)
    coeffs = chsh_functional()
    coeffs[1, 0, 1, 1] = bad
    with pytest.raises(ValueError, match=rf"coefficients entry \[1, 0, 1, 1\] is {bad}"):
        npa.npa_optimize(coeffs, CHSH, level=1)


def assert_assigned_from_classes(mm):
    """Every cell of a class (and its transpose) holds one value, bit for
    bit, and every zero cell holds 0."""
    gamma = mm.gamma
    for cells in mm.template.classes:
        i, j = zip(*cells)
        vals = np.concatenate([gamma[i, j], gamma[j, i]])
        assert np.all(vals == vals[0])
    for i, j in mm.template.zero_cells:
        assert gamma[i, j] == 0.0 and gamma[j, i] == 0.0


@pytest.mark.parametrize("scenario, level", [(CHSH, 1), (CHSH, 2), ((2, 3, 2, 2), 2)])
def test_optimize_moment_matrix_shares_classes_exactly(scenario, level):
    """npa_optimize's moment matrix on random functionals: exact class
    sharing, the identity class at 1, and PSD within the accepted margin."""
    mA, nA, mB, nB = scenario
    rng = np.random.default_rng(7)
    for _ in range(4):
        _, mm = npa.npa_optimize(rng.normal(size=(mA, mB, nA, nB)), scenario, level)
        assert_assigned_from_classes(mm)
        assert mm.gamma[0, 0] == 1.0
        assert np.linalg.eigvalsh(mm.gamma)[0] > -1e-9


@pytest.mark.parametrize("scenario, level", [(CHSH, 1), (CHSH, 2), ((2, 3, 2, 2), 2)])
def test_membership_moment_matrix_shares_classes_exactly(scenario, level):
    """npa_membership's moment matrix on random local behaviours: exact
    class sharing, the behaviour's CG values read back bit for bit, and
    its least eigenvalue at least the margin."""
    mA, nA, mB, nB = scenario
    rng = np.random.default_rng(11)
    for _ in range(4):
        w = rng.random((nA ** mA, nB ** mB))
        beh = sc.LocalModel(w / w.sum(), scenario).behaviour()
        dec = npa.npa_membership(beh, level)
        assert dec.feasible
        mm = dec.moment_matrix
        assert_assigned_from_classes(mm)
        cg = mm.template.layout.of_table(beh.table)
        reads = np.array([mm.gamma[c] for c in mm.template.cg_cells])
        assert reads.tobytes() == cg.tobytes()
        assert np.linalg.eigvalsh(mm.gamma)[0] >= dec.margin - 1e-9


def test_level2_not_larger():
    v1, _ = npa.npa_optimize(chsh_functional(), CHSH, level=1)
    v2, _ = npa.npa_optimize(chsh_functional(), CHSH, level=2)
    assert v2 <= v1 + 1e-8


def test_constant_and_positivity_functionals():
    coeffs = np.zeros((2, 2, 2, 2))
    coeffs[0, 0, 0, 0] = 1.0     # P(00|00) <= 1
    value, _ = npa.npa_optimize(coeffs, CHSH, level=1)
    assert abs(value - 1.0) < 1e-6
    norm = np.zeros((2, 2, 2, 2))
    norm[0, 0] = 1.0             # sums to 1 for any behaviour
    value, _ = npa.npa_optimize(norm, CHSH, level=1)
    assert abs(value - 1.0) < 1e-6


def test_local_behaviour_feasible():
    rng = np.random.default_rng(0)
    w = rng.random((4, 4))
    w /= w.sum()
    beh = sc.LocalModel(w, CHSH).behaviour()
    dec = npa.npa_membership(beh, level=1)
    assert dec.feasible
    mm = dec.moment_matrix
    assert abs(mm.normalization - 1.0) < 1e-8
    # reads reproduce the behaviour's CG vector
    cg = mm.template.layout.of_table(beh.table)
    reads = np.array([mm.gamma[c] for c in mm.template.cg_cells])
    assert np.max(np.abs(reads - cg)) < 1e-7


def test_pr_box_infeasible_level1():
    dec = npa.npa_membership(pr_box(), level=1)
    assert not dec.feasible
    func = dec.functional
    assert func.violation >= 1e-7
    # the functional separates: nonnegative on quantum behaviours
    assert func.evaluate(tsirelson_behaviour(1.0).table) >= -1e-7
    assert func.evaluate(pr_box().table) <= -1e-7


def test_tsirelson_feasible_level2():
    dec = npa.npa_membership(tsirelson_behaviour(1.0), level=2)
    assert dec.feasible
    dec1 = npa.npa_membership(tsirelson_behaviour(1.0), level=1)
    assert dec1.feasible    # level monotonicity: feasible at 2 => at 1


def test_measured_behaviours_feasible_both_levels():
    rng = np.random.default_rng(1)
    for trial in range(3):
        vecs = rng.normal(size=(2, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        alice = sc.bloch_measurements(vecs)
        vecs = rng.normal(size=(2, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        bob = sc.bloch_measurements(vecs)
        beh = sc.measure(sc.steer(sc.werner(rng.random()), alice), bob)
        for level in (1, 2):
            dec = npa.npa_membership(beh, level)
            assert dec.margin >= -1e-7, (trial, level)


def test_tied_normalization_row():
    tmpl = npa.build_npa_block(CHSH, 1)
    from corrquant.conic import ConicProgram
    prog = ConicProgram("tied")
    prog.add_psd_family("G", 1, tmpl.size)
    prog.add_nonneg("r", 1)
    tmpl.add_structure_rows(prog, "G", ("r", 0))
    # inspect: the gnorm row ties Gamma[0,0] to r
    names = [g.name for g in prog.row_groups]
    assert ("gnorm", "G") in names
    A, b, c = prog.build()
    grp = [g for g in prog.row_groups if g.name == ("gnorm", "G")][0]
    row = A.getrow(grp.offset).toarray().ravel()
    rfam = prog.families["r"]
    assert row[rfam.offset] == -1.0


def test_three_outcome_scenario_zero_cells():
    # retained same-input projector pairs generate structurally zero cells
    tmpl = npa.build_npa_block((2, 3, 2, 2), 2)
    assert tmpl.zero_cells
    rng = np.random.default_rng(4)
    w = rng.random((9, 4))
    w /= w.sum()
    beh = sc.LocalModel(w, (2, 3, 2, 2)).behaviour()
    dec = npa.npa_membership(beh, level=2)
    assert dec.feasible
    mm = dec.moment_matrix
    for cell in tmpl.zero_cells:
        assert abs(mm.gamma[cell]) < 1e-12


@pytest.mark.parametrize("scenario, level", [(CHSH, 1), (CHSH, 2), ((2, 3, 2, 2), 2)])
def test_structure_rows_match_the_per_row_loop(scenario, level):
    """add_structure_rows writes the rows, names and (A, b, c), byte for
    byte, of one add_scalar_row per tie and zero cell."""
    from corrquant.conic import ConicProgram
    tmpl = npa.build_npa_block(scenario, level)

    def entry(ij):
        return ("mat", "G", 0, npa.cell_functional(tmpl.size, ij))

    progs = []
    for batched in (True, False):
        prog = ConicProgram("rows")
        prog.add_psd_family("G", 1, tmpl.size)
        prog.add_nonneg("r", 1)
        prog.add_scalar_row(("first",), 1.0, [entry((0, 1))])
        if batched:
            tmpl.add_structure_rows(prog, "G", ("r", 0))
        else:
            for ci, cells in enumerate(tmpl.classes):
                for cell in cells[1:]:
                    diff = (npa.cell_functional(tmpl.size, cell)
                            - npa.cell_functional(tmpl.size, cells[0]))
                    prog.add_scalar_row(("tie", "G", ci, cell), 0.0,
                                        [("mat", "G", 0, diff)])
            for cell in tmpl.zero_cells:
                prog.add_scalar_row(("zero", "G", cell), 0.0, [entry(cell)])
            prog.add_scalar_row(("gnorm", "G"), 0.0, [entry((0, 0)),
                                                      ("lin", "r", [0], [-1.0])])
        prog.set_objective([("lin", "r", [0], [1.0])])
        progs.append(prog)
    (A, b, c), (A0, b0, c0) = (p.build() for p in progs)
    for got, want in [(A.indptr, A0.indptr), (A.indices, A0.indices), (A.data, A0.data),
                      (b, b0), (c, c0)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert progs[0].row_groups == progs[1].row_groups


def reference_template(scenario, level):
    """(words, classes, zero_cells, cg_class, cg_cells) from the
    hand-written level-1/level-2 word loop that built the template before
    words came from word length."""
    mA, nA, mB, nB = scenario
    asyms = [(0, x, a) for x in range(mA) for a in range(nA - 1)]
    bsyms = [(1, y, b) for y in range(mB) for b in range(nB - 1)]
    words = [()]
    words += [(s,) for s in asyms] + [(s,) for s in bsyms]
    if level == 2:
        seen = set(words)
        for group in (asyms, bsyms):
            for s in group:
                for t in group:
                    w = npa.canonical_word((s, t))
                    if w and len(w) == 2 and w not in seen:
                        seen.add(w)
                        words.append(w)
        for s in asyms:
            for t in bsyms:
                w = npa.canonical_word((s, t))
                if w and w not in seen:
                    seen.add(w)
                    words.append(w)
    nw = len(words)
    classes, key_index, zero_cells = [], {}, []
    for i in range(nw):
        for j in range(i, nw):
            key = npa.word_class_key(words[i], words[j])
            if key is None:
                zero_cells.append((i, j))
                continue
            if key not in key_index:
                key_index[key] = len(classes)
                classes.append([])
            classes[key_index[key]].append((i, j))
    cg_class, cg_cells = [], []
    for parts in CgLayout(*scenario).parts:
        word = tuple((p, *part) for p, part in enumerate(parts) if part)
        ci = key_index[npa.word_class_key((), word)]
        cg_class.append(ci)
        cg_cells.append(classes[ci][0])
    return words, classes, zero_cells, cg_class, cg_cells


@pytest.mark.parametrize("scenario", [
    (2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 2, 2), (2, 3, 2, 2), (2, 2, 3, 3),
    (3, 2, 2, 2)])
@pytest.mark.parametrize("level", [1, 2])
def test_words_by_length_match_the_hand_written_loop(scenario, level):
    """Words from canonical products of at most ``level`` symbols give the
    template that the hand-written loop gave."""
    words, classes, zero_cells, cg_class, cg_cells = reference_template(scenario, level)
    tmpl = npa.build_npa_block.__wrapped__(scenario, level)
    assert list(tmpl.words) == words
    assert list(map(list, tmpl.classes)) == classes
    assert list(tmpl.zero_cells) == zero_cells
    assert list(tmpl.cg_class) == cg_class and list(tmpl.cg_cells) == cg_cells
