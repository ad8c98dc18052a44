"""Programs of one shape share one read-only structure (ConicProgram.share):
the builders memoize it per shape key and write only each call's values
(ConicProgram.with_values), and a restricted program is a structure of its
own.  A shared program is the one the memo-free path builds, byte for
byte, and solves the same whatever was solved before it."""

import weakref

import numpy as np
import pytest

from corrquant import decomposition as dc
from corrquant import nonlocality as nl
from corrquant import scenario as sc
from corrquant.conic import ConicProgram
from corrquant.steering import ROW


def _povms(rng, m=2, n=2):
    """m random n-outcome qubit POVMs: normalized Wishart effects."""
    grid = np.empty((m, n, 2, 2), dtype=complex)
    for x in range(m):
        raw = [g @ g.conj().T for g in rng.normal(size=(n, 2, 2))
               + 1j * rng.normal(size=(n, 2, 2))]
        vals, vecs = np.linalg.eigh(sum(raw))
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        grid[x] = [inv_root @ r @ inv_root for r in raw]
    return sc.MeasurementSet(grid)


def _mixed_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return sc.BipartiteState(rho / np.trace(rho).real, (2, 2))


def _grid(reference, seed):
    """(data, R): random effects at R = 1, or an assemblage at R = rho_B,
    random (every Hermitian coordinate of rho_B nonzero) or Werner
    (rho_B = 1/2)."""
    rng = np.random.default_rng(seed)
    ms = _povms(rng)
    if reference == "identity":
        return ms.effects, np.eye(2)
    if reference == "random":
        asm = sc.steer(_mixed_state(rng), ms)
    else:
        # Pauli measurements sum to exactly 1/2 on the Werner states
        asm = sc.steer(sc.werner(0.5 + seed / 10), sc.paulis("XZ"))
    return asm.members, sc.reduced_state(asm)


def _bytes(prog):
    A, b, c = prog.build()
    return ([A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes(), b.tobytes(),
             c.tobytes()], [g.name for g in prog.row_groups])


def _run(sol):
    return sol.iterations, sol.ended, sol.pobj.hex()


REFERENCES = ("identity", "random", "werner")


def _program(name, kind, data, ref):
    """The program of ``kind``, a KINDS row, or "membership": the
    random_robustness row at R = 1 on the data D - 1/n, which
    decomposition.max_margin solves whatever the reference."""
    if kind == "membership":
        d = data.shape[2]
        return dc.build_program(name, "random_robustness",
                                data - np.eye(d) / data.shape[1], np.eye(d))
    return dc.build_program(name, kind, data, ref)


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("kind", [*dc.KINDS, "membership"])
def test_decomposition_programs_share_their_structure(kind, reference, monkeypatch):
    data, ref = _grid(reference, 1)
    prog = _program("p1", kind, data, ref)
    other = _program("p2", kind, *_grid(reference, 2))
    assert other._base is prog._base
    for arr in (data, ref):
        assert not np.shares_memory(prog.rhs(), arr)
    with monkeypatch.context() as mp:
        mp.setattr(dc, "_structure", dc._structure.__wrapped__)
        fresh = _program("p1", kind, data, ref)
    assert fresh._base is not prog._base
    assert _bytes(fresh) == _bytes(prog)
    # a solve leaves the structure as it found it
    first = _run(prog.solve())
    other.solve()
    assert _run(prog.solve()) == first


def test_references_share_one_structure(monkeypatch):
    """A structure is its shape: white noise reads R/n in A, and t touches
    all d * d coordinates whatever R's zero pattern, so R = 1, a Werner
    rho_B = 1/2 and a random rho_B share one structure, and each program is
    the one the memo-free path builds, byte for byte."""
    progs = {ref: dc.build_program("p", "random_robustness", *_grid(ref, 1))
             for ref in REFERENCES}
    assert progs["werner"]._base is progs["identity"]._base is progs["random"]._base
    # three match rows (x = 1 drops its last outcome), each on 4 coordinates
    assert progs["random"].families["t"].stacked()[0].size == 12
    with monkeypatch.context() as mp:
        mp.setattr(dc, "_structure", dc._structure.__wrapped__)
        for ref, prog in progs.items():
            fresh = dc.build_program("p", "random_robustness", *_grid(ref, 1))
            assert fresh._base is not prog._base
            assert _bytes(fresh) == _bytes(prog), ref


def test_structures_above_the_working_set_die_with_their_program():
    """A program solved by column generation has a structure of its own,
    which the memo does not keep and which no reference cycle holds past
    the program: its O(n^m) arrays are freed with it."""
    ms = sc.lossy(sc.bloch_measurements(sc.dodecahedron_vectors()[:6]), 0.4)
    before = dc._structure.cache_info().currsize
    prog = dc.build_program("p", "robustness", ms.effects, np.eye(2))
    assert prog.families["G"].count > dc.WORKING_SET
    assert dc._structure.cache_info().currsize == before
    structure = weakref.ref(prog._base)
    del prog
    assert structure() is None


def _behaviour(rng, nA):
    """A quantum behaviour of scenario (2, nA, 2, 2)."""
    asm = sc.steer(_mixed_state(rng), _povms(rng, n=nA))
    return sc.measure(asm, _povms(rng))


@pytest.mark.parametrize("nA", [2, 3])
@pytest.mark.parametrize("level", [1, 2])
def test_nonlocality_programs_share_their_structure(level, nA, monkeypatch):
    rng = np.random.default_rng(7 + nA)
    beh, other = _behaviour(rng, nA), _behaviour(rng, nA)
    for kind in nl.NonlocalityKind:
        row = ROW[nl.STEERING_KIND[kind]]
        name = f"nonlocality:{kind.value}"
        prog, _ = nl.build_program(name, row, beh.table, sc.behaviour_marginal(beh, "B"), level)
        prog2, _ = nl.build_program(name, row, other.table, sc.behaviour_marginal(other, "B"),
                                    level)
        assert prog2._base is prog._base
        with monkeypatch.context() as mp:
            mp.setattr(nl, "_structure", nl._structure.__wrapped__)
            fresh, _ = nl.build_program(name, row, beh.table, sc.behaviour_marginal(beh, "B"),
                                        level)
        assert fresh._base is not prog._base
        assert _bytes(fresh) == _bytes(prog), kind
        if level == 1 and nA == 2:
            first = _run(prog.solve())
            prog2.solve()
            assert _run(prog.solve()) == first, kind


def test_structure_arrays_are_read_only():
    data, ref = _grid("random", 1)
    beh = _behaviour(np.random.default_rng(3), 2)
    progs = [dc.build_program("p", kind, data, ref) for kind in dc.KINDS]
    progs += [nl.build_program("p", ROW[nl.STEERING_KIND[kind]], beh.table,
                               sc.behaviour_marginal(beh, "B"), 2)[0]
              for kind in nl.NonlocalityKind]
    for prog in progs:
        for holder in (prog, prog._base):
            arrays = [holder.rhs()]
            for fam in holder.families.values():
                arrays += [*fam.stacked(), fam.cost]
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr[...] = 0


def _parent():
    p = ConicProgram("p")
    p.add_hermitian_family("X", 3, 2)
    p.add_nonneg("t", 1)
    p.add_matrix_row_group(("m",), np.eye(2), [("sum", "X", [0, 1, 2], 1.0),
                                               ("scalar_mat", "t", 0, np.eye(2))])
    p.set_objective([("lin", "t", [0], [1.0])])
    return p


def _grammar_calls(prog):
    return [
        lambda: prog.set_objective([("lin", "t", [0], [5.0])]),
        lambda: prog.add_scalar_row(("s",), 0.0, [("lin", "t", [0], [1.0])]),
        lambda: prog.add_matrix_row_group(("n",), np.eye(2), [("sum", "X", 0, 1.0)]),
        lambda: prog.add_nonneg("u"),
    ]


def test_restricted_program_refuses_the_grammar():
    """A restricted program shares its parent's unrestricted arrays, so it
    refuses every grammar call (RuntimeError), its arrays are read-only,
    and neither program's objective writes into the other's."""
    p = _parent()
    r = p.restrict({"X": [0, 1]})
    t = p.families["t"].offset
    for call in _grammar_calls(r):
        with pytest.raises(RuntimeError):
            call()
    with pytest.raises(ValueError):
        r.families["t"].cost[0, 0] = 5.0
    assert p.objective()[t] == 1.0
    # the parent stays open, and its grammar leaves the restricted program alone
    p.set_objective([("lin", "t", [0], [2.0])])
    assert p.objective()[t] == 3.0
    assert r.objective()[r.families["t"].offset] == 1.0


def test_shared_programs_refuse_the_grammar():
    """A structure and a program on it refuse every grammar call; values
    go to scalar families only, in the structure's shapes."""
    shared = _parent().share()
    on = shared.with_values("on", np.ones(4), {})
    for prog in (shared, on):
        for call in _grammar_calls(prog):
            with pytest.raises(RuntimeError):
                call()
    assert on.rhs().tobytes() == np.ones(4).tobytes()
    assert shared.rhs().tobytes() == np.array([1.0, 1.0, 0.0, 0.0]).tobytes()
    with pytest.raises(ValueError):
        shared.with_values("bad", np.ones(4), {"X": (None, np.ones((1, 3)))})
    with pytest.raises(ValueError):
        shared.with_values("bad", np.ones(4), {"t": (None, np.ones((2, 1)))})
    with pytest.raises(ValueError):
        shared.with_values("bad", np.ones(3), {})
    with pytest.raises(RuntimeError):
        _parent().with_values("bad", np.ones(4), {})
