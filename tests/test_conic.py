"""Solver unit tests: small analytic programs plus duality and determinism checks."""

import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from corrquant import conic, decomposition, scenario
from corrquant import nonlocality as nl
from corrquant.conic import (
    ConicProgram,
    _Lorentz,
    _Newton,
    _chol_reg,
    _cone_coords,
    _cones,
    _from_scaled,
    _jnorm,
    _matvec,
    _primal_to_vec,
    _rmatvec,
    _scale,
    _scaled_matvec,
    _scaled_rmatvec,
    _schur,
    _start,
    _to_scaled,
    hermitian_coords,
    hermitian_from_coords,
    smat,
    svec,
    verify_solution,
)
from corrquant.decomposition import build_program
from corrquant.npa import cell_functional
from corrquant.errors import SolverFailure

RNG = np.random.default_rng(20240311)


def random_hermitian(d, rng=RNG):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def test_svec_roundtrip():
    m = RNG.normal(size=(5, 5))
    m = (m + m.T) / 2
    assert np.allclose(smat(svec(m), 5), m)
    # isometry
    m2 = RNG.normal(size=(5, 5))
    m2 = (m2 + m2.T) / 2
    assert np.isclose(svec(m) @ svec(m2), np.trace(m @ m2))


def test_hermitian_embedding_roundtrip():
    h = random_hermitian(4)
    coords = hermitian_coords(h, 4)
    assert np.allclose(hermitian_from_coords(coords, 4), h)
    # a stack converts block by block, both ways
    rng = np.random.default_rng(5)
    stack = np.array([random_hermitian(4, rng) for _ in range(3)])
    cstack = hermitian_coords(stack, 4)
    assert np.array_equal(cstack, np.array([hermitian_coords(m, 4) for m in stack]))
    assert np.array_equal(hermitian_from_coords(cstack, 4),
                          np.array([hermitian_from_coords(c, 4) for c in cstack]))
    assert np.allclose(hermitian_from_coords(cstack, 4), stack)
    # the coordinates are isometric: the trace inner product is their dot
    h2 = random_hermitian(4)
    assert np.isclose(coords @ hermitian_coords(h2, 4), np.trace(h @ h2).real)


def test_lp_min_above_bound():
    # min t s.t. t >= 3, via slack t - u = 3
    prog = ConicProgram("lp-min")
    prog.add_nonneg("t", 1)
    prog.add_nonneg("u", 1)
    prog.add_scalar_row(("bound",), 3.0, [("lin", "t", [0], [1.0]),
                                          ("lin", "u", [0], [-1.0])])
    prog.set_objective([("lin", "t", [0], [1.0])])
    sol = prog.solve()
    assert sol.status == "optimal"
    assert abs(sol.value - 3.0) < 1e-7
    assert verify_solution(prog, sol).ok()


def test_schur_2x2():
    # min t s.t. [[1, .5], [.5, t]] >> 0  ->  t = 0.25
    prog = ConicProgram("schur")
    prog.add_psd_family("X", 1, 2)
    prog.add_nonneg("t", 1)
    prog.add_scalar_row(("e11",), 1.0, [("mat", "X", 0, cell_functional(2, (0, 0)))])
    prog.add_scalar_row(("e12",), 0.5, [("mat", "X", 0, cell_functional(2, (0, 1)))])
    prog.add_scalar_row(("tie",), 0.0, [("mat", "X", 0, cell_functional(2, (1, 1))),
                                        ("lin", "t", [0], [-1.0])])
    prog.set_objective([("lin", "t", [0], [1.0])])
    sol = prog.solve()
    assert sol.status == "optimal"
    assert abs(sol.value - 0.25) < 1e-7


@pytest.mark.parametrize("trial", range(5))
def test_min_eigenvalue_sdp(trial):
    # min tr(C X), tr X = 1, X >> 0 equals lambda_min(C)  [eigenvalue oracle]
    rng = np.random.default_rng(100 + trial)
    d = 4
    cmat = random_hermitian(d, rng)
    lam_min = np.linalg.eigvalsh(cmat)[0]

    prog = ConicProgram("lammin")
    prog.add_hermitian_family("X", 1, d)
    prog.add_scalar_row(("trace",), 1.0, [("tr", "X", [0], 1.0)])
    prog.set_objective([("mat", "X", 0, cmat)])
    sol = prog.solve()
    assert sol.status == "optimal"
    assert abs(sol.value - lam_min) < 1e-7
    rep = verify_solution(prog, sol)
    assert rep.eq_residual < 1e-7
    assert rep.cone_margin > -1e-9
    assert rep.gap < 1e-7


def test_weak_duality_and_determinism():
    rng = np.random.default_rng(7)
    cmat = random_hermitian(3, rng)

    def build():
        prog = ConicProgram("det")
        prog.add_hermitian_family("X", 2, 3)
        prog.add_nonneg("z", 1)
        prog.add_scalar_row(("tr0",), 1.0, [("tr", "X", [0], 1.0)])
        prog.add_scalar_row(("tr1",), 2.0, [("tr", "X", [1], 1.0),
                                            ("lin", "z", [0], [1.0])])
        prog.set_objective([("mat", "X", 0, cmat), ("lin", "z", [0], [0.5])])
        return prog

    s1 = build().solve()
    s2 = build().solve()
    assert s1.status == "optimal"
    assert s1.dobj <= s1.pobj + 1e-10
    assert abs(s1.value - s2.value) < 1e-9


def test_objective_scaling():
    rng = np.random.default_rng(8)
    cmat = random_hermitian(3, rng)

    def build(scale):
        prog = ConicProgram()
        prog.add_hermitian_family("X", 1, 3)
        prog.add_scalar_row(("tr",), 1.0, [("tr", "X", [0], 1.0)])
        prog.set_objective([("mat", "X", 0, scale * cmat)])
        return prog.solve().value

    v1 = build(1.0)
    v3 = build(3.0)
    assert abs(v3 - 3 * v1) < 1e-8


def test_matrix_row_group_and_duals():
    # fit X = H exactly for a PSD H; dual of the row group must price the
    # objective gradient: min tr(C X) s.t. X = H has dual Y with Y = C - S
    rng = np.random.default_rng(9)
    h = random_hermitian(3, rng)
    h = h @ h.conj().T + 0.1 * np.eye(3)   # PD target
    cmat = random_hermitian(3, rng)
    prog = ConicProgram("pin")
    prog.add_hermitian_family("X", 1, 3)
    prog.add_matrix_row_group(("pin",), h, [("sum", "X", 0, 1.0)])
    prog.set_objective([("mat", "X", 0, cmat)])
    sol = prog.solve()
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.primal["X"][0] - h)) < 1e-7
    assert abs(sol.value - np.trace(cmat @ h).real) < 1e-7
    # dual: value = tr(Y H) with C - Y = slack >= 0
    y = sol.dual_rows[("pin",)]
    assert abs(np.trace(y @ h).real - sol.dobj) < 1e-6
    slack = cmat - y
    assert np.linalg.eigvalsh(slack)[0] > -1e-7


def test_infeasible_certificate():
    # x1 + x2 = -1 with x >= 0 is infeasible
    prog = ConicProgram("infeas")
    prog.add_nonneg("x", 2)
    prog.add_scalar_row(("sum",), -1.0, [("lin", "x", [0, 1], [1.0, 1.0])])
    prog.set_objective([("lin", "x", [0], [1.0])])
    sol = prog.solve()
    assert sol.status == "infeasible"
    assert sol.ray_violation >= 1e-6


def test_infeasible_sdp_certificate():
    # tr X = -2 with X >> 0 infeasible
    prog = ConicProgram("infeas-sdp")
    prog.add_hermitian_family("X", 1, 2)
    prog.add_scalar_row(("tr",), -2.0, [("tr", "X", [0], 1.0)])
    prog.set_objective([("tr", "X", [0], 1.0)])
    sol = prog.solve()
    assert sol.status == "infeasible"
    assert sol.ray_violation >= 1e-6


def assert_improving_ray(prog, sol, off_kernel):
    """The unbounded solve's ray is in the cone, on A's kernel, and
    lowers the objective, and verify_solution says so; it flags the ray
    pushed off A's kernel by the cone member ``off_kernel``, and the
    negated ray, which leaves the cone."""
    assert (sol.status, sol.ended, sol.iterations) == ("unbounded", "unbounded", 2)
    A, b, c = prog.build()
    ray = _primal_to_vec(prog, sol.ray["x"])
    assert conic._block_margins(prog, sol.ray["x"]) >= 0
    assert np.max(np.abs(A @ ray)) <= 1e-9
    assert c @ ray < 0
    assert verify_solution(prog, sol).ray_residual <= 1e-9
    pushed = [{k: v + off_kernel[k] for k, v in sol.ray["x"].items()},
              {k: -v for k, v in sol.ray["x"].items()}]
    for x in pushed:
        assert verify_solution(prog, replace(sol, ray={"x": x})).ray_residual > 1e-2


def test_unbounded_lp_ray():
    # min -x0 subject to x0 - x1 = 0, x >= 0
    prog = ConicProgram("unbounded")
    prog.add_nonneg("x", 2)
    prog.add_scalar_row(("tie",), 0.0, [("lin", "x", [0, 1], [1.0, -1.0])])
    prog.set_objective([("lin", "x", [0], [-1.0])])
    assert_improving_ray(prog, prog.solve(), {"x": np.array([1.0, 0.0])})


@pytest.mark.parametrize("declare", ["add_psd_family", "add_hermitian_family"])
def test_unbounded_sdp_ray(declare):
    # min -X11 subject to X01 = 0, X >> 0: the real block runs the matrix
    # cone, the 2x2 Hermitian one the Lorentz cone
    prog = ConicProgram("unbounded-sdp")
    getattr(prog, declare)("X", 1, 2)
    prog.add_scalar_row(("off",), 0.0, [("mat", "X", 0, cell_functional(2, (0, 1)))])
    prog.set_objective([("mat", "X", 0, -np.diag([0.0, 1.0]))])
    assert_improving_ray(prog, prog.solve(), {"X": np.ones((1, 2, 2))})


@pytest.mark.parametrize("cost", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("kind", ["herm", "psd", "nonneg"])
def test_untouched_family_solves_or_is_unbounded(kind, cost):
    # min tr A_0 + x + cost * (tr or sum of Y) with A_0 + A_1 = 1, x = 2,
    # and a family Y that no row touches: a 2x2 Hermitian Y shares the
    # Lorentz run of A, a 3x3 real PSD Y is a matrix cone of its own, and
    # a nonneg Y sits beside the touched nonneg x.  Y faces the
    # objective alone: the value is 2 when its cost lies in the dual cone
    # (Y = 0 at a positive cost), and the program is unbounded otherwise
    prog = ConicProgram(f"untouched {kind}")
    prog.add_hermitian_family("A", 2, 2)
    {"herm": lambda: prog.add_hermitian_family("Y", 2, 2),
     "psd": lambda: prog.add_psd_family("Y", 2, 3),
     "nonneg": lambda: prog.add_nonneg("Y", 2)}[kind]()
    prog.add_nonneg("x", 1)
    prog.add_matrix_row_group(("pin",), np.eye(2), [("sum", "A", [0, 1], 1.0)])
    prog.add_scalar_row(("x",), 2.0, [("lin", "x", [0], [1.0])])
    prog.set_objective([("tr", "A", [0], 1.0), ("lin", "x", [0], [1.0]),
                        ("tr", "Y", [0, 1], cost) if kind in ("herm", "psd")
                        else ("lin", "Y", [0, 1], [cost, cost])])
    sol = prog.solve()
    if cost < 0:
        assert sol.status == "unbounded"
        assert verify_solution(prog, sol).ray_residual <= 100 * conic.FEASTOL
        return
    assert sol.status == "optimal"
    assert abs(sol.value - 2.0) < 1e-7
    assert verify_solution(prog, sol).ok()
    if cost > 0:
        assert np.max(np.abs(sol.primal["Y"])) < 1e-6


def test_verify_flags_corruption():
    rng = np.random.default_rng(11)
    cmat = random_hermitian(3, rng)
    prog = ConicProgram()
    prog.add_hermitian_family("X", 1, 3)
    prog.add_scalar_row(("tr",), 1.0, [("tr", "X", [0], 1.0)])
    prog.set_objective([("mat", "X", 0, cmat)])
    sol = prog.solve()
    sol.primal["X"] = sol.primal["X"] + 1e-3 * np.eye(3)
    rep = verify_solution(prog, sol)
    assert rep.eq_residual >= 1e-4


@pytest.mark.parametrize("corrupt", ["dual_slack", "dual_row"])
def test_verify_flags_dual_corruption(corrupt):
    rng = np.random.default_rng(11)
    cmat = random_hermitian(3, rng)
    prog = ConicProgram()
    prog.add_hermitian_family("X", 1, 3)
    prog.add_scalar_row(("tr",), 1.0, [("tr", "X", [0], 1.0)])
    prog.set_objective([("mat", "X", 0, cmat)])
    sol = prog.solve()
    assert verify_solution(prog, sol).ok()
    if corrupt == "dual_slack":
        sol.dual_slack["X"] = sol.dual_slack["X"] - 0.5 * np.eye(3)
    else:
        sol.dual_rows[("tr",)] += 0.3
    assert not verify_solution(prog, sol).ok()


def test_tolerances_are_read_when_solving(monkeypatch):
    # XZ IR takes 6 iterations at the default tolerances and 5 at 1e-4
    prog = build_program("incompat", "robustness", scenario.paulis("XZ").effects,
                         np.eye(2))
    tight = prog.solve()
    monkeypatch.setattr(conic, "FEASTOL", 1e-4)
    monkeypatch.setattr(conic, "GAPTOL", 1e-4)
    assert prog.solve().iterations < tight.iterations
    # the check reads the same constant: a gap of 5e-8 is within 100 GAPTOL
    # at 1e-9, not at 1e-10
    report = conic.ResidualReport(0.0, 0.0, 0.0, 0.0, gap=5e-8)
    monkeypatch.setattr(conic, "GAPTOL", 1e-9)
    assert report.ok()
    monkeypatch.setattr(conic, "GAPTOL", 1e-10)
    assert not report.ok()


def test_solution_records_the_path_that_ended_it(monkeypatch):
    prog = build_program("incompat", "jm_robustness", scenario.paulis("XYZ").effects,
                         np.eye(2))
    done = prog.solve()
    assert done.ended == "converged"
    # this solve first meets the tolerances one iteration before it
    # converges: one iteration short, the loop runs out after that iterate,
    # and the candidate is promoted to optimal
    monkeypatch.setattr(conic, "MAXITER", done.iterations - 1)
    sol = prog.solve()
    assert sol.status == "optimal"
    assert sol.ended == "fallback: iteration limit after 1 polishing iterations"
    assert abs(sol.value - done.value) < 1e-8
    monkeypatch.setattr(conic, "MAXITER", 1)
    with pytest.raises(SolverFailure) as err:
        prog.solve()
    assert err.value.report["ended"] == "iteration limit"


def test_endgame_is_superlinear():
    # once the predictor is exact the step runs up to 1 - 1e-6 of the way
    # to the boundary, so mu falls far more than 100x per iteration; a
    # fixed 0.99 step takes 8 iterations here and lands 1.7e-12 off
    prog = build_program("incompat", "robustness", scenario.paulis("XZ").effects,
                         np.eye(2))
    sol = prog.solve()
    assert sol.iterations <= 6
    assert abs(sol.value - (3 - 2 * np.sqrt(2))) < 1e-12


@pytest.mark.parametrize("program", ["XZ", "ladder"])
def test_a_step_applies_as_four_times_each_way(monkeypatch, program):
    """A step applies As or its scaled form Abar = As W four times, and
    their transposes five times.  Between the scaling, which forms Abar,
    and the step length it applies Abar and Abar^T three times each for its
    two directions (Abar^T u2 is shared by both) and no As; before it, As x
    and As^T y once each for its residuals; after it, As^T dy once for the
    dual step.  A solve adds one As for the start, and the stopping checks
    reuse the residuals' products, so outside the steps a solve applies As
    exactly 1 + iterations times and As^T exactly 2 iterations - 1 times.
    So it does with the Lorentz cone folded into the dense array (the XZ
    robustness program) and applying its own columns (the restricted m = 6
    ladder program)."""
    prog = (build_program("incompat", "robustness", scenario.paulis("XZ").effects,
                          np.eye(2)) if program == "XZ" else _ladder_program())
    assert (_cones(prog)[0].lorentz is None) == (program == "XZ")
    events = []

    def spy(name, real):
        def counted(*args):
            events.append(name)
            return real(*args)
        return counted

    for name in ("_matvec", "_rmatvec", "_scaled_matvec", "_scaled_rmatvec", "_scale",
                 "_step_fraction"):
        monkeypatch.setattr(conic, name, spy(name, getattr(conic, name)))
    sol = prog.solve()
    assert sol.ended == "converged"
    steps, outside, window = [], [], None
    for name in events:
        if name == "_scale":
            window = []
        elif name == "_step_fraction":
            steps.append(window)
            window = None
        else:
            (outside if window is None else window).append(name)
    assert len(steps) == sol.iterations - 1
    for window in steps:
        assert sorted(window) == ["_scaled_matvec"] * 3 + ["_scaled_rmatvec"] * 3
    # the start's As e, then each iteration's residuals, then each step's As^T dy
    assert outside.count("_matvec") == 1 + sol.iterations
    assert outside.count("_rmatvec") == 2 * sol.iterations - 1
    assert len(outside) == 3 * sol.iterations


@pytest.mark.parametrize("program", ["XZ", "ladder"])
def test_a_step_runs_each_cone_kernel_to_its_budget(monkeypatch, program):
    """Between one scaling and the next, each cone runs scale once, center
    once (the corrector's: the predictor's centering is -lam in closed
    form), product once (the corrector's Mehrotra term), max_steps twice
    (once per direction) and from_scaled once (the step taken), and no
    kernel runs before the first scaling.  So it does with the Lorentz cone
    folded into the dense array (the XZ robustness program) and applying
    its own columns (the restricted m = 6 ladder program), where its
    from_scaled also maps v before its columns in each of the step's three
    products Abar v."""
    prog = (build_program("incompat", "robustness", scenario.paulis("XZ").effects,
                          np.eye(2)) if program == "XZ" else _ladder_program())
    budget = {"scale": 1, "center": 1, "product": 1, "max_steps": 2, "from_scaled": 1}
    events = []

    def spy(name, real):
        def counted(owner, *args):
            events.append((name, owner))
            return real(owner, *args)
        return counted

    monkeypatch.setattr(conic, "_scale", spy("_scale", conic._scale))
    for cls in (conic._Lorentz, conic._Matrix, conic._Nonneg):
        for name in budget:
            monkeypatch.setattr(cls, name, spy(name, getattr(cls, name)))
    sol = prog.solve()
    assert sol.ended == "converged"
    steps = []
    for name, owner in events:
        if name == "_scale":
            want = {(g, k): n for g in owner for k, n in budget.items()}
            if owner.lorentz is not None:
                want[owner.lorentz, "from_scaled"] += 3
            steps.append((want, Counter()))
        else:
            steps[-1][1][owner, name] += 1
    assert len(steps) == sol.iterations - 1
    for want, got in steps:
        assert got == want


def test_step_fraction_rule():
    grid = np.concatenate([np.linspace(0, 1, 101), 1 - np.logspace(-16, -1, 31),
                           np.logspace(-16, -1, 31)])
    for sigma in grid:
        for aaff in grid:
            frac = conic._step_fraction(sigma, aaff)
            assert frac <= 1 - 1e-6
            if aaff <= 0.9 or sigma >= 1e-2:
                assert frac == 0.99
            if sigma <= 1e-8 and aaff >= 1 - 1e-8:
                assert frac >= 1 - 1e-5


def test_scaled_start_iteration_counts():
    # the start x0 = alpha e fits the equality rows (on the m = 6 IW program
    # |As e| is about 600 |bs|, and alpha sits at its floor 1e-2); from
    # x0 = e these solves took 18 and 22 iterations
    ms6 = scenario.lossy(scenario.bloch_measurements(
        scenario.dodecahedron_vectors()[:6]), 0.4)
    ms7 = scenario.lossy(scenario.bloch_measurements(
        scenario.dodecahedron_vectors()[:7]), 0.4)
    asm7 = scenario.steer(scenario.werner(1.0, psi="singlet"), ms7)
    iw = decomposition.solve_strategies(
        build_program("incompat", "weight", ms6.effects, np.eye(2)), ms6.effects)
    sw = decomposition.solve_strategies(
        build_program("steering", "weight", asm7.members, scenario.reduced_state(asm7)),
        asm7.members)
    assert iw.iterations <= 16
    assert sw.iterations <= 14
    assert abs(iw.value - (0.4 - 1 / 6) / (1 - 1 / 6)) < 1e-8
    assert abs(sw.value - (0.4 - 1 / 7) / (1 - 1 / 7)) < 1e-8


def test_dump_triplets_roundtrip_header():
    prog = ConicProgram("dumpme")
    prog.add_nonneg("t", 1)
    prog.add_nonneg("u", 1)
    prog.add_scalar_row(("bound",), 3.0, [("lin", "t", [0], [1.0]),
                                          ("lin", "u", [0], [-1.0])])
    prog.set_objective([("lin", "t", [0], [1.0])])
    text = prog.dump_triplets()
    assert "family t" in text and "A 0 0 1.0" in text and "b 0 3.0" in text


def test_two_touches_on_one_entry_are_summed():
    """A row that reaches one coordinate of a block through two touches
    (a "mat" and a "tr" term) has one entry there, their sum, and one
    whose touches cancel has none: dump_triplets prints one summed line
    per nonzero entry, and build() equals the dense A summed by hand."""
    prog = ConicProgram("twice")
    prog.add_hermitian_family("X", 2, 2)
    C = np.array([[2.0, 1j], [-1j, 3.0]])
    prog.add_scalar_row(("sum",), 1.0, [("mat", "X", 0, C), ("tr", "X", [0, 1], 0.5)])
    prog.add_scalar_row(("cancel",), 0.0, [("mat", "X", 1, -np.eye(2)),
                                           ("tr", "X", [1], 1.0)])
    eye = hermitian_coords(np.eye(2), 2)
    want = np.zeros((2, 8))
    want[0] = np.concatenate([hermitian_coords(C, 2) + 0.5 * eye, 0.5 * eye])
    # row 1 is -eye + eye on block 1: no entry
    rows, _, _ = prog.triplets()
    assert len(rows) > np.count_nonzero(want)     # some entries listed twice
    A, _, _ = prog.build()
    assert np.array_equal(A.toarray(), want)
    lines = [ln.split() for ln in prog.dump_triplets().splitlines() if ln.startswith("A ")]
    assert [(int(i), int(j)) for _, i, j, _ in lines] == list(zip(*np.nonzero(want)))
    assert [float(v) for *_, v in lines] == list(want[np.nonzero(want)])


def test_variable_cap():
    # 250001 blocks of 16 coordinates: 4000016 columns > VARIABLE_CAP
    prog = ConicProgram("capped")
    prog.add_hermitian_family("X", 250_001, 4)
    with pytest.raises(SolverFailure):
        prog.add_scalar_row(("tr",), 1.0, [("tr", "X", [0], 1.0)])


def test_verify_infeasible_report():
    prog = ConicProgram("infeas2")
    prog.add_nonneg("x", 2)
    prog.add_scalar_row(("sum",), -1.0, [("lin", "x", [0, 1], [1.0, 1.0])])
    prog.set_objective([("lin", "x", [0], [1.0])])
    sol = prog.solve()
    rep = verify_solution(prog, sol)
    assert rep.ray_violation >= 1e-6


def test_verify_infeasible_sdp_ray_passes():
    # tr X = -2 with X >> 0: the solver's ray makes -A'y PSD
    prog = ConicProgram("infeas-sdp")
    prog.add_hermitian_family("X", 1, 2)
    prog.add_scalar_row(("tr",), -2.0, [("tr", "X", [0], 1.0)])
    prog.set_objective([("tr", "X", [0], 1.0)])
    sol = prog.solve()
    assert sol.status == "infeasible"
    assert verify_solution(prog, sol).ray_residual < 1e-9


@pytest.mark.parametrize("minus_y", [[[9.0, 2.0], [2.0, 0.0]],
                                     [[-0.5, -0.5], [-0.5, -0.5]]])
def test_verify_infeasible_sdp_ray_flags_negative_eigenvalue(minus_y):
    # X = B with X >> 0 is infeasible (negative diagonal); rays Y have
    # tr(Y B) = 1 and -Y >> 0.  Each pushed -Y keeps tr(Y B) = 1 and has a
    # negative eigenvalue, with entries all of one sign, so no entrywise
    # test of -A'y can flag both.
    rhs = np.array([[-1.0, 2.0], [2.0, -1.0]])
    prog = ConicProgram("infeas-pin")
    prog.add_hermitian_family("X", 1, 2)
    prog.add_matrix_row_group(("pin",), rhs, [("sum", "X", 0, 1.0)])
    prog.set_objective([("tr", "X", [0], 1.0)])
    sol = prog.solve()
    assert sol.status == "infeasible"
    assert verify_solution(prog, sol).ray_residual < 1e-9
    pushed = -np.array(minus_y)
    assert np.isclose(np.trace(pushed @ rhs), 1.0)
    sol.ray = {("pin",): pushed}
    assert verify_solution(prog, sol).ray_residual > 1e-2


def _unit_blocks(prog, x):
    """The blocks and scalars that the column vector ``x`` holds."""
    out = {}
    for f in prog.families.values():
        part = x[f.offset:f.offset + f.width]
        if f.kind == "herm":
            out[f.name] = hermitian_from_coords(part.reshape(f.count, -1), f.dim)
        elif f.kind == "psd":
            out[f.name] = smat(part.reshape(f.count, -1), f.dim)
        else:
            out[f.name] = part
    return out


def test_build_writes_out_the_term_grammar():
    """build()'s A, b and c against the grammar written out by hand: column
    j of A is every row's expression evaluated on the j-th unit vector,
    and c_j the objective's.  Every term tag runs on every family kind
    that takes it."""
    rng = np.random.default_rng(31)
    prog = ConicProgram("grammar")
    prog.add_hermitian_family("A", 3, 2)
    prog.add_hermitian_family("B", 2, 3)
    prog.add_psd_family("P", 2, 3)
    prog.add_nonneg("u", 3)
    prog.add_nonneg("z", 2)
    C2, H2, K2, Q2, R2 = (random_hermitian(2, rng) for _ in range(5))
    C3, H3, R3 = (random_hermitian(3, rng) for _ in range(3))
    S, S2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))   # read symmetrized
    tr = np.trace
    # (rhs, terms, the same expression on the blocks X); a matrix rhs is a
    # matrix row group
    rows = [
        (0.3, [("lin", "u", [0, 2], [1.5, -2.0]), ("lin", "z", [1], [0.7]),
               ("mat", "A", 1, C2), ("tr", "B", [0, 1], 2.0),
               ("mat", "P", 1, cell_functional(3, (0, 2)))],
         lambda X: (1.5 * X["u"][0] - 2.0 * X["u"][2] + 0.7 * X["z"][1]
                    + tr(C2 @ X["A"][1]).real + 2.0 * tr(X["B"][0] + X["B"][1]).real
                    + X["P"][1][0, 2])),
        (R2, [("sum", "A", [0, 1], 0.5), ("sum", "A", 2, 2.0),
              ("scalar_mat", "u", 0, H2), ("scalar_mat", "z", 1, K2)],
         lambda X: (0.5 * (X["A"][0] + X["A"][1]) + 2.0 * X["A"][2]
                    + X["u"][0] * H2 + X["z"][1] * K2)),
        (-1.2, [("mat", "P", 0, S), ("mat", "A", 2, cell_functional(2, (0, 1))),
                ("mat", "B", 1, cell_functional(3, (1, 2))), ("tr", "A", [0, 2], -1.0),
                ("tr", "P", [1], 0.5), ("mat", "B", 0, C3),
                ("lin", "u", [1, 1], [3.0, 1.0])],
         lambda X: (tr(S @ X["P"][0]) + X["A"][2][0, 1].real
                    + X["B"][1][1, 2].real - tr(X["A"][0] + X["A"][2]).real
                    + 0.5 * tr(X["P"][1]) + tr(C3 @ X["B"][0]).real
                    + 4.0 * X["u"][1])),
        (R3, [("sum", "B", [0, 1], 1.0), ("sum", "B", 1, -1.0),
              ("scalar_mat", "z", 0, H3)],
         lambda X: X["B"][0] + X["z"][0] * H3),
    ]
    objective = ([("lin", "z", [0, 1], [1.0, -2.0]), ("lin", "u", [2], [0.5]),
                  ("mat", "A", 0, Q2), ("mat", "P", 1, S2)],
                 lambda X: (X["z"][0] - 2.0 * X["z"][1] + 0.5 * X["u"][2]
                            + tr(Q2 @ X["A"][0]).real + tr(S2 @ X["P"][1])))
    for i, (rhs, terms, _) in enumerate(rows):
        if np.ndim(rhs):
            prog.add_matrix_row_group(("m", i), rhs, terms)
        else:
            prog.add_scalar_row(("s", i), rhs, terms)
    prog.set_objective(objective[0])

    def row_values(X):
        return np.concatenate([
            hermitian_coords(expr(X), rhs.shape[0]) if np.ndim(rhs) else [expr(X)]
            for rhs, _, expr in rows])

    A, b, c = prog.build()
    assert A.has_sorted_indices
    units = [_unit_blocks(prog, e) for e in np.eye(A.shape[1])]
    want_a = np.array([row_values(X) for X in units]).T
    want_c = np.array([objective[1](X) for X in units])
    assert A.shape == (2 + 4 + 9, 3 * 4 + 2 * 9 + 2 * 6 + 3 + 2)
    assert np.max(np.abs(A.toarray() - want_a)) <= 1e-12
    assert np.max(np.abs(c - want_c)) <= 1e-12
    assert np.max(np.abs(b - np.concatenate(
        [hermitian_coords(rhs, rhs.shape[0]) if np.ndim(rhs) else [rhs]
         for rhs, _, _ in rows]))) <= 1e-12


@pytest.mark.parametrize("tag", ["one", "lin", "mat", "tr"])
def test_matrix_rows_refuse_an_unknown_term(tag):
    # "one" is the retired single-block term ("sum" takes one index); the
    # others belong to the scalar-row grammar
    prog = ConicProgram("terms")
    prog.add_hermitian_family("X", 2, 2)
    with pytest.raises(ValueError, match=f"unknown matrix term '{tag}'"):
        prog.add_matrix_row_group(("pin",), np.eye(2), [(tag, "X", 0, 1.0)])


def _mixed_program():
    """Hermitian blocks under matrix, trace and 'mat' rows next to
    a real PSD block and two nonnegative scalar families."""
    rng = np.random.default_rng(12)
    prog = ConicProgram("mixed")
    prog.add_hermitian_family("H", 5, 2)
    prog.add_psd_family("P", 2, 3)
    prog.add_nonneg("t", 3)
    prog.add_nonneg("w", 2)
    prog.add_matrix_row_group(
        ("m0",), random_hermitian(2, rng),
        [("sum", "H", [0, 2, 4], 1.0), ("sum", "H", 1, -0.5),
         ("scalar_mat", "w", 0, random_hermitian(2, rng))])
    prog.add_matrix_row_group(("m1",), np.eye(2),
                              [("sum", "H", [1, 2, 2], 2.0), ("sum", "H", 3, 1.0)])
    prog.add_scalar_row(("tr",), 1.0, [("tr", "H", [0, 3], 1.0),
                                       ("tr", "P", [1], 2.0),
                                       ("lin", "t", [0, 2], [1.0, -1.0])])
    prog.add_scalar_row(("mat",), 0.3, [("mat", "H", 4, random_hermitian(2, rng)),
                                        ("mat", "H", 1, random_hermitian(2, rng)),
                                        ("mat", "P", 0, cell_functional(3, (0, 2)))])
    prog.add_scalar_row(("entry",), 0.1, [("mat", "H", 2, cell_functional(2, (0, 1))),
                                          ("lin", "w", [1], [3.0])])
    return prog


def _kernel_program():
    """One family of every cone kind (2x2 and 3x3 Hermitian, real
    symmetric, nonnegative), and a second nonnegative one."""
    prog = ConicProgram("kernels")
    prog.add_hermitian_family("H2", 4, 2)
    prog.add_hermitian_family("H3", 3, 3)
    prog.add_psd_family("P", 2, 3)
    prog.add_nonneg("t", 3)
    prog.add_nonneg("w", 1)
    prog.add_matrix_row_group(("m2",), np.eye(2), [("sum", "H2", [0, 1, 3], 1.0)])
    prog.add_matrix_row_group(("m3",), np.eye(3), [("sum", "H3", [0, 2], 1.0),
                                                   ("sum", "H3", 1, -1.0)])
    prog.add_scalar_row(("tr",), 1.0, [("tr", "P", [0, 1], 1.0),
                                       ("tr", "H2", [2], 1.0),
                                       ("lin", "t", [0, 1, 2], [1.0, 2.0, -1.0]),
                                       ("lin", "w", [0], [1.0])])
    return prog


def _run_program():
    """2x2 Hermitian families A, B, then a real symmetric P that breaks the
    run, then a 2x2 Hermitian C that starts a new one, then scalars; rows
    mix all of them, with weights that make the row scales differ."""
    rng = np.random.default_rng(15)
    prog = ConicProgram("runs")
    prog.add_hermitian_family("A", 3, 2)
    prog.add_hermitian_family("B", 2, 2)
    prog.add_psd_family("P", 2, 3)
    prog.add_hermitian_family("C", 2, 2)
    prog.add_nonneg("t", 3)
    prog.add_nonneg("w", 2)
    prog.add_matrix_row_group(
        ("m0",), random_hermitian(2, rng),
        [("sum", "A", [0, 1, 2], 1.0), ("sum", "B", 1, -2.0),
         ("scalar_mat", "w", 0, random_hermitian(2, rng))])
    prog.add_matrix_row_group(("m1",), np.eye(2), [("sum", "B", [0, 1], 0.5),
                                                   ("sum", "C", [0, 1], 3.0)])
    prog.add_scalar_row(("tr",), 1.0, [("tr", "A", [1], 1.0),
                                       ("tr", "P", [0, 1], 2.0),
                                       ("tr", "C", [1], 1.0),
                                       ("lin", "t", [0, 1, 2], [1.0, 2.0, -1.0])])
    prog.add_scalar_row(("mat",), 0.3, [("mat", "B", 0, random_hermitian(2, rng)),
                                        ("mat", "P", 1, cell_functional(3, (0, 2))),
                                        ("mat", "A", 2, random_hermitian(2, rng))])
    prog.add_scalar_row(("entry",), 0.1, [("mat", "C", 0, cell_functional(2, (0, 1))),
                                          ("lin", "w", [1], [3.0]),
                                          ("lin", "t", [2], [1.0])])
    return prog


def _duplicate_program():
    """A scalar row holding tr X_2 and tr(C X_2): two terms on each
    diagonal coordinate of block 2, which A sums to 1 + C_kk."""
    prog = ConicProgram("duplicate")
    prog.add_hermitian_family("H", 3, 2)
    prog.add_nonneg("t", 1)
    prog.add_matrix_row_group(("m",), np.eye(2), [("sum", "H", [0, 1, 2], 1.0)])
    prog.add_scalar_row(("dup",), 1.0, [("tr", "H", [2], 1.0),
                                        ("mat", "H", 2, np.diag([0.5, 0.25])),
                                        ("lin", "t", [0], [0.75])])
    return prog


def _ladder_program():
    """The m = 6 lossy-dodecahedron IR program on its starting strategies,
    as column generation solves it first: one Lorentz run of the families
    N and G (18 + 256 blocks) on the match and norm rows."""
    ms = scenario.lossy(scenario.bloch_measurements(
        scenario.dodecahedron_vectors()[:6]), 0.4)
    prog = build_program("incompat", "robustness", ms.effects, np.eye(2))
    keep = decomposition._starting_set(prog.families["G"],
                                       decomposition.strategy_prices(ms.effects))
    return prog.restrict({"G": keep})


SCHUR_PROGRAMS = ["IR", "IW", "SR", "mixed", "kernels", "runs", "duplicate", "ladder"]
# the programs whose Lorentz cone the solver folds into its one dense
# array: rows x columns is no more than one product with the Lorentz
# cone's own columns plus one with the other columns on their rows costs
DENSE_SIDE = {"SR", "mixed", "runs", "duplicate"}


def _schur_program(name):
    ms = scenario.lossy(scenario.bloch_measurements(
        scenario.dodecahedron_vectors()[:3]), 0.4)
    assemblage = scenario.steer(scenario.werner(1.0, psi="singlet"), ms)
    eye, rho_b = np.eye(2), scenario.reduced_state(assemblage)
    return {
        "IR": lambda: build_program("incompat", "robustness", ms.effects, eye),
        "IW": lambda: build_program("incompat", "weight", ms.effects, eye),
        "SR": lambda: build_program("steering", "SR", assemblage.members, rho_b),
        "mixed": _mixed_program,
        "kernels": _kernel_program,
        "runs": _run_program,
        "duplicate": _duplicate_program,
        "ladder": _ladder_program,
    }[name]()


def _interior_point(prog, rng):
    """Random x, s inside the cone of ``prog``, its cones scaled at (x, s),
    and As = A / drow at the solver's own row scale drow.  x and s are in
    the cones' coordinates (``_cone_coords``), As in the families'."""
    A = prog.build()[0]
    fams = prog.families.values()
    lp_width = sum(f.width for f in fams if f.kind == "nonneg")
    x, s = np.zeros(A.shape[1]), np.zeros(A.shape[1])
    for vec in (x, s):
        for f in fams:
            if f.kind not in ("herm", "psd"):
                continue
            r = rng.normal(size=(f.count, f.dim, f.dim))
            if f.kind == "herm":
                r = r + 1j * rng.normal(size=r.shape)
            blocks = r @ r.conj().transpose(0, 2, 1) + 0.1 * np.eye(f.dim)
            vec[f.offset:f.offset + f.width] = f.coords(blocks).ravel()
        vec[A.shape[1] - lp_width:] = rng.uniform(0.1, 2.0, lp_width)
    cones, drow = _cones(prog)
    As = (sp.diags(1.0 / drow) @ A).tocsr()
    x, s = _cone_coords(cones, x), _cone_coords(cones, s)
    _scale(cones, x, s)
    return As, x, s, cones


@pytest.mark.parametrize("name", SCHUR_PROGRAMS)
def test_row_scale_is_largest_touch_entry(name):
    """The solver's row scale is max_j |A_rj| (at least 1e-12) on rows
    without two terms on one block coordinate; on such a row it is the
    largest |entry| before the terms are summed."""
    prog = _schur_program(name)
    _, drow = _cones(prog)
    A = prog.build()[0]
    want = np.maximum(np.abs(A).max(axis=1).toarray().ravel(), 1e-12)
    if name == "duplicate":
        row = prog.row_groups[-1].offset
        # A's row holds 1.5, 1.25 and 0.75; its touch entries 1, 1, 0.5, 0.25, 0.75
        assert want[row] == 1.5
        want[row] = 1.0
    assert np.array_equal(drow, want)


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name, families", [("jm", ("G", "H")), ("SR", ("G",))])
def test_column_products_are_a_slice_of_a_transpose_y(name, families):
    """Pricing from the touches gives the family's slice of A^T y."""
    ms = scenario.lossy(scenario.bloch_measurements(
        scenario.dodecahedron_vectors()[:3]), 0.4)
    if name == "jm":
        prog = build_program("incompat", "jm_robustness", ms.effects, np.eye(2))
    else:
        assemblage = scenario.steer(scenario.werner(1.0, psi="singlet"), ms)
        prog = build_program("steering", "SR", assemblage.members,
                             scenario.reduced_state(assemblage))
    A = prog.build()[0]
    y = np.random.default_rng(15).normal(size=A.shape[0])
    for fname in families:
        fam = prog.families[fname]
        got = prog.column_products(fname, y)
        assert got.shape == (fam.count, fam.ncoords)
        assert _close(got, fam.part(A.T @ y))


@pytest.mark.parametrize("name", SCHUR_PROGRAMS)
def test_structured_schur_matches_dense_product(name):
    prog = _schur_program(name)
    As, _, _, cones = _interior_point(prog, np.random.default_rng(13))
    if name == "runs":
        # A, B and C are one Lorentz cone though P is declared between them
        assert [(type(g).__name__, g.sl.stop - g.sl.start) for g in cones] == [
            ("_Lorentz", 28), ("_Matrix", 12), ("_Nonneg", 5)]
    if name == "ladder":
        assert [(type(g).__name__, g.sl.stop - g.sl.start) for g in cones] == [
            ("_Lorentz", 4 * 274), ("_Nonneg", 1)]
    # reference: As Phi As^T with Phi = W W^T formed densely (column j of W
    # the cones' W of unit vector j), each row of As read in the cones'
    # coordinates; W^T maps rows of the identity to W
    n = As.shape[1]
    Ad = np.array([_cone_coords(cones, row) for row in As.toarray()])
    W = np.array([_from_scaled(cones, e) for e in np.eye(n)]).T
    assert _close(_to_scaled(cones, np.eye(n)), W)
    AW = Ad @ W
    assert _close(_schur(cones), Ad @ (W @ W.T) @ Ad.T)
    # the rule's side, and the dense array is that reference As on its
    # columns (all of them when the Lorentz cone is folded in), and its
    # scaled form Abar is As W there
    assert (cones.lorentz is None) == (name in DENSE_SIDE)
    assert cones.sl.stop == n
    assert cones.sl.start == (0 if cones.lorentz is None else cones.lorentz.sl.stop)
    assert cones.A.shape == Ad[:, cones.sl].shape and _close(cones.A, Ad[:, cones.sl])
    assert _close(cones.Abar, AW[:, cones.sl])
    # the held Lorentz cone's products with its own columns, zero off its
    # rows, and the operators As and Abar assemble, against the CSR As: v
    # enters and As^T y leaves through the coordinate map
    rng = np.random.default_rng(14)
    v, y = rng.normal(size=n), rng.normal(size=As.shape[0])
    vc, aty = _cone_coords(cones, v), _cone_coords(cones, As.T @ y)
    g = cones.lorentz
    if g is not None:
        got = np.zeros(As.shape[0])
        got[g.rows] = g.matvec(vc[g.sl])
        assert _close(got, As[:, g.sl] @ v[g.sl])
        assert _close(g.rmatvec(y), aty[g.sl])
    assert _close(_matvec(cones, vc), As @ v)
    assert _close(_cone_coords(cones, _rmatvec(cones, y)), As.T @ y)
    assert _close(_scaled_matvec(cones, v), AW @ v)
    assert _close(_scaled_rmatvec(cones, y), AW.T @ y)


@pytest.mark.parametrize("name", SCHUR_PROGRAMS)
def test_direction_meets_the_linearized_hsd_equations(name):
    """Both directions of a step, solved in the scaled space and mapped
    back (dx = W dxbar, ds the dual step As^T dy + ds = c dtau - eta rx
    applies), meet the linearized homogeneous self-dual equations with the
    dense As, to 1e-10 of their terms:

        As dx - bs dtau = -eta ry,   c^T dx - bs^T dy + dkappa = -eta rz,
        lam o (W^-1 dx + W^T ds) = sigma mu unit o unit - lam o lam - corr,
        tau dkappa + kappa dtau = sigma mu - tau kappa - corr_tk,

    at a random interior point with random y, tau, kappa, c and bs, for the
    predictor and for a corrector on its Mehrotra products."""
    prog = _schur_program(name)
    rng = np.random.default_rng(17)
    As, x, s, cones = _interior_point(prog, rng)
    n = As.shape[1]
    Ad = np.array([_cone_coords(cones, row) for row in As.toarray()])
    y, c, bs = rng.normal(size=As.shape[0]), rng.normal(size=n), rng.normal(size=As.shape[0])
    tau, kappa = rng.uniform(0.5, 2.0, 2)
    lam = _scale(cones, x, s)
    degree = sum(g.unit @ g.unit for g in cones)
    mu = (x @ s + tau * kappa) / (degree + 1)
    ry, rx = Ad @ x - bs * tau, Ad.T @ y + s - c * tau
    rz = c @ x - bs @ y + kappa
    M = _schur(cones)
    newton = _Newton(cones, _chol_reg(M), M, c, bs, ry, rx, rz, mu, tau, kappa)

    def near(got, want, *terms):
        size = max(np.max(np.abs(np.atleast_1d(term)), initial=0.0) for term in terms)
        return np.max(np.abs(np.atleast_1d(got - want))) <= 1e-10 * max(size, 1e-300)

    pred = newton.direction(1.0, 0.0, [0.0] * len(cones), 0.0)
    corr = [g.product(pred[0][g.sl], pred[2][g.sl]) for g in cones]
    for eta, sigma, cs, corr_tk in ((1.0, 0.0, [0.0] * len(cones), 0.0),
                                    (0.7, 0.3, corr, pred[3] * pred[4])):
        dxbar, dy, dsbar, dtau, dkappa = newton.direction(eta, sigma, cs, corr_tk)
        dx = _from_scaled(cones, dxbar)
        ds = c * dtau - eta * rx - Ad.T @ dy
        assert near(Ad @ dx - bs * dtau, -eta * ry, Ad @ dx, bs * dtau, ry)
        assert near(c @ dx - bs @ dy + dkappa, -eta * rz, c * dx, bs * dy, dkappa, rz)
        assert near(tau * dkappa + kappa * dtau, sigma * mu - tau * kappa - corr_tk,
                    tau * dkappa, kappa * dtau, mu, tau * kappa, corr_tk)
        # the scaled dual step is the applied one, mapped by W^T
        wds = _to_scaled(cones, ds)
        assert near(wds, dsbar, wds)
        for g, cg in zip(cones, cs):
            lg = lam[g.sl]
            got = g.product(lg, dxbar[g.sl] + wds[g.sl])
            want = sigma * mu * g.product(g.unit, g.unit) - g.product(lg, lg) - cg
            assert near(got, want, got, g.product(lg, lg), sigma * mu, cg)


@pytest.mark.parametrize("name", SCHUR_PROGRAMS)
def test_predictor_centering_is_minus_lam(name):
    """The predictor's centering in closed form, -lam (``corr`` None),
    gives the direction that every cone's own center(0, 0) gives, to
    1e-12 of each of its terms, at a random interior point with random
    residuals."""
    prog = _schur_program(name)
    rng = np.random.default_rng(18)
    As, x, s, cones = _interior_point(prog, rng)
    m, n = As.shape
    tau, kappa = rng.uniform(0.5, 2.0, 2)
    M = _schur(cones)
    newton = _Newton(cones, _chol_reg(M), M, rng.normal(size=n), rng.normal(size=m),
                     rng.normal(size=m), rng.normal(size=n), rng.normal(), (x @ s) / n,
                     tau, kappa)
    closed = newton.direction(1.0, 0.0, None, 0.0)
    looped = newton.direction(1.0, 0.0, [0.0] * len(cones), 0.0)
    for got, want in zip(closed, looped):
        assert np.max(np.abs(np.atleast_1d(got - want))) <= 1e-12 * np.max(np.abs(want))


def test_one_lorentz_cone_and_one_dense_array():
    """The 2x2 Hermitian families come first in the columns, as one Lorentz
    cone, and every other column is one dense array: a 2x2 family declared
    after a real PSD family joins the cone, every nonlocality program (NPA
    levels 1 and 2, and the linear programs) is one dense array, and the
    restricted m = 6 ladder program's Lorentz cone applies its own columns."""
    prog = _run_program()
    fams = prog.families
    assert [fams[name].offset for name in "ABCPtw"] == [0, 12, 20, 28, 40, 43]
    cones, _ = _cones(prog)
    assert [type(g) for g in cones].count(_Lorentz) == 1
    assert cones[0].sl == slice(0, 28)
    state = scenario.werner(0.9)
    beh = scenario.measure(scenario.steer(state, scenario.paulis("XZ")),
                           scenario.paulis("XY"))
    for kind in decomposition.KINDS:
        for level in (1, 2):
            nlp, _ = nl.build_program("p", kind, beh.table, scenario.behaviour_marginal(beh, "B"),
                                      level)
            cones, _ = _cones(nlp)
            assert cones.lorentz is None and cones.sl == slice(0, nlp._ncols), (kind, level)
            assert cones.A.shape == (nlp._nrows, nlp._ncols)
    ladder = _ladder_program()
    cones, _ = _cones(ladder)
    assert cones.lorentz is cones[0]
    assert cones.sl == slice(4 * 274, ladder._ncols)


@pytest.mark.parametrize("name", SCHUR_PROGRAMS)
def test_start_is_the_least_squares_multiple_of_the_unit(name):
    """x0 = alpha e, alpha in [1e-2, 1], and x0 fits the equality rows at
    least as well as e does."""
    prog = _schur_program(name)
    cones, drow = _cones(prog)
    bs = prog.rhs() / drow
    x0, e = _start(cones, bs, prog._ncols)
    alpha = (x0 @ e) / (e @ e)
    assert 1e-2 <= alpha <= 1
    assert np.allclose(x0, alpha * e, rtol=1e-15, atol=0)
    assert (np.linalg.norm(_matvec(cones, x0) - bs)
            <= np.linalg.norm(_matvec(cones, e) - bs))


def test_start_stays_interior_and_defined():
    # x1 + x2 = -1: the least-squares multiple is -1/2, floored at 1e-2
    prog = ConicProgram("infeas")
    prog.add_nonneg("x", 2)
    prog.add_scalar_row(("sum",), -1.0, [("lin", "x", [0, 1], [1.0, 1.0])])
    prog.set_objective([("lin", "x", [0], [1.0])])
    cones, drow = _cones(prog)
    x0, e = _start(cones, prog.rhs() / drow, prog._ncols)
    assert np.array_equal(e, np.ones(2))
    assert np.array_equal(x0, np.full(2, 1e-2))
    # a row on an off-diagonal coordinate only: As e = 0 fits every
    # multiple equally, and the start is the unit
    prog = ConicProgram("offdiag")
    prog.add_hermitian_family("X", 1, 2)
    prog.add_scalar_row(("re",), 0.3, [("mat", "X", 0, cell_functional(2, (0, 1)))])
    cones, drow = _cones(prog)
    x0, e = _start(cones, prog.rhs() / drow, prog._ncols)
    assert np.array_equal(x0, e)


def test_nt_scaling_kernels():
    """On every cone kind (2x2 Hermitian in closed form, 3x3 Hermitian and
    real symmetric as matrices, scalars) W^T maps s and W^-1 maps x to one
    point lam (W lam = x), centering inverts lam o . at the barrier degree
    of the block, and the step length stops on the boundary (read in the
    families' coordinates) whichever of its two operands carries the
    step.  The scaled space is flat coordinates on the cone's slice."""
    prog = _kernel_program()
    rng = np.random.default_rng(21)
    _, x, s, cones = _interior_point(prog, rng)
    fams = {f.offset: f for f in prog.families.values() if f.kind in ("herm", "psd")}
    for g in cones:
        fam = fams.get(g.sl.start)     # None for the scalars
        lam = g.lam
        assert lam.shape == (g.sl.stop - g.sl.start,)
        assert np.allclose(g.to_scaled(s[g.sl]), lam)
        assert np.allclose(g.from_scaled(lam), x[g.sl])
        assert np.allclose(g.center(0.0, 0.0), -lam)
        d = g.center(0.3, 0.0)
        degree = fam.count * fam.dim if fam else lam.size
        assert np.isclose(lam @ d, 0.3 * degree - lam @ lam)
        corr = g.product(lam, d)
        assert np.allclose(g.product(lam, g.center(0.3, corr) - d), -corr)
        step = rng.normal(size=lam.shape)
        # the step bound reads both stacked operands: a zero step never binds
        alpha = g.max_steps(step, 0 * step)
        assert g.max_steps(0 * step, step) == alpha
        edge = np.zeros_like(x)
        edge[g.sl] = g.from_scaled(lam + alpha * step)
        edge = _cone_coords(cones, edge)[g.sl]      # the families' coordinates
        low = (np.linalg.eigvalsh(fam.mats(edge.reshape(fam.count, -1)))[:, 0]
               if fam else edge).min()
        assert abs(low) <= 1e-9 * np.abs(edge).max()


def test_jnorm_is_the_lorentz_norm_and_fails_loudly():
    """sqrt(q0^2 - |q_bar|^2) per interior row; a boundary row, a row
    holding NaN, or one bad row under a good one raises, so a step that
    left the cone or went NaN cannot pass as a scaling."""
    rows = np.array([[2.0, 0.5, -1.0, 0.25], [1.0, 0.0, 0.0, 0.0], [3.0, 1.0, 1.0, 1.0]])
    want = np.sqrt(rows[:, 0] ** 2 - np.sum(rows[:, 1:] ** 2, axis=1))
    assert np.allclose(_jnorm(rows), want, rtol=1e-14, atol=0)
    for bad in ([1.0, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [2.0, 0.0, np.nan, 0.0]):
        for stack in ([bad], [rows[0], bad]):
            with pytest.raises(np.linalg.LinAlgError):
                _jnorm(np.array(stack))


def test_jnorm_of_a_stack_is_its_rows():
    """On x and s stacked in one (2, N, 4) array, as the Lorentz scaling
    calls it, _jnorm gives each operand's and each row's own result to the
    last bit, and it raises when either operand has a row off the cone."""
    rng = np.random.default_rng(22)
    q = rng.normal(size=(2, 9, 4))
    q[..., 0] = np.linalg.norm(q[..., 1:], axis=-1) + rng.uniform(1e-3, 1.0, (2, 9))
    got = _jnorm(q)
    assert got.shape == (2, 9)
    assert got.tobytes() == np.array([_jnorm(op) for op in q]).tobytes()
    assert got.tobytes() == np.array([[_jnorm(row[None])[0] for row in op]
                                      for op in q]).tobytes()
    for k in range(2):
        bad = q.copy()
        bad[k, 4, 0] = 0.5 * np.linalg.norm(bad[k, 4, 1:])
        with pytest.raises(np.linalg.LinAlgError):
            _jnorm(bad)


def _fresh_python(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter on this checkout."""
    src = str(Path(conic.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout.strip()


def test_import_leaves_scipy_sparse_unloaded(tmp_path):
    """A solve never assembles A, verification and dumps read A's entries
    from the touches (ConicProgram.triplets), and conic.py loads SciPy's
    LAPACK extension by file, so importing the package and its CLI,
    solving, verifying a solution and writing a program's dump import
    neither scipy.sparse nor scipy.linalg."""
    dump = tmp_path / "prog.txt"
    code = ("import sys, corrquant, corrquant.cli\n"
            "import numpy as np\n"
            "from corrquant import (incompatibility_quantifier, paulis, steer,\n"
            "                       steering_quantifier, werner)\n"
            "from corrquant.conic import verify_solution\n"
            "from corrquant.decomposition import build_program\n"
            "from corrquant.errors import SolverFailure\n"
            "incompatibility_quantifier(paulis('XYZ'), 'IR')\n"
            "steering_quantifier(steer(werner(0.8), paulis('XYZ')), 'SR_c')\n"
            "prog = build_program('incompat', 'robustness', paulis('XZ').effects, np.eye(2))\n"
            "assert verify_solution(prog, prog.solve()).ok()\n"
            f"SolverFailure('dump', program=prog).write_dump({str(dump)!r})\n"
            "print(sorted({'scipy.sparse', 'scipy.linalg'} & set(sys.modules)))")
    assert _fresh_python(code) == "[]"
    assert "\nA 0 " in dump.read_text()


def test_flapack_is_scipys_lapack():
    """conic's dpotrf and dpotrs are scipy.linalg.lapack's: the same bits
    here, and the same objects whichever of the two a process imports
    first, and scipy.linalg's ``_flapack`` attribute is the registered
    module that holds them in both orders."""
    from scipy.linalg import lapack

    rng = np.random.default_rng(5)
    for n in (3, 17, 40):
        G = rng.standard_normal((n, n))
        M, rhs = G @ G.T + n * np.eye(n), rng.standard_normal((n, 2))
        L, info = conic.dpotrf(M, lower=1)
        L_ref, info_ref = lapack.dpotrf(M, lower=1)
        assert info == info_ref == 0 and L.tobytes() == L_ref.tobytes()
        z, info = conic.dpotrs(L, rhs, lower=1)
        z_ref, info_ref = lapack.dpotrs(L_ref, rhs, lower=1)
        assert info == info_ref == 0 and z.tobytes() == z_ref.tobytes()
    indefinite = np.diag([2.0, 1.0, -1.0, 3.0])
    assert conic.dpotrf(indefinite, lower=1)[1] == lapack.dpotrf(indefinite, lower=1)[1] == 3
    for first, second in (("corrquant.conic", "scipy.linalg.lapack"),
                          ("scipy.linalg.lapack", "corrquant.conic")):
        code = (f"import sys, {first}, {second}\n"
                "import scipy.linalg\n"
                "from corrquant import conic\n"
                "from scipy.linalg import lapack\n"
                "flapack = getattr(scipy.linalg, '_flapack', None)\n"
                "print(conic.dpotrf is lapack.dpotrf and conic.dpotrs is lapack.dpotrs,\n"
                "      flapack is sys.modules['scipy.linalg._flapack'],\n"
                "      getattr(flapack, 'dpotrf', None) is conic.dpotrf)")
        assert _fresh_python(code) == "True True True", first


def test_a_missing_flapack_names_the_directory_searched(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(conic, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"^no _flapack\.missing in .*scipy[/\\]linalg$"):
        conic._dpotrf_dpotrs()
