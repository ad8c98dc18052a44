"""Moment-matrix outer approximations of the quantum behaviour set.

Levels 1 and 2 of the hierarchy of moment-matrix relaxations: words are
the products of at most ``level`` measurement projectors (one outcome per
input dropped via completeness), canonicalized by party commutation,
idempotence and same-input orthogonality, and ordered by length, then
one party's words before both parties'; matrix cells whose words
coincide as operators share one scalar, their class's value.

Membership and optimization are solved in hand-dualized form, one row
per class on the class's indicator matrix, and the completed moment
matrix is assembled from class values: each class's value (pinned by the
behaviour, or minus the dual of its row) assigned to every cell of the
class, so class sharing and the zero cells are exact by assignment.
Quantifier programs that embed a scaled moment block instead add the
block as a primal variable with explicit tying rows and the
normalization Gamma[0,0] tied to the noise weight (see nonlocality).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cg import CgLayout
from .conic import ConicProgram
from .decomposition import solve
from .errors import ValidationError
from .scenario import _require_finite

MEMBERSHIP_TOL = 1e-9   # npa_membership: margins down to -MEMBERSHIP_TOL are in

# a symbol is (party, input, outcome); words are tuples of symbols,
# canonical form keeps Alice symbols (party 0) before Bob symbols.


def _reduce_party(word):
    """Apply idempotence and same-input orthogonality until stable."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            s, t = word[i], word[i + 1]
            if s == t:
                del word[i + 1]
                changed = True
                break
            if s[1] == t[1]:        # same input, different outcome
                return None
    return tuple(word)


def canonical_word(word):
    """Canonical form of a projector word; None if it is the zero operator."""
    ra = _reduce_party(s for s in word if s[0] == 0)
    rb = _reduce_party(s for s in word if s[0] == 1)
    return None if ra is None or rb is None else ra + rb


def word_class_key(u, v):
    """Equivalence-class key of the moment at cell (u, v).

    The moment of w and of its adjoint have equal real part, so the key
    identifies w with reversed(w); None marks a structurally zero cell.
    """
    w = canonical_word(tuple(reversed(u)) + v)
    return None if w is None else min(w, canonical_word(tuple(reversed(w))))


@dataclass(frozen=True)
class NpaTemplate:
    """Word index, equivalence classes and the CG identification map.
    :func:`build_npa_block` shares one template between every program of
    its scenario and level, so a template is read-only: tuples, and a
    layout that is only read."""

    scenario: tuple          # (mA, nA, mB, nB)
    level: int
    words: tuple
    classes: tuple           # per class, its cells (i, j), i <= j
    zero_cells: tuple
    layout: CgLayout
    cg_class: tuple          # cg index -> class index
    cg_cells: tuple          # cg index -> representative cell

    @property
    def size(self) -> int:
        return len(self.words)

    def class_matrix(self, values: dict) -> np.ndarray:
        """The symmetric matrix with ``values[ci]`` on every cell of class
        ci and its transpose, 0 elsewhere: its classes share their values
        exactly.  ``{ci: 1.0}`` is class ci's indicator E, and tr(E Gamma)
        sums the class's entries."""
        gamma = np.zeros((self.size, self.size))
        for ci, value in values.items():
            i, j = zip(*self.classes[ci])
            gamma[i, j] = gamma[j, i] = value
        return gamma

    def add_structure_rows(self, prog: ConicProgram, name: str,
                           normalization: tuple) -> None:
        """Tying rows (a cell minus its class's first cell), zero cells,
        and the normalization row Gamma[0,0] = the scalar variable
        ``normalization``, a (family, index) pair."""
        for ci, cells in enumerate(self.classes):
            first = cell_functional(self.size, cells[0])
            for cell in cells[1:]:
                tie = cell_functional(self.size, cell) - first
                prog.add_scalar_row(("tie", name, ci, cell), 0.0, [("mat", name, 0, tie)])
        for cell in self.zero_cells:
            prog.add_scalar_row(("zero", name, cell), 0.0,
                                [("mat", name, 0, cell_functional(self.size, cell))])
        fam, idx = normalization
        prog.add_scalar_row(("gnorm", name), 0.0,
                            [("mat", name, 0, cell_functional(self.size, (0, 0))),
                             ("lin", fam, [idx], [-1.0])])


@lru_cache(maxsize=None)
def build_npa_block(scenario: tuple, level: int) -> NpaTemplate:
    """Word index + class structure for one scenario and level, built once
    per (scenario, level) and shared; ``__wrapped__`` builds a new one."""
    mA, nA, mB, nB = scenario
    if level not in (1, 2):
        raise ValidationError(f"unsupported level {level!r} (only 1 and 2)")
    syms = ([(0, x, a) for x in range(mA) for a in range(nA - 1)]
            + [(1, y, b) for y in range(mB) for b in range(nB - 1)])
    words = [()]
    for length in range(1, level + 1):
        # canonical products of ``length`` symbols, first-seen order; one
        # party's words before both parties'
        found = dict.fromkeys(map(canonical_word, itertools.product(syms, repeat=length)))
        words += sorted((w for w in found if w and len(w) == length),
                        key=lambda w: len({s[0] for s in w}))

    nw = len(words)
    classes: list = []
    key_index: dict = {}
    zero_cells = []
    for i in range(nw):
        for j in range(i, nw):
            key = word_class_key(words[i], words[j])
            if key is None:
                zero_cells.append((i, j))
                continue
            if key not in key_index:
                key_index[key] = len(classes)
                classes.append([])
            classes[key_index[key]].append((i, j))

    layout = CgLayout(mA, nA, mB, nB)
    cg_class, cg_cells = [], []
    for parts in layout.parts:
        # one symbol (party, x, a) per party whose local part is not ()
        word = tuple((p, *part) for p, part in enumerate(parts) if part)
        ci = key_index[word_class_key((), word)]
        cg_class.append(ci)
        cg_cells.append(classes[ci][0])

    return NpaTemplate(scenario=tuple(scenario), level=level, words=tuple(words),
                       classes=tuple(map(tuple, classes)), zero_cells=tuple(zero_cells),
                       layout=layout, cg_class=tuple(cg_class), cg_cells=tuple(cg_cells))


def cell_functional(size: int, cell) -> np.ndarray:
    """Symmetric C with tr(C Gamma) = Gamma[cell]."""
    i, j = cell
    c = np.zeros((size, size))
    c[i, j] += 0.5
    c[j, i] += 0.5
    return c


@dataclass
class MomentMatrix:
    """A completed moment matrix, its class values assigned to their cells
    (:meth:`NpaTemplate.class_matrix`): class sharing is exact."""

    template: NpaTemplate
    gamma: np.ndarray
    normalization: float


@dataclass
class BellFunctional:
    """Separating functional from an infeasible membership query.

    ``coefficients`` act on the full table; every behaviour inside the
    level satisfies  value >= 0  and the queried one sits at -violation.
    """

    coefficients: np.ndarray
    level: int
    violation: float

    def evaluate(self, table: np.ndarray) -> float:
        return float(np.sum(self.coefficients * table))


@dataclass
class NpaDecision:
    feasible: bool
    margin: float
    moment_matrix: MomentMatrix | None = None
    functional: BellFunctional | None = None


def npa_membership(behaviour, level: int = 2) -> NpaDecision:
    """Margin test of membership in the level-``level`` relaxation.

    Solved in dualized form: minimize <F0(P), X> over X >= 0, tr X = 1,
    <E_free, X> = 0.  The optimum is the largest w with Gamma(z) - w*I
    PSD for some completion z, so its sign decides membership and the
    optimal X yields the separating functional.  The moment matrix holds
    the behaviour's CG values on the pinned classes and minus the dual of
    its row on each free class.
    """
    behaviour.require_no_signalling()
    tmpl = build_npa_block(
        (behaviour.mA, behaviour.nA, behaviour.mB, behaviour.nB), level)
    pinned = dict(zip(tmpl.cg_class, tmpl.layout.of_table(behaviour.table)))
    free = [ci for ci in range(len(tmpl.classes)) if ci not in pinned]

    prog = ConicProgram(f"npa_membership:l{tmpl.level}")
    prog.add_psd_family("X", 1, tmpl.size)
    for ci in free:
        prog.add_scalar_row(("freeclass", ci), 0.0,
                            [("mat", "X", 0, tmpl.class_matrix({ci: 1.0}))])
    prog.add_scalar_row(("trace",), 1.0, [("tr", "X", [0], 1.0)])
    prog.set_objective([("mat", "X", 0, tmpl.class_matrix(pinned))])
    sol = solve(prog)
    margin = sol.value
    if margin >= -MEMBERSHIP_TOL:
        gamma = tmpl.class_matrix(
            {**pinned, **{ci: -sol.dual_rows[("freeclass", ci)] for ci in free}})
        mm = MomentMatrix(template=tmpl, gamma=gamma,
                          normalization=float(gamma[0, 0]))
        return NpaDecision(True, margin, moment_matrix=mm)
    x = sol.primal["X"][0]
    coeffs_cg = np.array([np.sum(tmpl.class_matrix({ci: 1.0}) * x) for ci in pinned])
    func = BellFunctional(
        coefficients=tmpl.layout.functional_to_table(coeffs_cg),
        level=tmpl.level, violation=-margin)
    return NpaDecision(False, margin, functional=func)


def npa_optimize(coefficients, scenario, level: int = 2):
    """Upper bound on the quantum value of a full-table Bell functional.

    Solved in hand-dualized form, with g the functional summed per
    class and E_ci the class indicators: minimize <E_idc, X> over X >= 0
    with <E_ci, X> = -g_ci on every class but the identity class idc.
    The bound is its value plus g_idc; the dual, the moment matrix
    E_idc + sum_ci z_ci E_ci with z_ci minus the dual of class ci's row,
    maximizes g_idc + sum_ci g_ci z_ci over the relaxation.

    Returns (value, MomentMatrix); the matrix is the relaxation's
    optimizer, assembled from class values: minus the dual of each
    class's row, and 1 on the identity class.
    """
    tmpl = build_npa_block(tuple(scenario), level)
    coeffs = np.asarray(coefficients, dtype=float)
    mA, nA, mB, nB = scenario
    if coeffs.shape != (mA, mB, nA, nB):
        raise ValueError(f"coefficients must be shaped {(mA, mB, nA, nB)}")
    _require_finite(coeffs, "coefficients")
    # express the functional on CG coordinates: g' cg(table) = sum B*table
    T = tmpl.layout.table_matrix()
    g = T.T @ coeffs.ravel()

    idc = tmpl.cg_class[0]
    others = [ci for ci in range(len(tmpl.classes)) if ci != idc]
    prog = ConicProgram(f"npa_optimize:l{level}")
    prog.add_psd_family("X", 1, tmpl.size)
    gclass = np.zeros(len(tmpl.classes))
    np.add.at(gclass, list(tmpl.cg_class), g)
    for ci in others:
        prog.add_scalar_row(("class", ci), -gclass[ci],
                            [("mat", "X", 0, tmpl.class_matrix({ci: 1.0}))])
    prog.set_objective([("mat", "X", 0, tmpl.class_matrix({idc: 1.0}))])
    sol = solve(prog)
    z = {ci: -sol.dual_rows[("class", ci)] for ci in others}
    z[idc] = 1.0
    mm = MomentMatrix(template=tmpl, gamma=tmpl.class_matrix(z), normalization=1.0)
    return float(sol.value + gclass[idc]), mm
