"""Moment-matrix outer approximations of the quantum behaviour set.

Levels 1 and 2 of the hierarchy of moment-matrix relaxations: words are
the products of at most ``level`` measurement projectors (one outcome per
input dropped via completeness), canonicalized by party commutation,
idempotence and same-input orthogonality, and ordered by length, then
one party's words before both parties'; matrix cells whose words
coincide as operators share one scalar, and the template's class
indicators sum each class's cells.

Membership and optimization are solved in hand-dualized form so the
completed moment matrix is recovered from the solver's *dual slack*:
class sharing is then exact by construction and the matrix is exactly
PSD.  Quantifier programs that embed a scaled moment block instead add
the block as a primal variable with explicit tying rows and the
normalization Gamma[0,0] tied to the noise weight (see nonlocality).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cg import CgLayout
from .conic import ConicProgram, smat, svec
from .decomposition import solve
from .errors import ValidationError

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
    alice = tuple(s for s in word if s[0] == 0)
    bob = tuple(s for s in word if s[0] == 1)
    ra = _reduce_party(alice)
    if ra is None:
        return None
    rb = _reduce_party(bob)
    if rb is None:
        return None
    return ra + rb


def word_class_key(u, v):
    """Equivalence-class key of the moment at cell (u, v).

    The moment of w and of its adjoint have equal real part, so the key
    identifies w with reversed(w); None marks a structurally zero cell.
    """
    w = canonical_word(tuple(reversed(u)) + v)
    if w is None:
        return None
    wadj = canonical_word(tuple(reversed(w)))
    return min(w, wadj)


@dataclass(frozen=True)
class NpaTemplate:
    """Word index, equivalence classes, the CG identification map, the
    tie and zero rows, and the class indicators.  :func:`build_npa_block` shares one template between
    every program of its scenario and level, so a template is read-only:
    tuples and non-writeable arrays, and a layout that is only read."""

    scenario: tuple          # (mA, nA, mB, nB)
    level: int
    words: tuple
    classes: tuple           # per class, its cells (i, j), i <= j
    zero_cells: tuple
    layout: CgLayout
    cg_class: tuple          # cg index -> class index
    cg_cells: tuple          # cg index -> representative cell
    # the tie rows (a cell minus its class's first cell) and the zero
    # rows: each row's name less the block's, and its functional on the
    # block's svec coordinates, one row each
    row_names: tuple
    structure: np.ndarray
    # per class, the svec coordinates of its indicator (1 on each of its
    # cells and their transposes): tr(E Gamma) sums the class's entries
    indicators: np.ndarray

    @property
    def size(self) -> int:
        return len(self.words)

    def add_structure_rows(self, prog: ConicProgram, name: str,
                           normalization: tuple) -> None:
        """Tying rows (shared class entries), zero cells, and the
        normalization row Gamma[0,0] = the scalar variable
        ``normalization``, a (family, index) pair.  The tie and zero rows
        are the template's ``structure``, added as one touch."""
        prog.add_coordinate_rows([(kind, name, *rest) for kind, *rest in self.row_names],
                                 name, 0, self.structure)
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

    row_names, structure = [], []
    for ci, cells in enumerate(classes):
        for cell in cells[1:]:
            row_names.append(("tie", ci, cell))
            structure.append(svec(cell_functional(nw, cell)
                                  - cell_functional(nw, cells[0])))
    for cell in zero_cells:
        row_names.append(("zero", cell))
        structure.append(svec(cell_functional(nw, cell)))
    structure = np.array(structure, dtype=float).reshape(len(row_names), nw * (nw + 1) // 2)
    indicators = np.zeros((len(classes), nw * (nw + 1) // 2))
    for ci, cells in enumerate(classes):
        e = np.zeros((nw, nw))
        i, j = zip(*cells)
        e[i, j] = e[j, i] = 1.0
        indicators[ci] = svec(e)
    structure.flags.writeable = indicators.flags.writeable = False
    return NpaTemplate(scenario=tuple(scenario), level=level, words=tuple(words),
                       classes=tuple(map(tuple, classes)), zero_cells=tuple(zero_cells),
                       layout=layout, cg_class=tuple(cg_class), cg_cells=tuple(cg_cells),
                       row_names=tuple(row_names), structure=structure,
                       indicators=indicators)


def cell_functional(size: int, cell) -> np.ndarray:
    """Symmetric C with tr(C Gamma) = Gamma[cell]."""
    i, j = cell
    c = np.zeros((size, size))
    c[i, j] += 0.5
    c[j, i] += 0.5
    return c


@dataclass
class MomentMatrix:
    """A completed moment matrix with exact class sharing."""

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
    optimal X yields the separating functional.
    """
    behaviour.require_no_signalling()
    tmpl = build_npa_block(
        (behaviour.mA, behaviour.nA, behaviour.mB, behaviour.nB), level)
    cgvec = tmpl.layout.of_table(behaviour.table)
    pinned = tmpl.indicators[list(tmpl.cg_class)]
    free = [ci for ci in range(len(tmpl.classes)) if ci not in tmpl.cg_class]

    prog = ConicProgram(f"npa_membership:l{tmpl.level}")
    prog.add_psd_family("X", 1, tmpl.size)
    prog.add_coordinate_rows([("freeclass", ci) for ci in free], "X", 0,
                             tmpl.indicators[free])
    prog.add_scalar_row(("trace",), 1.0, [("tr", "X", [0], 1.0)])
    prog.set_objective([("mat", "X", 0, smat(cgvec @ pinned, tmpl.size))])
    sol = solve(prog)
    margin = sol.value
    if margin >= -MEMBERSHIP_TOL:
        gamma = sol.dual_slack["X"][0].real.copy()
        gamma += sol.dual_rows[("trace",)] * np.eye(tmpl.size)
        mm = MomentMatrix(template=tmpl, gamma=gamma,
                          normalization=float(gamma[0, 0]))
        return NpaDecision(True, margin, moment_matrix=mm)
    coeffs_cg = pinned @ svec(sol.primal["X"][0])
    func = BellFunctional(
        coefficients=tmpl.layout.functional_to_table(coeffs_cg),
        level=tmpl.level, violation=-margin)
    return NpaDecision(False, margin, functional=func)


def npa_optimize(coefficients, scenario, level: int = 2):
    """Upper bound on the quantum value of a full-table Bell functional.

    Returns (value, MomentMatrix); the matrix is the relaxation's
    optimizer, recovered exactly from the dual slack.
    """
    tmpl = build_npa_block(tuple(scenario), level)
    coeffs = np.asarray(coefficients, dtype=float)
    mA, nA, mB, nB = scenario
    if coeffs.shape != (mA, mB, nA, nB):
        raise ValueError(f"coefficients must be shaped {(mA, mB, nA, nB)}")
    # express the functional on CG coordinates: g' cg(table) = sum B*table
    T = tmpl.layout.table_matrix()
    g = T.T @ coeffs.ravel()

    idc = tmpl.cg_class[0]
    prog = ConicProgram(f"npa_optimize:l{level}")
    prog.add_psd_family("X", 1, tmpl.size)
    prog.add_free("w", 1)
    gclass = np.zeros(len(tmpl.classes))
    np.add.at(gclass, list(tmpl.cg_class), g)
    for ci, indicator in enumerate(tmpl.indicators):
        terms = [("mat", "X", 0, smat(indicator, tmpl.size))]
        if ci == idc:
            terms.append(("lin", "w", [0], [-1.0]))
        prog.add_scalar_row(("class", ci), -gclass[ci], terms)
    prog.set_objective([("lin", "w", [0], [1.0])])
    sol = solve(prog)
    z = np.array([-sol.dual_rows[("class", ci)] for ci in range(len(tmpl.classes))])
    z[idc] = 1.0
    gamma = smat(z @ tmpl.indicators, tmpl.size)
    mm = MomentMatrix(template=tmpl, gamma=gamma, normalization=1.0)
    return float(sol.value), mm
