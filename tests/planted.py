"""Conic programs with a planted optimum, the conic layer's oracle.

``planted(seed)`` declares random families of every kind (one to three
2x2 Hermitian families, which the solver treats as one Lorentz cone
wherever they are declared, and at random a 3x3 Hermitian, a real PSD
family of size 2 to 4 and a nonnegative one, in random order), matrix
row groups of ``sum`` and ``scalar_mat`` terms and scalar rows of ``mat``
and ``lin`` terms, with one row that reads every block so none is
unbounded.  It then plants a strictly complementary pair: per block, X*
of random rank and S* of the complementary rank in one random
eigenbasis; per nonnegative scalar x* or s* positive and the other zero;
and a random y*.  With A from ``build()``, c = A^T y* + s* is set as the
objective and b = A x* is written on the program's shared structure
(``with_values``), so c x* is the optimal value: every feasible x has
c x = b y* + s* x >= b y* = c x*.
"""

import numpy as np

from corrquant.conic import ConicProgram


def _basis(rng, dim, complex_):
    g = rng.normal(size=(dim, dim))
    if complex_:
        g = g + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(g)[0]


def _hermitian(rng, dim, complex_):
    g = rng.normal(size=(dim, dim))
    if complex_:
        g = g + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def _declare(rng, prog):
    """The families, as (name, kind, count, dim), in declaration order."""
    matrix = [(f"L{k}", "herm", int(rng.integers(1, 4)), 2)
              for k in range(rng.integers(1, 4))]
    if rng.random() < 0.5:
        matrix.append(("H3", "herm", int(rng.integers(1, 3)), 3))
    if rng.random() < 0.5:
        matrix.append(("P", "psd", int(rng.integers(1, 3)), int(rng.integers(2, 5))))
    # the last matrix family to a random place, which may fall between the
    # 2x2 families
    order = list(range(len(matrix)))
    if len(matrix) > 2 and rng.random() < 0.5:
        tail = order.pop()
        order.insert(int(rng.integers(1, len(order))), tail)
    fams = [matrix[i] for i in order]
    if rng.random() < 0.7:
        fams.append(("z", "nonneg", int(rng.integers(1, 4)), 1))
    for name, kind, count, dim in fams:
        {"herm": lambda: prog.add_hermitian_family(name, count, dim),
         "psd": lambda: prog.add_psd_family(name, count, dim),
         "nonneg": lambda: prog.add_nonneg(name, count)}[kind]()
    return fams


def _rows(rng, prog, fams):
    scalars = [f for f in fams if f[1] == "nonneg"]
    for d in sorted({dim for _, kind, _, dim in fams if kind == "herm"}):
        herm = [f for f in fams if f[1] == "herm" and f[3] == d]
        for g in range(rng.integers(1, 3)):
            terms = []
            for name, _, count, _ in herm:
                if rng.random() < 0.7:
                    idx = rng.choice(count, size=rng.integers(1, count + 1), replace=False)
                    terms.append(("sum", name, idx, rng.uniform(0.5, 2.0, idx.size)))
                if rng.random() < 0.3:
                    # one block, which the list term may read too
                    terms.append(("sum", name, int(rng.integers(count)), rng.uniform(-1, 1)))
            for name, _, count, _ in scalars:
                if rng.random() < 0.5:
                    terms.append(("scalar_mat", name, int(rng.integers(count)),
                                  _hermitian(rng, d, True)))
            if terms:
                prog.add_matrix_row_group(("mat", d, g), np.zeros((d, d)), terms)
    for r in range(rng.integers(2, 6)):
        terms = []
        for name, kind, count, dim in fams:
            if rng.random() < 0.4:
                if kind in ("herm", "psd"):
                    terms.append(("mat", name, int(rng.integers(count)),
                                  _hermitian(rng, dim, kind == "herm")))
                else:
                    idx = rng.choice(count, size=rng.integers(1, count + 1), replace=False)
                    terms.append(("lin", name, idx, rng.normal(size=idx.size)))
        if terms:
            prog.add_scalar_row(("row", r), 0.0, terms)
    # a positive functional of every block, so no block's X is unbounded
    cover = []
    for name, kind, count, dim in fams:
        for i in range(count):
            if kind in ("herm", "psd"):
                g = _hermitian(rng, dim, kind == "herm")
                cover.append(("mat", name, i, g @ g.conj().T + np.eye(dim)))
            else:
                cover.append(("lin", name, [i], [rng.uniform(0.5, 2.0)]))
    prog.add_scalar_row(("cover",), 0.0, cover)


def _plant(rng, prog, fams):
    """(x*, s*) as column vectors, with X* and S* strictly complementary."""
    n = prog.build()[0].shape[1]
    x, s = np.zeros(n), np.zeros(n)
    for name, kind, count, dim in fams:
        fam = prog.families[name]
        sl = slice(fam.offset, fam.offset + fam.width)
        if kind in ("herm", "psd"):
            X, S = [], []
            for _ in range(count):
                q = _basis(rng, dim, kind == "herm")
                rank = int(rng.integers(0, dim + 1))
                lx = np.where(np.arange(dim) < rank, rng.uniform(0.5, 2.0, dim), 0.0)
                ls = np.where(np.arange(dim) < rank, 0.0, rng.uniform(0.5, 2.0, dim))
                X.append((q * lx) @ q.conj().T)
                S.append((q * ls) @ q.conj().T)
            x[sl], s[sl] = fam.coords(np.array(X)).ravel(), fam.coords(np.array(S)).ravel()
        else:
            on = rng.random(count) < 0.5
            x[sl] = np.where(on, rng.uniform(0.5, 2.0, count), 0.0)
            s[sl] = np.where(on, 0.0, rng.uniform(0.5, 2.0, count))
    return x, s


def planted(seed: int):
    """(program, x*): a program whose optimal value is c x* (module
    docstring), c its objective vector."""
    rng = np.random.default_rng(seed)
    prog = ConicProgram(f"planted:{seed}")
    fams = _declare(rng, prog)
    _rows(rng, prog, fams)
    x, s = _plant(rng, prog, fams)
    A = prog.build()[0]
    c = A.T @ rng.normal(size=A.shape[0]) + s
    objective = []
    for name, kind, count, _ in fams:
        fam = prog.families[name]
        if kind in ("herm", "psd"):
            part = fam.part(c)
            objective += [("mat", name, i, fam.mats(part[i])) for i in range(count)]
        else:
            objective.append(("lin", name, np.arange(count), fam.part(c)[:, 0]))
    prog.set_objective(objective)
    return prog.share().with_values(prog.name, A @ x, {}), x
