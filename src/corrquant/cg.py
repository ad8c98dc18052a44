"""Collins-Gisin coordinates for bipartite behaviours.

A no-signalling behaviour is determined by the vector
[1, P(a|x) (a<nA-1), P(b|y) (b<nB-1), P(ab|xy) (a<nA-1, b<nB-1)], and
the full table is an affine function of it.  Local-polytope and
moment-matrix programs use these coordinates because the table's rows
are linearly dependent under no-signalling, which would make equality
constraint matrices rank deficient.

Each coordinate is the product of one local coordinate per party, so
every map here is a product of two per-party factors (:class:`_Party`),
each gathered at the coordinates' local indices.
"""

from __future__ import annotations

import numpy as np

from .scenario import strategy_assignments


class _Party:
    """One party's local coordinates ``[(), (x, a) for a < n-1]``, with
    ``()`` the identity.  For coordinate i, ``read[i]`` is the (m, n) cell
    functional that reads it, ``()`` at x = 0, and ``table[i]`` its share
    of the cells, the last outcome filled in by completeness."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.coords = [()] + [(x, a) for x in range(m) for a in range(n - 1)]
        k = len(self.coords)
        cells = np.eye(m * n).reshape(m, n, m, n)
        self.read = np.concatenate([cells[0].sum(axis=0)[None],
                                    cells[:, :-1].reshape(k - 1, m, n)])
        self.table = np.zeros((k, m, n))
        self.table[1:, :, :-1] = np.eye(k - 1).reshape(k - 1, m, n - 1)
        # completeness: each input's outcomes sum to the identity ()
        self.table[:, :, -1] = np.eye(k)[:, :1] - self.table.sum(axis=2)

    def strategies(self) -> np.ndarray:
        """Rows = local coordinates of the deterministic strategies."""
        onehot = np.eye(self.n)[strategy_assignments(self.m, self.n)]
        return np.einsum("lxa,ixa->li", onehot, self.read)


class CgLayout:
    """Index bookkeeping for one (mA, nA, mB, nB) scenario.

    ``parts[k]`` is the pair of local coordinates (Alice's, Bob's) of
    coordinate k, and ``coords[k]`` its label: ``()``, ``("A", x, a)``,
    ``("B", y, b)`` or ``("AB", x, a, y, b)``.
    """

    def __init__(self, mA: int, nA: int, mB: int, nB: int):
        self.mA, self.nA, self.mB, self.nB = mA, nA, mB, nB
        a, b = self._a, self._b = _Party(mA, nA), _Party(mB, nB)
        # sort by kind (0 = (), 1 = A, 2 = B, 3 = AB), then x, a, y, b
        order = sorted(((i > 0) + 2 * (j > 0), i, j)
                       for i, j in np.ndindex(len(a.coords), len(b.coords)))
        kind, self._i, self._j = np.array(order).T
        self.parts = [(a.coords[i], b.coords[j]) for _, i, j in order]
        self.coords = [((), ("A",), ("B",), ("AB",))[k] + ca + cb
                       for k, (ca, cb) in zip(kind, self.parts)]
        self.dim = len(self.coords)
        self.index = {c: i for i, c in enumerate(self.coords)}
        self._table = np.einsum("kxa,kyb->xyabk", a.table[self._i],
                                b.table[self._j]).reshape(-1, self.dim)
        self._table.flags.writeable = False

    def of_table(self, table: np.ndarray) -> np.ndarray:
        """CG vector of a table (mA, mB, nA, nB); marginals read at the
        other party's first input (exact for no-signalling tables)."""
        return np.einsum("kxa,xyab,kyb->k", self._a.read[self._i], table,
                         self._b.read[self._j])

    def table_matrix(self) -> np.ndarray:
        """Matrix T with  vec(table) = T @ cg  (inclusion-exclusion), built
        with the layout and read-only."""
        return self._table

    def table_of(self, cg: np.ndarray) -> np.ndarray:
        return (self.table_matrix() @ cg).reshape(
            self.mA, self.mB, self.nA, self.nB)

    def functional_to_table(self, coeffs_cg: np.ndarray) -> np.ndarray:
        """Full-table coefficients B with B.vec(table) = coeffs_cg.cg(table).

        Uses the same marginal reads as :meth:`of_table`, so the identity
        holds for every table (signalling or not).
        """
        return np.einsum("k,kxa,kyb->xyab", coeffs_cg, self._a.read[self._i],
                         self._b.read[self._j])


def strategy_cg_matrix(layout: CgLayout) -> np.ndarray:
    """Rows = CG vectors of the deterministic product strategies.

    Pair index p = mu * nB^mB + nu, matching the lexicographic strategy
    enumeration of each party.
    """
    S = np.einsum("mk,nk->mnk", layout._a.strategies()[:, layout._i],
                  layout._b.strategies()[:, layout._j])
    return S.reshape(-1, layout.dim)
