"""Block-structured conic programs and a self-contained interior-point solver.

Programs have the shape

    minimize    c'x
    subject to  A x = b,   x in K,

where K is a product of PSD blocks (real symmetric, or complex Hermitian
embedded as real symmetric of doubled size), nonnegative scalars, and
free scalars (split internally into differences of nonnegatives).

The solver is a homogeneous self-dual (HSD) primal-dual path-following
method with Nesterov-Todd scaling and a Mehrotra predictor-corrector.  It
reports primal-dual solutions with certified gaps, or an improving ray
when the program is infeasible.

Variables are declared as *families* (a batch of identically sized
blocks), and equality constraints as *row groups*: either a matrix
group, which equates a Hermitian-valued linear expression to a Hermitian
right-hand side (d*d real rows), or a single scalar row.  Dual
multipliers are reported per row group, reassembled into Hermitian
matrices for matrix groups.

Each iteration factors the dense Schur complement As Phi As^T (Phi is
the NT scaling), assembled family by family.  Hermitian blocks enter rows
only through the d*d basis functionals K, and the row builders record
which rows each block touches with which weight; a Hermitian family's
term is then one T_i = K Phi_i K^T per block, summed against those
weights (after Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997).  Real
PSD blocks (NPA moment matrices) use their dense columns of As, and LP
and free scalars a sparse diagonal product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve

from .errors import SolverFailure
from .operators import hermitize

_STEP_FRACTION = 0.99


# ---------------------------------------------------------------------------
# symmetric vectorization helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _svec_index(s: int):
    """Upper-triangle indices and isometric scale of svec for size ``s``."""
    iu, ju = np.triu_indices(s)
    scale = np.where(iu == ju, 1.0, np.sqrt(2.0))
    for arr in (iu, ju, scale):
        arr.flags.writeable = False
    return iu, ju, scale


def svec(mat: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a real symmetric matrix (batched ok)."""
    iu, ju, scale = _svec_index(mat.shape[-1])
    return mat[..., iu, ju] * scale


def smat(vec: np.ndarray, s: int) -> np.ndarray:
    """Inverse of :func:`svec`; supports a leading batch axis."""
    iu, ju, scale = _svec_index(s)
    out = np.zeros(vec.shape[:-1] + (s, s))
    out[..., iu, ju] = vec / scale
    out[..., ju, iu] = out[..., iu, ju]
    return out


def embed_hermitian(mat: np.ndarray) -> np.ndarray:
    """Real-symmetric embedding [[Re, -Im], [Im, Re]] of a Hermitian matrix."""
    re, im = mat.real, mat.imag
    return np.block([[re, -im], [im, re]])


def unembed_hermitian(sym: np.ndarray) -> np.ndarray:
    """Recover a Hermitian matrix from its (possibly unstructured) embedding.

    Averages over the embedding symmetry; exact for structured input.
    Accepts a stack ``(..., 2d, 2d)``.
    """
    d = sym.shape[-1] // 2
    re = (sym[..., :d, :d] + sym[..., d:, d:]) / 2
    im = (sym[..., d:, :d] - sym[..., :d, d:]) / 2
    re = (re + re.swapaxes(-1, -2)) / 2
    im = (im - im.swapaxes(-1, -2)) / 2
    return re + 1j * im


def hermitian_coords(mat: np.ndarray, d: int) -> np.ndarray:
    """Real coordinates tr(F_k M) in the orthonormal Hermitian basis.

    Basis order: diagonal units, then (E_ij+E_ji)/sqrt2, then
    i(E_ij-E_ji)/sqrt2 for i<j row-major.
    """
    iu, ju = np.triu_indices(d, k=1)
    diag = mat[np.arange(d), np.arange(d)].real
    re = np.sqrt(2.0) * mat[iu, ju].real
    im = np.sqrt(2.0) * mat[iu, ju].imag
    return np.concatenate([diag, re, im])


def hermitian_from_coords(coords: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_coords`."""
    iu, ju = np.triu_indices(d, k=1)
    noff = iu.size
    mat = np.zeros((d, d), dtype=complex)
    mat[np.arange(d), np.arange(d)] = coords[:d]
    off = (coords[d:d + noff] + 1j * coords[d + noff:]) / np.sqrt(2.0)
    mat[iu, ju] = off
    mat[ju, iu] = off.conj()
    return mat


@lru_cache(maxsize=None)
def herm_row_basis(d: int) -> np.ndarray:
    """K[k] = svec(embed(F_k))/2: coefficients of the k-th Hermitian
    functional on the embedded svec coordinates of a block."""
    basis = np.array([svec(embed_hermitian(hermitian_from_coords(e, d)))
                      for e in np.eye(d * d)]) / 2
    basis.flags.writeable = False
    return basis


# ---------------------------------------------------------------------------
# program description
# ---------------------------------------------------------------------------

@dataclass
class _Family:
    name: str
    kind: str          # 'herm' | 'psd' | 'nonneg' | 'free'
    count: int
    dim: int           # matrix dimension (1 for scalar kinds)
    offset: int = -1   # filled when offsets are frozen
    # 'herm' only: key -> (rows, functional, weights); see touch()
    touches: dict = field(default_factory=dict, repr=False)

    @property
    def block_size(self) -> int:
        if self.kind == "herm":
            return 2 * self.dim
        if self.kind == "psd":
            return self.dim
        return 0

    @property
    def svec_dim(self) -> int:
        s = self.block_size
        return s * (s + 1) // 2

    @property
    def width(self) -> int:
        if self.kind in ("herm", "psd"):
            return self.count * self.svec_dim
        if self.kind == "free":
            return 2 * self.count
        return self.count

    def touch(self, key, rows, functional, indices, weight) -> None:
        """Record that ``weight * X_i``, i in ``indices``, enters ``rows``
        through ``functional`` (len(rows) x dim^2, on Hermitian-basis
        coordinates).  Touches with one ``key`` add their weights."""
        if key not in self.touches:
            self.touches[key] = (np.asarray(rows), functional, np.zeros(self.count))
        np.add.at(self.touches[key][2], indices, weight)

    def structure(self):
        """(rows, P, U) with this family's columns of A, block i, equal to
        ``P @ kron(U[:, i], I) @ herm_row_basis(dim)`` on ``rows``."""
        d2, touches = self.dim * self.dim, list(self.touches.values())
        urows = np.unique([r for rows, _, _ in touches for r in rows])
        P = np.zeros((urows.size, len(touches) * d2))
        for t, (rows, functional, _) in enumerate(touches):
            P[np.searchsorted(urows, rows), t * d2:(t + 1) * d2] += functional
        U = np.array([w for _, _, w in touches]).reshape(-1, self.count)
        return urows.astype(np.int64), P, U


@dataclass
class _RowGroup:
    name: tuple
    kind: str          # 'mat' | 'scalar'
    dim: int
    offset: int
    nrows: int


class ConicProgram:
    """Incrementally built conic program.

    Declare all variable families first; the first row or objective
    coefficient freezes the variable layout.
    """

    def __init__(self, name: str = "", variable_cap: int = 4_000_000):
        self.name = name
        self.variable_cap = variable_cap
        self._families: dict[str, _Family] = {}
        self._rows: list[_RowGroup] = []
        self._ai: list[np.ndarray] = []
        self._aj: list[np.ndarray] = []
        self._av: list[np.ndarray] = []
        self._b: list[float] = []
        self._nrows = 0
        self._cj: list[np.ndarray] = []
        self._cv: list[np.ndarray] = []
        self.objective_constant = 0.0
        self._frozen = False

    # ---- variables --------------------------------------------------------

    def _add_family(self, name, kind, count, dim):
        if self._frozen:
            raise RuntimeError("cannot add variables after rows were added")
        if name in self._families:
            raise ValueError(f"duplicate family {name!r}")
        self._families[name] = _Family(name, kind, int(count), int(dim))
        return name

    def add_hermitian_family(self, name: str, count: int, dim: int) -> str:
        """``count`` complex Hermitian PSD blocks of dimension ``dim``."""
        return self._add_family(name, "herm", count, dim)

    def add_psd_family(self, name: str, count: int, dim: int) -> str:
        """``count`` real symmetric PSD blocks of dimension ``dim``."""
        return self._add_family(name, "psd", count, dim)

    def add_nonneg(self, name: str, count: int = 1) -> str:
        return self._add_family(name, "nonneg", count, 1)

    def add_free(self, name: str, count: int = 1) -> str:
        return self._add_family(name, "free", count, 1)

    def _freeze(self):
        if self._frozen:
            return
        offset = 0
        for fam in self._families.values():
            if fam.kind in ("herm", "psd"):
                fam.offset = offset
                offset += fam.width
        for fam in self._families.values():
            if fam.kind in ("nonneg", "free"):
                fam.offset = offset
                offset += fam.width
        self._ncols = offset
        if offset > self.variable_cap:
            raise SolverFailure(
                f"variable dimension {offset} exceeds cap {self.variable_cap}",
                program=self)
        self._frozen = True

    # ---- coefficient expansion ---------------------------------------------

    def _fam(self, name) -> _Family:
        return self._families[name]

    def _emit(self, rows, cols, vals):
        self._ai.append(np.asarray(rows, dtype=np.int64))
        self._aj.append(np.asarray(cols, dtype=np.int64))
        self._av.append(np.asarray(vals, dtype=float))

    def _scalar_cols_vals(self, fam: _Family, indices, coeffs):
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        coeffs = np.broadcast_to(np.asarray(coeffs, dtype=float), indices.shape)
        if fam.kind == "nonneg":
            return fam.offset + indices, np.asarray(coeffs)
        if fam.kind == "free":
            cols = np.concatenate([fam.offset + indices,
                                   fam.offset + fam.count + indices])
            vals = np.concatenate([coeffs, -coeffs])
            return cols, vals
        raise ValueError(f"family {fam.name!r} is not scalar")

    def _mat_functional(self, fam: _Family, cmat) -> np.ndarray:
        """svec-coefficients of X -> tr(C X) on one block of ``fam``."""
        if fam.kind == "herm":
            return svec(embed_hermitian(hermitize(np.asarray(cmat, dtype=complex)))) / 2
        if fam.kind == "psd":
            c = np.asarray(cmat, dtype=float)
            return svec((c + c.T) / 2)
        raise ValueError(f"family {fam.name!r} is not a matrix family")

    def _expand_scalar_terms(self, row, terms, emit):
        for term in terms:
            tag, fam = term[0], self._fam(term[1])
            if tag == "lin":
                emit(row, *self._scalar_cols_vals(fam, term[2], term[3]))
                continue
            weight = 1.0
            if tag == "mat":
                _, _, indices, cmat = term
            elif tag == "tr":
                _, _, indices, weight = term
                cmat = np.eye(fam.dim)
            elif tag == "entry":
                _, _, indices, (i, j) = term
                cmat = np.zeros((fam.dim, fam.dim))
                cmat[i, j] += 0.5
                cmat[j, i] += 0.5
            else:
                raise ValueError(f"unknown scalar term {tag!r}")
            indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
            fvec = self._mat_functional(fam, cmat) * weight
            nz = np.nonzero(fvec)[0]
            cols = (fam.offset + indices[:, None] * fam.svec_dim
                    + nz[None, :]).ravel()
            emit(row, cols, np.tile(fvec[nz], indices.size))
            if row is not None and fam.kind == "herm":
                coords = hermitian_coords(
                    hermitize(np.asarray(cmat, dtype=complex)), fam.dim)
                fam.touch((row, coords.tobytes()), [row], coords[None],
                          indices, weight)

    # ---- rows ----------------------------------------------------------------

    def add_scalar_row(self, name: tuple, rhs: float, terms) -> None:
        """One equality row.  Term grammar:

        ("lin", family, indices, coeffs)  -> sum coeffs*z_i
        ("mat", family, index, C)         -> tr(C X_index)
        ("tr",  family, indices, weight)  -> weight * sum tr X_i
        ("entry", family, index, (i, j))  -> symmetric entry X[i,j]
        """
        self._freeze()
        row = self._nrows
        self._expand_scalar_terms(
            row, terms,
            lambda r, cols, vals: self._emit(np.full(cols.shape, r), cols, vals))
        self._b.append(float(rhs))
        self._rows.append(_RowGroup(tuple(name), "scalar", 1, row, 1))
        self._nrows += 1

    def add_matrix_row_group(self, name: tuple, rhs, terms) -> None:
        """Equate a Hermitian-valued expression to Hermitian ``rhs``.

        Term grammar:
        ("sum", family, indices, weight)  -> weight * sum_{i in indices} X_i
        ("one", family, index, weight)    -> weight * X_index
        ("scalar_mat", family, index, C)  -> z_index * C

        Expands into d*d real rows in the orthonormal Hermitian basis.
        """
        self._freeze()
        rhs = hermitize(np.asarray(rhs, dtype=complex))
        d = rhs.shape[0]
        nr = d * d
        row0 = self._nrows
        kbasis = herm_row_basis(d)
        rows_arange = row0 + np.arange(nr)
        for term in terms:
            tag = term[0]
            if tag in ("sum", "one"):
                if tag == "one":
                    _, famname, index, weight = term
                    indices = np.array([index], dtype=np.int64)
                else:
                    _, famname, indices, weight = term
                    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
                fam = self._fam(famname)
                if fam.kind != "herm" or fam.dim != d:
                    raise ValueError(
                        f"family {famname!r} incompatible with {d}x{d} matrix row")
                rk, ck = np.nonzero(kbasis)
                vals = kbasis[rk, ck] * weight
                cols = (fam.offset + indices[:, None] * fam.svec_dim
                        + ck[None, :]).ravel()
                rows = np.tile(rows_arange[rk], indices.size)
                self._emit(rows, cols, np.tile(vals, indices.size))
                fam.touch(row0, rows_arange, np.eye(nr), indices, weight)
            elif tag == "scalar_mat":
                _, famname, index, cmat = term
                coords = hermitian_coords(
                    hermitize(np.asarray(cmat, dtype=complex)), d)
                fam = self._fam(famname)
                for k in np.nonzero(np.abs(coords) > 0)[0]:
                    cols, vals = self._scalar_cols_vals(fam, index, coords[k])
                    self._emit(np.full(cols.shape, row0 + k), cols, vals)
            else:
                raise ValueError(f"unknown matrix term {tag!r}")
        self._b.extend(hermitian_coords(rhs, d))
        self._rows.append(_RowGroup(tuple(name), "mat", d, row0, nr))
        self._nrows += nr

    def set_objective(self, terms, constant: float = 0.0) -> None:
        """Linear objective (minimized); same term grammar as scalar rows."""
        self._freeze()

        def emit(_r, cols, vals):
            self._cj.append(cols)
            self._cv.append(vals)

        self._expand_scalar_terms(None, terms, emit)
        self.objective_constant = float(constant)

    # ---- assembled data ------------------------------------------------------

    @property
    def families(self):
        return dict(self._families)

    @property
    def row_groups(self):
        return list(self._rows)

    def build(self):
        """Assemble (A, b, c, psd_families, lp_width)."""
        self._freeze()
        nrows, ncols = self._nrows, self._ncols
        ai = np.concatenate(self._ai) if self._ai else np.zeros(0, dtype=np.int64)
        aj = np.concatenate(self._aj) if self._aj else np.zeros(0, dtype=np.int64)
        av = np.concatenate(self._av) if self._av else np.zeros(0)
        A = sp.csr_matrix((av, (ai, aj)), shape=(nrows, ncols))
        A.sum_duplicates()
        b = np.asarray(self._b, dtype=float)
        c = np.zeros(ncols)
        if self._cj:
            np.add.at(c, np.concatenate(self._cj), np.concatenate(self._cv))
        psd_fams = [f for f in self._families.values() if f.kind in ("herm", "psd")]
        lp_width = sum(f.width for f in self._families.values()
                       if f.kind in ("nonneg", "free"))
        return A, b, c, psd_fams, lp_width

    def dump_triplets(self) -> str:
        """Sparse-triplet dump: '# header', then 'A i j v' / 'b i v' / 'c j v'."""
        A, b, c, _, _ = self.build()
        lines = [f"# conic program {self.name!r}: {A.shape[0]} rows, {A.shape[1]} cols"]
        for fam in self._families.values():
            lines.append(
                f"# family {fam.name} kind={fam.kind} count={fam.count} "
                f"dim={fam.dim} offset={fam.offset} width={fam.width}")
        for g in self._rows:
            lines.append(f"# rows {g.name} kind={g.kind} offset={g.offset} n={g.nrows}")
        coo = A.tocoo()
        for i, j, v in zip(coo.row, coo.col, coo.data):
            lines.append(f"A {i} {j} {float(v)!r}")
        for i, v in enumerate(b):
            if v != 0.0:
                lines.append(f"b {i} {float(v)!r}")
        for j in np.nonzero(c)[0]:
            lines.append(f"c {j} {float(c[j])!r}")
        return "\n".join(lines) + "\n"

    def row_rank_deficiency(self) -> int:
        """Rows minus numerical rank of A (diagnostic; dense, small programs)."""
        A = self.build()[0].toarray()
        return A.shape[0] - np.linalg.matrix_rank(A)

    def solve(self, feastol: float = 1e-8, gaptol: float = 1e-8,
              maxiter: int = 200, verbose: bool = False,
              on_failure: str = "raise") -> "ConicSolution":
        """Run the interior-point solver.

        ``on_failure`` controls the iteration-limit/stall path: "raise"
        (default) raises SolverFailure carrying the program and residual
        report; "return" yields a ConicSolution with status
        "numerical-failure" and the report attached.
        """
        try:
            return _solve_hsd(self, feastol=feastol, gaptol=gaptol,
                              maxiter=maxiter, verbose=verbose)
        except SolverFailure as exc:
            if on_failure == "return":
                sol = ConicSolution(status="numerical-failure")
                sol.report = exc.report
                return sol
            raise


# ---------------------------------------------------------------------------
# solutions and verification
# ---------------------------------------------------------------------------

@dataclass
class ConicSolution:
    status: str                      # optimal | infeasible | unbounded | numerical-failure
    primal: dict = field(default_factory=dict)      # family -> ndarray
    dual_rows: dict = field(default_factory=dict)   # row-group name -> matrix/float
    dual_slack: dict = field(default_factory=dict)  # family -> ndarray
    pobj: float = np.nan
    dobj: float = np.nan
    gap: float = np.nan
    pres: float = np.nan
    dres: float = np.nan
    iterations: int = 0
    ray: dict | None = None          # infeasibility certificate, dual_rows style
    ray_violation: float = np.nan

    @property
    def value(self) -> float:
        return self.pobj


@dataclass
class ResidualReport:
    eq_residual: float
    cone_margin: float      # most negative primal PSD/LP margin
    dual_margin: float      # most negative dual-slack margin
    gap: float
    ray_residual: float = np.nan
    ray_violation: float = np.nan

    def ok(self, feastol: float = 1e-8, gaptol: float = 1e-8) -> bool:
        return (self.eq_residual <= 100 * feastol
                and self.cone_margin >= -1e-9
                and self.gap <= 100 * gaptol)


def _block_margins(prog, blocks):
    margin = np.inf
    for fam in prog.families.values():
        if fam.name not in blocks:
            continue
        blk = blocks[fam.name]
        if fam.kind in ("herm", "psd"):
            arr = np.asarray(blk, dtype=complex)
            for i in range(fam.count):
                margin = min(margin, float(np.linalg.eigvalsh(
                    hermitize(arr[i]))[0]))
        elif fam.kind == "nonneg":
            if np.size(blk):
                margin = min(margin, float(np.min(blk)))
    return margin


def verify_solution(prog: ConicProgram, sol: ConicSolution) -> ResidualReport:
    """Recompute residuals and cone margins independent of solver internals."""
    A, b, c, _, _ = prog.build()
    if sol.status in ("infeasible", "unbounded"):
        if sol.status == "infeasible" and sol.ray is not None:
            # min ||A'y + s|| over s in the (self-dual) cone: the distance of
            # -A'y from it, per block by eigenvalues, per scalar by sign
            z = -(A.T @ _duals_to_vec(prog, sol.ray))
            res = 0.0
            for fam in prog.families.values():
                blk = z[fam.offset:fam.offset + fam.width]
                if fam.kind in ("herm", "psd"):
                    blk = np.linalg.eigvalsh(smat(
                        blk.reshape(fam.count, fam.svec_dim), fam.block_size))
                res += float(np.sum(np.minimum(blk, 0) ** 2))
            return ResidualReport(np.nan, np.nan, np.nan, np.nan,
                                  ray_residual=float(np.sqrt(res)),
                                  ray_violation=sol.ray_violation)
        return ResidualReport(np.nan, np.nan, np.nan, np.nan,
                              ray_violation=sol.ray_violation)
    x = _primal_to_vec(prog, sol.primal)
    eq = float(np.max(np.abs(A @ x - b))) if b.size else 0.0
    margin = _block_margins(prog, sol.primal)
    dmargin = _block_margins(prog, sol.dual_slack)
    gap = abs(sol.pobj - sol.dobj) / (1 + abs(sol.pobj) + abs(sol.dobj))
    return ResidualReport(eq, float(margin), float(dmargin), float(gap))


def _primal_to_vec(prog: ConicProgram, primal: dict) -> np.ndarray:
    prog._freeze()
    x = np.zeros(prog._ncols)
    for fam in prog.families.values():
        blk = primal[fam.name]
        if fam.kind == "herm":
            emb = np.array([svec(embed_hermitian(np.asarray(m, dtype=complex)))
                            for m in blk])
            x[fam.offset:fam.offset + fam.width] = emb.ravel()
        elif fam.kind == "psd":
            x[fam.offset:fam.offset + fam.width] = svec(
                np.asarray(blk, dtype=float)).ravel()
        elif fam.kind == "nonneg":
            x[fam.offset:fam.offset + fam.count] = blk
        else:
            z = np.asarray(blk, dtype=float)
            x[fam.offset:fam.offset + fam.count] = np.maximum(z, 0)
            x[fam.offset + fam.count:fam.offset + 2 * fam.count] = np.maximum(-z, 0)
    return x


def _duals_to_vec(prog: ConicProgram, duals: dict) -> np.ndarray:
    y = np.zeros(prog._nrows)
    for g in prog.row_groups:
        val = duals[g.name]
        if g.kind == "mat":
            y[g.offset:g.offset + g.nrows] = hermitian_coords(
                np.asarray(val, dtype=complex), g.dim)
        else:
            y[g.offset] = val
    return y


# ---------------------------------------------------------------------------
# HSD interior-point core
# ---------------------------------------------------------------------------

class _PsdGroup:
    """Batched view of one PSD family inside the flat variable vector,
    with the data its term of the Schur complement As Phi As^T needs."""

    def __init__(self, fam: _Family, As, drow):
        self.fam = fam
        self.s = fam.block_size
        self.sd = fam.svec_dim
        self.count = fam.count
        self.sl = slice(fam.offset, fam.offset + fam.width)
        if fam.kind == "herm":
            self.rows, P, self.U = fam.structure()
            self.P = P / drow[self.rows, None]
            self.kmats = smat(herm_row_basis(fam.dim), self.s).reshape(-1, self.s)
        else:   # real PSD blocks: their dense columns on the rows they touch
            cols = As[:, self.sl]
            self.rows = np.unique(cols.nonzero()[0])
            self.A = cols[self.rows].toarray()

    def schur(self, G: np.ndarray) -> np.ndarray:
        """This family's block of As Phi As^T on ``self.rows``, where Phi
        maps block i by Z -> G[i] Z G[i]."""
        if self.fam.kind == "psd":
            Z = smat(self.A.reshape(len(self.rows), self.count, self.sd), self.s)
            phia = svec(G @ Z @ G).reshape(len(self.rows), -1)
            return self.A @ phia.T
        # T_i[k, q] = tr(B_k G_i B_q G_i) = (K Phi_i K^T)[k, q], kmats = (B_k)
        d2, s = self.fam.dim ** 2, self.s
        BG = np.matmul(self.kmats, G).reshape(-1, d2, s, s)
        T = (BG.reshape(-1, d2, s * s)
             @ BG.transpose(0, 3, 2, 1).reshape(-1, s * s, d2)).reshape(-1, d2 * d2)
        # S[t, t'] = sum_i U[t, i] U[t', i] T_i, symmetric in (t, t')
        nt = self.U.shape[0]
        S = np.empty((nt, nt, d2 * d2))
        for t in range(nt):
            S[t, t:] = (self.U[t:] * self.U[t]) @ T
            S[t:, t] = S[t, t:]
        S = S.reshape(nt, nt, d2, d2).transpose(0, 2, 1, 3).reshape(nt * d2, nt * d2)
        return self.P @ S @ self.P.T

    def mats(self, x: np.ndarray) -> np.ndarray:
        return smat(x[self.sl].reshape(self.count, self.sd), self.s)

    def put(self, x: np.ndarray, mats: np.ndarray) -> None:
        x[self.sl] = svec(mats).reshape(-1)


class _Scaling:
    """Nesterov-Todd scaling state for one iterate."""

    def __init__(self, groups, lp_slice, x, s):
        self.groups = groups
        self.lp = lp_slice
        self.R, self.Rinv, self.G, self.lam = [], [], [], []
        for g in groups:
            X = g.mats(x)
            S = g.mats(s)
            Lx = np.linalg.cholesky(X)
            Ls = np.linalg.cholesky(S)
            M = np.einsum("bji,bjk->bik", Ls, Lx)          # Ls^T Lx
            U, sig, Vt = np.linalg.svd(M)
            R = np.einsum("bij,bkj,bk->bik", Lx, Vt, 1.0 / np.sqrt(sig))
            Rinv = np.einsum("bi,bji,bkj->bik", 1.0 / np.sqrt(sig), U, Ls)
            self.R.append(R)
            self.Rinv.append(Rinv)
            self.G.append(np.einsum("bij,bkj->bik", R, R))
            self.lam.append(sig)
        xl, sl_ = x[lp_slice], s[lp_slice]
        self.w_lp = np.sqrt(xl / sl_)
        self.lam_lp = np.sqrt(xl * sl_)

    def scale_x(self, gi, mats):
        Ri = self.Rinv[gi]
        return Ri @ mats @ Ri.transpose(0, 2, 1)

    def scale_s(self, gi, mats):
        R = self.R[gi]
        return R.transpose(0, 2, 1) @ mats @ R

    def unscale_x(self, gi, mats):
        R = self.R[gi]
        return R @ mats @ R.transpose(0, 2, 1)

    def phi(self, vec):
        """Apply Phi = W W^T to a flat vector."""
        res = np.zeros_like(vec)
        for gi, g in enumerate(self.groups):
            Z = g.mats(vec)
            Gm = self.G[gi]
            g.put(res, Gm @ Z @ Gm)
        res[self.lp] = vec[self.lp] * self.w_lp ** 2
        return res

    def w_apply(self, scaled_mats, lp_scaled, n):
        """Map scaled-space quantities to a flat x-space vector (apply W)."""
        out = np.zeros(n)
        for gi, g in enumerate(self.groups):
            g.put(out, self.unscale_x(gi, scaled_mats[gi]))
        out[self.lp] = lp_scaled * self.w_lp
        return out

    def max_step(self, dmats_scaled, dlp_scaled):
        """Largest alpha keeping lambda + alpha*d in the cone (scaled space)."""
        alpha = np.inf
        for gi in range(len(self.groups)):
            lam = self.lam[gi]
            d = dmats_scaled[gi] / np.sqrt(lam)[:, :, None] / np.sqrt(lam)[:, None, :]
            if d.size:
                emin = np.linalg.eigvalsh(d)[:, 0].min()
                if emin < 0:
                    alpha = min(alpha, -1.0 / emin)
        if dlp_scaled.size:
            mn = (dlp_scaled / self.lam_lp).min()
            if mn < 0:
                alpha = min(alpha, -1.0 / mn)
        return alpha


def _chol_reg(M):
    base = np.mean(np.abs(np.diag(M))) + 1.0
    reg = 0.0
    for k in range(7):
        try:
            return np.linalg.cholesky(M + reg * np.eye(M.shape[0]))
        except np.linalg.LinAlgError:
            reg = base * 10.0 ** (-14 + 2 * k)
    return None


def _cho_solve_refined(L, M, rhs):
    z = cho_solve((L, True), rhs, check_finite=False)
    for _ in range(2):
        r = rhs - M @ z
        z += cho_solve((L, True), r, check_finite=False)
    return z


def _schur_complement(groups, As_lp, At_lp, sc: _Scaling) -> np.ndarray:
    """As Phi As^T (Phi = W W^T) by family; As_lp: the LP columns, CSR."""
    scaled = (As_lp.data * sc.w_lp[As_lp.indices] ** 2, As_lp.indices, As_lp.indptr)
    M = (sp.csr_matrix(scaled, shape=As_lp.shape) @ At_lp).toarray()
    for g, G in zip(groups, sc.G):
        M[np.ix_(g.rows, g.rows)] += g.schur(G)
    return (M + M.T) / 2


def _solve_hsd(prog: ConicProgram, feastol, gaptol, maxiter, verbose):
    A, b, c, psd_fams, lp_width = prog.build()
    nrows, n = A.shape
    lp_off = sum(f.width for f in psd_fams)
    lp_slice = slice(lp_off, lp_off + lp_width)
    degree = sum(f.count * f.block_size for f in psd_fams) + lp_width

    if nrows == 0:
        raise SolverFailure("program has no equality rows", program=prog)
    if degree == 0:
        raise SolverFailure("program has no cone variables", program=prog)

    # row equilibration; duals are recovered through drow at the end
    drow = np.maximum(np.abs(A).max(axis=1).toarray().ravel(), 1e-12)
    As = (sp.diags(1.0 / drow) @ A).tocsr()
    bs = b / drow
    At = As.T.tocsr()
    groups = [_PsdGroup(f, As, drow) for f in psd_fams]
    As_lp, At_lp = As[:, lp_slice], At[lp_slice]
    norm_b = 1 + np.linalg.norm(bs)
    norm_c = 1 + np.linalg.norm(c)

    x = np.zeros(n)
    s = np.zeros(n)
    for g in groups:
        eye = np.broadcast_to(np.eye(g.s), (g.count, g.s, g.s)).copy()
        g.put(x, eye)
        g.put(s, eye)
    x[lp_slice] = 1.0
    s[lp_slice] = 1.0
    y = np.zeros(nrows)
    tau, kappa = 1.0, 1.0
    mu0 = (x @ s + tau * kappa) / (degree + 1)

    status = "numerical-failure"
    it = 0
    pres = dres = relgap = np.nan
    candidate = None      # last iterate meeting the base tolerances
    polish = 0
    for it in range(1, maxiter + 1):
        mu = (x @ s + tau * kappa) / (degree + 1)
        ry = As @ x - bs * tau
        rx = At @ y + s - c * tau
        rz = c @ x - bs @ y + kappa

        xs, ys, ss = x / tau, y / tau, s / tau
        pres = np.linalg.norm(As @ xs - bs) / norm_b
        dres = np.linalg.norm(At @ ys + ss - c) / norm_c
        pobj, dobj = c @ xs, bs @ ys
        relgap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        if verbose:
            print(f"  it={it:3d} mu={mu:9.2e} pres={pres:8.1e} dres={dres:8.1e} "
                  f"gap={relgap:8.1e} tau={tau:8.1e} kappa={kappa:8.1e}")
        if pres <= feastol and dres <= feastol and relgap <= gaptol:
            # keep polishing until weak duality holds to 1e-10 or progress
            # stalls; among qualifying iterates prefer small residuals
            crossover = (dobj - pobj) / (1 + abs(pobj) + abs(dobj))
            score = (crossover > 1e-10, max(pres, dres, relgap))
            if candidate is None or score < candidate[0]:
                candidate = (score, x.copy(), y.copy(), s.copy(), tau,
                             pres, dres)
            polish += 1
            if (crossover <= 1e-10 and max(pres, dres) <= 0.03 * feastol) \
                    or polish >= 10:
                status = "optimal"
                break
        by, cx = bs @ y, c @ x
        if by > 0 and mu < 1e-3 * mu0:
            if np.linalg.norm(At @ (y / by) + s / by) <= feastol * norm_c:
                status = "infeasible"
                break
        if cx < 0 and mu < 1e-3 * mu0:
            if np.linalg.norm(As @ (x / -cx)) <= feastol * norm_b:
                status = "unbounded"
                break
        if mu < 1e-16 * mu0:
            break

        try:
            sc = _Scaling(groups, lp_slice, x, s)
        except np.linalg.LinAlgError:
            break
        M = _schur_complement(groups, As_lp, At_lp, sc)
        Lm = _chol_reg(M)
        if Lm is None:
            break
        phic = sc.phi(c)
        phirx = sc.phi(rx)
        asphirx = As @ phirx
        u2 = _cho_solve_refined(Lm, M, As @ phic + bs)
        p2 = sc.phi(At @ u2) - phic
        den = c @ p2 - bs @ u2 - kappa / tau

        def direction(eta, sigma, corr_mats, corr_lp, corr_tk):
            dmats = []
            for gi, g in enumerate(sc.groups):
                lam = sc.lam[gi]
                rhs = np.zeros((g.count, g.s, g.s))
                di = np.arange(g.s)
                rhs[:, di, di] = -lam ** 2 + sigma * mu
                if corr_mats is not None:
                    rhs = rhs - corr_mats[gi]
                denom = (lam[:, :, None] + lam[:, None, :]) / 2
                dmats.append(rhs / denom)
            rhs_lp = -sc.lam_lp ** 2 + sigma * mu
            if corr_lp is not None:
                rhs_lp = rhs_lp - corr_lp
            d_lp = rhs_lp / sc.lam_lp if lp_width else rhs_lp
            rhs_tk = sigma * mu - tau * kappa - corr_tk

            wu = sc.w_apply(dmats, d_lp, n)
            rhs1 = -eta * ry - As @ wu - eta * asphirx
            u1 = _cho_solve_refined(Lm, M, rhs1)
            p1 = wu + eta * phirx + sc.phi(At @ u1)
            if abs(den) < 1e-300:
                raise FloatingPointError("singular tau equation")
            dtau = (-eta * rz - c @ p1 + bs @ u1 - rhs_tk / tau) / den
            dy = u1 + dtau * u2
            dx = p1 + dtau * p2
            ds = -eta * rx - At @ dy + c * dtau
            dkappa = (rhs_tk - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        def scaled_steps(dx, ds):
            dxs = [sc.scale_x(gi, g.mats(dx)) for gi, g in enumerate(groups)]
            dss = [sc.scale_s(gi, g.mats(ds)) for gi, g in enumerate(groups)]
            dxl = dx[lp_slice] / sc.w_lp if lp_width else dx[lp_slice]
            dsl = ds[lp_slice] * sc.w_lp if lp_width else ds[lp_slice]
            return dxs, dss, dxl, dsl

        try:
            dxa, dya, dsa, dta, dka = direction(1.0, 0.0, None, None, 0.0)
            dxs, dss, dxl, dsl = scaled_steps(dxa, dsa)
            amax = min(sc.max_step(dxs, dxl), sc.max_step(dss, dsl))
            if dta < 0:
                amax = min(amax, -tau / dta)
            if dka < 0:
                amax = min(amax, -kappa / dka)
            aaff = min(1.0, amax)
            mua = ((x + aaff * dxa) @ (s + aaff * dsa)
                   + (tau + aaff * dta) * (kappa + aaff * dka)) / (degree + 1)
            sigma = min(1.0, max(0.0, mua / mu)) ** 3
            corr_mats = [(np.einsum("bij,bjk->bik", dxs[gi], dss[gi])
                          + np.einsum("bij,bjk->bik", dss[gi], dxs[gi])) / 2
                         for gi in range(len(groups))]
            corr_lp = dxl * dsl
            dx, dy, ds, dt, dk = direction(1.0 - sigma, sigma,
                                           corr_mats, corr_lp, dta * dka)
        except (np.linalg.LinAlgError, FloatingPointError):
            break

        dxs, dss, dxl, dsl = scaled_steps(dx, ds)
        amax = min(sc.max_step(dxs, dxl), sc.max_step(dss, dsl))
        if dt < 0:
            amax = min(amax, -tau / dt)
        if dk < 0:
            amax = min(amax, -kappa / dk)
        alpha = min(1.0, _STEP_FRACTION * amax)
        if alpha <= 1e-13:
            break
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau += alpha * dt
        kappa += alpha * dk

    if status != "optimal" and candidate is not None:
        status = "optimal"
    if status == "optimal" and candidate is not None:
        _, x, y, s, tau, pres, dres = candidate
    y_orig = y / drow

    sol = ConicSolution(status="numerical-failure", iterations=it)
    if status == "optimal":
        xs = x / tau
        ss = s / tau
        sol.status = "optimal"
        sol.primal = _extract_primal(prog, groups, lp_slice, xs)
        sol.dual_rows = _extract_duals(prog, y_orig / tau)
        sol.dual_slack = _extract_primal(prog, groups, lp_slice, ss, slack=True)
        sol.pobj = float(c @ xs + prog.objective_constant)
        sol.dobj = float(b @ (y_orig / tau) + prog.objective_constant)
        sol.gap = abs(sol.pobj - sol.dobj) / (1 + abs(sol.pobj) + abs(sol.dobj))
        sol.pres = float(pres)
        sol.dres = float(dres)
        return sol
    if status == "infeasible":
        by = b @ y_orig
        sol.status = "infeasible"
        sol.ray = _extract_duals(prog, y_orig / by)
        sol.ray_violation = float(by / np.linalg.norm(y_orig))
        return sol
    if status == "unbounded":
        sol.status = "unbounded"
        cx = c @ x
        sol.ray = {"x": _extract_primal(prog, groups, lp_slice, x / -cx)}
        sol.ray_violation = float(-cx / np.linalg.norm(x))
        return sol

    report = dict(pres=float(pres), dres=float(dres), relgap=float(relgap),
                  iterations=it)
    raise SolverFailure(
        f"conic solve failed for {prog.name!r}: {report}",
        program=prog, report=report)


def _extract_primal(prog: ConicProgram, groups, lp_slice, vec, slack=False):
    out = {}
    gi = 0
    for fam in prog.families.values():
        if fam.kind in ("herm", "psd"):
            mats = groups[gi].mats(vec)
            gi += 1
            if fam.kind == "herm":
                out[fam.name] = unembed_hermitian(mats) * (2.0 if slack else 1.0)
            else:
                out[fam.name] = mats
        elif fam.kind == "nonneg":
            out[fam.name] = vec[fam.offset:fam.offset + fam.count].copy()
        else:
            plus = vec[fam.offset:fam.offset + fam.count]
            minus = vec[fam.offset + fam.count:fam.offset + 2 * fam.count]
            out[fam.name] = plus - minus
    return out


def _extract_duals(prog: ConicProgram, y: np.ndarray) -> dict:
    out = {}
    for g in prog.row_groups:
        if g.kind == "mat":
            out[g.name] = hermitian_from_coords(
                y[g.offset:g.offset + g.nrows], g.dim)
        else:
            out[g.name] = float(y[g.offset])
    return out
