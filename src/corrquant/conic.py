"""Block-structured conic programs and a self-contained interior-point solver.

Programs have the shape

    minimize    c'x
    subject to  A x = b,   x in K,

where K is a product of PSD blocks (real symmetric, or complex
Hermitian) and nonnegative scalars.  There is no free kind: a free
scalar with a lower bound is written shifted onto a nonnegative one (the
membership programs' weight t = t' - 1, see :mod:`corrquant.decomposition`).
A real symmetric block is stored as its isometric svec; a d x d
Hermitian block as its d*d real coordinates in the orthonormal Hermitian
basis of :func:`hermitian_coords`, so the trace inner product is the dot
product of coordinates.

The solver is a homogeneous self-dual (HSD) primal-dual path-following
method with Nesterov-Todd scaling and a Mehrotra predictor-corrector.  Each
step goes 1 - f of the way to the cone boundary, f = max(sigma, (1 - a)/10)
clamped to [1e-6, 1e-2] (sigma the centring weight, a the affine step):
0.99 while centring is active or the predictor is short, up to 1 - 1e-6
once it is exact.  So mu contracts by up to 1e6 per endgame iteration, not
1e2, and convergence is superlinear (Mehrotra, SIAM J. Optim. 2, 1992;
Wright, Primal-Dual Interior-Point Methods, SIAM 1997, ch. 10).
The path starts at s = e (the cones' unit), y = 0, tau = kappa = 1 and
x = alpha e, alpha the least-squares multiple of e on the equality rows
clipped to [1e-2, 1]: the unit start x = e of Andersen, Roos & Terlaky
(Math. Prog. 95, 2003) ignores scale, and where As e is far larger than
bs (about 600x in norm on the m = 6 lossy-dodecahedron IR and IW
programs, which start at the floor) the solve spends its first
iterations shrinking the primal residual.
It reports primal-dual solutions with certified gaps, or an improving ray
when the program is infeasible.  The 2x2 Hermitian families are together
one cone to the solver, the Lorentz cone Q^4, with a closed-form
scaling, step length and Jordan algebra, iterated in Q^4 coordinates (an
isometry of the Hermitian ones, applied to c on entry and to x and s on
exit); larger Hermitian and all real symmetric blocks run the same
matrix code (Cholesky, SVD, eigenvalues), on complex or real arrays;
nonnegative scalars are the orthant.

Variables are declared as *families* (a batch of identically sized
blocks), and equality constraints as *row groups*: either a matrix
group, which equates a Hermitian-valued linear expression to a Hermitian
right-hand side (d*d real rows, one per basis coordinate), or a single
scalar row.  Dual multipliers are reported per row group, reassembled
into Hermitian matrices for matrix groups.

The row builders record, per family, which rows each block touches with
which weight and through which coordinate functional, and the objective
as per-block costs.  These touches are the program's only record of its
columns: a family's columns are P kron(U[:, i], I) for block i (after
Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997).  One decoder,
:meth:`_Family.stacked`, reads them: every touch's rows and functional
rows stacked, the touch owning each, and one weight row per touch,
decoded once per family and kept.  The stack gives the row equilibration
(max |F| times max |U| per stacked row) and its columns of As;
pricing, :meth:`ConicProgram.restrict` and :meth:`ConicProgram.triplets`
(A's entries, which verification and dumps read, and ``build()`` makes
one CSR matrix of for the tests) read the same stack.

A program is a read-only *structure* and per-call values.  The builders
make the structure once per program shape (:meth:`ConicProgram.share`)
and write each call's values on it (:meth:`ConicProgram.with_values`):
b, and the stacked touches of scalar families, the only touches that
read data.  What a solve derives from the structure alone is its
:class:`_Plan`, made at its first solve and shared by every program on
it: the matrix families' share of the row scale, the cones, the layout
of the Lorentz cone (its U, slots, layers and K index and its
functionals in Q^4 coordinates), the matrix columns of the dense array,
the cones' unit and the gathers that read the duals.  A solve adds its
scalars' share of the row scale and divides the rows by it, so a
program's iterates are the same to the last bit whether its plan is new
or shared.

Each iteration solves its Newton system in the NT-scaled space
(Vandenberghe, "The CVXOPT linear and quadratic cone program solvers",
2010; :class:`_Newton`).  With W the NT scaling, it maps the held As once
to Abar = As W, factors M = Abar Abar^T = As W W^T As^T, and solves both
Mehrotra directions for the scaled steps dxbar = W^-1 dx and
dsbar = W^T ds, with dxbar + dsbar the cones' centering.  The step
length, the affine mu and the corrector read the scaled steps and the
scaled point lam = W^-1 x = W^T s, and the predictor's centering (sigma
= 0, no corrector) is -lam in closed form; only the step taken leaves the
scaled space, as dx = W dxbar and ds = c dtau - eta r_x - As^T dy.  So
an iteration applies W three times: to the rows of As, to c and the dual
residual r_x stacked, and to dxbar.

The products read the row-equilibrated As held in two parts, and no
sparse product runs inside the loop (the design of ECOS, Domahidi, Chu &
Boyd, ECC 2013).  The columns are ordered 2x2 Hermitian families, then
other matrix families, then scalars, so:

* The 2x2 Hermitian families are one Lorentz cone, which applies its
  own columns: its products are P (U X) and U^T (y P) over its U (4
  touches x (rows + blocks) multiplies), W applied before and W^T after
  them in the scaled space, and its Schur term is formed on its rows
  from each family's stacked rows (their touches and functionals), with
  no product by P.
* Every other column (the noise weight, the LP weights, the NPA moment
  block, blocks with d >= 3) is one dense array over all rows, in the
  cones' coordinates: U[owner] (x) F per stacked row, the matrix
  columns formed once per structure and the scalar ones per solve, over
  the row scale.  A product is one gemv; each iteration maps every row
  of the array by W^T, and its Schur term is Abar Abar^T.

Each product and the Schur complement is the Lorentz cone's term plus
the array's.  When one product with a dense As (rows x columns
multiplies) costs no more than one with the Lorentz cone's columns plus
one with the other columns on the rows they reach, the plan folds the
Lorentz cone's columns into the array instead (as Fujisawa, Kojima &
Nakata choose how to form each Schur term by its operation count): most
small incompatibility and steering programs take that way, programs of
many strategy blocks keep the Lorentz cone's own columns, and the NPA
and linear programs, which have no 2x2 family, are the array alone.
The Lorentz cone's closed-form kernels run once per iteration over all
its blocks either way.  An iteration factors the Schur complement with
one dpotrf; it applies As and As^T once each for its residuals, Abar and
Abar^T three times each for its two directions (Abar^T u2 serves both),
and As^T once more for the ds it takes.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

from .errors import SolverFailure
from .operators import hermitize


def _dpotrf_dpotrs():
    """LAPACK's dpotrf and dpotrs from SciPy's extension ``scipy.linalg._flapack``.

    Importing ``scipy.linalg`` costs most of this package's import time
    (it runs ``scipy/__init__`` and ``scipy._lib._array_api``), yet the
    solver needs only these two functions.  So the extension, which is
    private to SciPy, is loaded by file from SciPy's package directory
    (``find_spec`` does not run ``scipy/__init__``) under its real name,
    and one loaded before is used as it is.  A module loaded here is
    taken out of ``sys.modules`` again: a later ``import scipy.linalg``
    then loads it itself and binds it as the package's ``_flapack``, and
    CPython gives that second load of the (single-phase) extension the
    same function objects, so both see the same dpotrf and dpotrs.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        folder = Path(scipy.submodule_search_locations[0]) / "linalg"
        path = folder / f"_flapack{EXTENSION_SUFFIXES[0]}"
        if not path.is_file():
            raise ImportError(f"no {path.name} in {folder}", name=name, path=str(path))
        loader = ExtensionFileLoader(name, str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
        sys.modules.pop(name, None)
    return module.dpotrf, module.dpotrs


dpotrf, dpotrs = _dpotrf_dpotrs()

# The solve tolerances and limits, read when a solve or check runs:
# set them on the module to solve and verify at other values.
FEASTOL = 1e-8            # relative primal and dual residual
GAPTOL = 1e-9             # relative duality gap
MAXITER = 200
VARIABLE_CAP = 4_000_000  # columns of A
MARGIN_TOL = 1e-9         # most negative cone margin verify_solution accepts


# ---------------------------------------------------------------------------
# block coordinates
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


@lru_cache(maxsize=None)
def _smat_index(s: int):
    """The svec coordinate of every entry of an s x s matrix, row-major."""
    iu, ju, _ = _svec_index(s)
    index = np.empty((s, s), dtype=np.int64)
    index[iu, ju] = index[ju, iu] = np.arange(iu.size)
    index = index.ravel()
    index.flags.writeable = False
    return index


def smat(vec: np.ndarray, s: int) -> np.ndarray:
    """Inverse of :func:`svec`; supports a leading batch axis."""
    _, _, scale = _svec_index(s)
    return (vec / scale)[..., _smat_index(s)].reshape(vec.shape[:-1] + (s, s))


@lru_cache(maxsize=None)
def _offdiag_index(d: int):
    """Strict upper-triangle indices for size ``d``."""
    iu, ju = np.triu_indices(d, k=1)
    for arr in (iu, ju):
        arr.flags.writeable = False
    return iu, ju


def hermitian_coords(mat: np.ndarray, d: int) -> np.ndarray:
    """Real coordinates tr(F_k M) in the orthonormal Hermitian basis.

    Basis order: diagonal units, then (E_ij+E_ji)/sqrt2, then
    i(E_ij-E_ji)/sqrt2 for i<j row-major.  Batched over leading axes.
    """
    iu, ju = _offdiag_index(d)
    diag = np.diagonal(mat, axis1=-2, axis2=-1).real
    off = np.sqrt(2.0) * mat[..., iu, ju]
    return np.concatenate([diag, off.real, off.imag], axis=-1)


def hermitian_eigvalsh(coords: np.ndarray, d: int) -> np.ndarray:
    """Ascending eigenvalues of d x d Hermitian blocks from their (batch,
    d*d) coordinates; closed form for d = 2."""
    if d != 2:
        return np.linalg.eigvalsh(hermitian_from_coords(coords, d))
    mid = (coords[:, 0] + coords[:, 1]) / 2
    rad = np.sqrt(((coords[:, 0] - coords[:, 1]) / 2) ** 2
                  + (coords[:, 2] ** 2 + coords[:, 3] ** 2) / 2)
    return np.stack([mid - rad, mid + rad], axis=1)


def hermitian_from_coords(coords: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_coords`."""
    iu, ju = _offdiag_index(d)
    noff = iu.size
    mat = np.zeros(coords.shape[:-1] + (d, d), dtype=complex)
    mat[..., np.arange(d), np.arange(d)] = coords[..., :d]
    off = (coords[..., d:d + noff] + 1j * coords[..., d + noff:]) / np.sqrt(2.0)
    mat[..., iu, ju] = off
    mat[..., ju, iu] = off.conj()
    return mat


# ---------------------------------------------------------------------------
# program description
# ---------------------------------------------------------------------------

@dataclass
class _Family:
    name: str
    kind: str          # 'herm' | 'psd' | 'nonneg'
    count: int
    dim: int           # matrix dimension (1 for scalar kinds)
    offset: int = -1   # filled when offsets are frozen
    # key -> (rows, functional, weights); see touch()
    touches: dict = field(default_factory=dict, repr=False)
    # stacked(), kept until the next touch
    stack: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        # objective coefficients, per block and coordinate
        self.cost = np.zeros((self.count, self.ncoords))

    @property
    def ncoords(self) -> int:
        """Real coordinates per block (1 for scalar kinds)."""
        if self.kind == "herm":
            return self.dim * self.dim
        if self.kind == "psd":
            return self.dim * (self.dim + 1) // 2
        return 1

    @property
    def width(self) -> int:
        """Columns of A."""
        return self.count * self.ncoords

    def mats(self, coords: np.ndarray) -> np.ndarray:
        """Blocks from their coordinates (batched)."""
        if self.kind == "herm":
            return hermitian_from_coords(coords, self.dim)
        return smat(coords, self.dim)

    def coords(self, mats: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`mats`."""
        if self.kind == "herm":
            return hermitian_coords(mats, self.dim)
        return svec(np.asarray(mats, dtype=float))

    def functional(self, cmat) -> np.ndarray:
        """Coordinates of X -> tr(C X) on one block."""
        if self.kind == "herm":
            return self.coords(hermitize(np.asarray(cmat, dtype=complex)))
        if self.kind == "psd":
            c = np.asarray(cmat, dtype=float)
            return self.coords((c + c.T) / 2)
        raise ValueError(f"family {self.name!r} is not a matrix family")

    def part(self, vec: np.ndarray) -> np.ndarray:
        """This family's (count, ncoords) slice of a full-length vector."""
        return vec[self.offset:self.offset + self.width].reshape(self.count, -1)

    def touch(self, key, rows, functional, indices, weight) -> None:
        """Record that ``weight * X_i``, i in ``indices``, enters ``rows``
        through ``functional`` (len(rows) x ncoords, on block coordinates).
        Touches with one ``key`` add their weights."""
        if key not in self.touches:
            self.touches[key] = (np.asarray(rows), functional, np.zeros(self.count))
        np.add.at(self.touches[key][2], indices, weight)
        self.stack = None

    def stacked(self):
        """(rows, F, owner, U): every touch's rows and functional rows
        stacked, the touch that owns each stacked row, and one weight row
        per touch.  Block i's columns of A are P kron(U[:, i], I), P the
        functional rows F[e] placed in rows rows[e] and the coordinates
        of touch owner[e]."""
        if self.stack is None:
            touches = list(self.touches.values())
            rows = np.concatenate([np.zeros(0, np.int64)] + [r for r, _, _ in touches])
            F = np.concatenate([np.zeros((0, self.ncoords))] + [f for _, f, _ in touches])
            owner = np.repeat(np.arange(len(touches)), [len(f) for _, f, _ in touches])
            U = np.array([w for _, _, w in touches]).reshape(len(touches), self.count)
            self.stack = rows, F, owner, U
        return self.stack

    def on(self, stack, cost) -> "_Family":
        """This family's declaration and offset with touches ``stack`` (the
        form of :meth:`stacked`) and block costs ``cost``."""
        out = _Family(self.name, self.kind, len(cost), self.dim, self.offset,
                      touches={}, stack=stack)
        out.cost = cost
        return out


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

    :meth:`share` turns a program into a read-only *structure*, and
    :meth:`with_values` makes programs on it that differ only in the
    values a call writes: b, and the touches of scalar families.  They
    share the structure's arrays and the solver's :class:`_Plan` of it, and
    refuse the grammar, as a program from :meth:`restrict` does.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._families: dict[str, _Family] = {}
        self._rows: list[_RowGroup] = []
        self._b: list[float] = []
        self._nrows = 0
        self._frozen = False
        self._shared = False    # a read-only structure, or a program on one
        self._base = None       # the structure whose plan this one reads, if shared
        self._plan = None       # _Plan, made at the first solve

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

    def _freeze(self):
        if self._frozen:
            return
        # 2x2 Hermitian families (the solver's one Lorentz cone), then other
        # matrix families, then scalars, each in declaration order
        offset = 0
        for fam in sorted(self._families.values(),
                          key=lambda f: ((f.kind, f.dim) != ("herm", 2))
                          + (f.kind == "nonneg")):
            fam.offset = offset
            offset += fam.width
        self._ncols = offset
        if offset > VARIABLE_CAP:
            raise SolverFailure(
                f"variable dimension {offset} exceeds cap {VARIABLE_CAP}",
                program=self)
        self._frozen = True

    def _write(self):
        """Open the program to a grammar call: freeze the variable layout,
        and drop the solver's plan, which the call may change."""
        if self._shared:
            raise RuntimeError(f"program {self.name!r} is built on a shared "
                               "structure: its rows and objective are fixed")
        self._freeze()
        self._plan = None

    # ---- coefficient expansion ---------------------------------------------

    def _expand_scalar_terms(self, row, terms):
        """Touches of scalar row ``row``, or objective costs (row None)."""
        for term in terms:
            tag, fam = term[0], self._families[term[1]]
            weight = 1.0
            if tag == "lin":
                if fam.kind != "nonneg":
                    raise ValueError(f"family {fam.name!r} is not scalar")
                _, _, indices, weight = term
                coords = np.ones(1)
            else:
                if tag == "mat":
                    _, _, indices, cmat = term
                elif tag == "tr":
                    _, _, indices, weight = term
                    cmat = np.eye(fam.dim)
                else:
                    raise ValueError(f"unknown scalar term {tag!r}")
                coords = fam.functional(cmat)
            indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
            weight = np.broadcast_to(np.asarray(weight, dtype=float), indices.shape)
            if row is None:
                np.add.at(fam.cost, indices, weight[:, None] * coords)
            else:
                fam.touch((row, coords.tobytes()), [row], coords[None],
                          indices, weight)

    # ---- rows ----------------------------------------------------------------

    def add_scalar_row(self, name: tuple, rhs: float, terms) -> None:
        """One equality row.  Term grammar:

        ("lin", family, indices, coeffs)  -> sum coeffs*z_i
        ("mat", family, index, C)         -> tr(C X_index)
        ("tr",  family, indices, weight)  -> weight * sum tr X_i
        """
        self._write()
        row = self._nrows
        self._expand_scalar_terms(row, terms)
        self._b.append(float(rhs))
        self._rows.append(_RowGroup(tuple(name), "scalar", 1, row, 1))
        self._nrows += 1

    def add_matrix_row_group(self, name: tuple, rhs, terms) -> None:
        """Equate a Hermitian-valued expression to Hermitian ``rhs``.

        Term grammar:
        ("sum", family, indices, weight)  -> weight * sum_{i in indices} X_i
                                             (indices: a list or one index)
        ("scalar_mat", family, index, C)  -> z_index * C

        Expands into d*d real rows in the orthonormal Hermitian basis,
        where row k reads coordinate k of each Hermitian block.
        """
        self._write()
        rhs = hermitize(np.asarray(rhs, dtype=complex))
        d = rhs.shape[0]
        nr = d * d
        row0 = self._nrows
        for term in terms:
            tag, famname, indices, arg = term
            fam = self._families[famname]
            if tag == "sum":
                if fam.kind != "herm" or fam.dim != d:
                    raise ValueError(
                        f"family {famname!r} incompatible with {d}x{d} matrix row")
                fam.touch(row0, row0 + np.arange(nr), np.eye(nr), indices, arg)
            elif tag == "scalar_mat":
                if fam.kind != "nonneg":
                    raise ValueError(f"family {famname!r} is not scalar")
                coords = hermitian_coords(hermitize(np.asarray(arg, dtype=complex)), d)
                nz = np.flatnonzero(coords)
                fam.touch((row0, coords.tobytes()), row0 + nz, coords[nz, None],
                          indices, 1.0)
            else:
                raise ValueError(f"unknown matrix term {tag!r}")
        self._b.extend(hermitian_coords(rhs, d))
        self._rows.append(_RowGroup(tuple(name), "mat", d, row0, nr))
        self._nrows += nr

    def set_objective(self, terms) -> None:
        """Linear objective (minimized); same term grammar as scalar rows."""
        self._write()
        self._expand_scalar_terms(None, terms)

    # ---- assembled data ------------------------------------------------------

    @property
    def families(self):
        return dict(self._families)

    @property
    def row_groups(self):
        return list(self._rows)

    def rhs(self) -> np.ndarray:
        """The right-hand side b (read-only on a shared structure)."""
        return np.asarray(self._b, dtype=float)

    def objective(self) -> np.ndarray:
        """The objective vector c, from each family's block costs."""
        self._freeze()
        c = np.zeros(self._ncols)
        for fam in self._families.values():
            c[fam.offset:fam.offset + fam.width] = fam.cost.ravel()
        return c

    def column_products(self, name: str, y: np.ndarray) -> np.ndarray:
        """A^T y on the blocks of matrix family ``name``, as (count,
        ncoords) coordinates, from its touches (no A is built)."""
        rows, F, owner, U = self._families[name].stacked()
        z = np.zeros((len(U), F.shape[1]))
        np.add.at(z, owner, y[rows, None] * F)
        return U.T @ z

    def triplets(self):
        """A's entries as (rows, cols, vals), read from each family's
        touches: stacked row e puts U[owner[e], i] F[e, k] in row rows[e]
        and coordinate k of block i (:meth:`_Family.stacked`).  An entry
        that two touches reach is listed once for each."""
        self._freeze()
        parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
        for fam in self._families.values():
            rows, F, owner, U = fam.stacked()
            e, k = np.nonzero(F)
            t, i = np.nonzero(U)                  # by touch, then block
            count = np.bincount(t, minlength=len(U))
            first = np.cumsum(count) - count      # touch t's blocks start at i[first[t]]
            n = count[owner[e]]                   # the blocks each entry of F reaches
            entry = np.repeat(np.arange(len(e)), n)
            nz = first[owner[e]][entry] + np.arange(len(entry)) - (np.cumsum(n) - n)[entry]
            parts.append((rows[e][entry], fam.offset + i[nz] * fam.ncoords + k[entry],
                          U[t, i][nz] * F[e, k][entry]))
        return tuple(np.concatenate(p) for p in zip(*parts))

    def build(self):
        """Assemble (A, b, c), A one CSR matrix with sorted indices over
        :meth:`triplets` (the solver, verification and dumps read the
        touches)."""
        import scipy.sparse as sp   # the one use of scipy.sparse
        rows, cols, vals = self.triplets()
        A = sp.csr_matrix((vals, (rows, cols)), shape=(self._nrows, self._ncols))
        return A, self.rhs(), self.objective()

    def restrict(self, keep: dict) -> "ConicProgram":
        """This program on blocks ``keep[name]`` (indices) of each
        matrix family named in ``keep``: the same rows and b, and the kept
        blocks' touch weights and objective costs, as a structure of its own
        (:meth:`share`)."""
        out = ConicProgram(self.name)
        for fam in self._families.values():
            sel = keep.get(fam.name)
            if sel is not None and fam.kind not in ("herm", "psd"):
                raise ValueError(f"family {fam.name!r} is not a matrix family")
            rows, F, owner, U = fam.stacked()
            out._families[fam.name] = (
                fam.on((rows, F, owner, U), fam.cost.copy()) if sel is None
                else fam.on((rows, F, owner, U.take(sel, axis=1)), fam.cost[sel]))
        out._freeze()
        out._b, out._rows, out._nrows = self.rhs(), list(self._rows), self._nrows
        return out.share()

    def share(self) -> "ConicProgram":
        """Make this program a read-only structure: its touches are kept
        only in stacked form (:meth:`_Family.stacked`), every array it holds
        (stacked touches, costs, b) becomes non-writeable, and the grammar
        raises RuntimeError.  Programs of :meth:`with_values` build on it."""
        self._freeze()
        for fam in self._families.values():
            fam.stacked()
            fam.touches = {}
            for arr in (*fam.stack, fam.cost):
                arr.flags.writeable = False
        self._b = np.array(self._b, dtype=float)
        self._b.flags.writeable = False
        self._rows = tuple(self._rows)
        self._shared = True
        return self

    def with_values(self, name: str, rhs, touches: dict) -> "ConicProgram":
        """The program ``name`` on this shared structure with right-hand
        side ``rhs`` and, per scalar family named in ``touches``, the
        stacked functional rows and weights ``(F, U)`` of
        :meth:`_Family.stacked` (None keeps the structure's).  Only scalar
        families take values, so every matrix family's cone is the
        structure's."""
        if not self._shared:
            raise RuntimeError("with_values needs a shared structure (share())")
        out = ConicProgram(name)
        out._families = dict(self._families)
        for fname, (F, U) in touches.items():
            fam = self._families[fname]
            if fam.kind != "nonneg":
                raise ValueError(f"family {fname!r} is not scalar")
            rows, F0, owner, U0 = fam.stacked()
            F = F0 if F is None else np.array(F, dtype=float)
            U = U0 if U is None else np.array(U, dtype=float)
            if F.shape != F0.shape or U.shape != U0.shape:
                raise ValueError(f"family {fname!r} takes F {F0.shape} and U {U0.shape}")
            F.flags.writeable = U.flags.writeable = False
            out._families[fname] = fam.on((rows, F, owner, U), fam.cost)
        b = np.array(rhs, dtype=float)
        if b.shape != (self._nrows,):
            raise ValueError(f"rhs must have {self._nrows} entries")
        b.flags.writeable = False
        out._b, out._rows, out._nrows, out._ncols = b, self._rows, self._nrows, self._ncols
        out._frozen = out._shared = True
        out._base = self
        return out

    def _layout(self) -> "_Plan":
        """The solver's plan of this program's structure, made once."""
        base = self._base or self
        if base._plan is None:
            base._plan = _Plan(self)
        return base._plan

    def dump_triplets(self) -> str:
        """Sparse-triplet dump: '# header', then 'A i j v' (one summed
        nonzero per entry, row-major) / 'b i v' / 'c j v'."""
        rows, cols, vals = self.triplets()
        at, where = np.unique(rows * self._ncols + cols, return_inverse=True)
        vals = np.bincount(where, vals, minlength=len(at))
        at, vals = at[vals != 0], vals[vals != 0]
        b, c = self.rhs(), self.objective()
        lines = [f"# conic program {self.name!r}: {self._nrows} rows, {self._ncols} cols"]
        for fam in self._families.values():
            lines.append(
                f"# family {fam.name} kind={fam.kind} count={fam.count} "
                f"dim={fam.dim} offset={fam.offset} width={fam.width}")
        for g in self._rows:
            lines.append(f"# rows {g.name} kind={g.kind} offset={g.offset} n={g.nrows}")
        for i, j, v in zip((at // self._ncols).tolist(), (at % self._ncols).tolist(),
                           vals.tolist()):
            lines.append(f"A {i} {j} {v!r}")
        for i, v in enumerate(b):
            if v != 0.0:
                lines.append(f"b {i} {float(v)!r}")
        for j in np.nonzero(c)[0]:
            lines.append(f"c {j} {float(c[j])!r}")
        return "\n".join(lines) + "\n"

    def solve(self) -> "ConicSolution":
        """Run the interior-point solver at FEASTOL, GAPTOL and MAXITER;
        an iteration-limit or stalled solve raises SolverFailure carrying
        the program and residual report."""
        return _solve_hsd(self)


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
    # the certificate; infeasible: dual_rows style, unbounded: {"x": primal blocks}
    ray: dict | None = None
    ray_violation: float = np.nan
    # which path ended the solve: "converged", "polish cap", or
    # "fallback: <reason> after <k> polishing iterations" when a break or
    # the iteration limit promoted the best polishing candidate
    ended: str = ""
    # column generation (decomposition.solve_strategies): strategies in the
    # final working set (None: the whole program was solved), restricted solves
    # (``iterations`` sums theirs), and the most negative reduced cost
    # priced off the working set
    working_set: int | None = None
    rounds: int = 1
    reduced_cost: float = np.nan

    @property
    def value(self) -> float:
        return self.pobj


@dataclass
class ResidualReport:
    eq_residual: float = np.nan     # max |A x - b|
    dual_residual: float = np.nan   # max |A'y + s - c|
    cone_margin: float = np.nan     # most negative primal PSD/LP margin
    dual_margin: float = np.nan     # most negative dual-slack margin
    gap: float = np.nan             # relative gap of c'x and b'y
    ray_residual: float = np.nan
    ray_violation: float = np.nan

    def ok(self) -> bool:
        """Both sides feasible to 100 FEASTOL, both in their cones to
        MARGIN_TOL, and the gap within 100 GAPTOL."""
        return (self.eq_residual <= 100 * FEASTOL
                and self.dual_residual <= 100 * FEASTOL
                and self.cone_margin >= -MARGIN_TOL
                and self.dual_margin >= -MARGIN_TOL
                and self.gap <= 100 * GAPTOL)


def _block_margins(prog, blocks):
    margin = np.inf
    for fam in prog.families.values():
        if fam.name not in blocks:
            continue
        blk = blocks[fam.name]
        if fam.kind in ("herm", "psd"):
            low = np.linalg.eigvalsh(hermitize(blk))[:, 0]
            margin = float(np.min(low, initial=margin))
        elif fam.kind == "nonneg":
            if np.size(blk):
                margin = min(margin, float(np.min(blk)))
    return margin


def _cone_distance(prog: ConicProgram, z: np.ndarray) -> float:
    """Distance of the column vector z from the (self-dual) cone, per block
    by eigenvalues, per scalar by sign."""
    parts = [np.linalg.eigvalsh(f.mats(f.part(z))) if f.kind in ("herm", "psd")
             else f.part(z) for f in prog.families.values()]
    return float(np.sqrt(sum(np.sum(np.minimum(p, 0) ** 2) for p in parts)))


def verify_solution(prog: ConicProgram, sol: ConicSolution) -> ResidualReport:
    """Recompute residuals and cone margins independent of solver internals,
    with A's entries from :meth:`ConicProgram.triplets`."""
    rows, cols, vals = prog.triplets()
    b, c = prog.rhs(), prog.objective()

    def A(x):
        return np.bincount(rows, vals * x[cols], minlength=len(b))

    def AT(y):
        return np.bincount(cols, vals * y[rows], minlength=len(c))

    if sol.status in ("infeasible", "unbounded"):
        res = np.nan
        if sol.status == "infeasible" and sol.ray is not None:
            # min ||A'y + s|| over s in the cone: the distance of -A'y from it
            res = _cone_distance(prog, -AT(duals_to_vec(prog, sol.ray)))
        elif sol.ray is not None:
            # A x = 0, and x in the cone
            x = _primal_to_vec(prog, sol.ray["x"])
            res = max(float(np.max(np.abs(A(x)), initial=0.0)), _cone_distance(prog, x))
        return ResidualReport(ray_residual=res, ray_violation=sol.ray_violation)
    x = _primal_to_vec(prog, sol.primal)
    y = duals_to_vec(prog, sol.dual_rows)
    s = _primal_to_vec(prog, sol.dual_slack)
    eq = float(np.max(np.abs(A(x) - b))) if b.size else 0.0
    dres = float(np.max(np.abs(AT(y) + s - c))) if c.size else 0.0
    pobj, dobj = float(c @ x), float(b @ y)
    gap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
    return ResidualReport(eq, dres, _block_margins(prog, sol.primal),
                          _block_margins(prog, sol.dual_slack), gap)


def _primal_to_vec(prog: ConicProgram, primal: dict) -> np.ndarray:
    prog._freeze()
    x = np.zeros(prog._ncols)
    for fam in prog.families.values():
        blk = primal[fam.name]
        x[fam.offset:fam.offset + fam.width] = (
            fam.coords(blk).ravel() if fam.kind in ("herm", "psd") else blk)
    return x


def duals_to_vec(prog: ConicProgram, duals: dict) -> np.ndarray:
    """The row vector y of duals given per row group (dual_rows style)."""
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
# cones
# ---------------------------------------------------------------------------
#
# The HSD core sees the 2x2 Hermitian families as one Lorentz cone, every
# other matrix family as a cone and the scalars as one orthant, each on its
# slice ``sl`` of the iterate, in the cone's coordinates (:func:`_cone_coords`),
# with its unit ``unit``.  ``scale(x, s)`` sets the NT scaling W at an
# iterate and its scaled point ``lam`` = W^-1 x = W^T s.  The scaled space
# holds flat slices in the same coordinates as the iterate, and the other
# methods work in it:
#
#   to_scaled(v)       W^T v, on v's last axis (batched over leading axes)
#   from_scaled(d)     W d, on the slice
#   center(smu, corr)  d with lam o d = smu unit o unit - lam o lam - corr,
#                      where o is the Jordan product: X o S = mu unit o unit
#                      on the central path
#   product(a, b)      a o b
#   max_steps(a, b)    largest alpha with lam + alpha a and lam + alpha b
#                      both in the cone: one kernel call on a and b stacked
#
# ``scale()`` also stores every quantity of the scaling that these kernels
# would otherwise recompute on each call (J v, lam o lam, 1/|lam|, ...), so
# each runs once per iteration.  The columns of As are held apart from the
# kernels (:class:`_Plan`); an iteration maps them by W once
# (:func:`_scale`).

def _min_step(lmin) -> float:
    """Largest alpha with 1 + alpha * lmin >= 0 for every entry."""
    low = lmin.min(initial=0.0)
    return -1.0 / low if low < 0 else np.inf


def _reached(fams):
    """The rows that families ``fams`` touch, sorted and distinct."""
    return np.unique(np.concatenate([np.zeros(0, np.int64)]
                                    + [f.stacked()[0] for f in fams]))


def _dense_index(fams, start, width):
    """Where each entry of :func:`_dense_values` goes in a flattened array
    of ``width`` columns, from column ``start`` of A, on every row."""
    return np.concatenate([np.zeros(0, np.int64)] + [
        (f.stacked()[0][:, None] * width + f.offset - start + np.arange(f.width)).ravel()
        for f in fams])


def _dense_values(fams):
    """The columns of families ``fams`` on their stacked touch rows: each
    stacked row is U[owner] (x) F; :func:`np.bincount` over
    :func:`_dense_index` sums them."""
    vals = [np.zeros(0)]
    for f in fams:
        rows, F, owner, U = f.stacked()
        vals.append((U[owner][:, :, None] * F[:, None, :]).ravel())
    return np.concatenate(vals)


class _Nonneg:
    """The nonnegative orthant: the scalar families, on columns ``sl``."""

    def __init__(self, sl):
        self.sl, self.unit = sl, np.ones(sl.stop - sl.start)

    def scale(self, x, s):
        x, s = x[self.sl], s[self.sl]
        self.w = np.sqrt(x / s)
        self.lam = np.sqrt(x * s)
        self.lam2 = self.lam ** 2

    def to_scaled(self, v):
        return v * self.w

    def from_scaled(self, d):
        return d * self.w

    def center(self, smu, corr):
        return (smu - self.lam2 - corr) / self.lam

    def product(self, a, b):
        return a * b

    def max_steps(self, a, b):
        return _min_step(np.minimum(a, b) / self.lam)


_R2 = np.sqrt(0.5)
_JSIGN = np.array([1.0, -1.0, -1.0, -1.0])    # J = diag(_JSIGN): X -> adj(X)
_NEG_JSIGN = -_JSIGN
_E = np.array([1.0, 0.0, 0.0, 0.0])             # the Jordan unit


def _q(v):
    """Hermitian coordinates (a, c, re, im) of 2x2 blocks, one per row, to
    Q^4 coordinates ((a+c)/sqrt2, (a-c)/sqrt2, re, im); the map is an
    isometry, its own inverse, and X >> 0 iff q0 >= |(q1, q2, q3)|."""
    out = v.copy()
    out[:, 0] = (v[:, 0] + v[:, 1]) * _R2
    out[:, 1] = (v[:, 0] - v[:, 1]) * _R2
    return out


def _jnorm(q):
    """sqrt(q0^2 - |q_bar|^2) per row of q's last axis, over its leading
    axes; raises if any row is off the cone's interior."""
    qbar = q[..., 1:]
    nbar = np.sqrt(np.vecdot(qbar, qbar))
    lo = q[..., 0] - nbar
    if not lo.min() > 0:                  # NaN fails too
        raise np.linalg.LinAlgError("iterate left the Lorentz cone")
    return np.sqrt(lo * (q[..., 0] + nbar))


def _hyperbolic(h, d):
    """scale (2 v v^T - J) d per row, on d's last two axes, for
    h = (v, 2 v, scale as a column)."""
    v, a, sc = h
    out = d * _NEG_JSIGN
    out += a * np.vecdot(v, d)[..., None]
    out *= sc
    return out


def _jordan(a, b):
    """Jordan product of Q^4 with unit e = (1, 0, 0, 0), per row."""
    out = a[:, :1] * b
    out += b[:, :1] * a
    out[:, 0] = np.vecdot(a, b)
    return out


class _LorentzPlan:
    """What a :class:`_Lorentz` cone takes from the structure alone: its
    rows, U and slots, each family's functional rows in Q^4 coordinates
    (:func:`_q`) and where they go in P, and the Schur term's layers, touch
    index and K index.  A solve that holds the cone's columns divides the
    rows by its row scale."""

    def __init__(self, fams):
        decoded = [f.stacked() for f in fams]
        self.sl = slice(fams[0].offset, fams[-1].offset + fams[-1].width)
        self.rows = _reached(fams)
        nrows = self.rows.size
        self.U = np.zeros((sum(len(U) for *_, U in decoded), sum(f.count for f in fams)))
        self.parts = []           # (blocks, touches, U) per family
        self.fills = []           # (rows, P row, P columns, _q(F)) per family
        stacks = []
        block = touch = 0
        for f, (rows, F, owner, U) in zip(fams, decoded):
            at = np.searchsorted(self.rows, rows)
            self.fills.append((rows, at[:, None], 4 * (touch + owner[:, None]) + np.arange(4),
                               _q(F)))
            blocks, touches = slice(block, block + f.count), slice(touch, touch + len(U))
            self.U[touches, blocks] = U
            self.parts.append((blocks, touches, U))
            # layer k holds each row's k-th stacked row in this family
            order = np.argsort(at, kind="stable")
            layer = np.empty_like(at)
            layer[order] = np.arange(at.size) - np.searchsorted(at[order], at[order])
            stacks.append((layer, at, owner))
            block, touch = blocks.stop, touches.stop
        self.unit = np.tile([np.sqrt(2.0), 0.0, 0.0, 0.0], block)
        # one As^T y: y P on the cone's rows, then U^T of it
        self.multiplies = 4 * len(self.U) * (nrows + self.U.shape[1])
        # the Schur term's record: each family's stacked row sits in slot
        # layer * nrows + row of as many layers as the cone needs, with its
        # touch t and functional F; an empty slot's F is zero
        self.layers = 1 + int(max(layer.max(initial=-1) for layer, *_ in stacks))
        size = self.layers * nrows
        # (blocks, U, U[t]^T, slots, K index, family) per family that a row
        # touches; an untouched family's blocks keep zero rows of Z^T
        self.terms = []
        for f, ((blocks, _, U), (layer, at, owner)) in enumerate(zip(self.parts, stacks)):
            if not len(U):
                continue
            slot = layer * nrows + at
            t = np.zeros(size, np.int64)
            t[slot] = owner
            self.terms.append((blocks, U, U.T.take(t, axis=1), slot,
                               t[:, None] * len(U) + t, f))


class _Lorentz:
    """The 2x2 Hermitian PSD families as the Lorentz cone Q^4, in closed
    form, on Q^4 coordinates (:func:`_cone_coords`).

    The NT scaling is W = beta (2 v v^T - J) with v^T J v = 1 (Alizadeh &
    Goldfarb, Math. Prog. 95, 2003).  The scaled space holds Q^4
    coordinates under the Jordan product with unit e = (1, 0, 0, 0), in
    which the central X o S = mu 1 of 2x2 matrices reads x o s = 2 mu e.

    Unless the plan folds them into its dense array, the cone applies its
    own columns (:meth:`hold`): P kron(U, I4), P on the rows they reach,
    four columns per touch (its functional rows mapped by :func:`_q`), U
    the touch weights, family f's in its slot (its touches by its blocks)
    and zero elsewhere.  As^T y is U^T (y P), and As v is P (U X) with U X
    formed slot by slot: a BLAS product over the padded U sums a family's
    blocks in another order.  The Schur term needs neither P nor a
    touch-space matrix: each family's stacked rows are laid on the cone's
    rows, one layer per touch that reaches a row again, with their touches
    and functionals, and :meth:`schur` sums Z Z^T over the blocks less one
    K o (F J F^T) per family (after Fujisawa, Kojima & Nakata, Math. Prog.
    79, 1997).
    """

    def __init__(self, plan):
        self.sl, self.unit = plan.sl, plan.unit

    def hold(self, plan, drow):
        """This cone with its own columns at row scale ``drow``; its rows
        (sorted and distinct) are a view when they are all of them."""
        full = plan.rows.size == drow.size
        self.rows = slice(None) if full else plan.rows
        self.square = (self.rows, self.rows) if full else np.ix_(plan.rows, plan.rows)
        self.U, self.parts, self.layers = plan.U, plan.parts, plan.layers
        # the functional rows at this solve's row scale, in P and in the
        # Schur term's slots
        self.P = np.zeros((plan.rows.size, 4 * len(plan.U)))
        Fqs = []
        for rows, at, cols, qF in plan.fills:
            Fq = qF / drow[rows, None]
            self.P[at, cols] = Fq
            Fqs.append(Fq)
        self.terms = []
        for blocks, U, UtT, slot, kidx, f in plan.terms:
            FT = np.zeros((4, plan.layers * plan.rows.size))
            FT[:, slot] = Fqs[f].T
            self.terms.append((blocks, U, UtT, FT, kidx, (FT.T * _JSIGN) @ FT))
        return self

    def matvec(self, v):
        X, UX = v.reshape(-1, 4), np.empty((len(self.U), 4))
        for blocks, touches, U in self.parts:
            np.matmul(U, X[blocks], out=UX[touches])
        return self.P @ UX.ravel()

    def rmatvec(self, y):
        return (self.U.T @ (y[self.rows] @ self.P).reshape(-1, 4)).ravel()

    def scale(self, x, s):
        xs = np.concatenate([x[self.sl], s[self.sl]]).reshape(2, -1, 4)
        norms = _jnorm(xs)
        hat = xs / norms[..., None]
        xh, sh = hat
        gamma = np.sqrt((1 + np.vecdot(xh, sh)) / 2)
        # lam/|lam| = (gamma, ((gamma + s0) x_bar + (gamma + x0) s_bar)
        # / (2 gamma + x0 + s0))
        g = gamma + hat[..., 0]
        lam = (g[1, :, None] * xh + g[0, :, None] * sh) / (g[0] + g[1])[:, None]
        lam[:, 0] = gamma
        # w, with P(w) sh = xh and det w = 1, and (lam/|lam|) J; then v
        # with v o v = w, and u = (lam/|lam|)^-1/2 for the step length
        wj = np.empty_like(hat)
        w = np.divide(xh + sh * _JSIGN, (2 * gamma)[:, None], out=wj[0])
        np.multiply(lam, _JSIGN, out=wj[1])
        vu = wj + _E
        vu /= np.sqrt(2 * vu[..., :1])
        nx, ns = norms
        lnorm = np.sqrt(nx * ns)
        linv = 1 / lnorm
        lam *= lnorm[:, None]
        self.lam4, self.lam = lam, lam.ravel()
        # center's: lam o lam, -1/lam0 and the row -lam J / |lam|^2
        self.lam_sq, self.nlinv0 = _jordan(lam, lam).ravel(), -1 / lam[:, :1]
        self.dot0 = wj[1] * -linv[:, None]
        self.beta2, self.w = nx / ns, w
        # W = beta (2 v v^T - J) and P(u) / |lam|, in _hyperbolic's form
        two = 2 * vu
        self.W = vu[0], two[0], np.sqrt(self.beta2)[:, None]
        self.Pu = vu[1], two[1], linv[:, None]

    def to_scaled(self, v):
        # W = beta (2 v v^T - J) is symmetric: W^T v = W v
        return _hyperbolic(self.W, v.reshape(v.shape[:-1] + (-1, 4))).reshape(v.shape)

    def from_scaled(self, d):
        return self.to_scaled(d)

    def center(self, smu, corr):
        # lam o d = r for r = -(lam o lam + corr - 2 smu e): d0 from the
        # determinant, then d_bar = (r_bar - d0 lam_bar) / lam0
        r = (self.lam_sq + corr).reshape(-1, 4)
        r[:, 0] -= 2 * smu
        d0 = np.vecdot(self.dot0, r)
        d = d0[:, None] * self.lam4
        d += r
        d *= self.nlinv0
        d[:, 0] = d0
        return d.ravel()

    def product(self, a, b):
        return _jordan(a.reshape(-1, 4), b.reshape(-1, 4)).ravel()

    def max_steps(self, a, b):
        # P(lam^-1/2) d, d = a and b stacked
        rho = _hyperbolic(self.Pu, np.concatenate([a, b]).reshape(2, -1, 4))
        rbar = rho[..., 1:]
        return _min_step(rho[..., 0] - np.sqrt(np.vecdot(rbar, rbar)))

    def schur(self):
        # family f's term between its stacked rows e, e' (touch t_e, Q^4
        # functional F_e) is sum_i U[t_e, i] U[t_e', i] F_e Phi_i F_e'^T with
        # Phi_i = 2 b_i^2 w_i w_i^T - b_i^2 J, that is
        # Z Z^T - K[t_e, t_e'] F_e J F_e'^T for Z[e, i] = sqrt2 b_i U[t_e, i] F_e.w_i
        # and K = U diag(b^2) U^T.  Every family fills its blocks' rows of one
        # Z^T, and the layers of slots sum onto the cone's rows.
        n, layers = len(self.P), self.layers
        W = self.w * np.sqrt(2 * self.beta2)[:, None]
        ZT = np.zeros((len(W), layers * n))
        S = np.zeros((layers * n,) * 2)
        for blocks, U, UtT, FT, kidx, FJF in self.terms:
            np.multiply(UtT, W[blocks] @ FT, out=ZT[blocks])
            S -= ((U * self.beta2[blocks]) @ U.T).take(kidx) * FJF
        S += ZT.T @ ZT
        return S.reshape(layers, n, layers, n).sum((0, 2))


class _Matrix:
    """Real symmetric or complex Hermitian PSD blocks as matrices, with the
    NT scaling W: D -> R D R^H, where R^-1 X R^-H = R^H S R = Lam (diagonal)
    from the Cholesky factors of X and S and an SVD.  The scaled space holds
    the blocks' coordinates (:meth:`_Family.coords`) of matrices in the
    eigenbasis of the scaled point, and the Jordan product is (AB+BA)/2.
    There lam o d scales coordinate (i, j) of d by (lam_i + lam_j)/2, so
    centering is one division of coordinates."""

    def __init__(self, fam, unit):
        self.fam, self.sl, self.unit = fam, slice(fam.offset, fam.offset + fam.width), unit
        # the matrix entry (i, j) that each block coordinate reads
        if fam.kind == "herm":
            iu, ju = _offdiag_index(fam.dim)
            diag = np.arange(fam.dim)
            self.ci, self.cj = np.concatenate([diag, iu, iu]), np.concatenate([diag, ju, ju])
        else:
            self.ci, self.cj, _ = _svec_index(fam.dim)
        self.on_diag = self.ci == self.cj

    def _mats(self, v):
        fam = self.fam
        return fam.mats(v.reshape(v.shape[:-1] + (fam.count, fam.ncoords)))

    def _vec(self, mats):
        return self.fam.coords(mats).reshape(mats.shape[:-3] + (-1,))

    def scale(self, x, s):
        Lx, Ls = np.linalg.cholesky(self._pair(x[self.sl], s[self.sl]))
        U, sig, Vh = np.linalg.svd(_herm_t(Ls) @ Lx)
        r = 1.0 / np.sqrt(sig)
        self.R = Lx @ _herm_t(Vh) * r[:, None, :]
        self.RH = _herm_t(self.R)
        self.lam = np.where(self.on_diag, sig[:, self.ci], 0.0).ravel()
        self.lam2 = self.lam ** 2
        self.lsum = ((sig[:, self.ci] + sig[:, self.cj]) / 2).ravel()
        # lam^-1/2 (x) lam^-1/2, for the step length
        self.rr = r[:, :, None] * r[:, None, :]

    def to_scaled(self, v):
        return self._vec(self.RH @ self._mats(v) @ self.R)

    def from_scaled(self, d):
        return self._vec(self.R @ self._mats(d) @ self.RH)

    def center(self, smu, corr):
        return (smu * self.unit - self.lam2 - corr) / self.lsum

    def _pair(self, a, b):
        """a and b as matrices, stacked on a new first axis."""
        return self._mats(np.concatenate([a, b]).reshape(2, -1))

    def product(self, a, b):
        # b a = (a b)^H for Hermitian a and b
        ab = np.matmul(*self._pair(a, b))
        return self._vec((ab + _herm_t(ab)) / 2)

    def max_steps(self, a, b):
        d = self._pair(a, b)
        d *= self.rr
        return _min_step(np.linalg.eigvalsh(d)[..., 0])


def _herm_t(m):
    return m.conj().swapaxes(-1, -2)


class _Plan:
    """What the solver derives from a program's structure alone, made at
    its first solve and shared by every program on that structure
    (:meth:`ConicProgram.with_values`): the row scale's share from the
    matrix families, the cones, how the columns are held, and the gathers
    that read the duals.  Nothing in it reads a scalar family's touch
    values, which each solve reads from its own program.

    The 2x2 Hermitian families come first in the columns and are one
    Lorentz cone; every other column (columns ``sl``) is held in one
    dense array.  The Lorentz cone applies its own columns (``lorentz``,
    its plan) unless one product with a dense As (rows x columns
    multiplies) costs no more than one with its columns plus one with the
    others on the rows they reach; then its columns are folded into the
    array, in Q^4 coordinates, and ``lorentz`` is None.  The array's
    matrix columns are formed here (``fixed``); a solve adds its scalar
    columns (``index``, where their values go) and divides by its row
    scale."""

    def __init__(self, prog):
        fams = sorted(prog._families.values(), key=lambda f: f.offset)
        nrows, ncols = prog._nrows, prog._ncols
        mats = [f for f in fams if f.kind in ("herm", "psd")]
        self.drow = np.zeros(nrows)
        for f in mats:
            _row_scale(self.drow, f)
        q4 = [f for f in mats if (f.kind, f.dim) == ("herm", 2)]
        self.lorentz = _LorentzPlan(q4) if q4 else None
        self.cones = [(_Lorentz, self.lorentz)] if q4 else []
        self.cones += [(_Matrix, f, f.coords(np.broadcast_to(
            np.eye(f.dim), (f.count, f.dim, f.dim))).ravel()) for f in mats[len(q4):]]
        scalars = fams[len(mats):]
        if sum(f.width for f in scalars):
            self.cones.append((_Nonneg, slice(scalars[0].offset, ncols)))
        held = fams[len(q4):]
        width = sum(f.width for f in held)
        if q4 and nrows * ncols <= self.lorentz.multiplies + _reached(held).size * width:
            held, self.lorentz, width = fams, None, ncols
        self.sl = slice(ncols - width, ncols)
        held_mats = [f for f in held if f.kind in ("herm", "psd")]
        mwidth = sum(f.width for f in held_mats)
        self.fixed = np.bincount(
            _dense_index(held_mats, self.sl.start, mwidth), _dense_values(held_mats),
            nrows * mwidth).reshape(nrows, mwidth)
        if q4 and self.lorentz is None:
            block = self.fixed[:, :4 * sum(f.count for f in q4)]
            block[:] = _q(block.reshape(-1, 4)).reshape(block.shape)
        self.fixed.flags.writeable = False
        self.scalars = [f.name for f in scalars]
        self.index = _dense_index(scalars, self.sl.start + mwidth, width - mwidth)
        # the duals: one gather per matrix dimension and one of the scalar
        # rows, each with its row groups' names, then the groups' order
        self.order = [g.name for g in prog._rows]
        groups = {}
        for g in prog._rows:
            groups.setdefault(g.dim if g.kind == "mat" else None, []).append(g)
        self.gathers = [
            ([g.name for g in gs], dim,
             np.array([g.offset for g in gs]) if dim is None
             else np.array([g.offset + np.arange(g.nrows) for g in gs]))
            for dim, gs in groups.items()]

    def duals(self, y) -> dict:
        """Row-group name -> dual (dual_rows style) of the row vector y."""
        out = {}
        for names, dim, index in self.gathers:
            out.update(zip(names, y[index].tolist() if dim is None
                           else hermitian_from_coords(y[index], dim)))
        return {name: out[name] for name in self.order}


def _row_scale(drow, fam) -> None:
    """Raise drow to family ``fam``'s largest |entry| per row; rounding is
    monotone, so max |F_ek U_ti| is max |F_e| max |U_t|."""
    rows, F, owner, U = fam.stacked()
    np.maximum.at(drow, rows,
                  np.abs(F).max(axis=1) * np.abs(U).max(axis=1, initial=0.0)[owner])


class _Cones(list):
    """A program's cones, in column order, and its As in the cones'
    coordinates: ``lorentz``, the Lorentz cone when it applies its own
    columns (else None), and ``A``, every other column (columns ``sl``) as
    one dense array.  :func:`_scale` adds ``Abar``, that array mapped by
    the current scaling: As W on columns ``sl``."""


def _cones(prog):
    """(cones, drow): the program's :class:`_Plan` of cones and columns, on
    As = A / drow.  The row scale drow[r] is the largest |entry| that a
    touch puts in row r, before the touches on one block coordinate are
    summed, at least 1e-12: max_j |A_rj| unless a row holds two terms on
    one coordinate.  The scalar families' touches and the row scale are
    this program's: the dense array is the plan's matrix columns and this
    program's scalar columns, over drow."""
    plan = prog._layout()
    scalars = [prog._families[name] for name in plan.scalars]
    drow = plan.drow.copy()
    for f in scalars:
        _row_scale(drow, f)
    drow = np.maximum(drow, 1e-12)
    cones = _Cones(cls(*args) for cls, *args in plan.cones)
    cones.lorentz = None if plan.lorentz is None else cones[0].hold(plan.lorentz, drow)
    nrows, width = len(drow), plan.sl.stop - plan.sl.start - plan.fixed.shape[1]
    cones.A = np.hstack([plan.fixed, np.bincount(
        plan.index, _dense_values(scalars), nrows * width).reshape(nrows, width)])
    cones.A *= (1.0 / drow)[:, None]
    cones.sl = plan.sl
    return cones, drow


def _cone_coords(cones, v):
    """v with the Lorentz cone's slice mapped by :func:`_q`: from the
    families' coordinates to the cones', and back (the map is an involution)."""
    out = v.copy()
    for g in cones:
        if isinstance(g, _Lorentz):
            out[g.sl] = _q(v[g.sl].reshape(-1, 4)).ravel()
    return out


def _matvec(cones, v):
    """As v: the dense array's term plus the held Lorentz cone's."""
    out = cones.A @ v[cones.sl]
    if cones.lorentz is not None:
        out[cones.lorentz.rows] += cones.lorentz.matvec(v[cones.lorentz.sl])
    return out


def _rmatvec(cones, y):
    """As^T y: the held Lorentz cone's columns, then the dense array's."""
    out = y @ cones.A
    if cones.lorentz is not None:
        out = np.concatenate([cones.lorentz.rmatvec(y), out])
    return out


def _to_scaled(cones, v, start=0):
    """W^T v, on v's last axis, which holds the columns from ``start`` on."""
    out = np.empty_like(v)
    for g in cones:
        if g.sl.start >= start:
            sl = slice(g.sl.start - start, g.sl.stop - start)
            out[..., sl] = g.to_scaled(v[..., sl])
    return out


def _from_scaled(cones, d):
    """W d, cone by cone."""
    out = np.empty_like(d)
    for g in cones:
        out[g.sl] = g.from_scaled(d[g.sl])
    return out


def _scale(cones, x, s):
    """Set every cone's NT scaling W at (x, s) and map the dense array's
    rows by W^T once, to ``cones.Abar`` = As W on its columns; return the
    scaled point lam = W^-1 x = W^T s."""
    cones.lam = lam = np.empty_like(x)
    for g in cones:
        g.scale(x, s)
        lam[g.sl] = g.lam
    cones.Abar = _to_scaled(cones, cones.A, cones.sl.start)
    return lam


def _scaled_matvec(cones, v):
    """Abar v = As W v: the scaled array's term plus the held Lorentz cone's,
    which applies W before its own columns."""
    out = cones.Abar @ v[cones.sl]
    g = cones.lorentz
    if g is not None:
        out[g.rows] += g.matvec(g.from_scaled(v[g.sl]))
    return out


def _scaled_rmatvec(cones, u):
    """Abar^T u = W^T As^T u: the held Lorentz cone's columns, then W^T,
    then the scaled array's term."""
    out = u @ cones.Abar
    g = cones.lorentz
    if g is not None:
        out = np.concatenate([g.to_scaled(g.rmatvec(u)), out])
    return out


def _schur(cones) -> np.ndarray:
    """M = Abar Abar^T = As Phi As^T (Phi = W W^T): the scaled array's
    term plus the held Lorentz cone's."""
    M = cones.Abar @ cones.Abar.T
    if cones.lorentz is not None:
        M[cones.lorentz.square] += cones.lorentz.schur()
    return (M + M.T) / 2


# ---------------------------------------------------------------------------
# HSD interior-point core
# ---------------------------------------------------------------------------

def _chol_reg(M):
    """The lower factor of M, or of M + base 10^(2k-14) I for the least k < 6."""
    L, info = dpotrf(M, lower=1)
    if info == 0:
        return L
    base = np.mean(np.abs(np.diag(M))) + 1.0
    for k in range(6):
        L, info = dpotrf(M + base * 10.0 ** (-14 + 2 * k) * np.eye(M.shape[0]), lower=1)
        if info == 0:
            return L
    return None


def _potrs(L, rhs):
    z, info = dpotrs(L, rhs, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrs returned info={info}")
    return z


def _cho_solve_refined(L, M, rhs):
    z = _potrs(L, rhs)
    for _ in range(2):
        z += _potrs(L, rhs - M @ z)
    return z


def _step_fraction(sigma: float, aaff: float) -> float:
    """The share of the way to the cone boundary a step takes (module
    docstring)."""
    return 1 - max(1e-6, min(1e-2, max(sigma, (1 - aaff) / 10)))


def _start(cones, bs, n):
    """(x0, s0): s0 = e, the cones' unit, and x0 = alpha e, alpha the
    least-squares fit of As (alpha e) = bs.  The floor 1e-2 keeps x0
    interior when the fit is not positive (an infeasible b) and bounds
    how near the boundary a start can be; the cap 1 starts no program
    farther out than the unit does.  If no row sees e (As e = 0), every
    multiple fits alike and x0 = e."""
    e = np.empty(n)
    for g in cones:
        e[g.sl] = g.unit
    ae = _matvec(cones, e)
    norm2 = ae @ ae
    alpha = min(1.0, max(1e-2, (bs @ ae) / norm2)) if norm2 > 0 else 1.0
    return alpha * e, e


class _Newton:
    """One iteration's Newton system of the HSD equations, solved in the
    NT-scaled space of the cones' current scaling (:func:`_scale`).  In
    the scaled steps dxbar = W^-1 dx and dsbar = W^T ds the equations read

        Abar dxbar - bs dtau              = -eta ry
        Abar^T dy + dsbar - cbar dtau     = -eta rxbar
        cbar^T dxbar - bs^T dy + dkappa   = -eta rz
        dxbar + dsbar                     = q
        tau dkappa + kappa dtau           = sigma mu - tau kappa - corr_tk

    with cbar = W^T c, rxbar = W^T rx, and q the cones' centering of
    lam o (dxbar + dsbar) = sigma mu unit o unit - lam o lam - corr.  So dy is
    u1 + dtau u2 over M = Abar Abar^T, and dtau comes from the third
    equation (Vandenberghe, "The CVXOPT linear and quadratic cone program
    solvers", 2010).  The right-hand side of u2 and its products with
    Abar^T are shared by both directions of the iteration."""

    def __init__(self, cones, L, M, c, bs, ry, rx, rz, mu, tau, kappa):
        self.cones, self.L, self.M, self.bs = cones, L, M, bs
        self.ry, self.rz, self.mu, self.tau, self.kappa = ry, rz, mu, tau, kappa
        # one W^T call for c and the dual residual stacked
        self.cbar, self.rxbar = _to_scaled(cones, np.concatenate([c, rx]).reshape(2, -1))
        self.u2 = _cho_solve_refined(L, M, _scaled_matvec(cones, self.cbar) + bs)
        self.t2 = _scaled_rmatvec(cones, self.u2)
        self.p2 = self.t2 - self.cbar
        self.den = self.cbar @ self.p2 - bs @ self.u2 - kappa / tau

    def direction(self, eta, sigma, corr, corr_tk):
        """(dxbar, dy, dsbar, dtau, dkappa) at centring weight ``sigma``,
        residual weight ``eta`` and correctors ``corr`` (one per cone, in
        its scaled space) and ``corr_tk``.  ``corr`` None is the
        predictor's case, sigma = 0 with no corrector, whose centering is
        -lam in closed form (every cone's ``center(0, 0)``)."""
        cones, mu, tau, kappa = self.cones, self.mu, self.tau, self.kappa
        # q = dxbar + dsbar, the centering
        if corr is None:
            q = -cones.lam
        else:
            q = np.empty_like(self.cbar)
            for g, cg in zip(cones, corr):
                q[g.sl] = g.center(sigma * mu, cg)
        v = q + eta * self.rxbar
        rhs_tk = sigma * mu - tau * kappa - corr_tk
        u1 = _cho_solve_refined(self.L, self.M, -eta * self.ry - _scaled_matvec(cones, v))
        t1 = _scaled_rmatvec(cones, u1)
        p1 = v + t1
        if abs(self.den) < 1e-300:
            raise FloatingPointError("singular tau equation")
        dtau = (-eta * self.rz - self.cbar @ p1 + self.bs @ u1 - rhs_tk / tau) / self.den
        dy = u1 + dtau * self.u2
        dx = p1 + dtau * self.p2
        ds = q - dx
        dkappa = (rhs_tk - kappa * dtau) / tau
        return dx, dy, ds, dtau, dkappa

    def max_step(self, step):
        """The largest alpha that keeps every cone, tau and kappa feasible
        along the scaled direction ``step`` (the form of :meth:`direction`)."""
        dx, _, ds, dtau, dkappa = step
        amax = min(g.max_steps(dx[g.sl], ds[g.sl]) for g in self.cones)
        if dtau < 0:
            amax = min(amax, -self.tau / dtau)
        if dkappa < 0:
            amax = min(amax, -self.kappa / dkappa)
        return amax


def _solve_hsd(prog: ConicProgram):
    b, c_prog = prog.rhs(), prog.objective()
    nrows, n = prog._nrows, prog._ncols
    if nrows == 0:
        raise SolverFailure("program has no equality rows", program=prog)

    # row equilibration; duals are recovered through drow at the end
    cones, drow = _cones(prog)
    c = _cone_coords(cones, c_prog)
    bs = b / drow
    norm_b = 1 + np.linalg.norm(bs)
    norm_c = 1 + np.linalg.norm(c)

    x, s = _start(cones, bs, n)
    # the barrier degree: unit @ unit is each cone's degree
    degree = s @ s
    if degree == 0:
        raise SolverFailure("program has no cone variables", program=prog)
    y = np.zeros(nrows)
    tau, kappa = 1.0, 1.0
    mu0 = (x @ s + tau * kappa) / (degree + 1)

    status = "numerical-failure"
    it = 0
    pres = dres = relgap = np.nan
    candidate = None      # last iterate meeting the base tolerances
    polish = 0
    ended = "iteration limit"
    for it in range(1, MAXITER + 1):
        mu = (x @ s + tau * kappa) / (degree + 1)
        ax, aty = _matvec(cones, x), _rmatvec(cones, y)
        cx, by = c @ x, bs @ y
        ry = ax - bs * tau
        rx = aty + s - c * tau
        rz = cx - by + kappa

        # the stopping rule reads the iterate over tau: residuals ry / tau
        # and rx / tau, objectives c x / tau and bs y / tau
        pres = math.sqrt(ry @ ry) / (tau * norm_b)
        dres = math.sqrt(rx @ rx) / (tau * norm_c)
        pobj, dobj = cx / tau, by / tau
        objscale = 1 + abs(pobj) + abs(dobj)
        relgap = abs(pobj - dobj) / objscale
        if pres <= FEASTOL and dres <= FEASTOL and relgap <= GAPTOL:
            # keep polishing until weak duality holds to 1e-10 and the
            # objective has settled, or progress stalls.  The objective's
            # error is estimated by the gap plus each residual priced by
            # the other side's iterate (large duals turn a small primal
            # residual into a large objective error); among qualifying
            # iterates the smallest estimate wins
            crossover = (dobj - pobj) / objscale
            err = (abs(pobj - dobj) + (abs(y @ ry) + abs(x @ rx)) / tau ** 2) / objscale
            score = (crossover > 1e-10, err)
            if candidate is None or score < candidate[0]:
                candidate = (score, x.copy(), y.copy(), s.copy(), tau,
                             pres, dres)
            polish += 1
            converged = (crossover <= 1e-10 and max(pres, dres) <= 0.03 * FEASTOL
                         and err <= 0.1 * GAPTOL)
            if converged or polish >= 10:
                status, ended = "optimal", "converged" if converged else "polish cap"
                break
        # the rays' residuals are the residuals' own products, scaled:
        # As^T(y/by) + s/by and As(x/-cx)
        if by > 0 and mu < 1e-3 * mu0:
            if np.linalg.norm(aty + s) / by <= FEASTOL * norm_c:
                status = ended = "infeasible"
                break
        if cx < 0 and mu < 1e-3 * mu0:
            if np.linalg.norm(ax) / -cx <= FEASTOL * norm_b:
                status = ended = "unbounded"
                break
        if mu < 1e-16 * mu0:
            ended = "mu underflow"
            break

        try:
            lam = _scale(cones, x, s)
        except np.linalg.LinAlgError:
            ended = "iterate left the cone"
            break
        M = _schur(cones)
        Lm = _chol_reg(M)
        if Lm is None:
            ended = "Schur complement not positive definite"
            break
        newton = _Newton(cones, Lm, M, c, bs, ry, rx, rz, mu, tau, kappa)
        try:
            pred = newton.direction(1.0, 0.0, None, 0.0)
            dxa, _, dsa, dta, dka = pred
            aaff = min(1.0, newton.max_step(pred))
            mua = ((lam + aaff * dxa) @ (lam + aaff * dsa)
                   + (tau + aaff * dta) * (kappa + aaff * dka)) / (degree + 1)
            sigma = min(1.0, max(0.0, mua / mu)) ** 3
            corr = [g.product(dxa[g.sl], dsa[g.sl]) for g in cones]
            step = newton.direction(1.0 - sigma, sigma, corr, dta * dka)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            ended = f"direction failed ({exc})"
            break

        alpha = min(1.0, _step_fraction(sigma, aaff) * newton.max_step(step))
        if alpha <= 1e-13:
            ended = "step length below 1e-13"
            break
        dx, dy, _, dt, dk = step
        x = x + alpha * _from_scaled(cones, dx)
        s = s + alpha * (c * dt - (1.0 - sigma) * rx - _rmatvec(cones, dy))
        y = y + alpha * dy
        tau += alpha * dt
        kappa += alpha * dk

    if status != "optimal" and candidate is not None:
        status = "optimal"
        ended = f"fallback: {ended} after {polish} polishing iterations"
    if status == "optimal" and candidate is not None:
        _, x, y, s, tau, pres, dres = candidate
    x, s, c = _cone_coords(cones, x), _cone_coords(cones, s), c_prog
    y_orig = y / drow

    sol = ConicSolution(status=status, iterations=it, ended=ended)
    if status == "optimal":
        xs = x / tau
        sol.primal = _extract_primal(prog, xs)
        sol.dual_rows = _extract_duals(prog, y_orig / tau)
        sol.dual_slack = _extract_primal(prog, s / tau)
        sol.pobj = float(c @ xs)
        sol.dobj = float(b @ (y_orig / tau))
        sol.gap = abs(sol.pobj - sol.dobj) / (1 + abs(sol.pobj) + abs(sol.dobj))
        sol.pres = float(pres)
        sol.dres = float(dres)
        return sol
    if status == "infeasible":
        by = b @ y_orig
        sol.ray = _extract_duals(prog, y_orig / by)
        sol.ray_violation = float(by / np.linalg.norm(y_orig))
        return sol
    if status == "unbounded":
        cx = c @ x
        sol.ray = {"x": _extract_primal(prog, x / -cx)}
        sol.ray_violation = float(-cx / np.linalg.norm(x))
        return sol

    report = dict(pres=float(pres), dres=float(dres), relgap=float(relgap),
                  iterations=it, ended=ended)
    raise SolverFailure(
        f"conic solve failed for {prog.name!r}: {report}",
        program=prog, report=report)


def _extract_primal(prog: ConicProgram, vec):
    out = {}
    for fam in prog.families.values():
        part = fam.part(vec)
        out[fam.name] = fam.mats(part) if fam.kind in ("herm", "psd") else part[:, 0].copy()
    return out


def _extract_duals(prog: ConicProgram, y: np.ndarray) -> dict:
    return prog._layout().duals(y)
