"""Sparse matrices on padded rows: a sparsity pattern built once per
connectivity, matrices assembled into it with one scatter-add, matvec, and
Jacobi-preconditioned conjugate gradients for SPD systems."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NonFiniteValue


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float


class SparsityPattern:
    """Where the entries of an assembly with fixed connectivity go.

    Built once from the coordinate rows and columns of the local entries,
    two arrays of one size read in row-major order.
    The column table ``cols`` is (width, n), one column per matrix row:
    ``cols[:, i]`` lists the distinct columns of row i in increasing order,
    then column 0 up to the longest row's width; every matrix holds weight 0
    in that padding, so a non-finite x[0] still reaches the shorter rows of a
    matvec.  The k-th entries of all rows are contiguous, so a matvec reduces
    over whole rows of the table.  ``indptr`` and ``indices`` give the same
    entries in compressed-row order.
    """

    def __init__(self, n, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size != cols.size:
            raise DimensionMismatch("rows and cols length mismatch")
        self.n = n = int(n)
        # the keys row*n + col in coordinate (row-major) order, sorted, and
        # where each came from; rows and cols may be broadcast views, which
        # are never copied, and the set-up holds three key-sized arrays
        # where np.unique(..., return_inverse=True) holds five
        keys = rows.reshape(cols.shape) * n
        keys += cols
        keys = keys.ravel()
        order = np.argsort(keys)
        keys = keys[order]
        first = np.empty(keys.size, dtype=bool)  # first of its distinct key
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        entry_rows, self.indices = np.divmod(keys[first], n)
        counts = np.bincount(entry_rows, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.width = width = int(counts.max(initial=0))
        # flat position of each distinct entry in the row-major (width, n)
        # table: the k-th entry of row i sits at k*n + i
        self.entry_slots = ((np.arange(entry_rows.size) - self.indptr[entry_rows]) * n
                            + entry_rows)
        # the slot of each coordinate entry: its distinct entry's slot, taken
        # in sorted order and scattered back through the sort order
        distinct = np.cumsum(first, out=keys)
        distinct -= 1
        sorted_slots = self.entry_slots[distinct]
        del keys, distinct
        self.slots = np.empty_like(sorted_slots)
        self.slots[order] = sorted_slots
        table = np.zeros(n * width, dtype=np.int64)
        table[self.entry_slots] = self.indices
        self.cols = table.reshape(width, n)
        ondiag = entry_rows == self.indices
        self.diag_rows = entry_rows[ondiag]
        self.diag_slots = self.entry_slots[ondiag]

    def assemble(self, values):
        """The matrix whose entry (rows[k], cols[k]) sums values[k] over k."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size != self.slots.size:
            raise DimensionMismatch(
                f"expected {self.slots.size} values, got {values.size}")
        vals = np.bincount(self.slots, weights=values, minlength=self.n * self.width)
        return SparseMatrix(self, vals.reshape(self.width, self.n))


class SparseMatrix:
    """Square sparse matrix: values on the padded rows of a SparsityPattern.

    ``vals`` is (width, n) like the pattern's column table.  Every entry of
    the pattern is kept, zero or not.  ``indptr``, ``indices`` and ``data``
    are the compressed-row view of the same entries.  Instances are treated
    as immutable.
    """

    def __init__(self, pattern, vals):
        self.pattern = pattern
        self.n = pattern.n
        self.vals = vals
        self._data = None
        self._inv_diag = None

    @property
    def indptr(self):
        return self.pattern.indptr

    @property
    def indices(self):
        return self.pattern.indices

    @property
    def data(self):
        if self._data is None:
            self._data = self.vals.ravel()[self.pattern.entry_slots]
        return self._data

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"expected vector of length {self.n}")
        gathered = x[self.pattern.cols]
        gathered *= self.vals
        return np.add.reduce(gathered, axis=0)

    def diagonal(self):
        """The main diagonal; 0 on rows whose pattern has no diagonal entry."""
        diag = np.zeros(self.n)
        diag[self.pattern.diag_rows] = self.vals.ravel()[self.pattern.diag_slots]
        return diag

    def inverse_diagonal(self):
        """1 / diagonal, the Jacobi preconditioner; computed once per matrix.

        Raises NonFiniteValue on every call while the diagonal is not finite
        and positive.
        """
        if self._inv_diag is None:
            diag = self.diagonal()
            positive = np.isfinite(diag) & (diag > 0)
            if not positive.all():
                bad = int(np.argmin(positive))
                raise NonFiniteValue(
                    f"diagonal entry {bad} is {diag[bad]!r}; the matrix is not SPD")
            self._inv_diag = 1.0 / diag
            self._inv_diag.setflags(write=False)  # shared by every solve
        return self._inv_diag

    def scaled_add(self, alpha, other):
        """self + alpha*other, for two matrices on one pattern."""
        if other.pattern is not self.pattern:
            raise DimensionMismatch("matrices do not share one sparsity pattern")
        return SparseMatrix(self.pattern, self.vals + alpha * other.vals)


# CG iterations per unknown before cg_solve gives up
CG_ITERATIONS_PER_DOF = 10


def cg_solve(mat, b, tol, x0=None, atol=0.0):
    """Jacobi (diagonal) preconditioned conjugate gradients for SPD systems.

    Success means the true residual satisfies |b - Ax| <= max(tol*|b|,
    atol); the report's residual is recomputed from the returned iterate,
    not taken from the recurrence.  Raises NonConvergence past
    CG_ITERATIONS_PER_DOF * n iterations, and NonFiniteValue naming the
    input when b or x0 is not finite or the diagonal is not finite and
    positive, or when the recurrence degenerates.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (mat.n,):
        raise DimensionMismatch(f"rhs must have length {mat.n}")
    bnorm = _norm(b)
    if not math.isfinite(bnorm):
        raise NonFiniteValue(f"right-hand side b: {_nonfinite(b)}")
    if x0 is not None:
        x = np.array(x0, dtype=float)
        if not np.isfinite(x).all():
            raise NonFiniteValue(f"start vector x0: {_nonfinite(x)}")
    inv_diag = mat.inverse_diagonal()
    if bnorm == 0.0:
        return np.zeros(mat.n), SolveReport(0, 0.0)

    if x0 is None:
        x = np.zeros(mat.n)
        r = b.copy()
    else:
        r = b - mat.matvec(x)
        if _norm(r) > bnorm + atol:
            # warm start is worse than starting cold; drop it
            x = np.zeros(mat.n)
            r = b.copy()
    # x, r, z and p are updated in place
    z = inv_diag * r
    p = z.copy()
    rho = float(r @ z)
    # iterate slightly past the target so the recomputed residual meets tol
    target = max(0.5 * tol * bnorm, atol)
    niter = 0
    maxiter = CG_ITERATIONS_PER_DOF * mat.n
    while niter < maxiter:
        if _norm(r) <= target:
            break
        ap = mat.matvec(p)
        denom = float(p @ ap)
        if not math.isfinite(denom) or denom <= 0.0:
            raise NonFiniteValue("CG breakdown: p^T A p not positive")
        alpha = rho / denom
        x += alpha * p
        r -= alpha * ap
        np.multiply(inv_diag, r, out=z)
        rho_new = float(r @ z)
        if not math.isfinite(rho_new):
            raise NonFiniteValue("CG breakdown: nonfinite recurrence scalar")
        p *= rho_new / rho
        p += z
        rho = rho_new
        niter += 1
    residual = _norm(b - mat.matvec(x))
    rel = residual / bnorm
    if rel > tol and residual > atol:
        raise NonConvergence(
            f"CG at relative residual {rel:.3e} after {niter} iterations (tol {tol:.1e})"
        )
    return x, SolveReport(niter, rel)


def _nonfinite(v):
    # which entries of a vector are not finite, or that only its norm overflows
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size == 0:
        return "its entries are finite but its norm overflows"
    return f"{bad.size} non-finite entries, the first {v[bad[0]]!r} at index {bad[0]}"


def _norm(v):
    # what np.linalg.norm computes for a real vector, without its overhead
    return math.sqrt(float(v @ v))
