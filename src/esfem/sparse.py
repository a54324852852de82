"""Minimal symmetric sparse linear algebra: CSR storage, matvec, diagonal-
preconditioned conjugate gradients, and small dense fallbacks for tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NonFiniteValue


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


class SparseMatrix:
    """Square sparse matrix in compressed-row form.

    Built from coordinate triplets; duplicate entries are summed and explicit
    zeros dropped when finalizing.  Instances are treated as immutable.
    """

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._diag = None
        self._table = None

    @classmethod
    def from_coo(cls, n, rows, cols, values):
        mat = CsrPattern(n, rows, cols).assemble(values)
        keep = mat.data != 0.0
        if not np.all(keep):
            counts = np.diff(mat.indptr)
            row_of = np.repeat(np.arange(n), counts)[keep]
            mat = cls(
                n,
                np.concatenate([[0], np.cumsum(np.bincount(row_of, minlength=n))]),
                mat.indices[keep],
                mat.data[keep],
            )
        return mat

    @classmethod
    def identity(cls, n):
        return cls(n, np.arange(n + 1), np.arange(n), np.ones(n))

    def _padded_rows(self):
        """(cols, vals), each (n, longest row): row i holds its entries first,
        then column 0 with weight 0, so every row has the same length (and a
        non-finite x[0] reaches the rows shorter than the longest)."""
        if self._table is None:
            n = self.n
            counts = np.diff(self.indptr)
            width = int(counts.max(initial=0))
            # flat position of each entry in the row-major (n, width) table
            at = np.arange(self.nnz) + np.repeat(
                np.arange(n) * width - self.indptr[:-1], counts)
            cols = np.zeros(n * width, dtype=self.indices.dtype)
            vals = np.zeros(n * width)
            cols[at] = self.indices
            vals[at] = self.data
            self._table = cols.reshape(n, width), vals.reshape(n, width)
        return self._table

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"expected vector of length {self.n}")
        cols, vals = self._padded_rows()
        return np.einsum("ij,ij->i", vals, x[cols])

    def __matmul__(self, x):
        return self.matvec(x)

    def diagonal(self):
        if self._diag is None:
            counts = np.diff(self.indptr)
            rows = np.repeat(np.arange(self.n), counts)
            ondiag = rows == self.indices
            diag = np.zeros(self.n)
            diag[rows[ondiag]] = self.data[ondiag]
            self._diag = diag
        return self._diag

    def to_dense(self):
        dense = np.zeros((self.n, self.n))
        counts = np.diff(self.indptr)
        rows = np.repeat(np.arange(self.n), counts)
        dense[rows, self.indices] = self.data
        return dense

    @property
    def nnz(self):
        return self.data.size

    def scaled(self, alpha):
        """alpha*self, sharing the sparsity structure."""
        return SparseMatrix(self.n, self.indptr, self.indices, alpha * self.data)

    def scaled_add(self, alpha, other):
        """self + alpha*other; fast path when both share one sparsity pattern."""
        if other.n != self.n:
            raise DimensionMismatch("matrix sizes differ")
        if np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        ):
            return SparseMatrix(
                self.n, self.indptr, self.indices, self.data + alpha * other.data
            )
        counts_a = np.diff(self.indptr)
        counts_b = np.diff(other.indptr)
        rows = np.concatenate(
            [np.repeat(np.arange(self.n), counts_a), np.repeat(np.arange(self.n), counts_b)]
        )
        cols = np.concatenate([self.indices, other.indices])
        vals = np.concatenate([self.data, alpha * other.data])
        return SparseMatrix.from_coo(self.n, rows, cols, vals)


class CsrPattern:
    """Reusable COO->CSR reduction for assemblies that share connectivity.

    The sort order and reduction segments are computed once; repeated
    assemblies with new values only pay for one fancy-index and one reduceat.
    """

    def __init__(self, n, rows, cols):
        rows = np.asarray(rows).ravel()
        cols = np.asarray(cols).ravel()
        if rows.size != cols.size:
            raise DimensionMismatch("rows and cols length mismatch")
        self.n = int(n)
        order = np.lexsort((cols, rows))
        rs, cs = rows[order], cols[order]
        newgroup = np.ones(rs.size, dtype=bool)
        newgroup[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        starts = np.flatnonzero(newgroup)
        self._order = order
        self._starts = starts
        self.indices = cs[starts]
        counts = np.bincount(rs[starts], minlength=self.n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])

    def assemble(self, values):
        values = np.asarray(values, dtype=float).ravel()
        data = np.add.reduceat(values[self._order], self._starts)
        return SparseMatrix(self.n, self.indptr, self.indices, data)


def symmetry_defect(mat, nsamples=200, rng=None):
    """Max relative asymmetry |a_ij - a_ji| / max|a| over sampled entries."""
    rng = np.random.default_rng(0) if rng is None else rng
    if mat.nnz == 0:
        return 0.0
    scale = np.abs(mat.data).max()
    counts = np.diff(mat.indptr)
    rows = np.repeat(np.arange(mat.n), counts)
    picks = rng.integers(0, mat.nnz, size=min(nsamples, mat.nnz))
    worst = 0.0
    for k in picks:
        i, j = int(rows[k]), int(mat.indices[k])
        a_ij = mat.data[k]
        lo, hi = mat.indptr[j], mat.indptr[j + 1]
        sel = np.flatnonzero(mat.indices[lo:hi] == i)
        a_ji = mat.data[lo + sel[0]] if sel.size else 0.0
        worst = max(worst, abs(a_ij - a_ji) / scale)
    return worst


def cg_solve(mat, b, tol=1e-12, maxiter=None, precondition=True, x0=None,
             atol=0.0):
    """Preconditioned conjugate gradients for SPD systems.

    Jacobi (diagonal) preconditioning by default.  Success means the true
    residual satisfies |b - Ax| <= max(tol*|b|, atol); the report's residual
    is recomputed from the returned iterate, not taken from the recurrence.
    Raises NonConvergence past ``maxiter`` (default 10n) and NonFiniteValue if
    the recurrence degenerates.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (mat.n,):
        raise DimensionMismatch(f"rhs must have length {mat.n}")
    if maxiter is None:
        maxiter = 10 * mat.n
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros(mat.n), SolveReport(0, 0.0, True)
    inv_diag = None
    if precondition:
        diag = mat.diagonal()
        if np.any(diag <= 0):
            raise NonFiniteValue("nonpositive diagonal; matrix is not SPD")
        inv_diag = 1.0 / diag

    if x0 is None:
        x = np.zeros(mat.n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - mat.matvec(x)
        if _norm(r) > bnorm + atol:
            # warm start is worse than starting cold; drop it
            x = np.zeros(mat.n)
            r = b.copy()
    # x, r, z and p are updated in place; without preconditioning z is r
    z = inv_diag * r if precondition else r
    p = z.copy()
    rho = float(r @ z)
    # iterate slightly past the target so the recomputed residual meets tol
    target = max(0.5 * tol * bnorm, atol)
    niter = 0
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
        if precondition:
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
    return x, SolveReport(niter, rel, True)


def _norm(v):
    # what np.linalg.norm computes for a real vector, without its overhead
    return math.sqrt(float(v @ v))
