"""Sparse storage and linear solution for the condensed trace system.

Backed by scipy CSR storage and SuperLU (sparse direct LU with COLAMD
fill-reducing ordering and partial pivoting) with iterative refinement.
The dense monolithic oracle the condensed solve is checked against lives in
the test suite (`tests/dense_oracle.py`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# relative residual (2-norm) every solve must reach
RESIDUAL_TOL = 1e-12


class SolveError(RuntimeError):
    """Factorization or iteration failure, with diagnostics in the message."""


class SparseMatrix:
    """Square sparse matrix assembled from coordinate triplets."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        self.n = n
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._csr = None

    def add(self, rows, cols, vals):
        if self._csr is not None:
            raise RuntimeError("matrix already finalized")
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        vals = np.asarray(vals, dtype=float).reshape(-1)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("coordinate arrays must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= self.n
                          or cols.min() < 0 or cols.max() >= self.n):
            raise IndexError("coordinate outside matrix dimension")
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(vals)

    def finalize(self) -> "SparseMatrix":
        if self._csr is None:
            if self._rows:
                coo = sp.coo_matrix(
                    (np.concatenate(self._vals),
                     (np.concatenate(self._rows), np.concatenate(self._cols))),
                    shape=(self.n, self.n))
            else:
                coo = sp.coo_matrix((self.n, self.n))
            csr = coo.tocsr()
            csr.sum_duplicates()
            csr.sort_indices()
            self._csr = csr
            self._rows = self._cols = self._vals = []
        return self

    @property
    def csr(self) -> sp.csr_matrix:
        if self._csr is None:
            raise RuntimeError("matrix not finalized")
        return self._csr

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def solve(self, b) -> np.ndarray:
        """Solve Ax = b to a relative residual <= RESIDUAL_TOL (2-norm) with
        SuperLU plus iterative refinement; raises SolveError if the residual
        target is not met."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"rhs dimension mismatch: {b.shape} vs {self.n}")
        if self.n == 0:
            return np.zeros(0)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(self.n)
        try:
            lu = spla.splu(self.csr.tocsc())
        except RuntimeError as exc:  # singular factorization
            raise SolveError(f"sparse LU factorization failed: {exc}") from exc
        x = lu.solve(b)
        tol = RESIDUAL_TOL * bnorm
        for _ in range(2):  # iterative refinement to hit the residual target
            r = b - self.csr @ x
            if np.linalg.norm(r) <= tol:
                break
            x = x + lu.solve(r)
        res = np.linalg.norm(b - self.csr @ x)
        if not np.isfinite(res) or res > tol:
            raise SolveError(
                f"direct solve residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} "
                f"* ||b|| = {tol:.3e} (n={self.n}, nnz={self.nnz})")
        return x
