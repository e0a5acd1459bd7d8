"""Sparse storage and linear solution for the condensed trace system.

Backed by scipy CSC storage and SuperLU with iterative refinement. The
matrix is factored in the order it is given: the trace system arrives with
its unknowns numbered by nested dissection along the mesh's grid lines
(mesh.ShishkinMesh.interior_index), so SuperLU adds no column permutation
of its own, keeps the pattern symmetric and pivots on the diagonal unless
it is below a tenth of its column's largest entry (GIVEN_ORDER). If that
factorization fails or misses the residual gate, the matrix is factored
once more with COLAMD and partial pivoting, and a SolveFallbackWarning
says why. The dense monolithic oracle the condensed solve is checked
against lives in the test suite (`tests/dense_oracle.py`).

Both attempts factor in panels of two columns. The panel size bounds
SuperLU's work arrays, which hold (16w + 36) bytes per unknown for a panel
of w columns (dLUWorkInit) and are live until L+U is full size. At k=2,
N=128 (97,536 unknowns) that is 33 MB under SuperLU's default of 20
columns and 6 MB under two, so the large-solve benchmark's peak RSS fell
from about 273 to 243 MB. The fill and the factor time do not move.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# relative residual (2-norm) every solve must reach
RESIDUAL_TOL = 1e-12
# SuperLU options of both attempts: panels of two columns, not SuperLU's
# default 20, to keep its work arrays small (see the docstring)
_SHARED = dict(panel_size=2)
# the first attempt: factor in the given order
GIVEN_ORDER = dict(_SHARED, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                   options=dict(SymmetricMode=True))
# the fallback: COLAMD and partial pivoting
_COLAMD = dict(_SHARED, permc_spec="COLAMD", diag_pivot_thresh=1.0)


class SolveFallbackWarning(RuntimeWarning):
    """The factorization in the given order failed or missed the residual
    gate, so the solve was repeated with COLAMD and partial pivoting."""


class SolveError(RuntimeError):
    """Factorization or iteration failure, with diagnostics in the message."""


class SparseMatrix:
    """Square sparse matrix with the gated direct solve. It keeps one copy,
    in the CSC storage SuperLU factors, which also serves the residuals."""

    def __init__(self, matrix: sp.spmatrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        self.csc = sp.csc_matrix(matrix)
        self.n = matrix.shape[0]

    @classmethod
    def from_blocks(cls, data: np.ndarray, indices: np.ndarray,
                    indptr: np.ndarray) -> "SparseMatrix":
        """Square matrix from block-CSR arrays: the (b, b) blocks `data`,
        their block columns `indices` and the block-row pointers `indptr`.
        Converted entry by entry, explicit zeros kept."""
        n = (len(indptr) - 1) * data.shape[1]
        return cls(sp.bsr_matrix((data, indices, indptr), shape=(n, n)))

    @property
    def nnz(self) -> int:
        return self.csc.nnz

    def solve(self, b) -> np.ndarray:
        """Solve Ax = b to a relative residual <= RESIDUAL_TOL (2-norm) with
        SuperLU plus iterative refinement.

        The matrix is factored in the order given (GIVEN_ORDER). If that
        raises RuntimeError or misses the residual target, it is factored
        once more with COLAMD and partial pivoting, in the same panels, and
        a SolveFallbackWarning names the reason; if that misses too,
        SolveError names both attempts. Other exceptions propagate."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"rhs dimension mismatch: {b.shape} vs {self.n}")
        if self.n == 0:
            return np.zeros(0)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(self.n)
        tol = RESIDUAL_TOL * bnorm
        failed = []
        for name, opts in (("given order", GIVEN_ORDER), ("COLAMD", _COLAMD)):
            try:
                x, res = self._refined_solve(opts, b, tol)
            except RuntimeError as exc:  # singular factorization
                failed.append(f"{name}: sparse LU factorization failed: "
                              f"{exc}")
                continue
            if res <= tol:  # False for a NaN residual
                if failed:
                    warnings.warn(f"fell back to COLAMD after {failed[0]}",
                                  SolveFallbackWarning, stacklevel=2)
                return x
            failed.append(f"{name}: residual {res:.3e} exceeds "
                          f"{RESIDUAL_TOL:.1e} * ||b|| = {tol:.3e}")
        raise SolveError(f"direct solve failed (n={self.n}, nnz={self.nnz}); "
                         + "; ".join(failed))

    def _refined_solve(self, opts, b, tol):
        """Factor with SuperLU options opts and solve, with up to two steps
        of iterative refinement toward tol; returns (x, residual 2-norm).
        Each residual is computed once, so a solve that meets tol at once
        takes one matrix-vector product. The factor is released on
        return."""
        lu = spla.splu(self.csc, **opts)
        x = lu.solve(b)
        for step in range(3):
            r = b - self.csc @ x
            res = np.linalg.norm(r)
            if res <= tol or step == 2:
                return x, res
            x = x + lu.solve(r)
