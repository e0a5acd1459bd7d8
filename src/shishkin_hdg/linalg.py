"""Solution of the condensed trace system.

solve_box_tree condenses on up the mesh's box tree (mesh.box_plan): each
box sums its halves' Schur complements by slices of side blocks and
eliminates the traces on its split line with batched dense solves, from
single cells to the whole grid, one quadrant after the other once the
cells' systems exceed a merge chunk; the traces come back down by
substitution.

If a separator block is singular or the residual gate is missed, a
SolveFallbackWarning says why, and SuperLU with iterative refinement
solves the assembled system (assemble_trace_system, SparseMatrix), the
only use of scipy (0.2 s and 32 MB a process). Its unknowns are numbered
by the same box tree, separators after the boxes they split, so SuperLU
factors in the given order, keeps the pattern symmetric and pivots on the
diagonal unless it is below a tenth of its column's largest entry
(GIVEN_ORDER). If that fails or misses the gate, it factors once more with
COLAMD and partial pivoting, under another SolveFallbackWarning. The dense
monolithic oracle of both solves lives in `tests/dense_oracle.py`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .mesh import ShishkinMesh, box_plan

# relative residual (2-norm) every solve must reach
RESIDUAL_TOL = 1e-12
# the box merges of a level are built and reduced about this many bytes
# of merge matrix at a time
MERGE_BYTES = 2 << 20
# the first attempt: factor in the given order
GIVEN_ORDER = dict(permc_spec="NATURAL", diag_pivot_thresh=0.1,
                   options=dict(SymmetricMode=True))
# the fallback: COLAMD and partial pivoting
_COLAMD = dict(permc_spec="COLAMD", diag_pivot_thresh=1.0)


def __getattr__(name: str):
    """`spla`, scipy.sparse.linalg, imported when read. The fallback looks
    splu up on it at each call, so a patch of linalg.spla.splu reaches it."""
    if name == "spla":
        import scipy.sparse.linalg as spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolveFallbackWarning(RuntimeWarning):
    """A solve failed or missed the residual gate and is being repeated by
    the next method: the box tree by SuperLU in the given order, that by
    COLAMD and partial pivoting."""


class SolveError(RuntimeError):
    """Factorization or iteration failure, with diagnostics in the message."""


class SparseMatrix:
    """Square sparse matrix with the gated direct solve. It keeps one copy,
    in the CSC storage SuperLU factors, which also serves the residuals."""

    def __init__(self, data: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 n: int):
        """The n x n matrix of the coordinate triplets, duplicates summed."""
        import scipy.sparse as sp
        self.n = n
        self.csc = sp.csc_matrix((data, (rows, cols)), shape=(n, n))

    @property
    def nnz(self) -> int:
        return self.csc.nnz

    def solve(self, b) -> np.ndarray:
        """Solve Ax = b to a relative residual <= RESIDUAL_TOL (2-norm) with
        SuperLU plus iterative refinement.

        The matrix is factored in the order given (GIVEN_ORDER). If that
        raises RuntimeError or misses the residual target, it is factored
        once more with COLAMD and partial pivoting, and a
        SolveFallbackWarning names the reason; if that misses too,
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
        import scipy.sparse.linalg as spla
        lu = spla.splu(self.csc, **opts)
        x = lu.solve(b)
        for step in range(3):
            r = b - self.csc @ x
            res = np.linalg.norm(r)
            if res <= tol or step == 2:
                return x, res
            x = x + lu.solve(r)


def assemble_trace_system(mesh: ShishkinMesh, Sr: np.ndarray,
                          plan: tuple) -> tuple:
    """(A, b, pos): the global trace system of the cells' [S | rhs] for
    SuperLU. The k+1 dofs of edge e start at pos[e] (k+1), in the order
    SuperLU factors in: the boundary edges, then each level's separators
    of plan (mesh.box_plan) from the bottom up. The boundary dofs have
    identity rows and a zero right-hand side; the cell entries that touch
    them are dropped. No entry sums more than two terms, so the order of
    the cells does not matter."""
    kp = Sr.shape[1] // 4
    order = np.concatenate([np.flatnonzero(mesh.edge_boundary)] + [
        sep.ravel() for level in plan for _, sep, _ in level])
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    n, nb = kp * len(pos), kp * int(mesh.edge_boundary.sum())
    dof = (pos[mesh.cell_edges][:, :, None] * kp
           + np.arange(kp)).reshape(len(Sr), -1)
    row, col = np.broadcast_arrays(dof[:, :, None], dof[:, None, :])
    inner = (row >= nb) & (col >= nb)
    eye = np.arange(nb)
    A = SparseMatrix(np.concatenate([np.ones(nb), Sr[:, :, :-1][inner]]),
                     np.concatenate([eye, row[inner]]),
                     np.concatenate([eye, col[inner]]), n)
    b = np.bincount(dof.ravel(), Sr[:, :, -1].ravel(), n)
    b[:nb] = 0.0
    return A, b, pos


def solve_box_tree(mesh: ShishkinMesh, Sr: np.ndarray) -> np.ndarray:
    """Traces (n_edges, k+1), 0 on the domain boundary, of the system
    summed from each cell's Schur complement and right-hand side on its
    sides W, E, S, N, Sr = [S | rhs] (ncells, 4(k+1), 4(k+1) + 1), with no
    global matrix. The residual, sum over cells of rhs_c - S_c t_c on the
    interior edges, must reach RESIDUAL_TOL relative to the summed rhs; if
    it does not, or a separator block is singular, a SolveFallbackWarning
    says why and SuperLU solves the assembled system instead. Once Sr
    exceeds MERGE_BYTES the tree takes box_plan's quadrants."""
    kp = Sr.shape[1] // 4
    # the quadrant order lowers the peak of a grid that spans several merge
    # chunks; on a smaller one its extra groups only cost time
    plan = box_plan(mesh.nx, mesh.ny, Sr.nbytes > MERGE_BYTES)
    try:
        X = _condense_up(plan, Sr, kp)
    except np.linalg.LinAlgError as exc:
        why = f"a separator block is singular ({exc})"
    else:
        trace = np.zeros((mesh.n_edges, kp))
        for level, X_level in zip(reversed(plan), reversed(X)):
            for (bound, sep, _), Xg in zip(level, X_level):
                # x_s = X_r - X_b x_b
                xb = trace[bound].reshape(len(Xg), -1)
                trace[sep] = _times_minus(Xg, xb).reshape(sep.shape + (kp,))
        del X
        # rhs_c - S_c t_c and rhs_c, summed onto the dofs of the edges
        t = trace[mesh.cell_edges].reshape(len(Sr), -1)
        dof = (mesh.cell_edges[:, :, None] * kp + np.arange(kp)).ravel()
        inner = ~np.repeat(mesh.edge_boundary, kp)
        res, b = (np.linalg.norm(np.bincount(dof, r.ravel(),
                                             inner.size)[inner])
                  for r in (_times_minus(Sr, t), Sr[:, :, -1]))
        if res <= RESIDUAL_TOL * b:  # False for a NaN residual
            return trace
        why = (f"residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} * ||b|| = "
               f"{RESIDUAL_TOL * b:.3e}")
    warnings.warn(f"box-tree solve failed: {why}; solving the assembled "
                  "trace system instead", SolveFallbackWarning, stacklevel=2)
    A, b, pos = assemble_trace_system(mesh, Sr, plan)
    return A.solve(b).reshape(-1, kp)[pos]


def _times_minus(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A[i] @ [-x[i], 1] for each i."""
    v = np.concatenate([-x, np.ones((len(x), 1))], axis=1)
    return (A @ v[:, :, None])[:, :, 0]


def _condense_up(plan: tuple, Sr: np.ndarray, kp: int) -> list:
    """X of each group of each level of plan, as X[level][group]. A box's
    merge matrix M, rows [bound | sep] and columns [bound | r | sep], sums
    its halves' [S | r], the low half first, side block by side block
    (mesh.box_plan); eliminating sep keeps X = M_ss^-1 [M_sb | r_s] and
    leaves the box's [S | r] on bound for the level above, which frees it
    once its last reader is built. Below the top two levels the groups go
    level by level in passes, one for each group two levels below the top
    (a quadrant of box_plan's), a group in the first pass that reads it."""
    top = len(plan) - 2
    passes = [[np.inf] * len(level) for level in plan]
    if top > 0:
        passes[top - 1] = list(range(len(plan[top - 1])))
    for lv in range(top - 1, 0, -1):
        for p, (_, _, halves) in zip(passes[lv], plan[lv]):
            for source, _, _ in halves:
                if source >= 0:
                    passes[lv - 1][source] = min(passes[lv - 1][source], p)
    order = sorted((p, lv, g) for lv, level in enumerate(passes)
                   for g, p in enumerate(level))
    last = {(lv - 1, source): i for i, (_, lv, g) in enumerate(order)
            for source, _, _ in plan[lv][g][2]}
    out, X = ([[None] * len(level) for level in plan] for _ in range(2))
    for i, (_, lv, g) in enumerate(order):
        bound, sep, halves = plan[lv][g]
        nbox, nb, ns = len(bound), bound.shape[1] * kp, sep.shape[1] * kp
        n = nb + ns
        out[lv][g] = np.empty((nbox, nb, nb + 1))
        X[lv][g] = np.empty((nbox, ns, nb + 1))
        step = max(1, MERGE_BYTES // (8 * n * (n + 1)))
        for lo in range(0, nbox, step):
            part = slice(lo, lo + step)
            M = np.zeros((min(step, nbox - lo), n, n + 1))
            for source, rows, blocks in halves:
                H = (Sr if source < 0 else out[lv - 1][source])[rows[part]]
                blocks = (blocks * kp).tolist()
                for t, p, s in blocks:
                    for u, q, w in blocks:
                        q += q >= nb  # the rhs column sits at nb
                        M[:, p:p + s, q:q + w] += H[:, t:t + s, u:u + w]
                    M[:, p:p + s, nb] += H[:, t:t + s, -1]
                del H  # freed before the next half's H is gathered
            Xp = np.linalg.solve(M[:, nb:, nb + 1:], M[:, nb:, :nb + 1])
            out[lv][g][part] = M[:, :nb, :nb + 1] - M[:, :nb, nb + 1:] @ Xp
            X[lv][g][part] = Xp
        for source, _, _ in halves:
            if source >= 0 and last[lv - 1, source] == i:
                out[lv - 1][source] = None
    return X
