"""HDG assembly for the three-field formulation: per-cell local systems,
condensed block by block straight into the edge-trace system, global trace
solve and recovery.

Every coefficient, here and in the projection and norm modules, is in the
pulled-back orthonormal bases: on a cell the reference Legendre tensor basis
(cell mass matrix J*I with J = hx*hy/4), on an edge the reference 1D basis
(edge mass matrix (L/2)*I). The local systems solve for these coefficients
and SolutionFields holds them as they come.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import layerquad
from .linalg import SolveError, SparseMatrix
from .mesh import ShishkinMesh
from .problems import ProblemSpec
from .refelem import CellQuad, RefTables, gauss_rule, ref_tables
from . import norms
from .norms import StabilizationError, edge_normal_beta


@dataclass(frozen=True)
class HdgConfig:
    """Discretization parameters: degree k >= 1, constant stabilization tau,
    quadrature points per direction for assembly and for error norms."""

    k: int
    tau: float = 3.0
    quad_assembly: Optional[int] = None
    quad_error: Optional[int] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("polynomial degree k must be >= 1")
        if self.tau <= 0:
            raise ValueError("stabilization constant tau must be positive")
        if self.n_assembly < self.k + 1:
            raise ValueError("assembly quadrature below k+1 points")
        if self.n_error < self.k + 1:
            raise ValueError("error quadrature below k+1 points")

    @property
    def n_assembly(self) -> int:
        return self.k + 2 if self.quad_assembly is None else self.quad_assembly

    @property
    def n_error(self) -> int:
        return self.k + 4 if self.quad_error is None else self.quad_error


@dataclass
class SolutionFields:
    """Per-cell coefficients of (q_h, u_h) and per-edge trace coefficients,
    in the pulled-back orthonormal bases; boundary-edge traces are
    identically 0."""

    k: int
    q1: np.ndarray
    q2: np.ndarray
    u: np.ndarray
    trace: np.ndarray

    def __sub__(self, other: "SolutionFields") -> "SolutionFields":
        return SolutionFields(self.k, self.q1 - other.q1, self.q2 - other.q2,
                              self.u - other.u, self.trace - other.trace)


# cells whose dense local systems exist at once in the streamed assembly:
# WORKERS threads each build and condense blocks of CELL_BLOCK // WORKERS
# consecutive cells, and a block is freed before the next one is submitted
CELL_BLOCK = 1024
# the CPUs this process may use
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


@dataclass
class LocalBlocks:
    """Batched local systems of the consecutive cells `cells`: interior
    unknowns (q1, q2, u) of size 3(k+1)^2 against the four edge-trace blocks
    of size k+1 each (order W, E, S, N)."""

    cells: range
    A: np.ndarray  # (nc, ni, ni) interior equations x interior unknowns
    C: np.ndarray  # (nc, ni, nt) interior equations x traces
    G: np.ndarray  # (nc, nt, ni) flux-continuity rows x interior unknowns
    D: np.ndarray  # (nc, nt, nt) flux-continuity rows x traces
    F: np.ndarray  # (nc, ni) load


@dataclass
class CondensedSystem:
    """Per-cell Schur complements, right-hand sides and recovery operators
    of one block of cells."""

    S: np.ndarray      # (nc, nt, nt)
    rhs: np.ndarray    # (nc, nt)
    IF: np.ndarray     # (nc, ni) = A^{-1} F
    IC: np.ndarray     # (nc, ni, nt) = A^{-1} C


@dataclass
class _LocalSetup:
    """What the local systems of all cell blocks share, computed once per
    assembly: the reference tables and the assembly rule, the edge-mass
    weights (beta.n - tau) * Gauss weight at the side points, and the
    u-rows of the load of the layer-refined cells."""

    R: RefTables
    cq: CellQuad
    side_weight: np.ndarray  # (4, ncells, n), side-major
    layer_load: list  # (cell ids, (cells, (k+1)^2) load) per layer batch


def _local_setup(mesh: ShishkinMesh, spec: ProblemSpec,
                 cfg: HdgConfig) -> _LocalSetup:
    n = cfg.n_assembly
    cq = CellQuad(mesh, n)
    bn = edge_normal_beta(cq, spec)  # for the check and the side terms
    check_stabilization(bn, cfg.tau)
    # f carries layer tails of height ~N^-sigma varying on the sub-cell
    # scale eps/beta into the coarse cells at the transition; integrate
    # those cells with the refined composite rule instead
    load = [(b.cells, np.einsum("cbg,cg->cb", b.basis(cfg.k),
                                b.W * spec.f(b.X, b.Y)))
            for b in layerquad.layer_batches(mesh, spec, n)]
    side_weight = (bn - cfg.tau) * gauss_rule(n).weights
    return _LocalSetup(ref_tables(cfg.k, n), cq,
                       np.ascontiguousarray(side_weight.swapaxes(0, 1)), load)


def check_stabilization(bn: np.ndarray, tau: float) -> float:
    """Margin min(tau - |beta.n|/2) over sampled side values bn of beta.n
    (norms.edge_normal_beta); raises if <= 0."""
    margin = float(tau - 0.5 * np.max(np.abs(bn)))
    if margin <= 0:
        raise StabilizationError(
            f"tau = {tau:g} violates tau - beta.n/2 > 0 "
            f"(max |beta.n|/2 = {0.5 * np.max(np.abs(bn)):g})")
    return margin


def build_local_systems(mesh: ShishkinMesh, spec: ProblemSpec,
                        cfg: HdgConfig, cells: Optional[range] = None,
                        setup: Optional[_LocalSetup] = None) -> LocalBlocks:
    """Assemble the per-cell blocks of the discrete system:

      (i)   eps^-1 (q, r) - (u, div r) + <u_hat, r.n> = 0
      (ii)  -(q + beta u, grad w) + ((c - div beta) u, w)
            + <q.n + beta.n u_hat + tau (u - u_hat), w> = (f, w)
      (iii) <q.n + beta.n u_hat + tau (u - u_hat), mu> per edge,

    for the consecutive cells `cells` (a range with step 1; all cells by
    default), evaluating the coefficients on those cells only. `setup` is
    the part shared by all blocks (_local_setup), computed here when not
    given.
    """
    k = cfg.k
    kp, nb = k + 1, (k + 1) ** 2
    ni, nt = 3 * nb, 4 * kp
    if cells is None:
        cells = range(mesh.n_cells)
    if setup is None:
        setup = _local_setup(mesh, spec, cfg)
    R = setup.R
    sel = slice(cells.start, cells.stop)
    nc = len(cells)
    eps = spec.epsilon
    tau = cfg.tau
    X, Y, J = setup.cq.X[sel], setup.cq.Y[sel], setup.cq.J[sel]
    W2 = setup.cq.W2  # reference weights, (n^2,)
    side_weight = setup.side_weight[:, sel]

    iq1, iq2, iu = slice(0, nb), slice(nb, 2 * nb), slice(2 * nb, 3 * nb)
    sides = [slice(s * kp, (s + 1) * kp) for s in range(4)]  # W, E, S, N

    b1 = spec.beta1(X, Y)
    b2 = spec.beta2(X, Y)
    cr = spec.c(X, Y) - spec.div_beta(X, Y)
    fv = spec.f(X, Y)

    halfx = mesh.cell_hx[sel] / 2.0
    halfy = mesh.cell_hy[sel] / 2.0
    half_side = mesh.edge_length[mesh.cell_edges[sel]] / 2.0  # (nc, 4)

    A = np.zeros((nc, ni, ni))
    C = np.zeros((nc, ni, nt))
    G = np.zeros((nc, nt, ni))
    D = np.zeros((nc, nt, nt))
    F = np.zeros((nc, ni))

    eye = np.eye(nb)
    A[:, iq1, iq1] = (J / eps)[:, None, None] * eye
    A[:, iq2, iq2] = (J / eps)[:, None, None] * eye
    A[:, iq1, iu] = -halfy[:, None, None] * R.KX
    A[:, iq2, iu] = -halfx[:, None, None] * R.KY
    A[:, iu, iq1] = halfy[:, None, None] * (-R.KX + R.EVp - R.EVm)
    A[:, iu, iq2] = halfx[:, None, None] * (-R.KY + R.EHp - R.EHm)

    conv_x = np.einsum("cg,bg,ag->cba", W2 * b1, R.BX, R.B0)
    conv_y = np.einsum("cg,bg,ag->cba", W2 * b2, R.BY, R.B0)
    react = np.einsum("cg,bg,ag->cba", W2 * cr, R.B0, R.B0)
    stab = (halfy[:, None, None] * (R.EVp + R.EVm)
            + halfx[:, None, None] * (R.EHp + R.EHm))
    A[:, iu, iu] = (-halfy[:, None, None] * conv_x
                    - halfx[:, None, None] * conv_y
                    + J[:, None, None] * react + tau * stab)

    # per side (W, E, S, N): the flux component whose normal trace it
    # carries, the outward sign, and the cell trace in the edge basis
    side_terms = ((iq1, -1.0, R.LVm), (iq1, 1.0, R.LVp),
                  (iq2, -1.0, R.LHm), (iq2, 1.0, R.LHp))
    for s, (iq, sign, L) in enumerate(side_terms):
        h = half_side[:, s, None, None]
        # traces entering equation (i): <u_hat, r.n>
        C[:, iq, sides[s]] = sign * h * L
        # traces entering equation (ii): <(beta.n - tau) u_hat, w>, and the
        # edge mass of (beta.n - tau) for the flux rows (iii)
        em = np.einsum("cg,ng,eg->cne", side_weight[s], R.V, R.V)
        C[:, iu, sides[s]] = h * (L @ em)
        D[:, sides[s], sides[s]] = h * em
        # flux rows: <q.n, mu> and <tau u, mu>
        G[:, sides[s], iq] = sign * h * L.T
        G[:, sides[s], iu] = tau * h * L.T

    F[:, iu] = J[:, None] * np.einsum("cg,bg->cb", W2 * fv, R.B0)
    for layer_cells, load in setup.layer_load:  # the composite-rule rows
        inside = (layer_cells >= cells.start) & (layer_cells < cells.stop)
        F[layer_cells[inside] - cells.start, iu] = load[inside]

    return LocalBlocks(cells, A, C, G, D, F)


def condense(blocks: LocalBlocks) -> CondensedSystem:
    """Schur complement onto the traces: S = D - G A^{-1} C, with recovery
    operators for the interior unknowns."""
    rhs = np.concatenate([blocks.F[:, :, None], blocks.C], axis=2)
    try:
        sol = np.linalg.solve(blocks.A, rhs)
    except np.linalg.LinAlgError:
        for c in range(blocks.A.shape[0]):
            try:
                np.linalg.solve(blocks.A[c], rhs[c])
            except np.linalg.LinAlgError:
                raise SolveError(f"singular interior block in cell "
                                 f"{blocks.cells[c]}; well-posedness "
                                 "assumptions likely violated")
        raise
    IF, IC = sol[:, :, 0], sol[:, :, 1:]
    S = blocks.D - blocks.G @ IC
    r = -np.einsum("cij,cj->ci", blocks.G, IF)
    return CondensedSystem(S, r, IF, IC)


def assemble_trace_system(mesh: ShishkinMesh, spec: ProblemSpec,
                          cfg: HdgConfig) -> tuple[SparseMatrix, np.ndarray,
                                                   np.ndarray, np.ndarray]:
    """Build and condense the local systems in blocks of CELL_BLOCK //
    WORKERS consecutive cells on WORKERS threads, with at most WORKERS
    blocks in flight, so the dense local systems of the whole mesh never
    exist at once, and sum each block's Schur blocks, in block order, into
    the global interior-trace system of dimension n_interior_edges * (k+1).
    A mesh of one block is built on the calling thread. Unknowns are
    numbered in the mesh's interior edge order (mesh.interior_index, nested
    dissection along grid lines), the k+1 dofs of an edge consecutively, so
    the matrix is ready to factor in the order given. The blocks are summed
    on the mesh's edge-block pattern (mesh.edge_blocks), so no entry sums
    more than two terms and the result does not depend on the block size.
    Returns (A, b, IF, IC), with IF and IC the recovery operators of every
    cell (CondensedSystem)."""
    setup = _local_setup(mesh, spec, cfg)
    kp, nc = cfg.k + 1, mesh.n_cells
    pattern = mesh.edge_blocks
    edge_row = mesh.interior_index[mesh.cell_edges]  # (ncells, 4)
    # boundary edges (block position and row -1) go to a last, discarded
    # block and rhs row
    data = np.zeros((len(pattern.indices) + 1, kp, kp))
    rows = np.zeros((mesh.n_interior_edges + 1, kp))
    IF, IC = np.empty((nc, 3 * kp * kp)), np.empty((nc, 3 * kp * kp, 4 * kp))

    def condensed(cells: range) -> CondensedSystem:
        return condense(build_local_systems(mesh, spec, cfg, cells, setup))

    def scatter(cells: range, part: CondensedSystem) -> None:
        sel = slice(cells.start, cells.stop)
        # the (side i, side j) block of each cell: (cells, 4, 4, k+1, k+1)
        np.add.at(data, pattern.position[sel],
                  part.S.reshape(-1, 4, kp, 4, kp).swapaxes(2, 3))
        np.add.at(rows, edge_row[sel], part.rhs.reshape(-1, 4, kp))
        IF[sel], IC[sel] = part.IF, part.IC

    size = max(1, CELL_BLOCK // WORKERS)
    blocks = [range(s, min(s + size, nc)) for s in range(0, nc, size)]
    if len(blocks) == 1:
        scatter(blocks[0], condensed(blocks[0]))
    else:
        _one_malloc_arena()
        with ThreadPoolExecutor(WORKERS) as pool:
            pending = deque(pool.submit(condensed, cells)
                            for cells in blocks[:WORKERS])
            for i, cells in enumerate(blocks):
                try:
                    part = pending.popleft().result()
                except BaseException:
                    pool.shutdown(cancel_futures=True)  # drop queued blocks
                    raise
                scatter(cells, part)
                del part  # free this block before the next one is submitted
                if i + WORKERS < len(blocks):
                    pending.append(pool.submit(condensed,
                                               blocks[i + WORKERS]))
    A = SparseMatrix.from_blocks(data[:-1], pattern.indices, pattern.indptr)
    return A, rows[:-1].ravel(), IF, IC


@functools.cache
def _one_malloc_arena() -> None:
    """Limit glibc malloc to one arena for the whole process (mallopt
    M_ARENA_MAX = -8), where libc has mallopt. With an arena per thread,
    the memory each pool thread freed stayed resident in its own arena."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no libc handle or mallopt
        return
    mallopt(-8, 1)


def assemble_and_solve(mesh: ShishkinMesh, spec: ProblemSpec,
                       cfg: HdgConfig) -> SolutionFields:
    """Full pipeline: local systems and their condensation in blocks of
    cells, global trace solve with homogeneous boundary traces, interior
    recovery."""
    A, b, IF, IC = assemble_trace_system(mesh, spec, cfg)
    kp, nb = cfg.k + 1, (cfg.k + 1) ** 2
    # boundary edges (index -1) read the zero row appended last
    trace = np.vstack([A.solve(b).reshape(-1, kp),
                       np.zeros((1, kp))])[mesh.interior_index]
    t_local = trace[mesh.cell_edges].reshape(mesh.n_cells, -1)
    v = IF - np.einsum("cij,cj->ci", IC, t_local)
    return SolutionFields(cfg.k, v[:, :nb], v[:, nb:2 * nb], v[:, 2 * nb:],
                          trace)


def galerkin_residual(mesh: ShishkinMesh, spec: ProblemSpec,
                      cfg: HdgConfig) -> float:
    """Max over all discrete test functions of |B(exact - discrete, test)|,
    scaled by the load size.

    The orthogonality statement ties the discrete solution to the bilinear
    form it was assembled with, so the solve here uses the same (elevated)
    quadrature as the measurement; the rule is raised by default because the
    exact-solution integrals carry layer tails into the coarse cells.
    """
    if spec.exact is None:
        raise ValueError("galerkin residual needs an exact solution")
    n = min(30, cfg.k + 22)
    hcfg = HdgConfig(cfg.k, cfg.tau, quad_assembly=n, quad_error=n)
    fields = assemble_and_solve(mesh, spec, hcfg)
    cq = CellQuad(mesh, n)
    diff = norms.triple_sub(norms.triple_values_exact(cq, spec),
                            norms.triple_values_discrete(cq, fields))
    res = norms.bilinear_residual(cq, spec, hcfg, diff)
    scale = max(1.0, norms.load_vector_scale(cq, spec))
    return res / scale


def bilinear_form(fields: SolutionFields, mesh: ShishkinMesh,
                  spec: ProblemSpec, cfg: HdgConfig) -> float:
    """B(xi, xi) for a discrete triple xi: sum over cells of the local
    quadratic form, with boundary traces taken as zero.

    The flux-continuity rows enter the form with a minus sign (they are
    tested against -mu). That convention leaves the solution unchanged but
    makes the quadratic form equal the energy norm squared identically,
    which is the coercivity statement being sampled here."""
    blocks = build_local_systems(mesh, spec, cfg)
    v = np.concatenate([fields.q1, fields.q2, fields.u], axis=1)
    trace = np.where(mesh.edge_boundary[:, None], 0.0, fields.trace)
    t = trace[mesh.cell_edges].reshape(mesh.n_cells, -1)

    av = np.einsum("ci,cij,cj->c", v, blocks.A, v)
    cv = np.einsum("ci,cij,cj->c", v, blocks.C, t)
    gv = np.einsum("ci,cij,cj->c", t, blocks.G, v)
    dv = np.einsum("ci,cij,cj->c", t, blocks.D, t)
    return float((av + cv - gv - dv).sum())


def random_fields(mesh: ShishkinMesh, k: int,
                  rng: np.random.Generator) -> SolutionFields:
    """Random discrete triple with homogeneous boundary traces (for
    coercivity sampling)."""
    nb = (k + 1) ** 2
    nc = mesh.n_cells
    f = SolutionFields(k, rng.standard_normal((nc, nb)),
                       rng.standard_normal((nc, nb)),
                       rng.standard_normal((nc, nb)),
                       rng.standard_normal((mesh.n_edges, k + 1)))
    f.trace[mesh.edge_boundary] = 0.0
    return f


def flux_continuity_residual(fields: SolutionFields, cq: CellQuad,
                             spec: ProblemSpec, cfg: HdgConfig) -> float:
    """Max trace-test moment of the summed two-sided numerical flux after the
    solve, on the assembly rule cq; near zero by construction of the trace
    system."""
    vals = norms.triple_values_discrete(cq, fields)
    return norms.bilinear_residual(cq, spec, cfg, vals, parts=("mu",))
