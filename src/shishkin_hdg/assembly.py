"""HDG assembly for the three-field formulation: per-cell local systems,
static condensation onto edge traces, global trace solve and recovery.

Internally each cell uses the pulled-back orthonormal Legendre tensor basis
(so the cell mass matrix is J*I with J = hx*hy/4) and each edge the
pulled-back orthonormal 1D basis. Recovered coefficients are rescaled to the
physically L2-orthonormal bases before being stored in SolutionFields, which
is the convention shared with the projection and norm modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import layerquad
from .linalg import SolveError, SparseMatrix
from .mesh import ShishkinMesh
from .problems import ProblemSpec
from .refelem import CellQuad, gauss_rule, ref_tables
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

    @property
    def n_assembly(self) -> int:
        return self.quad_assembly if self.quad_assembly else self.k + 2

    @property
    def n_error(self) -> int:
        return self.quad_error if self.quad_error else self.k + 4


@dataclass
class SolutionFields:
    """Per-cell coefficients of (q_h, u_h) and per-edge trace coefficients,
    in physically orthonormal bases; boundary-edge traces are identically 0."""

    k: int
    q1: np.ndarray
    q2: np.ndarray
    u: np.ndarray
    trace: np.ndarray

    @classmethod
    def zeros(cls, mesh: ShishkinMesh, k: int) -> "SolutionFields":
        nb = (k + 1) ** 2
        nc = mesh.n_cells
        return cls(k, np.zeros((nc, nb)), np.zeros((nc, nb)),
                   np.zeros((nc, nb)), np.zeros((mesh.n_edges, k + 1)))


@dataclass
class LocalBlocks:
    """Batched local systems: interior unknowns (q1, q2, u) of size 3(k+1)^2
    against the four edge-trace blocks of size k+1 each (order W, E, S, N)."""

    k: int
    A: np.ndarray  # (nc, ni, ni) interior equations x interior unknowns
    C: np.ndarray  # (nc, ni, nt) interior equations x traces
    G: np.ndarray  # (nc, nt, ni) flux-continuity rows x interior unknowns
    D: np.ndarray  # (nc, nt, nt) flux-continuity rows x traces
    F: np.ndarray  # (nc, ni) load


@dataclass
class CondensedSystem:
    """Per-cell Schur complements and recovery operators."""

    S: np.ndarray      # (nc, nt, nt)
    rhs: np.ndarray    # (nc, nt)
    IF: np.ndarray     # (nc, ni) = A^{-1} F
    IC: np.ndarray     # (nc, ni, nt) = A^{-1} C


def check_stabilization(mesh: ShishkinMesh, spec: ProblemSpec,
                        cfg: HdgConfig) -> float:
    """Margin min(tau - beta.n/2) over sampled edge points; raises if <= 0."""
    bn = edge_normal_beta(mesh, spec, cfg.n_assembly)
    margin = float(cfg.tau - 0.5 * np.max(np.abs(bn)))
    if margin <= 0:
        raise StabilizationError(
            f"tau = {cfg.tau:g} violates tau - beta.n/2 > 0 "
            f"(max |beta.n|/2 = {0.5 * np.max(np.abs(bn)):g})")
    return margin


def build_local_systems(mesh: ShishkinMesh, spec: ProblemSpec,
                        cfg: HdgConfig) -> LocalBlocks:
    """Assemble all per-cell blocks of the discrete system:

      (i)   eps^-1 (q, r) - (u, div r) + <u_hat, r.n> = 0
      (ii)  -(q + beta u, grad w) + ((c - div beta) u, w)
            + <q.n + beta.n u_hat + tau (u - u_hat), w> = (f, w)
      (iii) <q.n + beta.n u_hat + tau (u - u_hat), mu> per edge.
    """
    k, n = cfg.k, cfg.n_assembly
    kp, nb = k + 1, (k + 1) ** 2
    ni, nt = 3 * nb, 4 * kp
    R = ref_tables(k, n)
    cq = CellQuad(mesh, n)
    nc = mesh.n_cells
    eps = spec.epsilon
    tau = cfg.tau

    iq1, iq2, iu = slice(0, nb), slice(nb, 2 * nb), slice(2 * nb, 3 * nb)
    sides = [slice(s * kp, (s + 1) * kp) for s in range(4)]  # W, E, S, N

    b1 = spec.beta1(cq.X, cq.Y)
    b2 = spec.beta2(cq.X, cq.Y)
    cr = spec.c(cq.X, cq.Y) - spec.div_beta(cq.X, cq.Y)
    fv = spec.f(cq.X, cq.Y)
    bn = edge_normal_beta(mesh, spec, n)

    halfx = cq.Hx / 2.0  # edge-length factors: hx/2 for horizontal edges
    halfy = cq.Hy / 2.0
    scale = {0: halfy, 1: halfy, 2: halfx, 3: halfx}
    trace_p = {0: R.Em, 1: R.Ep, 2: R.Em, 3: R.Ep}

    A = np.zeros((nc, ni, ni))
    C = np.zeros((nc, ni, nt))
    G = np.zeros((nc, nt, ni))
    D = np.zeros((nc, nt, nt))
    F = np.zeros((nc, ni))

    eye = np.eye(nb)
    A[:, iq1, iq1] = (cq.J / eps)[:, None, None] * eye
    A[:, iq2, iq2] = (cq.J / eps)[:, None, None] * eye
    A[:, iq1, iu] = -halfy[:, None, None] * R.KX
    A[:, iq2, iu] = -halfx[:, None, None] * R.KY
    A[:, iu, iq1] = halfy[:, None, None] * (-R.KX + R.EVp - R.EVm)
    A[:, iu, iq2] = halfx[:, None, None] * (-R.KY + R.EHp - R.EHm)

    conv_x = np.einsum("cg,bg,ag->cba", cq.W2 * b1, R.BX, R.B0)
    conv_y = np.einsum("cg,bg,ag->cba", cq.W2 * b2, R.BY, R.B0)
    react = np.einsum("cg,bg,ag->cba", cq.W2 * cr, R.B0, R.B0)
    stab = (halfy[:, None, None] * (R.EVp + R.EVm)
            + halfx[:, None, None] * (R.EHp + R.EHm))
    A[:, iu, iu] = (-halfy[:, None, None] * conv_x
                    - halfx[:, None, None] * conv_y
                    + cq.J[:, None, None] * react + tau * stab)

    # traces entering equation (i): <u_hat, r.n>
    C[:, iq1, sides[0]] = -halfy[:, None, None] * R.LVm
    C[:, iq1, sides[1]] = halfy[:, None, None] * R.LVp
    C[:, iq2, sides[2]] = -halfx[:, None, None] * R.LHm
    C[:, iq2, sides[3]] = halfx[:, None, None] * R.LHp

    # traces entering equation (ii): <(beta.n - tau) u_hat, w>, and the
    # edge mass of (beta.n - tau) for the flux rows (iii)
    gauss_w = gauss_rule(n).weights
    for s in range(4):
        arr = (bn[:, s] - tau) * gauss_w  # (nc, n)
        em = np.einsum("cg,ng,eg->cne", arr, R.V, R.V)  # (nc, kp, kp)
        if s < 2:  # vertical sides: cell trace is P(mb) * V(nb)
            blk = np.einsum("m,cne->cmne", trace_p[s], em).reshape(nc, nb, kp)
        else:      # horizontal: V(mb) * P(nb)
            blk = np.einsum("n,cme->cmne", trace_p[s], em).reshape(nc, nb, kp)
        C[:, iu, sides[s]] = scale[s][:, None, None] * blk
        D[:, sides[s], sides[s]] = scale[s][:, None, None] * \
            np.einsum("cg,eg,fg->cef", arr, R.V, R.V)

    # flux rows: <q.n, mu> and <tau u, mu>
    G[:, sides[0], iq1] = -halfy[:, None, None] * R.LVm.T
    G[:, sides[1], iq1] = halfy[:, None, None] * R.LVp.T
    G[:, sides[2], iq2] = -halfx[:, None, None] * R.LHm.T
    G[:, sides[3], iq2] = halfx[:, None, None] * R.LHp.T
    G[:, sides[0], iu] = tau * halfy[:, None, None] * R.LVm.T
    G[:, sides[1], iu] = tau * halfy[:, None, None] * R.LVp.T
    G[:, sides[2], iu] = tau * halfx[:, None, None] * R.LHm.T
    G[:, sides[3], iu] = tau * halfx[:, None, None] * R.LHp.T

    F[:, iu] = cq.J[:, None] * np.einsum("cg,bg->cb", cq.W2 * fv, R.B0)
    # f carries layer tails of height ~N^-sigma varying on the sub-cell
    # scale eps/beta into the coarse cells at the transition; integrate
    # those cells with the refined composite rule instead
    for b in layerquad.layer_batches(mesh, spec, n):
        F[b.cells, iu] = np.einsum("cbg,cg->cb", b.basis(k),
                                   b.W * spec.f(b.X, b.Y))

    return LocalBlocks(k, A, C, G, D, F)


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
                raise SolveError(f"singular interior block in cell {c}; "
                                 "well-posedness assumptions likely violated")
        raise
    IF, IC = sol[:, :, 0], sol[:, :, 1:]
    S = blocks.D - blocks.G @ IC
    r = -np.einsum("cij,cj->ci", blocks.G, IF)
    return CondensedSystem(S, r, IF, IC)


def _trace_dofs(mesh: ShishkinMesh, k: int) -> np.ndarray:
    """(ncells, 4*(k+1)) global trace dof ids, -1 on boundary edges."""
    kp = k + 1
    tri = mesh.interior_index[mesh.cell_edges]  # (nc, 4)
    comp = np.arange(kp)
    td = np.where(tri[:, :, None] >= 0, tri[:, :, None] * kp + comp, -1)
    return td.reshape(mesh.n_cells, 4 * kp)


def _edge_lengths(mesh: ShishkinMesh) -> np.ndarray:
    L = np.empty(mesh.n_edges)
    vert = mesh.edge_axis == 0
    L[vert] = mesh.hy[mesh.edge_seg[vert]]
    L[~vert] = mesh.hx[mesh.edge_seg[~vert]]
    return L


def assemble_trace_system(mesh: ShishkinMesh, cond: CondensedSystem,
                          k: int) -> tuple[SparseMatrix, np.ndarray]:
    """Scatter the per-cell Schur blocks into the global interior-trace
    system (dimension n_interior_edges * (k+1), deterministic ordering)."""
    kp = k + 1
    n_tr = mesh.n_interior_edges * kp
    td = _trace_dofs(mesh, k)
    A = SparseMatrix(n_tr)
    rows = np.broadcast_to(td[:, :, None], cond.S.shape)
    cols = np.broadcast_to(td[:, None, :], cond.S.shape)
    mask = (rows >= 0) & (cols >= 0)
    A.add(rows[mask], cols[mask], cond.S[mask])
    b = np.zeros(n_tr)
    valid = td >= 0
    np.add.at(b, td[valid], cond.rhs[valid])
    return A.finalize(), b


def _recover(mesh: ShishkinMesh, cond: CondensedSystem, k: int,
             x: np.ndarray) -> SolutionFields:
    kp, nb = k + 1, (k + 1) ** 2
    td = _trace_dofs(mesh, k)
    if x.size:
        t_local = np.where(td >= 0, x[np.maximum(td, 0)], 0.0)
    else:
        t_local = np.zeros(td.shape)
    v = cond.IF - np.einsum("cij,cj->ci", cond.IC, t_local)

    hx = np.repeat(mesh.hx, mesh.ny)
    hy = np.tile(mesh.hy, mesh.nx)
    sqj = np.sqrt(hx * hy / 4.0)[:, None]
    q1 = v[:, :nb] * sqj
    q2 = v[:, nb:2 * nb] * sqj
    u = v[:, 2 * nb:] * sqj

    trace = np.zeros((mesh.n_edges, kp))
    interior = ~mesh.edge_boundary
    if x.size:
        scale = np.sqrt(_edge_lengths(mesh)[interior] / 2.0)
        trace[interior] = x.reshape(-1, kp) * scale[:, None]
    return SolutionFields(k, q1, q2, u, trace)


def assemble_and_solve(mesh: ShishkinMesh, spec: ProblemSpec, cfg: HdgConfig,
                       solver_tol: float = 1e-12) -> SolutionFields:
    """Full pipeline: local systems, condensation, global trace solve with
    homogeneous boundary traces, interior recovery."""
    check_stabilization(mesh, spec, cfg)
    blocks = build_local_systems(mesh, spec, cfg)
    cond = condense(blocks)
    A, b = assemble_trace_system(mesh, cond, cfg.k)
    x = A.solve(b, tol=solver_tol)
    return _recover(mesh, cond, cfg.k, x)


def assemble_monolithic(mesh: ShishkinMesh, spec: ProblemSpec,
                        cfg: HdgConfig) -> tuple[np.ndarray, np.ndarray]:
    """Uncondensed dense system over all interior unknowns plus interior
    traces (oracle path for small meshes)."""
    blocks = build_local_systems(mesh, spec, cfg)
    k = cfg.k
    kp, nb = k + 1, (k + 1) ** 2
    ni = 3 * nb
    nc = mesh.n_cells
    n_tr = mesh.n_interior_edges * kp
    dim = nc * ni + n_tr
    if dim > 20000:
        raise ValueError("monolithic oracle restricted to small meshes")
    M = np.zeros((dim, dim))
    b = np.zeros(dim)
    td = _trace_dofs(mesh, k)
    for c in range(nc):
        r0 = c * ni
        M[r0:r0 + ni, r0:r0 + ni] = blocks.A[c]
        b[r0:r0 + ni] = blocks.F[c]
        for loc, dof in enumerate(td[c]):
            if dof < 0:
                continue
            col = nc * ni + dof
            M[r0:r0 + ni, col] += blocks.C[c][:, loc]
            M[col, r0:r0 + ni] += blocks.G[c][loc, :]
            for loc2, dof2 in enumerate(td[c]):
                if dof2 >= 0:
                    M[col, nc * ni + dof2] += blocks.D[c][loc, loc2]
    return M, b


def solve_monolithic(mesh: ShishkinMesh, spec: ProblemSpec,
                     cfg: HdgConfig) -> SolutionFields:
    """Dense solve of the uncondensed system (oracle)."""
    M, b = assemble_monolithic(mesh, spec, cfg)
    sol = np.linalg.solve(M, b)
    k = cfg.k
    nb = (k + 1) ** 2
    nc = mesh.n_cells
    v = sol[: nc * 3 * nb].reshape(nc, 3 * nb)
    x = sol[nc * 3 * nb:]
    # rebuild SolutionFields directly from the monolithic interior unknowns
    hx = np.repeat(mesh.hx, mesh.ny)
    hy = np.tile(mesh.hy, mesh.nx)
    sqj = np.sqrt(hx * hy / 4.0)[:, None]
    kp = k + 1
    trace = np.zeros((mesh.n_edges, kp))
    interior = ~mesh.edge_boundary
    if x.size:
        scale = np.sqrt(_edge_lengths(mesh)[interior] / 2.0)
        trace[interior] = x.reshape(-1, kp) * scale[:, None]
    return SolutionFields(k, v[:, :nb] * sqj, v[:, nb:2 * nb] * sqj,
                          v[:, 2 * nb:] * sqj, trace)


def galerkin_residual(mesh: ShishkinMesh, spec: ProblemSpec, cfg: HdgConfig,
                      n_quad: Optional[int] = None) -> float:
    """Max over all discrete test functions of |B(exact - discrete, test)|,
    scaled by the load size.

    The orthogonality statement ties the discrete solution to the bilinear
    form it was assembled with, so the solve here uses the same (elevated)
    quadrature as the measurement; the rule is raised by default because the
    exact-solution integrals carry layer tails into the coarse cells.
    """
    if spec.exact is None:
        raise ValueError("galerkin residual needs an exact solution")
    n = n_quad if n_quad else min(30, cfg.k + 22)
    hcfg = HdgConfig(cfg.k, cfg.tau, quad_assembly=n, quad_error=n)
    fields = assemble_and_solve(mesh, spec, hcfg)
    exact = norms.triple_values_exact(mesh, spec, n)
    disc = norms.triple_values_discrete(mesh, fields, n)
    diff = norms.triple_sub(exact, disc)
    res = norms.bilinear_residual(mesh, spec, hcfg, diff, n)
    scale = max(1.0, norms.load_vector_scale(mesh, spec, n))
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
    kp = cfg.k + 1

    # physical -> pulled-back coefficients
    hx = np.repeat(mesh.hx, mesh.ny)
    hy = np.tile(mesh.hy, mesh.nx)
    sqj = np.sqrt(hx * hy / 4.0)[:, None]
    v = np.concatenate([fields.q1, fields.q2, fields.u], axis=1) / sqj
    tr_ref = np.where(mesh.edge_boundary[:, None], 0.0,
                      fields.trace / np.sqrt(_edge_lengths(mesh) / 2.0)[:, None])
    t = tr_ref[mesh.cell_edges].reshape(mesh.n_cells, 4 * kp)

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


def flux_continuity_residual(fields: SolutionFields, mesh: ShishkinMesh,
                             spec: ProblemSpec, cfg: HdgConfig) -> float:
    """Max trace-test moment of the summed two-sided numerical flux after the
    solve; near zero by construction of the trace system."""
    vals = norms.triple_values_discrete(mesh, fields, cfg.n_assembly)
    res = norms.bilinear_residual(mesh, spec, cfg, vals, cfg.n_assembly,
                                  parts=("mu",))
    return res
