"""HDG assembly for the three-field formulation: per-cell local systems,
condensed one block of cells at a time onto each cell's edge traces, the
trace solve (linalg.solve_box_tree, which owns its SuperLU fallback) on
every cell's [S | rhs], and recovery of the cells from the traces.

Every coefficient, here and in the projection and norm modules, is in the
pulled-back orthonormal bases: on a cell the reference Legendre tensor basis
(cell mass matrix J*I with J = hx*hy/4), on an edge the reference 1D basis
(edge mass matrix (L/2)*I). The local systems solve for these coefficients
and SolutionFields holds them as they come.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import layerquad
from .linalg import SolveError, solve_box_tree
from .mesh import SIDES, ShishkinMesh
from .problems import ProblemSpec
from .refelem import (MAX_GAUSS_POINTS, CellQuad, RefTables, gauss_rule,
                      legendre, ref_tables)
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
        if not 0 < self.tau < np.inf:  # NaN and inf fail too
            raise ValueError("stabilization constant tau must be finite and "
                             "positive")
        if self.n_assembly < self.k + 1:
            raise ValueError("assembly quadrature below k+1 points")
        if self.n_error < self.k + 1:
            raise ValueError("error quadrature below k+1 points")
        if max(self.n_assembly, self.n_error) > MAX_GAUSS_POINTS:
            raise ValueError(f"quadrature above {MAX_GAUSS_POINTS} points")

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


# consecutive cells built, condensed and summed at a time; a block's dense
# local systems are freed before the next block is built
BLOCK_CELLS = 256


@dataclass
class LocalBlocks:
    """Batched local systems of the consecutive cells `cells`: interior
    unknowns (q1, q2, u) of size 3(k+1)^2 against the four edge-trace blocks
    of size k+1 each (order W, E, S, N)."""

    cells: range
    A: np.ndarray   # (nc, ni, ni) interior equations x interior unknowns
    FC: np.ndarray  # (nc, ni, 1 + nt) load F, then C: condense solves for it
    G: np.ndarray   # (nc, nt, ni) flux-continuity rows x interior unknowns
    D: np.ndarray   # (nc, nt, nt) flux-continuity rows x traces

    @property
    def C(self) -> np.ndarray:
        """(nc, ni, nt) interior equations x traces."""
        return self.FC[:, :, 1:]


@dataclass
class _LocalSetup:
    """What the local systems of all cell blocks share, computed once per
    assembly: the reference tables and the assembly rule, the reference
    operands of the local system, the edge-mass weights (beta.n - tau) *
    Gauss weight at the side points, and the u-rows of the load of the
    layer-refined cells."""

    R: RefTables
    cq: CellQuad
    # per axis, the u-q block of equation (ii), -(q, grad w) + <q.n, w>,
    # and the stabilization <u, w> over the axis's two sides
    UQ: tuple
    STAB: tuple
    # operands of the weighted products: a field f at the points, (cells,
    # n^2), times VOL[i] is sum_g f_g P[b,g] B0[a,g] at column b*nb + a
    # for P = BX, BY, B0; a side field, (cells, n), times EDGE is sum_g f_g
    # V[m,g] V[e,g] at column m*kp + e
    VOL: tuple
    EDGE: np.ndarray
    side_weight: np.ndarray  # (4, ncells, n), side-major
    layer_load: list  # (cell ids, (cells, (k+1)^2) load) per layer batch


def _local_setup(mesh: ShishkinMesh, spec: ProblemSpec,
                 cfg: HdgConfig) -> _LocalSetup:
    k, n = cfg.k, cfg.n_assembly
    kp, nb = k + 1, (k + 1) ** 2
    cq = CellQuad(mesh, n)
    bn = edge_normal_beta(cq, spec)  # for the check and the side terms
    check_stabilization(bn, cfg.tau)
    # f carries layer tails of height ~N^-sigma varying on the sub-cell
    # scale eps/beta into the coarse cells at the transition; integrate
    # those cells with the refined composite rule instead
    load = [(b.cells, np.einsum("cbg,cg->cb", b.B, b.W * b.on_cells(spec.f)))
            for b in layerquad.layer_batches(mesh, spec, n, k)]
    rule, R = gauss_rule(n), ref_tables(k, n)
    V = R.V
    Ep, Em = legendre(k, [1.0, -1.0])[0].T
    # 1D mass (identity for exact rules; kept as a quadrature sum)
    M1 = (V * rule.weights) @ V.T
    # the basis paired with itself on x = +-1 (EV) and y = +-1 (EH)
    EVp = np.kron(np.outer(Ep, Ep), M1)
    EVm = np.kron(np.outer(Em, Em), M1)
    EHp = np.kron(M1, np.outer(Ep, Ep))
    EHm = np.kron(M1, np.outer(Em, Em))
    side_weight = (bn - cfg.tau) * rule.weights
    return _LocalSetup(
        R, cq, (-R.KX + EVp - EVm, -R.KY + EHp - EHm),
        (EVp + EVm, EHp + EHm),
        tuple((P.T[:, :, None] * R.B0.T[:, None]).reshape(n * n, nb * nb)
              for P in (R.BX, R.BY, R.B0)),
        (V.T[:, :, None] * V.T[:, None]).reshape(n, kp * kp),
        np.ascontiguousarray(side_weight.swapaxes(0, 1)), load)


def check_stabilization(bn: np.ndarray, tau: float) -> float:
    """Margin min(tau - |beta.n|/2) over sampled side values bn of beta.n
    (norms.edge_normal_beta); raises unless > 0."""
    margin = float(tau - 0.5 * np.max(np.abs(bn)))
    if not margin > 0:  # a NaN beta.n fails too
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
    kp, tau = cfg.k + 1, cfg.tau
    nb, nt = kp * kp, 4 * kp
    ni = 3 * nb
    if cells is None:
        cells = range(mesh.n_cells)
    if setup is None:
        setup = _local_setup(mesh, spec, cfg)
    R = setup.R
    sel = slice(cells.start, cells.stop)
    nc = len(cells)
    cq = setup.cq
    J, W2 = cq.J[sel], cq.W2  # W2: reference weights, (n^2,)
    side_weight = setup.side_weight[:, sel]

    iq = (slice(0, nb), slice(nb, 2 * nb))  # the flux rows of each axis
    iu = slice(2 * nb, 3 * nb)
    sides = [slice(s * kp, (s + 1) * kp) for s in range(4)]  # W, E, S, N

    b1, b2 = cq.on_cells(spec.beta1, cells), cq.on_cells(spec.beta2, cells)
    cr = cq.on_cells(spec.c, cells) - cq.on_cells(spec.div_beta, cells)
    fv = cq.on_cells(spec.f, cells)

    halfx = mesh.cell_hx[sel] / 2.0
    halfy = mesh.cell_hy[sel] / 2.0
    half_side = mesh.half_side[sel]

    A = np.zeros((nc, ni, ni))
    FC = np.zeros((nc, ni, 1 + nt))
    F, C = FC[:, :, 0], FC[:, :, 1:]
    G = np.zeros((nc, nt, ni))
    D = np.zeros((nc, nt, nt))

    d = np.arange(2 * nb)  # the flux-flux block is (J/eps) I
    A[:, d, d] = (J / spec.epsilon)[:, None]
    A[:, iq[0], iu] = -halfy[:, None, None] * R.KX
    A[:, iq[1], iu] = -halfx[:, None, None] * R.KY
    A[:, iu, iq[0]] = halfy[:, None, None] * setup.UQ[0]
    A[:, iu, iq[1]] = halfx[:, None, None] * setup.UQ[1]

    # [:, None]: one vector-matrix product per cell; the rows of a single
    # GEMM would round differently with the block's size
    conv_x, conv_y, react = (((W2 * v)[:, None] @ P).reshape(nc, nb, nb)
                             for v, P in zip((b1, b2, cr), setup.VOL))
    stab = (halfy[:, None, None] * setup.STAB[0]
            + halfx[:, None, None] * setup.STAB[1])
    A[:, iu, iu] = (-halfy[:, None, None] * conv_x
                    - halfx[:, None, None] * conv_y
                    + J[:, None, None] * react + tau * stab)

    # per side: the flux rows of its normal axis take the outward sign
    for s, ((axis, sign), L) in enumerate(zip(SIDES, R.L)):
        h = half_side[:, s, None, None]
        # traces entering equation (i): <u_hat, r.n>
        C[:, iq[axis], sides[s]] = sign * h * L
        # traces entering equation (ii): <(beta.n - tau) u_hat, w>, and the
        # edge mass of (beta.n - tau) for the flux rows (iii)
        em = (side_weight[s][:, None] @ setup.EDGE).reshape(nc, kp, kp)
        C[:, iu, sides[s]] = h * (L @ em)
        D[:, sides[s], sides[s]] = h * em
        # flux rows: <q.n, mu> and <tau u, mu>
        G[:, sides[s], iq[axis]] = sign * h * L.T
        G[:, sides[s], iu] = tau * h * L.T

    F[:, iu] = J[:, None] * np.einsum("cg,bg->cb", W2 * fv, R.B0)
    for layer_cells, load in setup.layer_load:  # the composite-rule rows
        inside = (layer_cells >= cells.start) & (layer_cells < cells.stop)
        F[layer_cells[inside] - cells.start, iu] = load[inside]

    return LocalBlocks(cells, A, FC, G, D)


def condense(blocks: LocalBlocks) -> tuple:
    """(S, rhs, IF, IC): the Schur complement S = D - G A^{-1} C onto the
    traces, rhs = -G A^{-1} F, and the u-rows IF and IC of the recovery
    operators A^{-1} F and A^{-1} C (the flux: _recover_flux)."""
    try:
        sol = np.linalg.solve(blocks.A, blocks.FC)
    except np.linalg.LinAlgError:
        for c in range(blocks.A.shape[0]):
            try:
                np.linalg.solve(blocks.A[c], blocks.FC[c])
            except np.linalg.LinAlgError:
                raise SolveError(f"singular interior block in cell "
                                 f"{blocks.cells[c]}; well-posedness "
                                 "assumptions likely violated")
        raise
    IF, IC = sol[:, :, 0], sol[:, :, 1:]
    S = blocks.D - blocks.G @ IC
    r = -np.einsum("cij,cj->ci", blocks.G, IF)
    iu = slice(2 * blocks.A.shape[1] // 3, None)
    return S, r, IF[:, iu], IC[:, iu]


def _condensed_cells(mesh: ShishkinMesh, spec: ProblemSpec, cfg: HdgConfig):
    """(Sr, IF, IC): [S | rhs] of every cell, (ncells, 4(k+1), 4(k+1) + 1),
    and the u-rows of its recovery operators (condense), built and
    condensed BLOCK_CELLS consecutive cells at a time, so the dense local
    systems of the whole mesh never exist at once."""
    kp, nc = cfg.k + 1, mesh.n_cells
    Sr = np.empty((nc, 4 * kp, 4 * kp + 1))
    IF, IC = np.empty((nc, kp * kp)), np.empty((nc, kp * kp, 4 * kp))
    setup = _local_setup(mesh, spec, cfg)
    for start in range(0, nc, BLOCK_CELLS):
        sel = slice(start, start + BLOCK_CELLS)
        Sr[sel, :, :-1], Sr[sel, :, -1], IF[sel], IC[sel] = condense(
            build_local_systems(mesh, spec, cfg, range(nc)[sel], setup))
    return Sr, IF, IC


def assemble_and_solve(mesh: ShishkinMesh, spec: ProblemSpec,
                       cfg: HdgConfig) -> SolutionFields:
    """Full pipeline: local systems condensed in blocks of cells, the trace
    solve on the box tree (falling back to SuperLU) with homogeneous
    boundary traces, recovery of u and of the flux from equation (i)."""
    Sr, IF, IC = _condensed_cells(mesh, spec, cfg)
    trace = solve_box_tree(mesh, Sr)
    t_local = trace[mesh.cell_edges]  # (ncells, 4, k+1)
    u = IF - np.einsum("cij,cj->ci", IC, t_local.reshape(mesh.n_cells, -1))
    q1, q2 = _recover_flux(mesh, spec, cfg, u, t_local)
    return SolutionFields(cfg.k, q1, q2, u, trace)


def _recover_flux(mesh: ShishkinMesh, spec: ProblemSpec, cfg: HdgConfig,
                  u: np.ndarray, t_local: np.ndarray) -> tuple:
    """(q1, q2) of every cell from u and the cell traces t_local, (ncells,
    4, k+1) in side order W, E, S, N, by equation (i), which is local with
    flux block (J/eps) I: q = -(eps/J) (A_qu u + C_q t)."""
    R = ref_tables(cfg.k, cfg.n_assembly)
    t = mesh.half_side[:, :, None] * t_local
    j_eps = (mesh.cell_hx * mesh.cell_hy / 4.0 / spec.epsilon)[:, None]
    q = [(mesh.cell_hy / 2.0)[:, None] * (u @ R.KX.T),
         (mesh.cell_hx / 2.0)[:, None] * (u @ R.KY.T)]
    for s, ((axis, sign), L) in enumerate(zip(SIDES, R.L)):
        q[axis] -= sign * (t[:, s] @ L.T)
    return q[0] / j_eps, q[1] / j_eps


def galerkin_residual(mesh: ShishkinMesh, spec: ProblemSpec,
                      cfg: HdgConfig) -> float:
    """Max over all discrete test functions of |B(exact - discrete, test)|,
    scaled by the load size.

    The orthogonality statement ties the discrete solution to the bilinear
    form it was assembled with, so the solve here uses the same (elevated)
    quadrature as the measurement; the rule is raised by default because the
    exact-solution integrals carry layer tails into the coarse cells.
    """
    n = min(30, cfg.k + 22)
    hcfg = HdgConfig(cfg.k, cfg.tau, quad_assembly=n, quad_error=n)
    fields = assemble_and_solve(mesh, spec, hcfg)
    cq = CellQuad(mesh, n)
    res = norms.bilinear_residual(cq, spec, hcfg, fields)
    scale = max(1.0, norms.load_vector_scale(cq, spec))
    return max(res.values()) / scale


def bilinear_form(fields: SolutionFields, mesh: ShishkinMesh,
                  spec: ProblemSpec, cfg: HdgConfig) -> float:
    """B(xi, xi) for a discrete triple xi: sum over cells of the local
    quadratic form; the boundary traces of fields are zero (SolutionFields).

    The flux-continuity rows enter the form with a minus sign (they are
    tested against -mu). That convention leaves the solution unchanged but
    makes the quadratic form equal the energy norm squared identically,
    which is the coercivity statement being sampled here."""
    blocks = build_local_systems(mesh, spec, cfg)
    v = np.concatenate([fields.q1, fields.q2, fields.u], axis=1)
    t = fields.trace[mesh.cell_edges].reshape(mesh.n_cells, -1)

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

