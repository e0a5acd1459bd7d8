"""Energy-norm and L2 error measurement, residual functionals of the
discrete bilinear form, and convergence-rate formulas.

All field evaluation goes through TripleValues: pointwise values of a triple
(r, w, mu) on the tensor quadrature grid of every cell, on the Gauss points
of every cell side (mesh.SIDES order W, E, S, N) and, for mu, of every
edge. The same machinery serves the true error, the supercloseness error
and the Galerkin-orthogonality residual; only the residual reads the
outward normal flux r.n, and it evaluates that itself.
Every function takes the CellQuad of its rule; the exact solution
(ExactValues) and the energy-norm weights (EnergyWeights) are evaluated once
per rule and shared by every measure, one block of mesh columns at a time
(BLOCK_CELLS). Discrete triples are read in the pulled-back orthonormal
bases the solver computes in (assembly), straight from the reference tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import layerquad
from .mesh import SIDES
from .problems import ProblemSpec
from .refelem import CellQuad, gauss_rule, ref_tables

# the error report measures blocks of max(1, BLOCK_CELLS // ny) mesh columns
BLOCK_CELLS = 1024


class StabilizationError(ValueError):
    """The edge weight tau - beta.n/2 is negative at a sampled point, so the
    energy norm (and the method's stability) is not defined."""


def _outward(mesh, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """n.(fx, fy) with each cell's outward normal n, from the components at
    the edge points, (nedges, n) each. Returns an (ncells, 4, n) array."""
    ce = mesh.cell_edges
    return np.stack([sign * (fx, fy)[axis][ce[:, s]]
                     for s, (axis, sign) in enumerate(SIDES)], axis=1)


def edge_normal_beta(cq: CellQuad, spec: ProblemSpec):
    """beta.n at the side points of cq (W, E, S, N), signed with the cell's
    outward normal. Returns an (ncells, 4, n) array."""
    return _outward(cq.mesh, cq.on_edges(spec.beta1), cq.on_edges(spec.beta2))


@dataclass
class TripleValues:
    """Pointwise values of a triple (r, w, mu) on the quadrature grid.

    r1, r2, w: (ncells, n*n) cell values. w_tr: (ncells, 4, n) side values.
    mu: (nedges, n) edge values, single-valued per edge.
    """

    r1: np.ndarray
    r2: np.ndarray
    w: np.ndarray
    w_tr: np.ndarray
    mu: np.ndarray


def triple_values_discrete(cq: CellQuad, flds, mu=None) -> TripleValues:
    """Evaluate a discrete triple given by SolutionFields-style coefficient
    arrays (pulled-back orthonormal bases, cell rows of all cells or of a
    block) on the rule cq; mu is the trace's edge values if known."""
    R = ref_tables(flds.k, cq.n)
    return TripleValues(
        *(np.einsum("ca,ag->cg", coef, R.B0)
          for coef in (flds.q1, flds.q2, flds.u)),
        np.stack([np.einsum("ca,ag->cg", flds.u, tab)
                  for tab in R.side_traces], axis=1),
        np.einsum("ea,ag->eg", flds.trace, R.V) if mu is None else mu)


def triple_values_exact(cq: CellQuad, spec: ProblemSpec) -> TripleValues:
    """Evaluate the exact triple (q, u, u|_edges) of a manufactured problem
    on the rule cq. u is continuous, so its edge values serve as mu and,
    gathered onto the cell sides, as w_tr."""
    ex = spec.exact
    mu = cq.on_edges(ex.u)
    return TripleValues(cq.on_cells(ex.q1), cq.on_cells(ex.q2),
                        cq.on_cells(ex.u), mu[cq.mesh.cell_edges], mu)


@dataclass
class ExactValues:
    """The exact triple on the rule cq at the cells `cells`, a block of mesh
    columns, their sides and every edge (vals), and on their share of the
    composite layer batches of the same n, with the basis of the solve's
    degree, as (LayerBatch, (q1, q2, u)) pairs. The projection of the exact
    solution and the error measures all read these values."""

    cq: CellQuad
    cells: range
    vals: TripleValues
    batches: list


def exact_values(cq: CellQuad, spec: ProblemSpec, k: int):
    """The ExactValues of a manufactured problem on the rule cq, for a solve
    of degree k, block by block (a generator); the edge values and the
    layer batches are evaluated once."""
    mesh, fns = cq.mesh, (spec.exact.q1, spec.exact.q2, spec.exact.u)
    mu = cq.on_edges(spec.exact.u)
    batches = layerquad.layer_batches(mesh, spec, cq.n, k)
    step = max(1, BLOCK_CELLS // mesh.ny) * mesh.ny
    for start in range(0, mesh.n_cells, step):
        cells = range(mesh.n_cells)[start:start + step]
        yield ExactValues(cq, cells, TripleValues(
            *(cq.on_cells(f, cells) for f in fns),
            mu[mesh.cell_edges[start:cells.stop]], mu),
            [(s, [s.on_cells(f) for f in fns])
             for s in (b.columns(cells) for b in batches) if s])


def triple_sub(a: TripleValues, b: TripleValues, mu=None) -> TripleValues:
    """a - b; mu is the edge values of a - b if known."""
    return TripleValues(a.r1 - b.r1, a.r2 - b.r2, a.w - b.w,
                        a.w_tr - b.w_tr, a.mu - b.mu if mu is None else mu)


@dataclass
class EnergyWeights:
    """The weights of the energy norm on the rule cq: c - div beta / 2 at
    the points of the consecutive cells `cells`, (len(cells), n*n), and
    tau - beta.n/2 at the side points of every cell, (ncells, 4, n)."""

    cq: CellQuad
    epsilon: float
    cells: range
    reaction: np.ndarray
    jump: np.ndarray


def energy_weights(cq: CellQuad, spec: ProblemSpec, tau: float,
                   cells: Optional[range] = None, jump=None) -> EnergyWeights:
    """The energy-norm weights of a problem on the rule cq, the reaction
    weight on the cells `cells` (all by default); the side weight is `jump`
    if known, else evaluated, raising StabilizationError where negative."""
    if jump is None:
        jump = tau - 0.5 * edge_normal_beta(cq, spec)
        if np.min(jump) < 0:
            raise StabilizationError(
                f"tau = {tau:g} gives a negative edge weight tau - beta.n/2 "
                f"(min {np.min(jump):.3e}); energy norm undefined")
    if cells is None:
        cells = range(cq.mesh.n_cells)
    return EnergyWeights(cq, spec.epsilon, cells, cq.on_cells(spec.c, cells)
                         - 0.5 * cq.on_cells(spec.div_beta, cells), jump)


def _cell_terms(wts: EnergyWeights, vals: TripleValues):
    """Per-cell integrals of |r|^2, (c - div beta / 2) w^2 and w^2 of a
    triple on the cells and plain rule of the weights, (cells,) each, and
    the terms of ||(tau - beta.n/2)^{1/2} (w - mu)||^2 over their sides,
    (cells, 4, n). Every cell side contributes, so interior edges are
    visited from both sides (with that cell's outward normal)."""
    cq, sel = wts.cq, slice(wts.cells.start, wts.cells.stop)
    J, jump = cq.J[sel], vals.w_tr - vals.mu[cq.mesh.cell_edges[sel]]
    return (J * np.einsum("g,cg->c", cq.W2, vals.r1**2 + vals.r2**2),
            J * np.einsum("cg,cg->c", cq.W2 * wts.reaction, vals.w**2),
            J * np.einsum("g,cg->c", cq.W2, vals.w**2),
            cq.mesh.half_side[sel, :, None] * wts.jump[sel] * jump**2
            * gauss_rule(cq.n).weights)


def energy_norm(wts: EnergyWeights, vals: TripleValues) -> float:
    """Energy norm of a triple given on the rule of the weights:

    |||(r, w, mu)|||^2 = eps^-1 ||r||^2 + ||(c - div beta / 2)^{1/2} w||^2
                         + sum_cells sum_sides (tau - beta.n/2) (w - mu)^2.
    """
    flux, react, _, jump = _cell_terms(wts, vals)
    q_sq = float((flux / wts.epsilon).sum())
    return float(np.sqrt(q_sq + float(react.sum()) + float(jump.sum())))


def bilinear_residual(cq: CellQuad, spec: ProblemSpec, cfg, fields) -> dict:
    """|B(e; test)| for the error e = exact - fields of a manufactured
    problem on the rule cq, maximized over each family of normalized
    discrete test functions: {"r": ..., "w": ..., "mu": ...}.

    Tests are the physically orthonormal basis functions of the three spaces;
    "r" and "w" rows run over every cell, "mu" rows over interior edges. The
    exact flux and trace are single-valued on every edge, so their mu rows
    cancel and "mu" measures the flux continuity of the fields.
    """
    k, tau = cfg.k, cfg.tau
    mesh, n = cq.mesh, cq.n
    R = ref_tables(k, n)
    w1 = gauss_rule(n).weights
    sqj = np.sqrt(cq.J)
    side = mesh.half_side / sqj[:, None]
    tabs = R.side_traces
    vals = triple_sub(triple_values_exact(cq, spec),
                      triple_values_discrete(cq, fields))
    q = (fields.q1, fields.q2)
    rn_h = np.stack([sign * np.einsum("ca,ag->cg", q[axis], tabs[s])
                     for s, (axis, sign) in enumerate(SIDES)], axis=1)
    rn = _outward(mesh, cq.on_edges(spec.exact.q1),
                  cq.on_edges(spec.exact.q2)) - rn_h
    mu = vals.mu[mesh.cell_edges]  # (ncells, 4, n)

    # numerical flux r.n + beta.n mu + tau (w - mu) on every cell side
    flux = rn + edge_normal_beta(cq, spec) * mu + tau * (vals.w_tr - mu)

    # rows of r1 (x derivative), then of r2: the cell terms, then the trace
    # on each side, signed with its outward normal
    res = [(sqj / spec.epsilon)[:, None]
           * np.einsum("cg,bg->cb", r * cq.W2, R.B0)
           - side[:, s, None] * np.einsum("cg,bg->cb", vals.w * cq.W2, BD)
           for r, BD, s in ((vals.r1, R.BX, 0), (vals.r2, R.BY, 2))]
    for s, (axis, sign) in enumerate(SIDES):
        res[axis] += sign * side[:, s, None] * \
            np.einsum("cg,bg->cb", mu[:, s] * w1, tabs[s])

    b1, b2 = cq.on_cells(spec.beta1), cq.on_cells(spec.beta2)
    cr = cq.on_cells(spec.c) - cq.on_cells(spec.div_beta)
    resw = -side[:, 0, None] * np.einsum(
        "cg,bg->cb", (vals.r1 + b1 * vals.w) * cq.W2, R.BX)
    resw -= side[:, 2, None] * np.einsum(
        "cg,bg->cb", (vals.r2 + b2 * vals.w) * cq.W2, R.BY)
    resw += sqj[:, None] * np.einsum("cg,bg->cb", cr * vals.w * cq.W2, R.B0)
    for s in range(4):
        resw += side[:, s, None] * \
            np.einsum("cg,bg->cb", flux[:, s] * w1, tabs[s])

    resm = np.zeros((mesh.n_edges, k + 1))
    np.add.at(resm, mesh.cell_edges, np.sqrt(mesh.half_side)[:, :, None]
              * np.einsum("csg,eg->cse", flux * w1, R.V))
    return {"r": max(float(np.abs(r).max()) for r in res),
            "w": float(np.abs(resw).max()),
            "mu": float(np.abs(resm[~mesh.edge_boundary]).max())}


def load_vector_scale(cq: CellQuad, spec: ProblemSpec) -> float:
    """max |(f, w)| over normalized Q^2 cell test functions on the rule cq
    (residual scaling)."""
    R = ref_tables(2, cq.n)
    fv = cq.on_cells(spec.f)
    F = np.sqrt(cq.J)[:, None] * np.einsum("cg,bg->cb", fv * cq.W2, R.B0)
    return float(np.abs(F).max())


def refined_error_corrections(exact: ExactValues, spec: ProblemSpec,
                              wts: EnergyWeights, fields, cells,
                              plain: list) -> None:
    """Correct the per-cell integrals cells = (|r|^2, (c - div beta / 2)
    w^2, w^2) of the error (_cell_terms), (ncells,) each, on the
    layer-refined cells of the block of exact in place, by adding the
    composite-rule integral and subtracting the plain-rule one. The
    composite half reads the exact values on their batches; plain holds
    the batches with the plain rule (layer_batches with composite=False),
    so the plain half reads the exact values and the weights of the block.
    """
    ev = exact.vals
    composite = [(b, vals, b.on_cells(spec.c)
                  - 0.5 * b.on_cells(spec.div_beta))
                 for b, vals in exact.batches]
    shares = [b for b in (p.columns(exact.cells) for p in plain) if b]
    plain = [(b, (ev.r1[i], ev.r2[i], ev.w[i]), wts.reaction[i])
             for b, i in ((b, b.cells - exact.cells.start) for b in shares)]
    flux, react, l2u = cells
    for batches, sign in ((composite, 1.0), (plain, -1.0)):
        for b, exact_b, cw in batches:
            q1t, q2t, ut = (v - np.einsum("ca,cag->cg", coef[b.cells], b.B)
                            for v, coef in zip(exact_b, (fields.q1, fields.q2,
                                                         fields.u)))
            flux[b.cells] += sign * np.einsum("cg,cg->c", b.W, q1t**2 + q2t**2)
            react[b.cells] += sign * np.einsum("cg,cg->c", b.W, cw * ut**2)
            l2u[b.cells] += sign * np.einsum("cg,cg->c", b.W, ut**2)


@dataclass
class ErrorReport:
    """Error measurements of one solve."""

    N: int
    k: int
    epsilon: float
    energy_error: float
    l2_error_u: float
    l2_error_q: float
    q_part_sq: float
    reaction_part_sq: float
    jump_part_sq: float
    region_cell_sq: dict
    supercloseness_error: Optional[float] = None


def error_report(cq: CellQuad, spec: ProblemSpec, cfg, fields,
                 project=None) -> ErrorReport:
    """Energy-norm and L2 errors of a solution, measured on the rule cq;
    with project (projections.project_exact), also the supercloseness
    distance |||(Pi q - q_h, Pi u - u_h, P u - u_hat)||| between the
    discrete solution and the projection of the exact one. Both distances
    share one set of energy-norm weights. Each block of exact_values writes
    its cells' integrals and jump terms into arrays of the whole mesh,
    (ncells,) and (ncells, 4, n), and each sum runs once over those."""
    mesh, k, nc = cq.mesh, cfg.k, cq.mesh.n_cells
    # |r|^2, (c - div beta / 2) w^2, w^2 and the jump terms per cell, of
    # the error and of the supercloseness triple
    err, sc = ([np.empty(nc) for _ in range(3)] + [np.empty((nc, 4, cq.n))]
               for _ in range(2))
    side = energy_weights(cq, spec, cfg.tau, range(0)).jump  # checked first
    plain = layerquad.layer_batches(mesh, spec, cq.n, k, composite=False)
    # edge values, from the first block on
    mu = diff_mu = projected = sc_mu = None
    for exact in exact_values(cq, spec, k):
        wts = energy_weights(cq, spec, cfg.tau, exact.cells, side)
        sel = slice(exact.cells.start, exact.cells.stop)
        block = replace(fields, q1=fields.q1[sel], q2=fields.q2[sel],
                        u=fields.u[sel])
        vals = triple_values_discrete(cq, block, mu)
        triples = [(triple_sub(exact.vals, vals, diff_mu), err)]
        mu, diff_mu = vals.mu, triples[0][0].mu
        if project is not None:
            projected = project(exact, k, projected and projected.trace)
            vals = triple_values_discrete(cq, projected - block, sc_mu)
            sc_mu = vals.mu
            triples.append((vals, sc))
        for vals, out in triples:
            for whole, part in zip(out, _cell_terms(wts, vals)):
                whole[sel] = part
        refined_error_corrections(exact, spec, wts, fields, err[:3], plain)
        del exact, wts, vals, triples  # freed before the next block
    flux, react, l2u, jump = err
    cell_q = flux / spec.epsilon
    q_sq, r_sq, jump_sq = (float(a.sum()) for a in (cell_q, react, jump))
    return ErrorReport(mesh.N, k, spec.epsilon,
                       float(np.sqrt(q_sq + r_sq + jump_sq)),
                       float(np.sqrt(l2u.sum())), float(np.sqrt(flux.sum())),
                       q_sq, r_sq, jump_sq, mesh.region_sums(cell_q + react),
                       None if project is None else float(np.sqrt(
                           float((sc[0] / spec.epsilon).sum())
                           + float(sc[1].sum()) + float(sc[3].sum()))))


def convergence_rate(e_coarse: float, e_fine: float, n_coarse: int) -> float:
    """Exponent p fitted to the two-level model e ~ (N^-1 ln N)^p, anchored
    at the fine pair (2N, 4N) of mesh sizes."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("rates need positive errors")
    n2 = 2 * n_coarse
    return float(np.log(e_coarse / e_fine)
                 / np.log(2.0 * np.log(n2) / np.log(2 * n2)))


def dyadic_rate(e_coarse: float, e_fine: float) -> float:
    """Plain log2 ratio of two errors under mesh doubling."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("rates need positive errors")
    return float(np.log2(e_coarse / e_fine))
