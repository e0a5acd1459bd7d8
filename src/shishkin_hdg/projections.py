"""Elementwise L2 projections onto the discrete spaces (cells and edges),
used for supercloseness measurements and as test oracles. They project from
values on a CellQuad rule, so the exact solution is evaluated once and
shared with the error measures (norms.ExactValues). Coefficients are in the
pulled-back orthonormal bases the solver computes in (assembly): the cell
mass matrix is J*I and the edge mass matrix (L/2)*I, so a coefficient is the
moment against the reference basis function divided by J or L/2."""

from __future__ import annotations

import numpy as np

from .assembly import SolutionFields
from .norms import ExactValues
from .refelem import CellQuad, gauss_rule, ref_tables


def project_cells(cq: CellQuad, values, k: int, batches,
                  start: int = 0) -> list:
    """Per-cell L2 projections onto Q^k of functions given by their values
    at the points of consecutive cells of cq from cell `start` on, (cells,
    n*n) each; coefficients in the pulled-back orthonormal tensor Legendre
    basis, one (cells, (k+1)^2) array per function.

    batches holds (LayerBatch, values at its points) pairs: the cells of a
    batch are integrated with its refined composite rule instead (sub-cell
    exponential tails)."""
    R = ref_tables(k, cq.n)
    coefs = [np.einsum("cg,bg->cb", v * cq.W2, R.B0) for v in values]
    for b, bvals in batches:
        for coef, v in zip(coefs, bvals):
            coef[b.cells - start] = np.einsum("cbg,cg->cb", b.B,
                                              b.W * v) / b.J[:, None]
    return coefs


def project_edge(cq: CellQuad, edge_values, k: int) -> np.ndarray:
    """Per-edge L2 projection onto P^k of a function given by its values at
    the edge points of cq, (nedges, n) (CellQuad.on_edges); shape
    (nedges, k+1)."""
    return np.einsum("eg,ag->ea", edge_values * gauss_rule(cq.n).weights,
                     ref_tables(k, cq.n).V)


def project_exact(exact: ExactValues, k: int, trace=None) -> SolutionFields:
    """Componentwise projection (Pi q, Pi u, P u) of the exact solution from
    its values, Pi on the block's cells, P on every edge with homogeneous
    boundary traces (`trace` if another block has projected it)."""
    v, cq = exact.vals, exact.cq
    q1, q2, u = project_cells(cq, (v.r1, v.r2, v.w), k, exact.batches,
                              exact.cells.start)
    if trace is None:
        trace = project_edge(cq, v.mu, k)
        trace[cq.mesh.edge_boundary] = 0.0
    return SolutionFields(k, q1, q2, u, trace)
