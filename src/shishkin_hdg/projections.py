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


def project_cells(cq: CellQuad, values, k: int, batches) -> list:
    """Per-cell L2 projections onto Q^k of functions given by their values
    at the cell points of cq, (ncells, n*n) each; coefficients in the
    pulled-back orthonormal tensor Legendre basis, one (ncells, (k+1)^2)
    array per function.

    batches holds (LayerBatch, values at its points) pairs: the cells of a
    batch are integrated with its refined composite rule instead (sub-cell
    exponential tails)."""
    if cq.n < k + 1:
        raise ValueError("projection quadrature below k+1 points")
    R = ref_tables(k, cq.n)
    coefs = [np.einsum("cg,bg->cb", v * cq.W2, R.B0) for v in values]
    for b, bvals in batches:
        B = b.basis(k)
        for coef, v in zip(coefs, bvals):
            coef[b.cells] = np.einsum("cbg,cg->cb", B, b.W * v) / b.J[:, None]
    return coefs


def project_edge(cq: CellQuad, side_values, k: int) -> np.ndarray:
    """Per-edge L2 projection onto P^k of a function given by its values at
    the side points of cq, (ncells, 4, n); shape (nedges, k+1).

    Both cells of an edge see its points bit for bit, so the side values
    are gathered onto the edges through mesh.cell_edges.
    """
    if cq.n < k + 1:
        raise ValueError("projection quadrature below k+1 points")
    mesh = cq.mesh
    fv = np.empty((mesh.n_edges, cq.n))
    fv[mesh.cell_edges] = side_values
    return np.einsum("eg,ag->ea", fv * gauss_rule(cq.n).weights,
                     ref_tables(k, cq.n).V)


def project_exact(exact: ExactValues, k: int) -> SolutionFields:
    """Componentwise projection (Pi q, Pi u, P u) of the exact solution from
    its values, with homogeneous boundary traces."""
    v = exact.vals
    q1, q2, u = project_cells(exact.cq, (v.r1, v.r2, v.w), k, exact.batches)
    trace = project_edge(exact.cq, v.mu, k)
    trace[exact.cq.mesh.edge_boundary] = 0.0
    return SolutionFields(k, q1, q2, u, trace)
