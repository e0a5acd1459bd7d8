"""Elementwise L2 projections onto the discrete spaces (cells and edges),
used for supercloseness measurements and as test oracles."""

from __future__ import annotations

import numpy as np

from . import layerquad
from .assembly import SolutionFields
from .mesh import ShishkinMesh
from .problems import ProblemSpec
from .refelem import CellQuad, gauss_rule, ref_tables


def project_cells(mesh: ShishkinMesh, funcs, k: int, n_quad: int,
                  layer_spec: ProblemSpec = None) -> list:
    """Per-cell L2 projections of each function in `funcs` onto Q^k;
    coefficients in the physically orthonormal tensor Legendre basis, one
    (ncells, (k+1)^2) array per function.

    With layer_spec the cells at the layer transition are integrated with
    the refined composite rule (sub-cell exponential tails); the functions
    share one pass over its batches."""
    if n_quad < k + 1:
        raise ValueError("projection quadrature below k+1 points")
    R = ref_tables(k, n_quad)
    cq = CellQuad(mesh, n_quad)
    coefs = [np.sqrt(cq.J)[:, None] *
             np.einsum("cg,bg->cb",
                       np.asarray(func(cq.X, cq.Y), dtype=float) * cq.W2,
                       R.B0)
             for func in funcs]
    if layer_spec is not None:
        for b in layerquad.layer_batches(mesh, layer_spec, n_quad):
            B = b.basis(k)
            for coef, func in zip(coefs, funcs):
                coef[b.cells] = np.einsum("cbg,cg->cb", B,
                                          b.W * func(b.X, b.Y)) \
                    / np.sqrt(b.J)[:, None]
    return coefs


def project_edge(mesh: ShishkinMesh, func, k: int, n_quad: int,
                 zero_boundary: bool = False) -> np.ndarray:
    """Per-edge L2 projection onto P^k along each edge, shape (nedges, k+1).

    The edge points are the cell-side Gauss points, scattered to the edges.
    With zero_boundary the boundary-edge rows are forced to zero, matching
    the homogeneous trace space.
    """
    if n_quad < k + 1:
        raise ValueError("projection quadrature below k+1 points")
    V = ref_tables(k, n_quad).V
    sx, sy = CellQuad(mesh, n_quad).side_points
    xs = np.empty((mesh.n_edges, n_quad))
    ys = np.empty((mesh.n_edges, n_quad))
    xs[mesh.cell_edges], ys[mesh.cell_edges] = sx, sy

    fv = np.asarray(func(xs, ys), dtype=float)
    coef = np.sqrt(mesh.edge_length / 2.0)[:, None] * \
        np.einsum("eg,ag->ea", fv * gauss_rule(n_quad).weights, V)
    if zero_boundary:
        coef[mesh.edge_boundary] = 0.0
    return coef


def project_exact(mesh: ShishkinMesh, spec: ProblemSpec, k: int,
                  n_quad: int) -> SolutionFields:
    """Componentwise projection (Pi q, Pi u, P u) of the exact solution, with
    homogeneous boundary traces."""
    if spec.exact is None:
        raise ValueError("problem has no exact solution attached")
    ex = spec.exact
    q1, q2, u = project_cells(mesh, (ex.q1, ex.q2, ex.u), k, n_quad,
                              layer_spec=spec)
    return SolutionFields(k, q1, q2, u,
                          project_edge(mesh, ex.u, k, n_quad,
                                       zero_boundary=True))
