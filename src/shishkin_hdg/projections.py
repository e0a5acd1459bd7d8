"""Elementwise L2 projections onto the discrete spaces (cells and edges),
used for supercloseness measurements and as test oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layerquad
from .mesh import ShishkinMesh
from .problems import ProblemSpec
from .refelem import CellQuad, gauss_rule, ref_tables


@dataclass
class ProjectedFields:
    """Coefficients of the projected exact triple, same layout and basis
    conventions as SolutionFields."""

    k: int
    q1: np.ndarray
    q2: np.ndarray
    u: np.ndarray
    trace: np.ndarray


def project_cell_scalar(mesh: ShishkinMesh, func, k: int, n_quad: int,
                        layer_spec: ProblemSpec = None) -> np.ndarray:
    """Per-cell L2 projection onto Q^k; coefficients in the physically
    orthonormal tensor Legendre basis, shape (ncells, (k+1)^2).

    With layer_spec the cells at the layer transition are integrated with
    the refined composite rule (sub-cell exponential tails)."""
    if n_quad < k + 1:
        raise ValueError("projection quadrature below k+1 points")
    R = ref_tables(k, n_quad)
    cq = CellQuad(mesh, n_quad)
    fv = np.asarray(func(cq.X, cq.Y), dtype=float)
    coef = np.sqrt(cq.J)[:, None] * \
        np.einsum("cg,bg->cb", fv * cq.W2, R.B0)
    if layer_spec is not None:
        for b in layerquad.layer_batches(mesh, layer_spec, n_quad):
            coef[b.cells] = np.einsum("cbg,cg->cb", b.basis(k),
                                      b.W * func(b.X, b.Y)) \
                / np.sqrt(b.J)[:, None]
    return coef


def project_edge(mesh: ShishkinMesh, func, k: int, n_quad: int,
                 zero_boundary: bool = False) -> np.ndarray:
    """Per-edge L2 projection onto P^k along each edge, shape (nedges, k+1).

    With zero_boundary the boundary-edge rows are forced to zero, matching
    the homogeneous trace space.
    """
    if n_quad < k + 1:
        raise ValueError("projection quadrature below k+1 points")
    rule = gauss_rule(n_quad)
    V = ref_tables(k, n_quad).V

    L = np.empty(mesh.n_edges)
    xs = np.empty((mesh.n_edges, n_quad))
    ys = np.empty((mesh.n_edges, n_quad))
    vert = mesh.edge_axis == 0
    seg_v, seg_h = mesh.edge_seg[vert], mesh.edge_seg[~vert]
    L[vert] = mesh.hy[seg_v]
    L[~vert] = mesh.hx[seg_h]
    ym = (mesh.y_nodes[:-1] + mesh.y_nodes[1:]) / 2.0
    xm = (mesh.x_nodes[:-1] + mesh.x_nodes[1:]) / 2.0
    xs[vert] = mesh.x_nodes[mesh.edge_line[vert]][:, None]
    ys[vert] = ym[seg_v][:, None] + mesh.hy[seg_v][:, None] / 2.0 * rule.nodes
    ys[~vert] = mesh.y_nodes[mesh.edge_line[~vert]][:, None]
    xs[~vert] = xm[seg_h][:, None] + mesh.hx[seg_h][:, None] / 2.0 * rule.nodes

    fv = np.asarray(func(xs, ys), dtype=float)
    coef = np.sqrt(L / 2.0)[:, None] * \
        np.einsum("eg,ag->ea", fv * rule.weights, V)
    if zero_boundary:
        coef[mesh.edge_boundary] = 0.0
    return coef


def project_exact(mesh: ShishkinMesh, spec: ProblemSpec, k: int,
                  n_quad: int) -> ProjectedFields:
    """Componentwise projection (Pi q, Pi u, P u) of the exact solution, with
    homogeneous boundary traces."""
    if spec.exact is None:
        raise ValueError("problem has no exact solution attached")
    ex = spec.exact
    return ProjectedFields(
        k,
        project_cell_scalar(mesh, ex.q1, k, n_quad, layer_spec=spec),
        project_cell_scalar(mesh, ex.q2, k, n_quad, layer_spec=spec),
        project_cell_scalar(mesh, ex.u, k, n_quad, layer_spec=spec),
        project_edge(mesh, ex.u, k, n_quad, zero_boundary=True))


def projection_error(mesh: ShishkinMesh, spec: ProblemSpec, k: int,
                     n_quad: int, n_check: int = None) -> float:
    """L2 error ||u - Pi u|| of the cell projection (diagnostic)."""
    if spec.exact is None:
        raise ValueError("problem has no exact solution attached")
    nchk = n_check if n_check else n_quad + 4
    coef = project_cell_scalar(mesh, spec.exact.u, k, n_quad)
    R = ref_tables(k, nchk)
    cq = CellQuad(mesh, nchk)
    vals = np.einsum("ca,ag->cg", coef, R.B0) / np.sqrt(cq.J)[:, None]
    diff = spec.exact.u(cq.X, cq.Y) - vals
    return float(np.sqrt(cq.J @ np.einsum("g,cg->c", cq.W2, diff**2)))
