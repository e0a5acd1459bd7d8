"""Layer-aware composite quadrature.

On a Shishkin mesh the boundary-layer exponentials still reach magnitude
N^-sigma at the transition point, but inside the last coarse cell of each
direction they vary on the sub-cell scale epsilon/beta. A plain Gauss rule
cannot see that spike, which matters for the load vector (f carries an
epsilon^-1 tail there) and for the eps^-1-weighted flux error integrals.
These helpers refine the affected cells with geometric panels toward the
layer side; all other cells keep the plain tensor rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ShishkinMesh
from .problems import ProblemSpec
from .refelem import gauss_rule, legendre, on_lines

# a tail below exp(-REACH) ~ 3e-20 is invisible at double precision
REACH = 45.0
# directions are refined only when the cell is this many decay lengths wide
MIN_RATIO = 8.0


def composite_layer_rule(width: float, scale: float, n: int):
    """Composite n-point Gauss rule on [0, width], geometrically refined
    toward the right end with the smallest panel about one decay length.

    Returns (points, weights) with sum(weights) = width; an interval
    within one decay length gets the plain rule.
    """
    # a scale <= 0 never ends the panel loop below: doubling it stays <= 0
    if width <= 0 or scale <= 0:
        raise ValueError("width and scale must be positive")
    dist = [min(scale, width)]  # panel ends, measured from the right end
    while 2.0 * dist[-1] < width:
        dist.append(2.0 * dist[-1])
    edges = width - np.array([0.0] + dist)[::-1]
    edges[0] = 0.0
    rule = gauss_rule(n)
    pts, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = (b - a) / 2.0
        pts.append((a + b) / 2.0 + half * rule.nodes)
        wts.append(half * rule.weights)
    return np.concatenate(pts), np.concatenate(wts)


def layer_flags(mesh: ShishkinMesh, spec: ProblemSpec):
    """Which mesh columns and rows need layer-refined integration.

    A column is flagged when its cells are much wider than the x decay
    length and the tail at its right edge is not yet below double-precision
    underflow; rows likewise in y.
    """
    sx = spec.epsilon / spec.beta_lb[0]
    sy = spec.epsilon / spec.beta_lb[1]
    fx = (mesh.hx > MIN_RATIO * sx) & \
        ((1.0 - mesh.x_nodes[1:]) < REACH * sx)
    fy = (mesh.hy > MIN_RATIO * sy) & \
        ((1.0 - mesh.y_nodes[1:]) < REACH * sy)
    return fx, fy


@dataclass
class LayerBatch:
    """Layer-refined cells that share one tensor rule shape: every cell of
    a set of mesh columns crossed with a set of rows.

    Batch cell i*nrows + j lies in the i-th column and the j-th row; its
    points are ordered g = gx*npy + gy. Holds the flat mesh ids of the
    cells, the per-column / per-row 1D point sets (xq, yq), the weights W
    of shape (cells, points), the Jacobians J = hx*hy/4 and the tensor
    basis B of degree k at each cell's points, (cells, (k+1)^2, points):
    the pulled-back orthonormal basis that every coefficient of the program
    is given in (assembly), so coefficients contract with it directly.
    """

    cells: np.ndarray
    xq: np.ndarray  # (ncols, npx)
    yq: np.ndarray  # (nrows, npy)
    W: np.ndarray
    J: np.ndarray
    B: np.ndarray

    def on_cells(self, fn) -> np.ndarray:
        """fn at the points of every batch cell, (cells, points)."""
        return on_lines(fn, self.xq, self.yq)

    def columns(self, cells: range):
        """Views of the batch cells in the mesh columns of `cells`, or None."""
        nrows = len(self.yq)
        i0, i1 = np.searchsorted(self.cells[::nrows], [cells.start,
                                                       cells.stop])
        if i0 == i1:
            return None
        part = slice(i0 * nrows, i1 * nrows)
        return LayerBatch(self.cells[part], self.xq[i0:i1], self.yq,
                          self.W[part], self.J[part], self.B[part])


def _line_rules(nodes, idx, rule, scale):
    """1D rules on the mesh intervals [nodes[i], nodes[i+1]], i in idx, as
    (points, weights, reference coordinates), each (len(idx), npoints).

    With a decay length `scale` the intervals get the composite layer rule,
    and must all have the same width; otherwise the plain Gauss rule."""
    x0, x1 = nodes[idx][:, None], nodes[idx + 1][:, None]
    if scale is None:
        pts = (x0 + x1) / 2.0 + (x1 - x0) / 2.0 * rule.nodes
        wts = (x1 - x0) / 2.0 * rule.weights
    else:
        cp, cw = composite_layer_rule(x1[0, 0] - x0[0, 0], scale, rule.n)
        pts = cp + x0
        wts = np.broadcast_to(cw, pts.shape)
    return pts, wts, 2.0 * (pts - x0) / (x1 - x0) - 1.0


def layer_batches(mesh: ShishkinMesh, spec: ProblemSpec, n: int, k: int,
                  composite: bool = True) -> list:
    """The cells needing layer-refined integration, as dense LayerBatches
    with the basis of degree k.

    A cell is refined when its column or row is flagged; flagged columns
    and rows are grouped by exact width, so each group shares one composite
    rule. With one width per direction this gives at most three batches:
    (composite x, plain y), (plain x, composite y) and (composite,
    composite). With composite=False the same batches carry the plain rule
    in both directions.
    """
    fx, fy = layer_flags(mesh, spec)
    rule, kp = gauss_rule(n), k + 1

    def groups(flags, nodes, h, scale):
        """(line indices, 1D rules) of the unflagged lines, then of the
        flagged lines of each width."""
        plain, layer = np.flatnonzero(~flags), np.flatnonzero(flags)
        out = [(plain, _line_rules(nodes, plain, rule, None))]
        for width in np.unique(h[layer]):
            idx = layer[h[layer] == width]
            out.append((idx, _line_rules(nodes, idx, rule,
                                         scale if composite else None)))
        return out

    xg = groups(fx, mesh.x_nodes, mesh.hx, spec.epsilon / spec.beta_lb[0])
    yg = groups(fy, mesh.y_nodes, mesh.hy, spec.epsilon / spec.beta_lb[1])
    batches = []
    for i, (ix, (px, wx, tx)) in enumerate(xg):
        for j, (iy, (py, wy, ty)) in enumerate(yg):
            if (i == 0 and j == 0) or not (ix.size and iy.size):
                continue
            W = wx[:, None, :, None] * wy[None, :, None, :]
            J = mesh.hx[ix][:, None] * mesh.hy[iy][None, :] / 4.0
            # the basis at the reference coordinates of the points
            vx, vy = (legendre(k, t.reshape(-1))[0].reshape(kp, *t.shape)
                      for t in (tx, ty))
            nc = len(ix) * len(iy)
            B = np.einsum("mip,njq->ijmnpq", vx, vy).reshape(nc, kp * kp, -1)
            batches.append(LayerBatch(
                (ix[:, None] * mesh.ny + iy[None, :]).reshape(-1), px, py,
                W.reshape(nc, -1), J.reshape(-1), B))
    return batches
