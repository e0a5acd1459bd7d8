"""Reference-element machinery: Gauss-Legendre quadrature, orthonormal
Legendre bases, tensor-product tables on the reference square, and the
tensor rule of a mesh's cells and edges, evaluated on its 1D point lines."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .mesh import SIDES

MAX_GAUSS_POINTS = 30


@dataclass(frozen=True)
class QuadRule1D:
    """Gauss-Legendre rule on [-1, 1]; n points integrate degree <= 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadRule1D:
    """The n-point rule, computed once per n and shared by every caller,
    so its arrays are read-only."""
    # leggauss(n) builds and diagonalizes an n x n matrix, so n is capped
    if not 1 <= n <= MAX_GAUSS_POINTS:
        raise ValueError(f"Gauss rule with {n} points outside supported range "
                         f"[1, {MAX_GAUSS_POINTS}]")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadRule1D(nodes, weights)


def legendre(k: int, points) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative tables, each (k+1, len(points)), of the
    orthonormal Legendre basis on [-1, 1], degrees 0..k: function m is
    sqrt((2m+1)/2) * L_m, so the Gram matrix under any exact quadrature is
    the identity. Points outside [-1, 1] extrapolate.
    """
    x = np.atleast_1d(np.asarray(points, dtype=float))
    vals = np.empty((k + 1, x.size))
    ders = np.empty((k + 1, x.size))
    p_prev = np.ones_like(x)
    dp_prev = np.zeros_like(x)
    vals[0], ders[0] = p_prev, dp_prev
    if k >= 1:
        p_cur, dp_cur = x.copy(), np.ones_like(x)
        vals[1], ders[1] = p_cur, dp_cur
        for n in range(1, k):
            # (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
            p_next = ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1)
            dp_next = dp_prev + (2 * n + 1) * p_cur
            vals[n + 1], ders[n + 1] = p_next, dp_next
            p_prev, p_cur = p_cur, p_next
            dp_prev, dp_cur = dp_cur, dp_next
    scale = np.sqrt((2 * np.arange(k + 1) + 1) / 2.0)
    return vals * scale[:, None], ders * scale[:, None]


class RefTables:
    """Precomputed basis/quadrature tables for degree k with n points per
    direction, the ones several modules read (the assembly builds its
    local-system operands from them).

    Tensor basis index a = m*(k+1) + n pairs phi_a(x,y) = p_m(x) p_n(y).
    Quadrature point index g = gx*n + gy.
    """

    def __init__(self, k: int, n: int):
        kp, nb = k + 1, (k + 1) ** 2
        rule = gauss_rule(n)
        V, D = legendre(k, rule.nodes)
        self.V = V
        Ep, Em = legendre(k, [1.0, -1.0])[0].T

        self.B0 = np.einsum("mx,ny->mnxy", V, V).reshape(nb, n * n)
        self.BX = np.einsum("mx,ny->mnxy", D, V).reshape(nb, n * n)
        self.BY = np.einsum("mx,ny->mnxy", V, D).reshape(nb, n * n)
        W2 = np.outer(rule.weights, rule.weights).reshape(-1)

        # volume derivative couplings (reference): KX[b,a] = sum W dphi_b/dx phi_a
        self.KX = np.einsum("g,bg,ag->ba", W2, self.BX, self.B0)
        self.KY = np.einsum("g,bg,ag->ba", W2, self.BY, self.B0)
        # per side (SIDES order W, E, S, N): the cell trace in the edge
        # basis, (nb, kp), and the tensor basis at the side's Gauss points
        eye, end = np.eye(kp), {-1.0: Em[:, None], 1.0: Ep[:, None]}
        self.L = tuple(np.kron(end[sign], eye) if axis == 0
                       else np.kron(eye, end[sign]) for axis, sign in SIDES)
        self.side_traces = tuple(L @ V for L in self.L)
        # ref_tables shares one instance between every caller
        for value in vars(self).values():
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False


@lru_cache(maxsize=64)
def ref_tables(k: int, n: int) -> RefTables:
    return RefTables(k, n)


def on_lines(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The elementwise field fn on the tensor grid of the 1D point sets x,
    (a, p), and y, (b, q): row i*b + j of the result holds the points x[i]
    x y[j], ordered g = gx*q + gy. fn sees the lines, so a factor of one
    coordinate is evaluated once per line point."""
    (a, p), (b, q) = x.shape, y.shape
    out = np.empty((a, b, p, q))
    out[...] = fn(x.reshape(a, 1, p, 1), y.reshape(1, b, 1, q))
    return out.reshape(a * b, p * q)


class CellQuad:
    """Tensor-product quadrature over the cells and edges of a mesh, kept as
    1D lines: cell (ix, iy) has the points xq[ix] x yq[iy], vertical edge
    (i, j) x_nodes[i] x yq[j] and horizontal edge (j, i) xq[i] x y_nodes[j].

    Cells are flattened as c = ix*ny + iy, points as g = gx*n + gy.
    """

    def __init__(self, mesh, n: int):
        rule = gauss_rule(n)
        self.mesh, self.n = mesh, n
        hx, hy = mesh.hx, mesh.hy
        xm = (mesh.x_nodes[:-1] + mesh.x_nodes[1:]) / 2.0
        ym = (mesh.y_nodes[:-1] + mesh.y_nodes[1:]) / 2.0
        self.xq = xm[:, None] + hx[:, None] / 2.0 * rule.nodes  # (nx, n)
        self.yq = ym[:, None] + hy[:, None] / 2.0 * rule.nodes  # (ny, n)
        self.W2 = np.outer(rule.weights, rule.weights).reshape(-1)
        self.J = mesh.cell_hx * mesh.cell_hy / 4.0

    def on_cells(self, fn, cells: Optional[range] = None) -> np.ndarray:
        """fn at the points of the consecutive cells `cells` (a range with
        step 1; all cells by default), (len(cells), n*n). Only the mesh
        columns the cells touch are evaluated."""
        if cells is None:
            cells = range(self.mesh.n_cells)
        ny = self.mesh.ny
        first, last = cells.start // ny, -(-cells.stop // ny)
        vals = on_lines(fn, self.xq[first:last], self.yq)
        return vals[cells.start - first * ny:cells.stop - first * ny]

    def on_edges(self, fn) -> np.ndarray:
        """fn at the n Gauss points of every edge, (nedges, n) in edge-id
        order. Cells read their side values through mesh.cell_edges, so
        both cells of an edge see the same values."""
        mesh = self.mesh
        return np.concatenate([
            on_lines(fn, mesh.x_nodes[:, None], self.yq),
            on_lines(lambda y, x: fn(x, y), mesh.y_nodes[:, None], self.xq)])
