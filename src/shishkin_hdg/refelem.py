"""Reference-element machinery: Gauss-Legendre quadrature, orthonormal
Legendre bases, tensor-product tables on the reference square, and the
tensor rule over all cells of a mesh with the Gauss points of their sides."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

log = logging.getLogger(__name__)

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
    if not 1 <= n <= MAX_GAUSS_POINTS:
        raise ValueError(f"Gauss rule with {n} points outside supported range "
                         f"[1, {MAX_GAUSS_POINTS}]")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadRule1D(nodes, weights)


class Basis1D:
    """Orthonormal Legendre basis on [-1, 1], degrees 0..k.

    Function m is sqrt((2m+1)/2) * L_m, so the Gram matrix under any exact
    quadrature is the identity.
    """

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError("basis degree must be >= 0")
        self.degree = degree

    def eval(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Value and derivative tables of shape (k+1, len(points)).

        Points outside [-1, 1] are allowed (extrapolation) but logged.
        """
        x = np.atleast_1d(np.asarray(points, dtype=float))
        if x.size and (x.min() < -1.0 - 1e-12 or x.max() > 1.0 + 1e-12):
            log.debug("Basis1D evaluated outside [-1, 1] (extrapolation)")
        k = self.degree
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
    direction.

    Tensor basis index a = m*(k+1) + n pairs phi_a(x,y) = p_m(x) p_n(y).
    Quadrature point index g = gx*n + gy.
    """

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        kp = k + 1
        rule = gauss_rule(n)
        self.t, self.w = rule.nodes, rule.weights
        basis = Basis1D(k)
        V, D = basis.eval(self.t)
        self.V, self.D = V, D
        self.Ep = basis.eval([1.0])[0][:, 0]
        self.Em = basis.eval([-1.0])[0][:, 0]

        self.B0 = np.einsum("mx,ny->mnxy", V, V).reshape(kp * kp, n * n)
        self.BX = np.einsum("mx,ny->mnxy", D, V).reshape(kp * kp, n * n)
        self.BY = np.einsum("mx,ny->mnxy", V, D).reshape(kp * kp, n * n)
        self.W2 = np.outer(self.w, self.w).reshape(-1)

        # volume derivative couplings (reference): KX[b,a] = sum W dphi_b/dx phi_a
        self.KX = np.einsum("g,bg,ag->ba", self.W2, self.BX, self.B0)
        self.KY = np.einsum("g,bg,ag->ba", self.W2, self.BY, self.B0)
        # 1D mass (identity for exact rules; kept as a quadrature sum)
        self.M1 = (V * self.w) @ V.T
        # edge traces of the tensor basis paired with themselves / the edge basis
        self.EVp = np.kron(np.outer(self.Ep, self.Ep), self.M1)
        self.EVm = np.kron(np.outer(self.Em, self.Em), self.M1)
        self.EHp = np.kron(self.M1, np.outer(self.Ep, self.Ep))
        self.EHm = np.kron(self.M1, np.outer(self.Em, self.Em))
        eye = np.eye(kp)
        self.LVp = np.kron(self.Ep[:, None], eye)  # (nb, kp): cell trace x edge basis
        self.LVm = np.kron(self.Em[:, None], eye)
        self.LHp = np.kron(eye, self.Ep[:, None])
        self.LHm = np.kron(eye, self.Em[:, None])
        # the tensor basis at the Gauss points of the sides W, E, S, N
        self.side_traces = [L @ V for L in (self.LVm, self.LVp, self.LHm,
                                            self.LHp)]


@lru_cache(maxsize=64)
def ref_tables(k: int, n: int) -> RefTables:
    return RefTables(k, n)


class CellQuad:
    """Tensor-product quadrature geometry over all cells of a mesh, and the
    Gauss points on the cell sides.

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
        nx, ny = mesh.nx, mesh.ny
        self.X = np.broadcast_to(self.xq[:, None, :, None],
                                 (nx, ny, n, n)).reshape(nx * ny, n * n)
        self.Y = np.broadcast_to(self.yq[None, :, None, :],
                                 (nx, ny, n, n)).reshape(nx * ny, n * n)
        self.W2 = np.outer(rule.weights, rule.weights).reshape(-1)
        self.J = mesh.cell_hx * mesh.cell_hy / 4.0

    @cached_property
    def side_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical coordinates (X, Y) of the n Gauss points on each cell
        side, each of shape (ncells, 4, n), side order W, E, S, N.

        Built on first use, since most callers need only the cell points.
        The two cells of an edge compute its points from the same node and
        midpoint values, so they see the same points bit for bit."""
        mesh, n = self.mesh, self.n
        ix = np.repeat(np.arange(mesh.nx), mesh.ny)
        iy = np.tile(np.arange(mesh.ny), mesh.nx)
        xs = np.empty((mesh.n_cells, 4, n))
        ys = np.empty((mesh.n_cells, 4, n))
        xs[:, 0] = mesh.x_nodes[ix][:, None]
        xs[:, 1] = mesh.x_nodes[ix + 1][:, None]
        ys[:, 0] = ys[:, 1] = self.yq[iy]
        xs[:, 2] = xs[:, 3] = self.xq[ix]
        ys[:, 2] = mesh.y_nodes[iy][:, None]
        ys[:, 3] = mesh.y_nodes[iy + 1][:, None]
        return xs, ys
