"""Tensor-product Shishkin meshes on (0,1)^2: transition points, node
coordinates, cell/edge topology and layer-region classification."""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class MeshAssumptionWarning(UserWarning):
    """epsilon > 1/N: the mesh is still valid but outside the regime the
    error bounds are stated for."""


class Region(Enum):
    SMOOTH = "smooth"
    X_LAYER = "x_layer"
    Y_LAYER = "y_layer"
    CORNER_LAYER = "corner_layer"


# the sides of a cell in cell_edges order W, E, S, N: the axis of the
# outward normal (0 for x, 1 for y) and its sign
SIDES = ((0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0))

# a box of cells with at most this many interior edges is not split further
ND_LEAF_EDGES = 16


def _nested_dissection(nx: int, ny: int) -> np.ndarray:
    """Interior edge ids in grid-line nested-dissection order.

    A box of cells [i0, i1) x [j0, j1) is split at the middle grid line of
    its longer index direction: the interior edges of each half are
    numbered first, then the edges lying on that line, which separate the
    halves. A box with at most ND_LEAF_EDGES interior edges is numbered
    whole. The edges on a box's sides belong to an enclosing separator or
    to the boundary, so boundary edges are left out.

    The edges of one grid-line segment have consecutive ids, so the order
    is collected as runs (first id, length) and expanded once.
    """
    n_vert = (nx + 1) * ny
    runs = []

    def box(i0, i1, j0, j1):
        a, b = i1 - i0, j1 - j0
        if (a - 1) * b + (b - 1) * a <= ND_LEAF_EDGES:
            runs.extend((i * ny + j0, b) for i in range(i0 + 1, i1))
            runs.extend((n_vert + j * nx + i0, a) for j in range(j0 + 1, j1))
        elif a >= b:
            m = (i0 + i1) // 2
            box(i0, m, j0, j1)
            box(m, i1, j0, j1)
            runs.append((m * ny + j0, b))  # vertical line m
        else:
            m = (j0 + j1) // 2
            box(i0, i1, j0, m)
            box(i0, i1, m, j1)
            runs.append((n_vert + m * nx + i0, a))  # horizontal line m

    box(0, nx, 0, ny)
    first, length = np.array(runs, dtype=np.int64).reshape(-1, 2).T
    offset = np.cumsum(length) - length  # position of each run in the order
    return np.repeat(first - offset, length) + np.arange(length.sum())


@dataclass
class ShishkinMesh:
    """Piecewise-uniform tensor mesh with cell and oriented-edge topology.

    Edges are globally oriented by ascending coordinate: vertical edges are
    parameterized by ascending y, horizontal edges by ascending x, so both
    adjacent cells index the same trace polynomial without sign flips.

    Edge ids enumerate all vertical edges first (line i = 0..nx, segment
    j = 0..ny-1, id = i*ny + j), then horizontal ones (line j = 0..ny,
    segment i = 0..nx-1, id = n_vertical + j*nx + i). Cells are flattened
    as c = ix*ny + iy with 0-based (ix, iy).

    The interior edges, whose traces are the unknowns of the condensed
    system, are numbered separately: interior_index maps an edge id to its
    place in grid-line nested-dissection order (_nested_dissection), and
    to -1 on boundary edges. The trace system is numbered and factored in
    that order.
    """

    x_nodes: np.ndarray
    y_nodes: np.ndarray
    tau_x: float
    tau_y: float

    # derived geometry and topology, filled in __post_init__
    hx: np.ndarray = field(init=False)
    hy: np.ndarray = field(init=False)
    cell_hx: np.ndarray = field(init=False)          # (ncells,) cell widths
    cell_hy: np.ndarray = field(init=False)
    cell_edges: np.ndarray = field(init=False)       # (ncells, 4): W, E, S, N
    half_side: np.ndarray = field(init=False)        # (ncells, 4) lengths / 2
    interior_index: np.ndarray = field(init=False)   # ND order, -1 boundary
    edge_boundary: np.ndarray = field(init=False)    # interior_index < 0

    def __post_init__(self):
        self.x_nodes = np.asarray(self.x_nodes, dtype=float)
        self.y_nodes = np.asarray(self.y_nodes, dtype=float)
        if np.any(np.diff(self.x_nodes) <= 0) or np.any(np.diff(self.y_nodes) <= 0):
            raise ValueError("node coordinates must be strictly increasing")
        self.hx = np.diff(self.x_nodes)
        self.hy = np.diff(self.y_nodes)
        nx, ny = self.nx, self.ny
        self.cell_hx = np.repeat(self.hx, ny)
        self.cell_hy = np.tile(self.hy, nx)

        n_vert = (nx + 1) * ny
        ix, iy = np.divmod(np.arange(nx * ny), ny)
        self.cell_edges = np.column_stack([
            ix * ny + iy,            # W: vertical line ix
            (ix + 1) * ny + iy,      # E
            n_vert + iy * nx + ix,   # S: horizontal line iy
            n_vert + (iy + 1) * nx + ix,  # N
        ])
        # a W or E side is as long as its cell is high, S or N as it is wide
        self.half_side = np.column_stack(
            [self.cell_hy, self.cell_hy, self.cell_hx, self.cell_hx]) / 2.0
        order = _nested_dissection(nx, ny)
        self.interior_index = np.full(self.n_edges, -1, dtype=np.int64)
        self.interior_index[order] = np.arange(len(order))
        self.edge_boundary = self.interior_index < 0

    @property
    def nx(self) -> int:
        return len(self.x_nodes) - 1

    @property
    def ny(self) -> int:
        return len(self.y_nodes) - 1

    @property
    def N(self) -> int:
        if self.nx != self.ny:
            raise ValueError("mesh is not square")
        return self.nx

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_edges(self) -> int:
        return (self.nx + 1) * self.ny + self.nx * (self.ny + 1)

    @property
    def n_interior_edges(self) -> int:
        return (self.nx - 1) * self.ny + self.nx * (self.ny - 1)

    def cell_region(self) -> np.ndarray:
        """Region of every cell as an integer array (Region order): the x
        layer holds the cells with 0-based ix >= nx // 2, the y layer those
        with iy >= ny // 2."""
        in_x = np.arange(self.nx)[:, None] >= self.nx // 2
        in_y = np.arange(self.ny)[None, :] >= self.ny // 2
        code = in_x.astype(int) + 2 * in_y.astype(int)
        return np.broadcast_to(code, (self.nx, self.ny)).reshape(-1)

    def region_sums(self, values: np.ndarray) -> dict:
        """Sums of a per-cell array over each Region, keyed by the Region
        value in Region order."""
        sums = np.bincount(self.cell_region(), weights=values,
                           minlength=len(Region))
        return {reg.value: float(s) for reg, s in zip(Region, sums)}


def shishkin_nodes(N: int, epsilon: float, sigma: float, beta1: float,
                   beta2: float) -> tuple:
    """(x_nodes, y_nodes, tau_x, tau_y) of the Shishkin mesh with N cells
    per direction (divisible by 4) for perturbation parameter epsilon, mesh
    parameter sigma and convective lower bounds beta1, beta2: transition
    points tau = min(1/2, sigma*eps/beta * ln N), N/2 uniform cells on each
    side of the transition in each direction. Raises ValueError for an
    input that is not finite and positive, and when the fine nodes coincide
    in floating point."""
    if N < 4 or N % 4 != 0:
        raise ValueError(f"N must be >= 4 and divisible by 4, got {N}")
    for name, value in (("epsilon", epsilon), ("sigma", sigma),
                        ("beta1", beta1), ("beta2", beta2)):
        if not 0 < value < np.inf:  # NaN and inf fail too
            raise ValueError(f"{name} must be positive")

    def nodes(beta):
        tau = min(0.5, sigma * epsilon / beta * np.log(N))
        i = np.arange(N + 1, dtype=float)
        coarse = 2.0 * (1.0 - tau) / N * i[: N // 2 + 1]
        fine = (1.0 - tau) + 2.0 * tau / N * (i[N // 2 + 1:] - N // 2)
        out = np.concatenate([coarse, fine])
        out[0], out[-1] = 0.0, 1.0
        if np.any(np.diff(out) <= 0):
            raise ValueError(f"the fine Shishkin nodes coincide at N = {N}, "
                             f"epsilon = {epsilon:g}, sigma = {sigma:g}")
        return out, tau

    (x_nodes, tau_x), (y_nodes, tau_y) = nodes(beta1), nodes(beta2)
    return x_nodes, y_nodes, tau_x, tau_y


def build_mesh(N: int, epsilon: float, sigma: float, beta1: float,
               beta2: float) -> ShishkinMesh:
    """Build the Shishkin mesh of shishkin_nodes(N, epsilon, sigma, beta1,
    beta2)."""
    nodes = shishkin_nodes(N, epsilon, sigma, beta1, beta2)
    if epsilon > 1.0 / N:
        warnings.warn(
            f"epsilon = {epsilon:g} exceeds 1/N = {1.0 / N:g}",
            MeshAssumptionWarning, stacklevel=2)
    return ShishkinMesh(*nodes)


def dump_mesh(mesh: ShishkinMesh) -> str:
    """Plain-text diagnostic dump: nodes (17 significant digits), cell
    extents and the edge table."""
    buf = io.StringIO()
    buf.write(f"# Shishkin mesh {mesh.nx} x {mesh.ny}\n")
    buf.write(f"tau_x {mesh.tau_x:.17g}\ntau_y {mesh.tau_y:.17g}\n")
    buf.write("x_nodes " + " ".join(f"{v:.17g}" for v in mesh.x_nodes) + "\n")
    buf.write("y_nodes " + " ".join(f"{v:.17g}" for v in mesh.y_nodes) + "\n")
    buf.write("# cells: id ix iy x0 x1 y0 y1 region\n")
    regions = list(Region)
    codes = mesh.cell_region()
    for ix in range(mesh.nx):
        for iy in range(mesh.ny):
            c = ix * mesh.ny + iy
            buf.write(
                f"cell {c} {ix} {iy} "
                f"{mesh.x_nodes[ix]:.17g} {mesh.x_nodes[ix + 1]:.17g} "
                f"{mesh.y_nodes[iy]:.17g} {mesh.y_nodes[iy + 1]:.17g} "
                f"{regions[codes[c]].value}\n")
    buf.write("# edges: id axis line seg cell- cell+ boundary\n")
    # the cell below or left of each edge (cell-) has it as its E or N side,
    # the cell above or right (cell+) as its W or S side
    cells = np.full((mesh.n_edges, 2), -1)
    for s, (_, sign) in enumerate(SIDES):
        cells[mesh.cell_edges[:, s], int(sign < 0)] = np.arange(mesh.n_cells)
    n_vert = (mesh.nx + 1) * mesh.ny
    for e, boundary in enumerate(mesh.edge_boundary):
        axis = int(e >= n_vert)  # the edge-id layout of ShishkinMesh
        line, seg = divmod(e - axis * n_vert, (mesh.ny, mesh.nx)[axis])
        buf.write(f"edge {e} {axis} {line} {seg} {cells[e, 0]} "
                  f"{cells[e, 1]} {int(boundary)}\n")
    return buf.getvalue()
