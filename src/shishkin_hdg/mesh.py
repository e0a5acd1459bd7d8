"""Tensor-product Shishkin meshes on (0,1)^2: transition points, node
coordinates, cell/edge topology, layer-region classification and the
nested-dissection box tree of the trace solve (box_plan)."""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

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


def _split(i0, i1, j0, j1):
    """(along_x, lower half, upper half) of boxes [i0, i1) x [j0, j1) of
    cells (int arrays), split at the middle grid line of the longer index
    direction (x on a tie); halves as (i0, i1, j0, j1)."""
    along_x = i1 - i0 >= j1 - j0
    m = np.where(along_x, (i0 + i1) // 2, (j0 + j1) // 2)
    return along_x, (i0, np.where(along_x, m, i1), j0,
                     np.where(along_x, j1, m)), \
        (np.where(along_x, m, i0), i1, np.where(along_x, j0, m), j1)


def _box_sides(nx: int, ny: int, i0, i1, j0, j1) -> tuple:
    """Edge ids of the sides W, E, S, N of boxes of one shape on the nx x
    ny cell grid, each (boxes, side length) by ascending coordinate."""
    n_vert = (nx + 1) * ny
    a, b = np.arange(i1[0] - i0[0]), np.arange(j1[0] - j0[0])
    return ((i0 * ny + j0)[:, None] + b, (i1 * ny + j0)[:, None] + b,
            (n_vert + j0 * nx + i0)[:, None] + a,
            (n_vert + j1 * nx + i0)[:, None] + a)


def _boundary_edges(nx: int, ny: int) -> np.ndarray:
    """Whether each edge id lies on the domain boundary: the vertical
    lines x = 0 and 1 and the horizontal lines y = 0 and 1."""
    n_vert = (nx + 1) * ny
    out = np.zeros(n_vert + nx * (ny + 1), dtype=bool)
    out[:ny] = out[n_vert - ny:n_vert] = out[n_vert:n_vert + nx] = True
    out[-nx:] = True
    return out


@lru_cache(maxsize=8)
def box_plan(nx: int, ny: int, quadrants: bool = False) -> tuple:
    """The tree of boxes that _split makes of the nx x ny cell grid, by
    level from the bottom up to the whole grid: the nested dissection of
    the trace solve, whose separators, level by level, number the unknowns
    of its assembled fallback too. A level is a tuple of groups, (bound,
    sep, halves) each, of the boxes that share their shape and the domain
    sides they touch (at most 9 at powers of two); with quadrants, below
    the top two levels also by the box of the second split they lie in
    (at most 16). Per box, as edge ids:
    bound, its sides W, E, S, N by ascending coordinate without those on
    the domain boundary, and sep, its split line. Per half, (source, rows,
    blocks): the half of box i is box rows[i] of group source a level
    below (cell rows[i] for -1), and its at most four side blocks (t, p,
    size) put its edges t to t + size at positions p to p + size of
    [bound | sep], never across the two. Depends on the cell counts only."""
    nc, on_boundary = nx * ny, _boundary_edges(nx, ny)
    boxes, quadrant, depths = np.array([[0, nx, 0, ny]]), np.zeros(1, int), []
    while True:  # top-down: each depth's boxes that are not cells
        i0, i1, j0, j1 = boxes.T
        keep = (i1 - i0) * (j1 - j0) > 1
        boxes, quadrant = boxes[keep], quadrant[keep]
        if not len(boxes):
            break
        if quadrants and len(depths) == 2:
            quadrant = np.arange(len(boxes))
        depths.append((boxes, quadrant))
        _, lo, hi = _split(*boxes.T)
        boxes = np.vstack([np.column_stack(lo), np.column_stack(hi)])
        quadrant = np.concatenate([quadrant, quadrant])
    plan = []
    # group and row of the box at each lower-left cell, a level below; a
    # cell is its own box: group -1, row its id
    group_of, row_of = np.full(nc, -1), np.arange(nc)
    for boxes, quadrant in reversed(depths):
        i0, i1, j0, j1 = boxes.T
        key = (((quadrant * (nx + 1) + i1 - i0) * (ny + 1) + j1 - j0) * 16
               + np.column_stack([i0 == 0, i1 == nx, j0 == 0, j1 == ny])
               @ [8, 4, 2, 1])
        group = np.unique(key, return_inverse=True)[1]
        level, up_group, up_row = [], np.full(nc, -1), np.arange(nc)
        for g in range(group.max() + 1):
            box = boxes[group == g].T
            sides = np.hstack(_box_sides(nx, ny, *box))
            bound = sides[:, ~on_boundary[sides[0]]]
            along_x, lo, hi = _split(*box)
            # the split line is the W side of the upper half, or its S side
            sep = _box_sides(nx, ny, *hi)[0 if along_x[0] else 2]
            merged = np.concatenate([bound[0], sep[0]])
            order = np.argsort(merged)
            halves = []
            for half in (lo, hi):
                c0 = half[0] * ny + half[2]
                source, rows = int(group_of[c0[0]]), row_of[c0]
                edges = plan[-1][source][0][rows[0]] if source >= 0 else \
                    np.hstack(_box_sides(nx, ny, *(h[:1] for h in half)))[0]
                take = np.flatnonzero(~on_boundary[edges])
                pos = order[np.searchsorted(merged, edges[take], sorter=order)]
                # runs along which take and pos both step by 1, cut before
                # the first sep edge: the merge puts the rhs column there
                start = np.flatnonzero(np.append(True, (np.diff(take) != 1) | (
                    np.diff(pos) != 1) | (pos[1:] == len(bound[0]))))
                size = np.diff(start, append=len(take))
                halves.append((source, rows, np.stack(
                    [take[start], pos[start], size], axis=1)))
            c0 = box[0] * ny + box[2]
            up_group[c0], up_row[c0] = g, np.arange(len(c0))
            level.append((bound, sep, tuple(halves)))
        plan.append(tuple(level))
        group_of, row_of = up_group, up_row
    return tuple(plan)


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
    edge_boundary: np.ndarray = field(init=False)    # on x or y = 0 or 1

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

        ix, iy = np.divmod(np.arange(nx * ny), ny)
        self.cell_edges = np.hstack(_box_sides(nx, ny, ix, ix + 1, iy, iy + 1))
        # a W or E side is as long as its cell is high, S or N as it is wide
        self.half_side = np.column_stack(
            [self.cell_hy, self.cell_hy, self.cell_hx, self.cell_hx]) / 2.0
        self.edge_boundary = _boundary_edges(nx, ny)

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
