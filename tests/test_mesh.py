"""Shishkin mesh construction, topology and classification."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edge_layout import edge_layout
from shishkin_hdg.mesh import (MeshAssumptionWarning, Region,
                               ShishkinMesh, box_plan, build_mesh, dump_mesh)


def test_config_validation():
    # each of the five numbers build_mesh takes, one bad value at a time
    nan, inf = float("nan"), float("inf")
    bad = [((6, 1e-3, 2.0, 1.0, 2.0),  # not divisible by 4
            "N must be >= 4 and divisible by 4, got 6"),
           ((2, 1e-3, 2.0, 1.0, 2.0),
            "N must be >= 4 and divisible by 4, got 2"),
           ((8, -1e-3, 2.0, 1.0, 2.0), "epsilon must be positive"),
           ((8, 1e-3, 0.0, 1.0, 2.0), "sigma must be positive"),
           ((8, 1e-3, 2.0, -1.0, 2.0), "beta1 must be positive"),
           ((8, 1e-3, 2.0, 1.0, 0.0), "beta2 must be positive"),
           # NaN and inf are not positive numbers either
           ((8, nan, 2.0, 1.0, 2.0), "epsilon must be positive"),
           ((8, inf, 2.0, 1.0, 2.0), "epsilon must be positive"),
           ((8, 1e-3, nan, 1.0, 2.0), "sigma must be positive"),
           ((8, 1e-3, inf, 1.0, 2.0), "sigma must be positive"),
           ((8, 1e-3, 2.0, nan, 2.0), "beta1 must be positive"),
           ((8, 1e-3, 2.0, 1.0, inf), "beta2 must be positive")]
    for args, message in bad:
        with pytest.raises(ValueError) as info:
            build_mesh(*args)
        assert str(info.value) == message
    x = np.array([0.0, 0.3, 0.6, 0.8, 1.0])
    with pytest.raises(ValueError):  # nodes must strictly increase
        ShishkinMesh(np.array([0.0, 0.5, 0.5, 1.0]), x, 0.5, 0.5)
    # fine nodes that coincide in floating point name the mesh parameters;
    # with sigma = 3 and N = 4 they first do at eps = 1e-17
    build_mesh(4, 1e-16, 3.0, 1.0, 2.0)
    with pytest.raises(ValueError) as info:
        build_mesh(4, 1e-17, 3.0, 1.0, 2.0)
    assert str(info.value) == ("the fine Shishkin nodes coincide at N = 4, "
                               "epsilon = 1e-17, sigma = 3")


def test_transition_points():
    N, eps, sigma = 16, 1e-4, 2.0
    mesh = build_mesh(N, eps, sigma, 1.0, 2.0)
    assert np.isclose(mesh.tau_x, sigma * eps * np.log(N))
    assert np.isclose(mesh.tau_y, sigma * eps / 2.0 * np.log(N))
    # transition node sits at index N/2
    assert np.isclose(mesh.x_nodes[N // 2], 1.0 - mesh.tau_x)
    assert np.isclose(mesh.y_nodes[N // 2], 1.0 - mesh.tau_y)


def test_transition_caps_at_half():
    with pytest.warns(MeshAssumptionWarning):
        mesh = build_mesh(4, 0.9, 2.0, 1.0, 2.0)
    assert mesh.tau_x == 0.5 and mesh.tau_y == 0.5


def test_epsilon_regime_warning():
    with pytest.warns(MeshAssumptionWarning):
        build_mesh(4, 0.9, 2.0, 1.0, 2.0)


def test_piecewise_uniform_spacing():
    N = 8
    mesh = build_mesh(N, 1e-3, 2.0, 1.0, 2.0)
    hc = mesh.hx[: N // 2]
    hf = mesh.hx[N // 2:]
    assert np.allclose(hc, 2.0 * (1.0 - mesh.tau_x) / N)
    assert np.allclose(hf, 2.0 * mesh.tau_x / N)
    assert np.isclose(mesh.hx.sum(), 1.0, atol=1e-14)
    assert mesh.x_nodes[0] == 0.0 and mesh.x_nodes[-1] == 1.0


def test_edge_counts_and_topology():
    N = 4
    mesh = build_mesh(N, 1e-3, 2.0, 1.0, 2.0)
    assert mesh.n_cells == N * N
    assert mesh.n_edges == 2 * N * (N + 1)
    assert np.count_nonzero(~mesh.edge_boundary) == 2 * N * (N - 1)
    # every interior edge is a side of two cells, every boundary edge of one
    count = np.bincount(mesh.cell_edges.ravel(), minlength=mesh.n_edges)
    assert np.array_equal(count, np.where(mesh.edge_boundary, 1, 2))
    # the boundary edges are the ones on x = 0, x = 1, y = 0 and y = 1
    _, line, _ = edge_layout(N, N)
    assert np.array_equal(mesh.edge_boundary, (line == 0) | (line == N))


def test_shared_edges_between_neighbors():
    mesh = build_mesh(4, 1e-3, 2.0, 1.0, 2.0)
    ny = mesh.ny
    # E edge of cell (0,0) is the W edge of cell (1,0)
    assert mesh.cell_edges[0, 1] == mesh.cell_edges[ny, 0]
    # N edge of cell (0,0) is the S edge of cell (0,1)
    assert mesh.cell_edges[0, 3] == mesh.cell_edges[1, 2]


def test_edge_geometry():
    mesh = build_mesh(4, 1e-3, 2.0, 1.0, 2.0)
    # edge 0 is the vertical edge on x=0, first segment: the W side of cell 0
    assert mesh.cell_edges[0, 0] == 0 and mesh.edge_boundary[0]
    assert mesh.half_side[0, 0] == (mesh.y_nodes[1] - mesh.y_nodes[0]) / 2
    # each cell's four sides run once around it: twice its width plus
    # twice its height
    perimeter = 2 * (np.diff(mesh.x_nodes)[:, None]
                     + np.diff(mesh.y_nodes)[None, :]).ravel()
    assert np.allclose(2 * mesh.half_side.sum(axis=1), perimeter,
                       rtol=1e-14)


@settings(max_examples=25)
@given(N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_side_lengths_are_cell_widths(N, eps):
    # a W or E side is as long as the cell is high, an S or N side as long
    # as it is wide, bit for bit, from the differences of the nodes
    mesh = build_mesh(N, eps, 2.0, 1.0, 2.0)
    ix, iy = np.divmod(np.arange(mesh.n_cells), N)
    high = np.diff(mesh.y_nodes)[iy] / 2.0
    wide = np.diff(mesh.x_nodes)[ix] / 2.0
    for s, want in ((0, high), (1, high), (2, wide), (3, wide)):
        assert np.array_equal(mesh.half_side[:, s], want)


def test_region_classification():
    # 1-based cells K_ij = I_i x J_j of the N=4 mesh and their regions
    mesh = build_mesh(4, 1e-3, 2.0, 1.0, 2.0)
    regions = list(Region)
    codes = mesh.cell_region()
    for (i, j), region in (((1, 1), Region.SMOOTH), ((4, 1), Region.X_LAYER),
                           ((1, 4), Region.Y_LAYER),
                           ((4, 4), Region.CORNER_LAYER)):
        assert regions[codes[(i - 1) * mesh.ny + (j - 1)]] is region
    assert (codes == 0).sum() == 4  # 2x2 smooth block for N=4
    assert (codes == 3).sum() == 4
    sums = mesh.region_sums(np.ones(mesh.n_cells))
    assert sums == {reg.value: 4.0 for reg in Region}


def test_dump_mesh_contents():
    mesh = build_mesh(4, 1e-3, 2.0, 1.0, 2.0)
    text = dump_mesh(mesh)
    assert "tau_x" in text and "x_nodes" in text
    assert text.count("\ncell ") == mesh.n_cells
    assert text.count("\nedge ") == mesh.n_edges
    # the whole text, byte for byte
    assert text == (Path(__file__).parent / "golden" /
                    "dump_mesh_n4.txt").read_text()


@settings(max_examples=16)
@given(N=st.integers(1, 16).map(lambda m: 4 * m))
def test_box_tree_separates_every_interior_edge_once(N):
    mesh = build_mesh(N, 1e-6, 2.0, 1.0, 2.0)
    for quadrants in (False, True):
        plan = box_plan(N, N, quadrants)
        groups = [group for level in plan for group in level]
        seps = np.concatenate([sep.ravel() for _, sep, _ in groups])
        assert np.array_equal(np.sort(seps),
                              np.flatnonzero(~mesh.edge_boundary))
        # no box carries a domain-boundary trace, and the whole grid none
        assert not any(mesh.edge_boundary[bound].any()
                       for bound, _, _ in groups)
        [(bound, sep, _)] = plan[-1]
        assert bound.size == 0
        # the last separator, the whole grid's split line, is the middle
        # vertical line
        axis, line, _ = edge_layout(N, N)
        assert sep.size == N
        assert np.all(axis[sep] == 0) and np.all(line[sep] == N // 2)
        if N & (N - 1) == 0:  # corner, side and inner boxes, per quadrant
            assert max(map(len, plan)) <= (16 if quadrants else 9)


@settings(max_examples=16)
@given(N=st.integers(2, 32).map(lambda m: 4 * m))
@example(N=128)
def test_quadrant_plan_groups_lie_in_one_quadrant(N):
    # the second split cuts the grid at x = N/2 and y = N/2; below the top
    # two levels no group of the quadrant plan has boxes on both sides of
    # either line, so each quadrant's groups can be condensed on their own
    axis, line, seg = edge_layout(N, N)
    # a separator edge lies strictly inside its box, so off both lines
    x = np.where(axis == 0, 2 * line, 2 * seg + 1)
    y = np.where(axis == 0, 2 * seg + 1, 2 * line)
    quadrant = 2 * (x > N) + (y > N)
    for quadrants in (False, True):
        mixed = [len(np.unique(quadrant[sep])) > 1
                 for level in box_plan(N, N, quadrants)[:-2]
                 for _, sep, _ in level]
        assert any(mixed) != quadrants


@settings(max_examples=16)
@given(N=st.integers(1, 32).map(lambda m: 4 * m))
@example(N=12)
@example(N=20)
@example(N=128)
def test_box_halves_merge_as_at_most_four_side_blocks(N):
    # each half reaches its box's [bound | sep] as side blocks (t, p, size),
    # which the merge adds as slices: its edges t to t + size land at
    # positions p to p + size, and the rhs column sits between bound and
    # sep, so no block may straddle the two
    mesh = build_mesh(N, 1e-6, 2.0, 1.0, 2.0)
    for plan in (box_plan(N, N), box_plan(N, N, quadrants=True)):
        for depth, level in enumerate(plan):
            for bound, sep, halves in level:
                merged = np.hstack([bound, sep])
                for source, rows, blocks in halves:
                    edges = mesh.cell_edges[rows] if source < 0 else \
                        plan[depth - 1][source][0][rows]
                    assert 1 <= len(blocks) <= 4
                    t, p, size = blocks.T
                    assert np.all((p + size <= bound.shape[1])
                                  | (p >= bound.shape[1]))
                    t, p = (np.concatenate([a + np.arange(n)
                                            for a, n in zip(start, size)])
                            for start in (t, p))
                    # disjoint, and every interior edge of the half once
                    inner = ~mesh.edge_boundary[edges]
                    assert np.array_equal(np.sort(t),
                                          np.flatnonzero(inner[0]))
                    assert np.all(inner.sum(axis=1) == len(t))
                    assert len(np.unique(p)) == len(p)
                    # in every box of the group, the edge at each position
                    # p of its [bound | sep] is the half's edge t
                    assert np.array_equal(merged[:, p], edges[:, t])
