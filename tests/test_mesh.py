"""Shishkin mesh construction, topology and classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_hdg.mesh import (MeshAssumptionWarning, MeshConfig, Region,
                               ShishkinMesh, build_mesh, dump_mesh)


def test_config_validation():
    with pytest.raises(ValueError):
        MeshConfig(6, 1e-3, 2.0, 1.0, 2.0)   # not divisible by 4
    with pytest.raises(ValueError):
        MeshConfig(2, 1e-3, 2.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        MeshConfig(8, -1e-3, 2.0, 1.0, 2.0)
    x = np.array([0.0, 0.3, 0.6, 0.8, 1.0])
    with pytest.raises(ValueError):  # nodes must strictly increase
        ShishkinMesh(np.array([0.0, 0.5, 0.5, 1.0]), x, 0.5, 0.5, 2, 2)


def test_transition_points():
    N, eps, sigma = 16, 1e-4, 2.0
    mesh = build_mesh(MeshConfig(N, eps, sigma, 1.0, 2.0))
    assert np.isclose(mesh.tau_x, sigma * eps * np.log(N))
    assert np.isclose(mesh.tau_y, sigma * eps / 2.0 * np.log(N))
    # transition node sits at index N/2
    assert np.isclose(mesh.x_nodes[N // 2], 1.0 - mesh.tau_x)
    assert np.isclose(mesh.y_nodes[N // 2], 1.0 - mesh.tau_y)


def test_transition_caps_at_half():
    with pytest.warns(MeshAssumptionWarning):
        mesh = build_mesh(MeshConfig(4, 0.9, 2.0, 1.0, 2.0))
    assert mesh.tau_x == 0.5 and mesh.tau_y == 0.5


def test_epsilon_regime_warning():
    with pytest.warns(MeshAssumptionWarning):
        build_mesh(MeshConfig(4, 0.9, 2.0, 1.0, 2.0))


def test_piecewise_uniform_spacing():
    N = 8
    mesh = build_mesh(MeshConfig(N, 1e-3, 2.0, 1.0, 2.0))
    hc = mesh.hx[: N // 2]
    hf = mesh.hx[N // 2:]
    assert np.allclose(hc, 2.0 * (1.0 - mesh.tau_x) / N)
    assert np.allclose(hf, 2.0 * mesh.tau_x / N)
    assert np.isclose(mesh.hx.sum(), 1.0, atol=1e-14)
    assert mesh.x_nodes[0] == 0.0 and mesh.x_nodes[-1] == 1.0


def test_edge_counts_and_topology():
    N = 4
    mesh = build_mesh(MeshConfig(N, 1e-3, 2.0, 1.0, 2.0))
    assert mesh.n_cells == N * N
    assert mesh.n_edges == 2 * N * (N + 1)
    assert mesh.n_interior_edges == 2 * N * (N - 1)
    # every interior edge has two adjacent cells, boundary edges one
    two = (mesh.edge_cells >= 0).sum(axis=1)
    assert np.all(two[~mesh.edge_boundary] == 2)
    assert np.all(two[mesh.edge_boundary] == 1)
    # cell_edges is consistent with edge_cells adjacency
    for c in range(mesh.n_cells):
        for e in mesh.cell_edges[c]:
            assert c in mesh.edge_cells[e]


def test_shared_edges_between_neighbors():
    mesh = build_mesh(MeshConfig(4, 1e-3, 2.0, 1.0, 2.0))
    ny = mesh.ny
    # E edge of cell (0,0) is the W edge of cell (1,0)
    assert mesh.cell_edges[0, 1] == mesh.cell_edges[ny, 0]
    # N edge of cell (0,0) is the S edge of cell (0,1)
    assert mesh.cell_edges[0, 3] == mesh.cell_edges[1, 2]


def test_edge_geometry():
    mesh = build_mesh(MeshConfig(4, 1e-3, 2.0, 1.0, 2.0))
    # edge 0 is the vertical edge on x=0, first segment
    assert mesh.edge_axis[0] == 0 and mesh.edge_boundary[0]
    assert mesh.edge_line[0] == 0 and mesh.edge_seg[0] == 0
    # nx+1 vertical and ny+1 horizontal unit lines
    expect = (mesh.nx + 1) * 1.0 + (mesh.ny + 1) * 1.0
    assert np.isclose(mesh.edge_length.sum(), expect, atol=1e-12)
    assert mesh.edge_length[0] == mesh.hy[0]


@settings(max_examples=25)
@given(N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_side_lengths_are_cell_widths(N, eps):
    # the edge of a W or E side is as long as the cell is high, the edge of
    # an S or N side as long as it is wide, bit for bit
    mesh = build_mesh(MeshConfig(N, eps, 2.0, 1.0, 2.0))
    side = mesh.edge_length[mesh.cell_edges]
    for s, width in ((0, mesh.cell_hy), (1, mesh.cell_hy),
                     (2, mesh.cell_hx), (3, mesh.cell_hx)):
        assert np.array_equal(side[:, s], width)


def test_region_classification():
    # 1-based cells K_ij = I_i x J_j of the N=4 mesh and their regions
    mesh = build_mesh(MeshConfig(4, 1e-3, 2.0, 1.0, 2.0))
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
    mesh = build_mesh(MeshConfig(4, 1e-3, 2.0, 1.0, 2.0))
    text = dump_mesh(mesh)
    assert "tau_x" in text and "x_nodes" in text
    assert text.count("\ncell ") == mesh.n_cells
    assert text.count("\nedge ") == mesh.n_edges


@settings(max_examples=32)
@given(N=st.integers(1, 32).map(lambda m: 4 * m))
def test_interior_index_is_a_bijection(N):
    mesh = build_mesh(MeshConfig(N, 1e-6, 2.0, 1.0, 2.0))
    idx = mesh.interior_index
    assert np.array_equal(np.sort(idx[~mesh.edge_boundary]),
                          np.arange(mesh.n_interior_edges))
    assert np.all(idx[mesh.edge_boundary] == -1)


def test_interior_edges_numbered_by_nested_dissection():
    N = 16
    mesh = build_mesh(MeshConfig(N, 1e-6, 2.0, 1.0, 2.0))
    order = np.argsort(mesh.interior_index)[mesh.edge_boundary.sum():]
    axis, line, seg = (a[order] for a in (mesh.edge_axis, mesh.edge_line,
                                          mesh.edge_seg))
    # the middle vertical line separates the two halves and comes last
    assert np.all(axis[-N:] == 0) and np.all(line[-N:] == N // 2)
    # before it, the separator of the right half: the middle horizontal
    # line right of x's middle
    right = slice(-N - N // 2, -N)
    assert np.all(axis[right] == 1) and np.all(line[right] == N // 2)
    assert np.all(seg[right] >= N // 2)
    # every edge inside the left half precedes every edge inside the right
    inside_left = ((axis == 0) & (line < N // 2)) | \
        ((axis == 1) & (seg < N // 2))
    half = mesh.n_interior_edges // 2 - N // 2
    assert np.all(inside_left[:half]) and not np.any(inside_left[half:])


@settings(max_examples=32)
@given(N=st.integers(1, 32).map(lambda m: 4 * m))
def test_edge_block_pattern(N):
    mesh = build_mesh(MeshConfig(N, 1e-6, 2.0, 1.0, 2.0))
    pat = mesh.edge_blocks
    n = mesh.n_interior_edges
    assert len(pat.indptr) == n + 1 and pat.indptr[-1] == len(pat.indices)
    rows = np.repeat(np.arange(n), np.diff(pat.indptr))
    # each row's columns strictly increase, so no block appears twice
    assert np.all(np.diff(pat.indices)[np.diff(rows) == 0] > 0)
    # a cell's side pair maps to -1 exactly when either edge is on the
    # boundary, and otherwise to the block of its two interior edges
    boundary = mesh.edge_boundary[mesh.cell_edges]
    outside = boundary[:, :, None] | boundary[:, None, :]
    assert np.array_equal(pat.position < 0, outside)
    ie = mesh.interior_index[mesh.cell_edges]
    shape = pat.position.shape
    pos = pat.position[~outside]
    assert np.array_equal(rows[pos],
                          np.broadcast_to(ie[:, :, None], shape)[~outside])
    assert np.array_equal(pat.indices[pos],
                          np.broadcast_to(ie[:, None, :], shape)[~outside])
    # a diagonal block sums its edge's two cells, any other block one cell;
    # with the above, the blocks are exactly the pairs of interior edges
    # that share a cell, each once
    count = np.bincount(pos, minlength=len(pat.indices))
    assert np.array_equal(count, np.where(rows == pat.indices, 2, 1))
