"""Local L2 projections onto the discrete spaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_hdg import layerquad
from shishkin_hdg.assembly import random_fields
from shishkin_hdg.mesh import MeshConfig, build_mesh
from shishkin_hdg.norms import exact_values, triple_values_discrete
from shishkin_hdg.problems import paper_problem
from shishkin_hdg.projections import project_cells, project_edge, project_exact
from shishkin_hdg.refelem import CellQuad, gauss_rule, ref_tables


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(MeshConfig(8, 1e-2, 2.0, 1.0, 2.0))


def _cell_values(mesh, coef, k, n):
    R = ref_tables(k, n)
    cq = CellQuad(mesh, n)
    return np.einsum("ca,ag->cg", coef, R.B0), cq


def _project(mesh, func, k, n, layer_spec=None):
    """Cell projection of func; with layer_spec the cells of its layer
    batches are integrated on their composite points."""
    cq = CellQuad(mesh, n)
    batches = [] if layer_spec is None else [
        (b, [func(b.X, b.Y)])
        for b in layerquad.layer_batches(mesh, layer_spec, n)]
    return project_cells(cq, [func(cq.X, cq.Y)], k, batches)[0]


def _project_edge(mesh, func, k, n):
    cq = CellQuad(mesh, n)
    return project_edge(cq, func(*cq.side_points), k)


def test_cell_projection_reproduces_polynomials(mesh):
    f = lambda x, y: 1.0 - 2.0 * x * y + 3.0 * x**2 * y**2
    coef = _project(mesh, f, 2, 6)
    vals, cq = _cell_values(mesh, coef, 2, 5)
    assert np.allclose(vals, f(cq.X, cq.Y), atol=1e-12)


def test_cell_projection_orthogonality(mesh):
    # residual u - Pi(u) is L2-orthogonal to every test polynomial in Q^k
    k, n = 2, 8
    u = lambda x, y: np.sin(2 * x + y) * np.exp(x * y)
    coef = _project(mesh, u, k, n)
    vals, cq = _cell_values(mesh, coef, k, n)
    resid = u(cq.X, cq.Y) - vals
    R = ref_tables(k, n)
    moments = cq.J[:, None] * np.einsum("cg,bg->cb", resid * cq.W2, R.B0)
    assert np.max(np.abs(moments)) < 1e-10


def test_cell_projection_best_approximation(mesh):
    k, n = 1, 8
    u = lambda x, y: np.cos(3 * x) * y**2
    coef = _project(mesh, u, k, n)
    vals, cq = _cell_values(mesh, coef, k, n)
    err = cq.J @ np.einsum("g,cg->c", cq.W2, (u(cq.X, cq.Y) - vals) ** 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        other = coef + rng.standard_normal(coef.shape)
        ovals, _ = _cell_values(mesh, other, k, n)
        oerr = cq.J @ np.einsum("g,cg->c", cq.W2,
                                (u(cq.X, cq.Y) - ovals) ** 2)
        assert np.all(err <= oerr + 1e-10)


def test_edge_projection_orthogonality_1d(mesh):
    k, n = 2, 8
    u = lambda x, y: np.sin(4 * x) + np.cos(3 * y)
    coef = _project_edge(mesh, u, k, n)
    # recompute residual moments on every edge with the same point layout
    rule = gauss_rule(n)
    V = ref_tables(k, n).V
    for e in range(0, mesh.n_edges, 7):
        axis = mesh.edge_axis[e]
        line, seg = mesh.edge_line[e], mesh.edge_seg[e]
        if axis == 0:
            L = mesh.hy[seg]
            ys = (mesh.y_nodes[seg] + mesh.y_nodes[seg + 1]) / 2.0 \
                + L / 2.0 * rule.nodes
            fv = u(np.full(n, mesh.x_nodes[line]), ys)
        else:
            L = mesh.hx[seg]
            xs = (mesh.x_nodes[seg] + mesh.x_nodes[seg + 1]) / 2.0 \
                + L / 2.0 * rule.nodes
            fv = u(xs, np.full(n, mesh.y_nodes[line]))
        vals = coef[e] @ V
        moments = (L / 2.0) * ((fv - vals) * rule.weights) @ V.T
        assert np.max(np.abs(moments)) < 1e-10


def test_edge_projection_zero_boundary(mesh):
    # the projected exact solution has homogeneous boundary traces; the
    # edge projection itself does not zero them
    spec = paper_problem(1e-2)
    cq = CellQuad(mesh, 4)
    coef = project_exact(exact_values(cq, spec), 1).trace
    assert np.all(coef[mesh.edge_boundary] == 0.0)
    assert np.any(coef[~mesh.edge_boundary] != 0.0)
    assert np.any(_project_edge(mesh, lambda x, y: x + y, 1, 4)
                  [mesh.edge_boundary] != 0.0)


def test_componentwise_vector_projection(mesh):
    # projecting the flux componentwise equals the scalar projection of
    # each, and the edge traces are the projection of u on the edges
    spec = paper_problem(1e-2)
    pf = project_exact(exact_values(CellQuad(mesh, 6), spec), 1)
    assert np.array_equal(pf.q1, _project(mesh, spec.exact.q1, 1, 6, spec))
    assert np.array_equal(pf.q2, _project(mesh, spec.exact.q2, 1, 6, spec))
    assert np.array_equal(pf.u, _project(mesh, spec.exact.u, 1, 6, spec))
    trace = _project_edge(mesh, spec.exact.u, 1, 6)
    interior = ~mesh.edge_boundary
    assert np.array_equal(pf.trace[interior], trace[interior])


@settings(max_examples=25)
@given(N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p),  # log-uniform
       n=st.integers(2, 8))
def test_edge_projection_uses_the_side_points(N, eps, n):
    # every cell side sees the points of its edge bit for bit, so both cells
    # of an interior edge see the same points and gathering the side values
    # onto the edges loses nothing; project_edge integrates on them
    mesh = build_mesh(MeshConfig(N, eps, 2.0, 1.0, 2.0))
    sx, sy = CellQuad(mesh, n).side_points
    for side in (sx, sy):
        edge = np.empty((mesh.n_edges, n))
        edge[mesh.cell_edges] = side
        assert np.array_equal(edge[mesh.cell_edges], side)
    # the projection of x + y (degree 1) reproduces it on every edge
    coef = _project_edge(mesh, lambda x, y: x + y, 1, n)
    V = ref_tables(1, n).V
    vals = coef @ V
    assert np.allclose(vals[mesh.cell_edges], sx + sy, rtol=1e-12,
                       atol=1e-14)


@settings(max_examples=25)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p),  # log-uniform
       extra=st.integers(0, 4))
def test_projection_inverts_evaluation(k, N, eps, extra):
    # evaluation and projection share one coefficient convention: projecting
    # the values of a discrete triple on a rule of n >= k+1 points gives its
    # coefficients back, on the cells and on the edges
    mesh = build_mesh(MeshConfig(N, eps, k + 1.0, 1.0, 2.0))
    fields = random_fields(mesh, k, np.random.default_rng(N + k))
    cq = CellQuad(mesh, k + 1 + extra)
    vals = triple_values_discrete(cq, fields)
    got = project_cells(cq, (vals.r1, vals.r2, vals.w), k, ())
    got.append(project_edge(cq, vals.mu, k))
    for g, want in zip(got, (fields.q1, fields.q2, fields.u, fields.trace)):
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))


def _projection_error(mesh, spec, k, n_quad):
    """L2 error ||u - Pi u|| of the cell projection, measured with four
    more points than it was computed with."""
    coef = _project(mesh, spec.exact.u, k, n_quad)
    vals, cq = _cell_values(mesh, coef, k, n_quad + 4)
    diff = spec.exact.u(cq.X, cq.Y) - vals
    return float(np.sqrt(cq.J @ np.einsum("g,cg->c", cq.W2, diff**2)))


def test_projection_error_decay():
    spec = paper_problem(1e-2)
    errs = []
    for N in (4, 8, 16):
        m = build_mesh(MeshConfig(N, 1e-2, 2.0, 1.0, 2.0))
        errs.append(_projection_error(m, spec, 1, 6))
    assert errs[0] > errs[1] > errs[2]
    # roughly O(h^2) between the finer pair
    assert errs[1] / errs[2] > 2.5


def test_quadrature_validation(mesh):
    cq = CellQuad(mesh, 2)
    with pytest.raises(ValueError):
        project_cells(cq, [cq.X], 2, ())
    with pytest.raises(ValueError):
        project_edge(cq, cq.side_points[0], 2)
