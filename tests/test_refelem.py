"""Reference-element machinery: quadrature exactness, orthonormal bases,
tensor tables and the mesh-wide tensor rule."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edge_layout import edge_layout
from shishkin_hdg import layerquad
from shishkin_hdg.assembly import HdgConfig, _local_setup
from shishkin_hdg.refelem import (CellQuad, QuadRule1D, gauss_rule, legendre,
                                  ref_tables)
from shishkin_hdg.mesh import MeshAssumptionWarning, build_mesh
from shishkin_hdg.problems import paper_problem


def test_gauss_rule_basic():
    for n in (1, 2, 5, 12, 30):
        rule = gauss_rule(n)
        assert rule.n == n
        assert np.isclose(rule.weights.sum(), 2.0, atol=1e-14)
        assert np.allclose(rule.nodes, -rule.nodes[::-1])
        # cached and shared between callers, so not writable
        assert gauss_rule(n) is rule
        assert not rule.nodes.flags.writeable
        assert not rule.weights.flags.writeable


def test_gauss_rule_exact_to_degree_2n_minus_1():
    rng = np.random.default_rng(3)
    for n in (2, 4, 7):
        rule = gauss_rule(n)
        coeffs = rng.standard_normal(2 * n)  # degree 2n-1
        exact = sum(c * (1.0 ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
                    for d, c in enumerate(coeffs))
        quad = float(np.polynomial.polynomial.polyval(
            rule.nodes, coeffs) @ rule.weights)
        assert np.isclose(quad, exact, rtol=1e-13, atol=1e-13)


def test_gauss_rule_not_exact_beyond():
    rule = gauss_rule(2)  # exact to degree 3, x^4 integrates to 2/5
    assert not np.isclose(float((rule.nodes ** 4) @ rule.weights), 0.4,
                          rtol=1e-6)


def test_gauss_rule_range():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(31)


def test_basis_orthonormal():
    for k in (1, 2, 4):
        rule = gauss_rule(k + 1)
        V, _ = legendre(k, rule.nodes)
        gram = (V * rule.weights) @ V.T
        assert np.allclose(gram, np.eye(k + 1), atol=1e-13)


def test_basis_derivative_matches_finite_difference():
    x = np.linspace(-0.9, 0.9, 7)
    h = 1e-6
    V, D = legendre(3, x)
    Vp, _ = legendre(3, x + h)
    Vm, _ = legendre(3, x - h)
    assert np.allclose(D, (Vp - Vm) / (2 * h), atol=1e-7)


def test_ref_tables_shapes_and_mass():
    k, n = 2, 4
    R = ref_tables(k, n)
    nb = (k + 1) ** 2
    assert R.B0.shape == (nb, n * n)
    assert R.KX.shape == (nb, nb)
    # 2D mass of the tensor basis under the tensor rule
    w = gauss_rule(n).weights
    gram = np.einsum("g,ag,bg->ab", np.outer(w, w).reshape(-1), R.B0, R.B0)
    assert np.allclose(gram, np.eye(nb), atol=1e-13)


def _setup(k, n):
    """The local-system operands of the assembly at degree k with n
    points; they depend on the degree and the rule only."""
    spec = paper_problem(1e-2)
    mesh = build_mesh(4, 1e-2, 2.0, *spec.beta_lb)
    return _local_setup(mesh, spec, HdgConfig(k, quad_assembly=n))


def test_ref_tables_stiffness_identity():
    # integration by parts on [-1,1]^2: KX + KX^T is the boundary coupling,
    # so the u-q block -KX + <q.n, w> of equation (ii) is KX^T
    k, n = 2, 5
    setup = _setup(k, n)
    R = setup.R
    assert np.allclose(setup.UQ[0], R.KX.T, atol=1e-13)
    assert np.allclose(setup.UQ[1], R.KY.T, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_product_tables_give_the_weighted_products(k):
    # a field at the points times VOL[i] (EDGE) is the three-operand
    # product of the field with the basis tables, to rounding
    rng = np.random.default_rng(k)
    kp, nb = k + 1, (k + 1) ** 2
    for n in range(k + 1, k + 5):
        setup = _setup(k, n)
        R = setup.R
        f = rng.standard_normal((20, n * n))
        for P, T in zip((R.BX, R.BY, R.B0), setup.VOL):
            want = np.einsum("cg,bg,ag->cba", f, P, R.B0)
            got = (f @ T).reshape(20, nb, nb)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        f = rng.standard_normal((20, n))
        want = np.einsum("cg,ng,eg->cne", f, R.V, R.V)
        got = (f @ setup.EDGE).reshape(20, kp, kp)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_cell_quad_covers_mesh():
    mesh = build_mesh(4, 1e-2, 2.0, 1.0, 2.0)
    cq = CellQuad(mesh, 3)
    # integrating 1 over all cells gives the domain area
    area = float((cq.J[:, None] * cq.W2).sum())
    assert np.isclose(area, 1.0, atol=1e-13)
    # points stay inside their cells
    for q, nodes in ((cq.xq, mesh.x_nodes), (cq.yq, mesh.y_nodes)):
        assert (q > nodes[:-1, None]).all() and (q < nodes[1:, None]).all()


@settings(max_examples=25)
@given(N=st.sampled_from([4, 8, 12, 16, 20]),
       eps=st.floats(-8.0, -1.0).map(lambda p: 10.0 ** p),  # log-uniform
       n=st.integers(1, 8), coef=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       data=st.data())
def test_fields_on_lines_equal_fields_at_the_points(N, eps, n, coef, data):
    # evaluating on the 1D point lines gives, bit for bit, the field at the
    # points of every cell, cell range, edge and layer batch, with the
    # points rebuilt here one by one
    a, b, c = coef

    def fn(x, y):  # elementwise, neither separable nor symmetric
        return np.sin(a * x + y) * np.exp(b * y) + c * x * y**2

    spec = paper_problem(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeshAssumptionWarning)
        mesh = build_mesh(N, eps, 2.0, *spec.beta_lb)
    cq, nodes = CellQuad(mesh, n), gauss_rule(n).nodes
    xn, yn = mesh.x_nodes, mesh.y_nodes
    xq, yq = (((z[:-1] + z[1:]) / 2.0)[:, None]
              + np.diff(z)[:, None] / 2.0 * nodes for z in (xn, yn))
    assert np.array_equal(cq.xq, xq) and np.array_equal(cq.yq, yq)

    # cells c = ix*ny + iy with points g = gx*n + gy
    nc = mesh.n_cells
    ix, iy = np.divmod(np.arange(nc), mesh.ny)
    gx, gy = np.divmod(np.arange(n * n), n)
    X, Y = xq[ix[:, None], gx], yq[iy[:, None], gy]
    assert np.array_equal(cq.on_cells(fn), fn(X, Y))
    start = data.draw(st.integers(0, nc), label="start")
    stop = data.draw(st.integers(start, nc), label="stop")
    assert np.array_equal(cq.on_cells(fn, range(start, stop)),
                          fn(X[start:stop], Y[start:stop]))

    # edges by the documented edge-id layout, each by ascending coordinate
    XE, YE = np.empty((mesh.n_edges, n)), np.empty((mesh.n_edges, n))
    axis, line, seg = edge_layout(mesh.nx, mesh.ny)
    v, h = axis == 0, axis == 1
    XE[v], YE[v] = xn[line[v], None], yq[seg[v]]
    XE[h], YE[h] = xq[seg[h]], yn[line[h], None]
    assert np.array_equal(cq.on_edges(fn), fn(XE, YE))
    # gathered onto the cells they are the points of the sides W, E, S, N
    sides = ((xn[ix, None], yq[iy]), (xn[ix + 1, None], yq[iy]),
             (xq[ix], yn[iy, None]), (xq[ix], yn[iy + 1, None]))
    for s, (sx, sy) in enumerate(sides):
        e = mesh.cell_edges[:, s]
        assert np.array_equal(XE[e], np.broadcast_to(sx, (nc, n)))
        assert np.array_equal(YE[e], np.broadcast_to(sy, (nc, n)))

    # batch cell i*nrows + j on the points xq[i] x yq[j], g = gx*npy + gy
    for composite in (True, False):
        for bt in layerquad.layer_batches(mesh, spec, n, 1, composite):
            i, j = np.divmod(np.arange(len(bt.cells)), len(bt.yq))
            px, py = bt.xq.shape[1], bt.yq.shape[1]
            gx, gy = np.divmod(np.arange(px * py), py)
            X, Y = bt.xq[i[:, None], gx], bt.yq[j[:, None], gy]
            assert np.array_equal(bt.on_cells(fn), fn(X, Y))
            cx, cy = np.divmod(bt.cells, mesh.ny)
            assert ((xn[cx, None] <= X) & (X <= xn[cx + 1, None])).all()
            assert ((yn[cy, None] <= Y) & (Y <= yn[cy + 1, None])).all()


@pytest.mark.parametrize("k, n", [(1, 2), (2, 4), (3, 7)])
def test_cached_ref_tables_are_read_only(k, n):
    # one cached instance is shared by every solve in the process
    R = ref_tables(k, n)
    arrays = [a for a in vars(R).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 6
    tuples = (R.L, R.side_traces)
    for arr in arrays + [a for t in tuples for a in t]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


@pytest.mark.parametrize("k, n", [(1, 2), (2, 6), (3, 7)])
def test_ref_tables_hold_only_what_several_modules_read(k, n):
    # the local-system operands are built by the assembly that reads them,
    # at its own rule, not cached for the error rules too
    assert set(vars(ref_tables(k, n))) == {"V", "B0", "BX", "BY", "KX", "KY",
                                           "L", "side_traces"}
