"""Layer-refined composite quadrature."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from shishkin_hdg import layerquad
from shishkin_hdg.mesh import MeshAssumptionWarning, build_mesh
from shishkin_hdg.problems import paper_problem
from shishkin_hdg.refelem import CellQuad, gauss_rule


def test_composite_rule_weights_sum_to_width():
    # the second interval lies within one decay length: one plain panel
    for width, scale, n in ((0.5, 1e-6, 4), (1.0, 2.0, 3)):
        pts, wts = layerquad.composite_layer_rule(width, scale, n)
        assert np.isclose(wts.sum(), width, atol=1e-14)
        assert pts.min() > 0.0 and pts.max() < width
    assert np.allclose(pts, (gauss_rule(n).nodes + 1.0) / 2.0 * width)
    with pytest.raises(ValueError):
        layerquad.composite_layer_rule(-1.0, 1e-6, 4)
    with pytest.raises(ValueError):
        layerquad.composite_layer_rule(1.0, 0.0, 4)


def test_composite_rule_integrates_layer_tail():
    # integral of exp(-(w - x)/s) on (0, w): s (1 - exp(-w/s))
    w, s = 0.3, 1e-5
    pts, wts = layerquad.composite_layer_rule(w, s, 8)
    val = float(wts @ np.exp(-(w - pts) / s))
    exact = s * (1.0 - np.exp(-w / s))
    assert np.isclose(val, exact, rtol=1e-10)
    # a plain Gauss rule of the same order misses the spike entirely
    rule = gauss_rule(8)
    gp = w / 2.0 * (rule.nodes + 1.0)
    gv = float((w / 2.0 * rule.weights) @ np.exp(-(w - gp) / s))
    assert abs(gv - exact) > 0.1 * exact


def test_composite_rule_against_scipy_reference():
    w, s = 0.1, 1e-4
    f = lambda x: np.sin(3 * x) * np.exp(-(w - x) / s) + x**2
    pts, wts = layerquad.composite_layer_rule(w, s, 10)
    ref, err = quad(f, 0.0, w, points=[w - 5 * s], limit=200)
    assert np.isclose(float(wts @ f(pts)), ref, rtol=1e-9)


def test_layer_flags_mark_transition_columns():
    spec = paper_problem(1e-6)
    mesh = build_mesh(8, 1e-6, 2.0, 1.0, 2.0)
    fx, fy = layerquad.layer_flags(mesh, spec)
    # the last coarse column before the transition holds the unresolved tail
    split = mesh.N // 2  # the first fine column and row
    assert fx[split - 1] and fy[split - 1]
    # fine cells resolve the layer scale and are not flagged
    assert not fx[split:].any()
    assert not fy[split:].any()
    # far-from-layer coarse columns see only underflow
    assert not fx[0] and not fy[0]


# property tests over meshes and layer widths of the study's range
_layer_cases = dict(
    N=st.sampled_from([4, 8, 16]),
    eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p),  # log-uniform
    n=st.integers(2, 8))
_settings = settings(max_examples=25)


def _setup(N, eps):
    spec = paper_problem(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeshAssumptionWarning)
        mesh = build_mesh(N, eps, 2.0, *spec.beta_lb)
    return mesh, spec


@_settings
@given(**_layer_cases)
def test_layer_batches_cover_exactly_the_flagged_cells(N, eps, n):
    mesh, spec = _setup(N, eps)
    fx, fy = layerquad.layer_flags(mesh, spec)
    flagged = (fx[:, None] | fy[None, :]).reshape(-1)
    for composite in (True, False):
        cells = np.concatenate(
            [b.cells for b in layerquad.layer_batches(mesh, spec, n, 1,
                                                      composite)]
            or [np.zeros(0, dtype=int)])
        # no cell twice, every flagged cell once, nothing else
        assert len(np.unique(cells)) == len(cells)
        assert np.array_equal(np.sort(cells), np.flatnonzero(flagged))


@_settings
@given(**_layer_cases)
def test_layer_batch_weights_sum_to_cell_area(N, eps, n):
    mesh, spec = _setup(N, eps)
    area = np.outer(mesh.hx, mesh.hy).reshape(-1)
    for composite in (True, False):
        for b in layerquad.layer_batches(mesh, spec, n, 1, composite):
            ncols, nrows = len(b.xq), len(b.yq)
            assert ncols * nrows == len(b.cells)
            assert b.W.shape == (len(b.cells), b.xq.shape[1] * b.yq.shape[1])
            assert np.allclose(b.W.sum(axis=1), area[b.cells], rtol=1e-14,
                               atol=0.0)
            assert np.allclose(4.0 * b.J, area[b.cells], rtol=1e-15, atol=0)


def test_properties_run_derandomized():
    # the tier-1 profile (conftest) seeds every property
    assert settings.default.derandomize and settings.default.deadline is None


@_settings
@given(**_layer_cases)
def test_plain_batches_carry_the_cell_rule_points(N, eps, n):
    # the error corrections read the exact values of the plain batches off
    # the cell rule, so their point lines must be the rule's bit for bit
    mesh, spec = _setup(N, eps)
    cq = CellQuad(mesh, n)
    for b in layerquad.layer_batches(mesh, spec, n, 1, composite=False):
        ix, iy = np.divmod(b.cells.reshape(len(b.xq), len(b.yq)), mesh.ny)
        # batch cell i*nrows + j lies in the i-th column and the j-th row
        assert (ix == ix[:, :1]).all() and (iy == iy[:1]).all()
        assert np.array_equal(b.xq, cq.xq[ix[:, 0]])
        assert np.array_equal(b.yq, cq.yq[iy[0]])


@_settings
@given(**_layer_cases, k=st.integers(1, 3))
def test_layer_batch_basis_gram_is_jacobian_identity(N, eps, n, k):
    # the rule integrates degree 2k exactly when n >= k + 1
    k = min(k, n - 1)
    mesh, spec = _setup(N, eps)
    nb = (k + 1) ** 2
    for composite in (True, False):
        for b in layerquad.layer_batches(mesh, spec, n, k, composite):
            gram = np.einsum("cag,cg,cbg->cab", b.B, b.W, b.B) \
                / b.J[:, None, None]
            err = np.abs(gram - np.eye(nb)).max(axis=(1, 2))
            # The basis is evaluated at the pulled-back coordinates
            # 2(p - x0)/h - 1 of the rounded points p near x = 1, so they
            # carry a rounding of a few ulp/h. In fine cells at small eps
            # that term, not the rule, bounds the error (1e-7 at eps=1e-8,
            # about 5 eps_machine/h).
            ix, iy = np.divmod(b.cells, mesh.ny)
            h = np.minimum(mesh.hx[ix], mesh.hy[iy])
            assert np.all(err <= 1e-12 + 16 * np.finfo(float).eps / h)
