"""Reference-element machinery: quadrature exactness, orthonormal bases,
tensor tables and the mesh-wide tensor rule."""

import numpy as np
import pytest

from shishkin_hdg.refelem import (Basis1D, CellQuad, QuadRule1D, gauss_rule,
                                  ref_tables)
from shishkin_hdg.mesh import MeshConfig, build_mesh


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
        V, _ = Basis1D(k).eval(rule.nodes)
        gram = (V * rule.weights) @ V.T
        assert np.allclose(gram, np.eye(k + 1), atol=1e-13)


def test_basis_derivative_matches_finite_difference():
    x = np.linspace(-0.9, 0.9, 7)
    h = 1e-6
    V, D = Basis1D(3).eval(x)
    Vp, _ = Basis1D(3).eval(x + h)
    Vm, _ = Basis1D(3).eval(x - h)
    assert np.allclose(D, (Vp - Vm) / (2 * h), atol=1e-7)


def test_basis_degree_validation():
    with pytest.raises(ValueError):
        Basis1D(-1)


def test_ref_tables_shapes_and_mass():
    k, n = 2, 4
    R = ref_tables(k, n)
    nb = (k + 1) ** 2
    assert R.B0.shape == (nb, n * n)
    assert R.KX.shape == (nb, nb)
    # exact rule: 1D mass is the identity
    assert np.allclose(R.M1, np.eye(k + 1), atol=1e-13)
    # 2D mass of the tensor basis under the tensor rule
    gram = np.einsum("g,ag,bg->ab", R.W2, R.B0, R.B0)
    assert np.allclose(gram, np.eye(nb), atol=1e-13)


def test_ref_tables_stiffness_identity():
    # integration by parts on [-1,1]^2: KX + KX^T = boundary coupling
    k, n = 2, 5
    R = ref_tables(k, n)
    assert np.allclose(R.KX + R.KX.T, R.EVp - R.EVm, atol=1e-13)
    assert np.allclose(R.KY + R.KY.T, R.EHp - R.EHm, atol=1e-13)


def test_cell_quad_covers_mesh():
    mesh = build_mesh(MeshConfig(4, 1e-2, 2.0, 1.0, 2.0))
    cq = CellQuad(mesh, 3)
    # integrating 1 over all cells gives the domain area
    area = float((cq.J[:, None] * cq.W2).sum())
    assert np.isclose(area, 1.0, atol=1e-13)
    # points stay inside their cells
    assert cq.X.min() > 0.0 and cq.X.max() < 1.0
