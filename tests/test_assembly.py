"""HDG assembly, condensation, solve pipeline and its invariants."""

import numpy as np
import pytest

from dense_oracle import assemble_monolithic, solve_monolithic
from shishkin_hdg.assembly import (HdgConfig, SolutionFields,
                                   assemble_and_solve, bilinear_form,
                                   build_local_systems, check_stabilization,
                                   condense, flux_continuity_residual,
                                   galerkin_residual, random_fields)
from shishkin_hdg.mesh import MeshConfig, build_mesh
from shishkin_hdg.norms import StabilizationError
from shishkin_hdg import norms
from shishkin_hdg.problems import paper_problem, polynomial_problem
from shishkin_hdg.refelem import CellQuad


def _energy_error(mesh, spec, cfg, fields):
    cq = CellQuad(mesh, cfg.n_error)
    diff = norms.triple_sub(norms.triple_values_exact(cq, spec),
                            norms.triple_values_discrete(cq, fields))
    return norms.energy_norm(norms.energy_weights(cq, spec, cfg.tau),
                             diff).total


def test_config_validation():
    with pytest.raises(ValueError):
        HdgConfig(0)
    with pytest.raises(ValueError):
        HdgConfig(1, tau=0.0)
    # either rule below k+1 points is rejected; 0 is a value, not "unset"
    for bad in (dict(quad_assembly=2), dict(quad_error=2),
                dict(quad_assembly=0), dict(quad_error=0)):
        with pytest.raises(ValueError):
            HdgConfig(2, **bad)
    cfg = HdgConfig(2)
    assert cfg.n_assembly == 4 and cfg.n_error == 6
    assert HdgConfig(2, quad_assembly=3, quad_error=3).n_error == 3


def test_stabilization_check():
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(4, 1e-2, 2.0, 1.0, 2.0))
    bn = norms.edge_normal_beta(CellQuad(mesh, 3), spec)
    assert check_stabilization(bn, 3.0) == 1.5  # max |beta.n| = beta2(x, 0)
    with pytest.raises(StabilizationError):
        check_stabilization(bn, 0.1)
    # the local systems are not built under a violating tau
    with pytest.raises(StabilizationError):
        build_local_systems(mesh, spec, HdgConfig(1, 0.1))


@pytest.mark.parametrize("k", [2, 3])
def test_polynomial_solution_reproduced_exactly(k):
    # u = x(1-x)y(1-y) lies in Q^2, so for k >= 2 the discrete solution
    # must reproduce it to rounding
    spec = polynomial_problem(1.0)
    for N in (4, 8):
        mesh = build_mesh(MeshConfig(N, 1.0, 2.0, 1.0, 2.0))
        cfg = HdgConfig(k)
        fields = assemble_and_solve(mesh, spec, cfg)
        assert _energy_error(mesh, spec, cfg, fields) < 1e-9


def test_dense_monolithic_equivalence():
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(4, 1e-2, 2.0, 1.0, 2.0))
    for k in (1, 2):
        cfg = HdgConfig(k)
        a = assemble_and_solve(mesh, spec, cfg)
        b = solve_monolithic(mesh, spec, cfg)
        scale = max(np.abs(a.u).max(), 1.0)
        for name in ("q1", "q2", "u", "trace"):
            da = getattr(a, name)
            db = getattr(b, name)
            assert np.max(np.abs(da - db)) < 1e-9 * scale


def test_monolithic_size_guard():
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(32, 1e-2, 3.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        assemble_monolithic(mesh, spec, HdgConfig(2))


def test_galerkin_residual_small():
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(8, 1e-2, 2.0, 1.0, 2.0))
    for k in (1, 2):
        assert galerkin_residual(mesh, spec, HdgConfig(k)) < 1e-10


def test_flux_continuity_after_solve():
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(8, 1e-2, 2.0, 1.0, 2.0))
    cfg = HdgConfig(1)
    fields = assemble_and_solve(mesh, spec, cfg)
    cq = CellQuad(mesh, cfg.n_assembly)
    assert flux_continuity_residual(fields, cq, spec, cfg) < 1e-10


def test_coercivity_equals_energy_norm_for_random_triples():
    # B(xi, xi) = |||xi|||^2 holds exactly for this scheme
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(4, 1e-2, 2.0, 1.0, 2.0))
    cfg = HdgConfig(1)
    rng = np.random.default_rng(11)
    wts = norms.energy_weights(CellQuad(mesh, cfg.n_error), spec, cfg.tau)
    for _ in range(25):
        xi = random_fields(mesh, 1, rng)
        b = bilinear_form(xi, mesh, spec, cfg)
        vals = norms.triple_values_discrete(wts.cq, xi)
        nrm2 = norms.energy_norm(wts, vals).total ** 2
        assert b >= (1.0 - 1e-10) * nrm2
        assert np.isclose(b, nrm2, rtol=1e-8)


def test_condense_schur_identity():
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(4, 1e-2, 2.0, 1.0, 2.0))
    blocks = build_local_systems(mesh, spec, HdgConfig(1))
    cond = condense(blocks)
    c = 3
    S_ref = blocks.D[c] - blocks.G[c] @ np.linalg.solve(blocks.A[c],
                                                        blocks.C[c])
    assert np.allclose(cond.S[c], S_ref, atol=1e-12)


def test_zero_source_gives_zero_solution():
    spec = polynomial_problem(1.0)
    zero = type(spec)(spec.name, spec.epsilon, spec.beta1, spec.beta2,
                      spec.c, spec.div_beta, lambda x, y: 0.0 * x, spec.beta_lb,
                      spec.c0, None)
    mesh = build_mesh(MeshConfig(4, 1.0, 2.0, 1.0, 2.0))
    fields = assemble_and_solve(mesh, zero, HdgConfig(1))
    assert np.max(np.abs(fields.u)) < 1e-13
    assert np.max(np.abs(fields.trace)) < 1e-13


def test_solution_fields_zeros():
    mesh = build_mesh(MeshConfig(4, 1e-2, 2.0, 1.0, 2.0))
    # zero fields built from inline zero arrays round-trip through the
    # pulled-back convention and have zero traces on every edge
    nb = 9
    z = SolutionFields(2, np.zeros((16, nb)), np.zeros((16, nb)),
                       np.zeros((16, nb)), np.zeros((mesh.n_edges, 3)))
    v, trace = z.to_reference(mesh)
    assert v.shape == (16, 3 * nb) and trace.shape == (mesh.n_edges, 3)
    assert not v.any() and not trace.any()
