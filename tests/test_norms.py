"""Energy norm, error reports and convergence-rate formulas."""

import numpy as np
import pytest

from shishkin_hdg import norms
from shishkin_hdg.assembly import HdgConfig, SolutionFields, assemble_and_solve, random_fields
from shishkin_hdg.mesh import MeshConfig, build_mesh
from shishkin_hdg.norms import (StabilizationError, convergence_rate,
                                dyadic_rate, energy_norm, error_report,
                                l2_norms, supercloseness_norm,
                                triple_sub, triple_values_discrete,
                                triple_values_exact)
from shishkin_hdg.problems import paper_problem
from shishkin_hdg.projections import project_exact


@pytest.fixture(scope="module")
def setting():
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(8, 1e-2, 2.0, 1.0, 2.0))
    return mesh, spec


def _scaled(f, a):
    return SolutionFields(f.k, a * f.q1, a * f.q2, a * f.u, a * f.trace)


def test_zero_triple_has_zero_norm(setting):
    mesh, spec = setting
    z = SolutionFields.zeros(mesh, 1)
    vals = triple_values_discrete(mesh, z, 5)
    res = energy_norm(mesh, spec, 3.0, vals)
    assert res.total == 0.0
    assert res.q_part_sq == res.reaction_part_sq == res.jump_part_sq == 0.0


def test_homogeneity(setting):
    mesh, spec = setting
    rng = np.random.default_rng(2)
    f = random_fields(mesh, 1, rng)
    n1 = energy_norm(mesh, spec, 3.0, triple_values_discrete(mesh, f, 5)).total
    n3 = energy_norm(mesh, spec, 3.0,
                     triple_values_discrete(mesh, _scaled(f, -3.0), 5)).total
    assert np.isclose(n3, 3.0 * n1, rtol=1e-12)


def test_triangle_inequality(setting):
    mesh, spec = setting
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_fields(mesh, 1, rng)
        b = random_fields(mesh, 1, rng)
        s = SolutionFields(1, a.q1 + b.q1, a.q2 + b.q2, a.u + b.u,
                           a.trace + b.trace)
        na = energy_norm(mesh, spec, 3.0,
                         triple_values_discrete(mesh, a, 5)).total
        nb = energy_norm(mesh, spec, 3.0,
                         triple_values_discrete(mesh, b, 5)).total
        ns = energy_norm(mesh, spec, 3.0,
                         triple_values_discrete(mesh, s, 5)).total
        assert ns <= na + nb + 1e-10 * (na + nb)


def test_constant_one_reaction_weight(setting):
    # w = 1, r = 0, mu = trace of w: only the reaction part survives and
    # equals int (c - div beta / 2) = int (3/2 + 3/2 y^2) = 2 on the unit square
    mesh, spec = setting
    f = SolutionFields.zeros(mesh, 1)
    area = mesh.cell_hx * mesh.cell_hy
    f.u[:, 0] = np.sqrt(area)
    vals = triple_values_discrete(mesh, f, 6)
    vals.mu[:] = vals.w_tr  # matching trace kills the jump term
    res = energy_norm(mesh, spec, 3.0, vals)
    assert res.q_part_sq == 0.0
    assert np.isclose(res.jump_part_sq, 0.0, atol=1e-14)
    assert np.isclose(res.reaction_part_sq, 2.0, rtol=1e-12)
    wnorm, qnorm = l2_norms(mesh, vals)
    assert np.isclose(wnorm, 1.0, rtol=1e-12) and qnorm == 0.0


def test_region_breakdown_sums_to_cell_parts(setting):
    mesh, spec = setting
    rng = np.random.default_rng(4)
    f = random_fields(mesh, 1, rng)
    res = energy_norm(mesh, spec, 3.0, triple_values_discrete(mesh, f, 5))
    cell_total = res.q_part_sq + res.reaction_part_sq
    assert np.isclose(sum(res.region_cell_sq.values()), cell_total,
                      rtol=1e-12)
    assert set(res.region_cell_sq) == {"smooth", "x_layer", "y_layer",
                                       "corner_layer"}


def test_negative_jump_weight_raises(setting):
    mesh, spec = setting
    f = random_fields(mesh, 1, np.random.default_rng(5))
    vals = triple_values_discrete(mesh, f, 5)
    with pytest.raises(StabilizationError):
        energy_norm(mesh, spec, 0.5, vals)  # max |beta.n|/2 = 1.5 > 0.5


def test_error_report_consistency(setting):
    mesh, spec = setting
    cfg = HdgConfig(1)
    fields = assemble_and_solve(mesh, spec, cfg)
    proj = project_exact(mesh, spec, 1, cfg.n_error)
    rep = error_report(mesh, spec, cfg, fields, projected=proj)
    assert rep.N == 8 and rep.k == 1 and rep.epsilon == 1e-2
    assert np.isclose(rep.energy_error**2,
                      rep.q_part_sq + rep.reaction_part_sq + rep.jump_part_sq,
                      rtol=1e-12)
    assert np.isclose(sum(rep.region_cell_sq.values()),
                      rep.q_part_sq + rep.reaction_part_sq, rtol=1e-10)
    assert rep.supercloseness_error is not None
    assert 0 < rep.supercloseness_error < rep.energy_error + 1.0
    assert rep.l2_error_u > 0 and rep.l2_error_q > 0
    # triangle inequality of the error decomposition:
    # |||e||| <= |||exact - projection||| + |||projection - discrete|||
    pvals = triple_values_discrete(mesh, proj, cfg.n_error)
    evals = triple_values_exact(mesh, spec, cfg.n_error)
    eta = energy_norm(mesh, spec, cfg.tau,
                      triple_sub(evals, pvals)).total
    assert rep.energy_error <= eta + rep.supercloseness_error + 1e-10


def test_supercloseness_zero_for_identical_fields(setting):
    mesh, spec = setting
    cfg = HdgConfig(1)
    fields = assemble_and_solve(mesh, spec, cfg)
    assert supercloseness_norm(mesh, spec, cfg, fields, fields) == 0.0


def test_convergence_rate_worked_examples():
    # fitted two-level model e ~ (N^-1 ln N)^p anchored at the fine pair
    assert abs(convergence_rate(3.540e-3, 1.519e-3, 128) - 1.47) < 0.01
    assert abs(convergence_rate(5.966e-3, 1.945e-3, 16) - 2.19) < 0.01


def test_dyadic_rate():
    assert np.isclose(dyadic_rate(4.0, 1.0), 2.0)
    assert np.isclose(dyadic_rate(1.0, 1.0), 0.0)


def test_rate_input_validation():
    for bad in ((0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            convergence_rate(bad[0], bad[1], 8)
        with pytest.raises(ValueError):
            dyadic_rate(bad[0], bad[1])


def test_triple_sub_quadrature_mismatch(setting):
    mesh, spec = setting
    a = triple_values_exact(mesh, spec, 4)
    b = triple_values_exact(mesh, spec, 5)
    with pytest.raises(ValueError):
        triple_sub(a, b)


def test_exact_triple_requires_exact_solution(setting):
    mesh, spec = setting
    bare = type(spec)(spec.name, spec.epsilon, spec.beta1, spec.beta2,
                      spec.c, spec.div_beta, spec.f, spec.beta_lb, spec.c0,
                      None)
    with pytest.raises(ValueError):
        triple_values_exact(mesh, bare, 4)
