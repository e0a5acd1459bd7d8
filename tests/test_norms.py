"""Energy norm, error reports and convergence-rate formulas."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_hdg import norms
from shishkin_hdg.assembly import HdgConfig, SolutionFields, assemble_and_solve, random_fields
from shishkin_hdg.mesh import MeshAssumptionWarning, MeshConfig, build_mesh
from shishkin_hdg.norms import (StabilizationError, convergence_rate,
                                dyadic_rate, energy_norm, energy_weights,
                                error_report, exact_values, triple_sub,
                                triple_values_discrete, triple_values_exact)
from shishkin_hdg.problems import paper_problem, polynomial_problem
from shishkin_hdg.projections import project_exact
from shishkin_hdg.refelem import CellQuad


@pytest.fixture(scope="module")
def setting():
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(8, 1e-2, 2.0, 1.0, 2.0))
    return mesh, spec


def _scaled(f, a):
    return SolutionFields(f.k, a * f.q1, a * f.q2, a * f.u, a * f.trace)


def _zero_fields(mesh, k):
    nb = (k + 1) ** 2
    return SolutionFields(k, np.zeros((mesh.n_cells, nb)),
                          np.zeros((mesh.n_cells, nb)),
                          np.zeros((mesh.n_cells, nb)),
                          np.zeros((mesh.n_edges, k + 1)))


def _norm(mesh, spec, fields, n=5, tau=3.0):
    cq = CellQuad(mesh, n)
    return energy_norm(energy_weights(cq, spec, tau),
                       triple_values_discrete(cq, fields)).total


def test_zero_triple_has_zero_norm(setting):
    mesh, spec = setting
    cq = CellQuad(mesh, 5)
    vals = triple_values_discrete(cq, _zero_fields(mesh, 1))
    res = energy_norm(energy_weights(cq, spec, 3.0), vals)
    assert res.total == 0.0
    assert res.q_part_sq == res.reaction_part_sq == res.jump_part_sq == 0.0


def test_homogeneity(setting):
    mesh, spec = setting
    rng = np.random.default_rng(2)
    f = random_fields(mesh, 1, rng)
    n1 = _norm(mesh, spec, f)
    n3 = _norm(mesh, spec, _scaled(f, -3.0))
    assert np.isclose(n3, 3.0 * n1, rtol=1e-12)


def test_triangle_inequality(setting):
    mesh, spec = setting
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_fields(mesh, 1, rng)
        b = random_fields(mesh, 1, rng)
        s = SolutionFields(1, a.q1 + b.q1, a.q2 + b.q2, a.u + b.u,
                           a.trace + b.trace)
        na, nb, ns = (_norm(mesh, spec, f) for f in (a, b, s))
        assert ns <= na + nb + 1e-10 * (na + nb)


def test_constant_one_reaction_weight(setting):
    # w = 1, r = 0, mu = trace of w: only the reaction part survives and
    # equals int (c - div beta / 2) = int (3/2 + 3/2 y^2) = 2 on the unit square
    mesh, spec = setting
    f = _zero_fields(mesh, 1)
    f.u[:, 0] = 2.0  # the constant basis function is 1/2 on each cell
    cq = CellQuad(mesh, 6)
    vals = triple_values_discrete(cq, f)
    vals.mu[:] = vals.w_tr  # matching trace kills the jump term
    res = energy_norm(energy_weights(cq, spec, 3.0), vals)
    assert res.q_part_sq == 0.0
    assert np.isclose(res.jump_part_sq, 0.0, atol=1e-14)
    assert np.isclose(res.reaction_part_sq, 2.0, rtol=1e-12)
    # against zero fields the L2 errors are the norms of the exact solution
    # u = x(1-x) y(1-y): ||u|| = int x^2 (1-x)^2 = 1/30 and
    # ||q|| = eps ||grad u|| = eps sqrt(2 * 1/3 * 1/30) = eps / sqrt(45)
    spec = polynomial_problem(1e-2)
    cfg = HdgConfig(1)
    exact = exact_values(CellQuad(mesh, cfg.n_error), spec)
    assert exact.batches  # the layer cells are corrected too
    rep = error_report(exact, spec, cfg, _zero_fields(mesh, 1))
    assert np.isclose(rep.l2_error_u, 1.0 / 30.0, rtol=1e-12, atol=0.0)
    assert np.isclose(rep.l2_error_q, 1e-2 / np.sqrt(45.0), rtol=1e-12,
                      atol=0.0)


def test_region_breakdown_sums_to_cell_parts(setting):
    mesh, spec = setting
    rng = np.random.default_rng(4)
    f = random_fields(mesh, 1, rng)
    cq = CellQuad(mesh, 5)
    res = energy_norm(energy_weights(cq, spec, 3.0),
                      triple_values_discrete(cq, f))
    cell_total = res.q_part_sq + res.reaction_part_sq
    assert np.isclose(sum(res.region_cell_sq.values()), cell_total,
                      rtol=1e-12)
    assert set(res.region_cell_sq) == {"smooth", "x_layer", "y_layer",
                                       "corner_layer"}


def test_negative_jump_weight_raises(setting):
    mesh, spec = setting
    with pytest.raises(StabilizationError):
        # max |beta.n|/2 = 1.5 > 0.5
        energy_weights(CellQuad(mesh, 5), spec, 0.5)


def test_error_report_consistency(setting):
    mesh, spec = setting
    cfg = HdgConfig(1)
    fields = assemble_and_solve(mesh, spec, cfg)
    cq = CellQuad(mesh, cfg.n_error)
    exact = exact_values(cq, spec)
    proj = project_exact(exact, 1)
    rep = error_report(exact, spec, cfg, fields, projected=proj)
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
    pvals = triple_values_discrete(cq, proj)
    eta = energy_norm(energy_weights(cq, spec, cfg.tau),
                      triple_sub(exact.vals, pvals)).total
    assert rep.energy_error <= eta + rep.supercloseness_error + 1e-10


@settings(max_examples=15)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_error_report_parts_add_up(k, N, eps):
    spec = paper_problem(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeshAssumptionWarning)
        mesh = build_mesh(MeshConfig(N, eps, k + 1.0, *spec.beta_lb))
    cfg = HdgConfig(k)
    exact = exact_values(CellQuad(mesh, cfg.n_error), spec)
    rep = error_report(exact, spec, cfg, assemble_and_solve(mesh, spec, cfg))
    cell_sq = rep.q_part_sq + rep.reaction_part_sq
    assert np.isclose(rep.energy_error**2, cell_sq + rep.jump_part_sq,
                      rtol=1e-12, atol=0.0)
    assert np.isclose(sum(rep.region_cell_sq.values()), cell_sq, rtol=1e-10,
                      atol=0.0)
    assert np.isclose(eps * rep.q_part_sq, rep.l2_error_q**2, rtol=1e-12,
                      atol=0.0)


def test_error_report_evaluates_no_exact_field():
    # the exact solution is evaluated once per rule, by exact_values; the
    # error measures, the layer-cell corrections included, only read it
    spec = paper_problem(1e-6)
    mesh = build_mesh(MeshConfig(8, 1e-6, 2.0, *spec.beta_lb))
    cfg = HdgConfig(1)
    fields = assemble_and_solve(mesh, spec, cfg)
    exact = exact_values(CellQuad(mesh, cfg.n_error), spec)
    proj = project_exact(exact, 1)
    assert exact.batches

    def evaluated(x, y):
        raise AssertionError("exact solution evaluated again")

    bare = dataclasses.replace(spec, exact=dataclasses.replace(
        spec.exact, u=evaluated, u_x=evaluated, u_y=evaluated))
    rep = error_report(exact, bare, cfg, fields, projected=proj)
    assert rep == error_report(exact, spec, cfg, fields, projected=proj)


def test_supercloseness_zero_for_identical_fields(setting):
    mesh, spec = setting
    cfg = HdgConfig(1)
    fields = assemble_and_solve(mesh, spec, cfg)
    exact = exact_values(CellQuad(mesh, cfg.n_error), spec)
    rep = error_report(exact, spec, cfg, fields, projected=fields)
    assert rep.supercloseness_error == 0.0


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
    a = triple_values_exact(CellQuad(mesh, 4), spec)
    b = triple_values_exact(CellQuad(mesh, 5), spec)
    with pytest.raises(ValueError):
        triple_sub(a, b)


def test_exact_triple_requires_exact_solution(setting):
    mesh, spec = setting
    bare = type(spec)(spec.name, spec.epsilon, spec.beta1, spec.beta2,
                      spec.c, spec.div_beta, spec.f, spec.beta_lb, spec.c0,
                      None)
    with pytest.raises(ValueError):
        triple_values_exact(CellQuad(mesh, 4), bare)
    with pytest.raises(ValueError):
        exact_values(CellQuad(mesh, 4), bare)
