"""Energy norm, error reports and convergence-rate formulas."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_hdg import layerquad, norms
from shishkin_hdg.assembly import HdgConfig, SolutionFields, assemble_and_solve, random_fields
from shishkin_hdg.mesh import MeshAssumptionWarning, build_mesh
from shishkin_hdg.norms import (StabilizationError, convergence_rate,
                                dyadic_rate, energy_norm, energy_weights,
                                error_report, exact_values, triple_sub,
                                triple_values_discrete)
from shishkin_hdg.problems import paper_problem, polynomial_problem
from shishkin_hdg.projections import project_exact
from shishkin_hdg.refelem import CellQuad, gauss_rule


@pytest.fixture(scope="module")
def setting():
    spec = paper_problem(1e-2)
    mesh = build_mesh(8, 1e-2, 2.0, 1.0, 2.0)
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
                       triple_values_discrete(cq, fields))


def test_zero_triple_has_zero_norm(setting):
    mesh, spec = setting
    cq = CellQuad(mesh, 5)
    vals = triple_values_discrete(cq, _zero_fields(mesh, 1))
    # the norm is the root of a sum of three nonnegative parts
    assert energy_norm(energy_weights(cq, spec, 3.0), vals) == 0.0


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
    # w = 1, r = 0, mu = trace of w: only the reaction part survives, so
    # the norm squared is int (c - div beta / 2) = int (3/2 + 3/2 y^2) = 2
    # on the unit square
    mesh, spec = setting
    f = _zero_fields(mesh, 1)
    f.u[:, 0] = 2.0  # the constant basis function is 1/2 on each cell
    # matching trace 1 kills the jump term; the constant edge basis
    # function is 1/sqrt(2)
    f.trace[:, 0] = np.sqrt(2.0)
    cq = CellQuad(mesh, 6)
    nrm = energy_norm(energy_weights(cq, spec, 3.0),
                      triple_values_discrete(cq, f))
    assert np.isclose(nrm**2, 2.0, rtol=1e-12, atol=0.0)
    # against zero fields the L2 errors are the norms of the exact solution
    # u = x(1-x) y(1-y): ||u|| = int x^2 (1-x)^2 = 1/30 and
    # ||q|| = eps ||grad u|| = eps sqrt(2 * 1/3 * 1/30) = eps / sqrt(45)
    spec = polynomial_problem(1e-2)
    cfg = HdgConfig(1)
    # the layer cells are corrected too
    assert layerquad.layer_batches(mesh, spec, cfg.n_error, cfg.k)
    rep = error_report(CellQuad(mesh, cfg.n_error), spec, cfg,
                       _zero_fields(mesh, 1))
    assert np.isclose(rep.l2_error_u, 1.0 / 30.0, rtol=1e-12, atol=0.0)
    assert np.isclose(rep.l2_error_q, 1e-2 / np.sqrt(45.0), rtol=1e-12,
                      atol=0.0)


def test_region_breakdown_sums_to_cell_parts(setting):
    # the error report splits the cell parts of the error of a random
    # triple over the four regions
    mesh, spec = setting
    rng = np.random.default_rng(4)
    cfg = HdgConfig(1)
    rep = error_report(CellQuad(mesh, cfg.n_error), spec, cfg,
                       random_fields(mesh, 1, rng))
    cell_total = rep.q_part_sq + rep.reaction_part_sq
    assert np.isclose(sum(rep.region_cell_sq.values()), cell_total,
                      rtol=1e-12)
    assert set(rep.region_cell_sq) == {"smooth", "x_layer", "y_layer",
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
    rep = error_report(cq, spec, cfg, fields, project_exact)
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
    # |||e||| <= |||exact - projection||| + |||projection - discrete|||;
    # the 64 cells are one block
    [exact] = exact_values(cq, spec, cfg.k)
    pvals = triple_values_discrete(cq, project_exact(exact, 1))
    eta = energy_norm(energy_weights(cq, spec, cfg.tau),
                      triple_sub(exact.vals, pvals))
    assert rep.energy_error <= eta + rep.supercloseness_error + 1e-10


@settings(max_examples=15)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_error_report_parts_add_up(k, N, eps):
    spec = paper_problem(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeshAssumptionWarning)
        mesh = build_mesh(N, eps, k + 1.0, *spec.beta_lb)
    cfg = HdgConfig(k)
    rep = error_report(CellQuad(mesh, cfg.n_error), spec, cfg,
                       assemble_and_solve(mesh, spec, cfg))
    cell_sq = rep.q_part_sq + rep.reaction_part_sq
    assert np.isclose(rep.energy_error**2, cell_sq + rep.jump_part_sq,
                      rtol=1e-12, atol=0.0)
    assert np.isclose(sum(rep.region_cell_sq.values()), cell_sq, rtol=1e-10,
                      atol=0.0)
    assert np.isclose(eps * rep.q_part_sq, rep.l2_error_q**2, rtol=1e-12,
                      atol=0.0)


def test_error_report_evaluates_no_exact_field(monkeypatch):
    # the exact solution is evaluated once per rule, block by block, by
    # exact_values; the projection and the error measures, the layer-cell
    # corrections included, only read it
    spec = paper_problem(1e-6)
    mesh = build_mesh(8, 1e-6, 2.0, *spec.beta_lb)
    cfg = HdgConfig(1)
    cq = CellQuad(mesh, cfg.n_error)
    fields = assemble_and_solve(mesh, spec, cfg)
    want = error_report(cq, spec, cfg, fields, project_exact)
    monkeypatch.setattr(norms, "BLOCK_CELLS", 3 * mesh.ny)  # three blocks
    blocks = list(exact_values(cq, spec, cfg.k))
    assert len(blocks) == 3 and all(b.batches for b in blocks)

    def evaluated(x, y):
        raise AssertionError("exact solution evaluated again")

    bare = dataclasses.replace(spec, exact=dataclasses.replace(
        spec.exact, u=evaluated, u_x=evaluated, u_y=evaluated))
    # exact_values reads the whole problem; everything else the bare one
    real = norms.exact_values
    monkeypatch.setattr(norms, "exact_values",
                        lambda cq, _, k: real(cq, spec, k))
    assert error_report(cq, bare, cfg, fields, project_exact) == want


def test_error_report_never_holds_the_whole_mesh_point_values():
    # the values at the cell points exist for one block of whole columns
    # at a time; only per-cell arrays and edge values span the whole mesh.
    # At k = 2, N = 64 the traced peak of the measures above the solved
    # fields reads 16.9 MB, 6.3 MB of it the composite layer batches; the
    # whole mesh at once read 28.2 MB.
    k, N, eps = 2, 64, 1e-6
    spec = paper_problem(eps)
    mesh = build_mesh(N, eps, k + 1.0, *spec.beta_lb)
    cfg = HdgConfig(k)
    cq = CellQuad(mesh, cfg.n_error)
    fields = assemble_and_solve(mesh, spec, cfg)
    # the reference tables and rules are cached on first use, not per solve
    error_report(cq, spec, cfg, fields, project_exact)
    tracemalloc.start()
    try:
        error_report(cq, spec, cfg, fields, project_exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19e6, peak


def test_supercloseness_zero_for_identical_fields(setting):
    mesh, spec = setting
    cfg = HdgConfig(1)
    fields = assemble_and_solve(mesh, spec, cfg)

    def project(exact, k, trace=None):  # the fields' rows of the block
        rows = slice(exact.cells.start, exact.cells.stop)
        return dataclasses.replace(fields, q1=fields.q1[rows],
                                   q2=fields.q2[rows], u=fields.u[rows])

    rep = error_report(CellQuad(mesh, cfg.n_error), spec, cfg, fields,
                       project)
    assert rep.supercloseness_error == 0.0


@settings(max_examples=25)
@given(N=st.sampled_from([4, 8, 16, 32]), n=st.integers(1, 6),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_outward_normal_beta_obeys_the_divergence_theorem(N, n, eps):
    # beta = (x, y) has divergence 2, so the outward flux of beta through
    # the sides of a cell is 2 hx hy; beta.n is constant on each side, so
    # every rule integrates it exactly
    spec = dataclasses.replace(paper_problem(eps), beta1=lambda x, y: x,
                               beta2=lambda x, y: y)
    mesh = build_mesh(N, eps, 2.0, 1.0, 2.0)
    terms = (mesh.half_side[:, :, None] * gauss_rule(n).weights
             * norms.edge_normal_beta(CellQuad(mesh, n), spec))
    err = terms.sum(axis=(1, 2)) - 2.0 * mesh.cell_hx * mesh.cell_hy
    assert np.all(np.abs(err) <= 1e-13 * np.abs(terms).sum(axis=(1, 2)))


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
