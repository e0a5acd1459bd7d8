"""HDG assembly, condensation, solve pipeline and its invariants."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import assemble_monolithic, solve_monolithic
from shishkin_hdg import assembly
from shishkin_hdg.assembly import (HdgConfig, SolutionFields, _recover,
                                   _trace_dofs, assemble_and_solve,
                                   assemble_trace_system, bilinear_form,
                                   build_local_systems, check_stabilization,
                                   condense, flux_continuity_residual,
                                   galerkin_residual, random_fields)
from shishkin_hdg.linalg import SolveError, SparseMatrix
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
    # zero unknowns split into zero fields of the right shapes, with zero
    # traces on every edge, the boundary edges included
    nb = 9
    z = SolutionFields.from_unknowns(mesh, 2, np.zeros((16, 3 * nb)),
                                     np.zeros(mesh.n_interior_edges * 3))
    for coef in (z.q1, z.q2, z.u):
        assert coef.shape == (16, nb) and not coef.any()
    assert z.trace.shape == (mesh.n_edges, 3) and not z.trace.any()


def _coo_trace_system(mesh, cond, k):
    """The trace system scattered from coordinate triplets of the whole
    mesh's Schur blocks, duplicates summed."""
    td = _trace_dofs(mesh, k)
    rows = np.broadcast_to(td[:, :, None], cond.S.shape)
    cols = np.broadcast_to(td[:, None, :], cond.S.shape)
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_interior_edges * (k + 1)
    A = sp.coo_matrix((cond.S[keep], (rows[keep], cols[keep])),
                      shape=(n, n)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    b = np.zeros(n)
    valid = td >= 0
    np.add.at(b, td[valid], cond.rhs[valid])
    return A, b


@settings(max_examples=20, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_streamed_assembly_is_bit_identical_to_the_whole_mesh(k, N, eps):
    spec = paper_problem(eps)
    mesh = build_mesh(MeshConfig(N, eps, k + 1.0, 1.0, 2.0))
    cfg = HdgConfig(k)
    whole = condense(build_local_systems(mesh, spec, cfg))
    A_coo, b_coo = _coo_trace_system(mesh, whole, k)
    ref = _recover(mesh, whole.IF, whole.IC, k,
                   SparseMatrix(A_coo).solve(b_coo))
    # blocks of 7 cells straddle mesh columns and leave a partial last one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "CELL_BLOCK", 7)
        fields = assemble_and_solve(mesh, spec, cfg)
    for name in ("q1", "q2", "u", "trace"):
        assert np.array_equal(getattr(fields, name), getattr(ref, name))
    A, b = assemble_trace_system(mesh, whole, k)
    A_csc = A_coo.tocsc()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A.csc, name), getattr(A_csc, name))
    assert np.array_equal(b, b_coo)


def test_singular_block_names_its_global_cell(monkeypatch):
    # cell 12 is the sixth cell of the second block of 7
    spec = paper_problem(1e-2)
    mesh = build_mesh(MeshConfig(4, 1e-2, 2.0, 1.0, 2.0))
    build = assembly.build_local_systems

    def singular_cell_12(*args):
        blocks = build(*args)
        if 12 in blocks.cells:
            blocks.A[blocks.cells.index(12)] = 0.0
        return blocks

    monkeypatch.setattr(assembly, "CELL_BLOCK", 7)
    monkeypatch.setattr(assembly, "build_local_systems", singular_cell_12)
    with pytest.raises(SolveError, match=r"singular interior block in cell 12;"):
        assemble_and_solve(mesh, spec, HdgConfig(1))


def test_assembly_never_holds_the_whole_mesh_local_systems():
    # the whole mesh's dense local systems A, C, G and D never exist at
    # once: the traced peak stays below their size (49.8 MB here; the
    # whole-mesh assembly peaked at 100.7 MB, the cell blocks at 40.1 MB).
    # SuperLU's own allocations are not traced.
    k, N, eps = 2, 64, 1e-6
    spec = paper_problem(eps)
    mesh = build_mesh(MeshConfig(N, eps, k + 1.0, 1.0, 2.0))
    ni, nt = 3 * (k + 1) ** 2, 4 * (k + 1)
    local_bytes = mesh.n_cells * (ni + nt) ** 2 * 8
    tracemalloc.start()
    try:
        assemble_and_solve(mesh, spec, HdgConfig(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < local_bytes, (peak, local_bytes)
