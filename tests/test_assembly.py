"""HDG assembly, condensation, solve pipeline and its invariants."""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import admissible_problems, drawn_mesh
from dense_oracle import assemble_monolithic, solve_monolithic
from shishkin_hdg import assembly, linalg
from shishkin_hdg.assembly import (HdgConfig, assemble_and_solve,
                                   bilinear_form, build_local_systems,
                                   check_stabilization, condense,
                                   galerkin_residual, random_fields)
from shishkin_hdg.linalg import (SolveError, SparseMatrix,
                                 assemble_trace_system)
from shishkin_hdg.mesh import (SIDES, MeshAssumptionWarning, box_plan,
                               build_mesh)
from shishkin_hdg.norms import StabilizationError
from shishkin_hdg import norms
from shishkin_hdg.problems import paper_problem, polynomial_problem
from shishkin_hdg.refelem import CellQuad, gauss_rule


def _energy_error(mesh, spec, cfg, fields):
    cq = CellQuad(mesh, cfg.n_error)
    diff = norms.triple_sub(norms.triple_values_exact(cq, spec),
                            norms.triple_values_discrete(cq, fields))
    return norms.energy_norm(norms.energy_weights(cq, spec, cfg.tau), diff)


def test_config_validation():
    with pytest.raises(ValueError):
        HdgConfig(0)
    # tau must be finite and positive; NaN and inf fail too
    for tau in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            HdgConfig(1, tau=tau)
    # either rule below k+1 points is rejected; 0 is a value, not "unset"
    # and so is either rule above the largest supported Gauss rule
    for bad in (dict(quad_assembly=2), dict(quad_error=2),
                dict(quad_assembly=0), dict(quad_error=0),
                dict(quad_assembly=31), dict(quad_error=31)):
        with pytest.raises(ValueError):
            HdgConfig(2, **bad)
    cfg = HdgConfig(2)
    assert cfg.n_assembly == 4 and cfg.n_error == 6
    assert HdgConfig(2, quad_assembly=3, quad_error=3).n_error == 3


def test_stabilization_check():
    spec = paper_problem(1e-2)
    mesh = build_mesh(4, 1e-2, 2.0, 1.0, 2.0)
    bn = norms.edge_normal_beta(CellQuad(mesh, 3), spec)
    assert check_stabilization(bn, 3.0) == 1.5  # max |beta.n| = beta2(x, 0)
    with pytest.raises(StabilizationError):
        check_stabilization(bn, 0.1)
    with pytest.raises(StabilizationError):  # a NaN beta.n
        check_stabilization(np.append(bn, np.nan), 3.0)
    # the local systems are not built under a violating tau
    with pytest.raises(StabilizationError):
        build_local_systems(mesh, spec, HdgConfig(1, 0.1))


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=6)
@given(data=st.data(), N=st.sampled_from([4, 8, 16]),
       sigma=st.floats(0.5, 4.0))
def test_polynomial_solution_reproduced_exactly(k, data, N, sigma):
    # a drawn admissible problem's u lies in Q^k, so for k >= 2 the
    # discrete solution must reproduce it to rounding on any mesh
    spec, tau = data.draw(admissible_problems(k), label="problem")
    mesh = drawn_mesh(spec, N, sigma)
    cfg = HdgConfig(k, tau)
    fields = assemble_and_solve(mesh, spec, cfg)
    cq = CellQuad(mesh, cfg.n_error)
    size = norms.energy_norm(norms.energy_weights(cq, spec, tau),
                             norms.triple_values_exact(cq, spec))
    assert _energy_error(mesh, spec, cfg, fields) <= 1e-9 * size


# the paper's problem, whose layers make the local systems ill-conditioned,
# with the default tau = 3 > max |beta.n|/2 = 3/2
_paper_problems = st.floats(-8.0, -2.0).map(  # eps log-uniform
    lambda p: (paper_problem(10.0 ** p), 3.0))


@settings(max_examples=16)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8]), data=st.data())
def test_dense_monolithic_equivalence(k, N, data):
    spec, tau = data.draw(st.one_of(_paper_problems, admissible_problems(k)),
                          label="problem")
    mesh = drawn_mesh(spec, N, k + 1.0)
    cfg = HdgConfig(k, tau)
    a = assemble_and_solve(mesh, spec, cfg)
    b = solve_monolithic(mesh, spec, cfg)
    scale = max(np.abs(a.u).max(), 1.0)
    for name in ("q1", "q2", "u", "trace"):
        da = getattr(a, name)
        db = getattr(b, name)
        assert np.max(np.abs(da - db)) < 1e-9 * scale


def test_monolithic_size_guard():
    spec = paper_problem(1e-2)
    mesh = build_mesh(32, 1e-2, 3.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        assemble_monolithic(mesh, spec, HdgConfig(2))


def test_galerkin_residual_small():
    spec = paper_problem(1e-2)
    mesh = build_mesh(8, 1e-2, 2.0, 1.0, 2.0)
    for k in (1, 2):
        assert galerkin_residual(mesh, spec, HdgConfig(k)) < 1e-10


def _flux_continuity_of_fields(cq, spec, cfg, fields):
    """The mu rows of B(fields; test) alone, max over interior edges, and
    the largest single-cell contribution to a row, for scale."""
    mesh = cq.mesh
    R = norms.ref_tables(cfg.k, cq.n)
    w_tr = np.stack([fields.u @ tab for tab in R.side_traces], axis=1)
    mu = (fields.trace @ R.V)[mesh.cell_edges]
    q = (fields.q1, fields.q2)
    rn = np.stack([sign * (q[axis] @ R.side_traces[s])
                   for s, (axis, sign) in enumerate(SIDES)], axis=1)
    flux = rn + norms.edge_normal_beta(cq, spec) * mu + cfg.tau * (w_tr - mu)
    part = np.sqrt(mesh.half_side)[:, :, None] * np.einsum(
        "csg,eg->cse", flux * gauss_rule(cq.n).weights, R.V)
    rows = np.zeros((mesh.n_edges, cfg.k + 1))
    np.add.at(rows, mesh.cell_edges, part)
    return float(np.abs(rows[~mesh.edge_boundary]).max()), \
        float(np.abs(part).max())


def test_flux_continuity_after_solve():
    spec = paper_problem(1e-2)
    mesh = build_mesh(8, 1e-2, 2.0, 1.0, 2.0)
    cfg = HdgConfig(1)
    fields = assemble_and_solve(mesh, spec, cfg)
    cq = CellQuad(mesh, cfg.n_assembly)
    # the exact flux and trace are single-valued, so the error's mu rows
    # are the fields' own, up to rounding at the scale of one cell's terms
    got = norms.bilinear_residual(cq, spec, cfg, fields)["mu"]
    want, scale = _flux_continuity_of_fields(cq, spec, cfg, fields)
    assert abs(got - want) <= 1e-13 * scale
    assert got < 1e-10


@settings(max_examples=10)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 12, 16]),
       sigma=st.floats(0.5, 4.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_coercivity_equals_energy_norm_for_random_triples(k, N, sigma, seed,
                                                          data):
    # B(xi, xi) = |||xi|||^2 holds exactly for this scheme, on any mesh and
    # for any admissible coefficients
    spec, tau = data.draw(admissible_problems(k), label="problem")
    mesh = drawn_mesh(spec, N, sigma)
    cfg = HdgConfig(k, tau)
    rng = np.random.default_rng(seed)
    wts = norms.energy_weights(CellQuad(mesh, cfg.n_error), spec, cfg.tau)
    for _ in range(3):
        xi = random_fields(mesh, k, rng)
        b = bilinear_form(xi, mesh, spec, cfg)
        vals = norms.triple_values_discrete(wts.cq, xi)
        nrm2 = norms.energy_norm(wts, vals) ** 2
        assert abs(b - nrm2) <= 1e-10 * nrm2


def test_condense_schur_identity():
    spec = paper_problem(1e-2)
    mesh = build_mesh(4, 1e-2, 2.0, 1.0, 2.0)
    blocks = build_local_systems(mesh, spec, HdgConfig(1))
    S = condense(blocks)[0]
    c = 3
    S_ref = blocks.D[c] - blocks.G[c] @ np.linalg.solve(blocks.A[c],
                                                        blocks.C[c])
    assert np.allclose(S[c], S_ref, atol=1e-12)


@settings(max_examples=15)
@given(k=st.integers(1, 3), extra=st.integers(0, 21), data=st.data())
def test_local_systems_do_not_depend_on_the_block_size(k, extra, data):
    # a cell's local system comes out bit for bit the same in a block of
    # any size, a single cell too, also under rules of many points
    spec = paper_problem(1e-4)
    mesh = build_mesh(8, 1e-4, 2.0, 1.0, 2.0)
    cfg = HdgConfig(k, quad_assembly=k + 1 + extra)
    whole = build_local_systems(mesh, spec, cfg)
    start = data.draw(st.integers(0, mesh.n_cells - 1), label="start")
    stop = data.draw(st.integers(start + 1, mesh.n_cells), label="stop")
    part = build_local_systems(mesh, spec, cfg, range(start, stop))
    for name in ("A", "FC", "G", "D"):
        assert np.array_equal(getattr(part, name),
                              getattr(whole, name)[start:stop])


def test_solve_leaves_the_mesh_as_built():
    # the trace block pattern is built per assembly and not kept on the
    # mesh, which holds only what build_mesh set
    mesh = build_mesh(8, 1e-3, 2.0, 1.0, 2.0)
    keys = set(vars(mesh))
    assemble_and_solve(mesh, paper_problem(1e-3), HdgConfig(1))
    assert set(vars(mesh)) == keys


def test_zero_source_gives_zero_solution():
    spec = polynomial_problem(1.0)
    zero = type(spec)(spec.name, spec.epsilon, spec.beta1, spec.beta2,
                      spec.c, spec.div_beta, lambda x, y: 0.0 * x, spec.beta_lb,
                      spec.c0, None)
    with pytest.warns(MeshAssumptionWarning):  # eps = 1 > 1/N
        mesh = build_mesh(4, 1.0, 2.0, 1.0, 2.0)
    fields = assemble_and_solve(mesh, zero, HdgConfig(1))
    assert np.max(np.abs(fields.u)) < 1e-13
    assert np.max(np.abs(fields.trace)) < 1e-13


def _trace_dofs(mesh, k, index):
    """(ncells, 4(k+1)) interior trace dof ids of each cell, the edge with
    index i >= 0 holding dofs i(k+1) to i(k+1) + k; -1 on the edges with a
    negative index, the boundary edges."""
    ie = index[mesh.cell_edges][:, :, None]
    return np.where(ie >= 0, ie * (k + 1) + np.arange(k + 1),
                    -1).reshape(mesh.n_cells, -1)


def _by_id(mesh):
    """The interior edges numbered by ascending id, -1 on boundary edges."""
    inner = ~mesh.edge_boundary
    return np.where(inner, np.cumsum(inner) - 1, -1)


def _coo_trace_system(mesh, S, rhs, k, index):
    """The interior-trace system scattered from coordinate triplets of the
    whole mesh's Schur blocks S and right-hand sides rhs, duplicates
    summed, its unknowns numbered by index (_trace_dofs)."""
    td = _trace_dofs(mesh, k, index)
    rows = np.broadcast_to(td[:, :, None], S.shape)
    cols = np.broadcast_to(td[:, None, :], S.shape)
    keep = (rows >= 0) & (cols >= 0)
    n = int((~mesh.edge_boundary).sum()) * (k + 1)
    A = sp.coo_matrix((S[keep], (rows[keep], cols[keep])),
                      shape=(n, n)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    b = np.zeros(n)
    valid = td >= 0
    np.add.at(b, td[valid], rhs[valid])
    return A, b


def _sparse(matrix):
    """linalg.SparseMatrix of a square scipy test matrix."""
    coo = matrix.tocoo()
    return SparseMatrix(coo.data, coo.row, coo.col, coo.shape[0])


def _full_recovery_operators(blocks):
    """Every row of A^{-1} F and A^{-1} C of each cell, solved as condense
    solves them."""
    sol = np.linalg.solve(blocks.A, blocks.FC)
    return sol[:, :, 0], sol[:, :, 1:]


def _recover(mesh, IF, IC, k, x):
    """Interior unknowns of every cell from the interior traces x, numbered
    by _by_id, and the full recovery operators, split into (q1, q2, u) and
    the per-edge traces, zero on boundary edges."""
    v = IF - np.einsum("cij,cj->ci", IC,
                       np.append(x, 0.0)[_trace_dofs(mesh, k, _by_id(mesh))])
    trace = np.zeros((mesh.n_edges, k + 1))
    trace[~mesh.edge_boundary] = x.reshape(-1, k + 1)
    return np.split(v, 3, axis=1) + [trace]


@settings(max_examples=25)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8]), data=st.data())
def test_trace_matrix_is_positive_real(k, N, data):
    # B(xi, xi) = |||xi|||^2 makes the symmetric part of -A, A the interior
    # trace matrix, positive definite for an admissible problem, so no
    # separator block of the box tree is singular. Its least eigenvalue is
    # held above n u ||.||_2, eigvalsh's backward error bound: over 60
    # draws the eigensolve and a relative 2.2e-16 change of S moved it by
    # at most 8.5e-15 max|A|, and it read at least 5.6e-7 max|A|
    spec, tau = data.draw(admissible_problems(k), label="problem")
    mesh = drawn_mesh(spec, N, k + 1.0)
    S, rhs, _, _ = condense(build_local_systems(mesh, spec,
                                                HdgConfig(k, tau)))
    A = _coo_trace_system(mesh, S, rhs, k, _by_id(mesh))[0].toarray()
    lam = np.linalg.eigvalsh(-(A + A.T) / 2)
    assert lam[0] > len(lam) * np.finfo(float).eps * np.abs(lam).max()
    # and the tree meets its gate: a fallback warning is an error here
    linalg.solve_box_tree(mesh, np.concatenate([S, rhs[:, :, None]], axis=2))


@settings(max_examples=30)
@given(k=st.integers(1, 3), N=st.integers(1, 16).map(lambda m: 4 * m))
def test_csc_layout_places_every_cell_entry(k, N):
    # the matrix of the cells' (side, side) blocks summed by scipy under
    # the box tree's numbering equals the tests' own coordinate sum under
    # the same numbering, entry for entry
    mesh = build_mesh(N, 1e-6, 2.0, 1.0, 2.0)
    kp = k + 1
    # distinct values per cell entry, so a misplaced one shows
    rng = np.random.default_rng(N * 4 + k)
    Sr = rng.standard_normal((mesh.n_cells, 4 * kp, 4 * kp + 1))
    A, b, pos = assemble_trace_system(mesh, Sr, box_plan(N, N))
    # pos numbers every edge, the boundary edges first
    nbe = int(mesh.edge_boundary.sum())
    assert np.array_equal(np.sort(pos), np.arange(mesh.n_edges))
    assert np.all(pos[mesh.edge_boundary] < nbe)
    nb = kp * nbe
    assert A.n == kp * mesh.n_edges and b.shape == (A.n,)
    # the boundary dofs: identity rows and columns, zero right-hand side
    edge = A.csc[:, :nb]
    assert np.array_equal(edge.indptr, np.arange(nb + 1))
    assert np.array_equal(edge.indices, np.arange(nb))
    assert np.all(edge.data == 1.0)
    assert A.csc[:nb, nb:].nnz == 0 and not b[:nb].any()
    # the interior dofs
    A_coo, b_coo = _coo_trace_system(mesh, Sr[:, :, :-1], Sr[:, :, -1], k,
                                     pos - nbe)
    inner = A.csc[nb:, nb:].tocsr()
    inner.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(inner, name), getattr(A_coo, name))
    assert np.array_equal(b[nb:], b_coo)


@settings(max_examples=20)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 12, 16, 20, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_streamed_assembly_is_bit_identical_to_the_whole_mesh(k, N, eps):
    spec = paper_problem(eps)
    mesh = build_mesh(N, eps, k + 1.0, 1.0, 2.0)
    cfg = HdgConfig(k)
    blocks = build_local_systems(mesh, spec, cfg)
    S, rhs, _, _ = condense(blocks)
    IF_full, IC_full = _full_recovery_operators(blocks)
    iu = slice(2 * (k + 1) ** 2, None)
    A_coo, b_coo = _coo_trace_system(mesh, S, rhs, k, _by_id(mesh))
    ref = _recover(mesh, IF_full, IC_full, k, _sparse(A_coo).solve(b_coo))
    fields = []
    # blocks of 7, 3 and 5 cells straddle mesh columns and mostly leave a
    # partial last one
    for block_cells in (7, 3, 5, 256):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "BLOCK_CELLS", block_cells)
            Sr, IF, IC = assembly._condensed_cells(mesh, spec, cfg)
            fields.append(assemble_and_solve(mesh, spec, cfg))
        assert np.array_equal(Sr[:, :, :-1], S)
        assert np.array_equal(Sr[:, :, -1], rhs)
        # only the u-rows of the recovery operators are kept
        assert np.array_equal(IF, IF_full[:, iu])
        assert np.array_equal(IC, IC_full[:, iu])
    # a cell's Schur complement does not depend on its block, so neither
    # does the box-tree solve
    for got in fields[:-1]:
        for name in ("q1", "q2", "u", "trace"):
            assert np.array_equal(getattr(got, name),
                                  getattr(fields[-1], name))
    # the tree solve agrees with SuperLU's to the tolerance of
    # test_linalg.py::test_condensed_solve_matches_colamd; the flux comes
    # from equation (i) instead of the full operators
    for name, want in zip(("q1", "q2", "u", "trace"), ref):
        got = getattr(fields[-1], name)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert not fields[-1].trace[mesh.edge_boundary].any()


@settings(max_examples=10)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 16]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_recovered_flux_satisfies_equation_i(k, N, eps):
    # A_qq q + A_qu u + C_q t = 0 on the flux rows of every cell, to
    # rounding relative to the largest of the three terms in that cell
    spec = paper_problem(eps)
    mesh = build_mesh(N, eps, k + 1.0, 1.0, 2.0)
    cfg = HdgConfig(k)
    fields = assemble_and_solve(mesh, spec, cfg)
    blocks = build_local_systems(mesh, spec, cfg)
    iq, iu = slice(0, 2 * (k + 1) ** 2), slice(2 * (k + 1) ** 2, None)
    q = np.concatenate([fields.q1, fields.q2], axis=1)
    t = fields.trace[mesh.cell_edges].reshape(mesh.n_cells, -1)
    terms = [np.einsum("cij,cj->ci", blocks.A[:, iq, iq], q),
             np.einsum("cij,cj->ci", blocks.A[:, iq, iu], fields.u),
             np.einsum("cij,cj->ci", blocks.C[:, iq], t)]
    scale = np.max([np.abs(x).max(axis=1) for x in terms], axis=0)
    assert np.all(np.abs(sum(terms)).max(axis=1) <= 1e-12 * scale)


def test_blocks_are_never_below_256_cells():
    # a block is 256 cells, so a mesh's block count (and the local-system
    # build count) is fixed, and at most 256 cells' dense systems exist at
    # once
    assert assembly.BLOCK_CELLS == 256


def test_singular_block_names_its_global_cell(monkeypatch):
    # in blocks of 3 cells, cell 12 is the first cell of the fifth block,
    # built on the calling thread
    spec = paper_problem(1e-2)
    mesh = build_mesh(4, 1e-2, 2.0, 1.0, 2.0)
    build = assembly.build_local_systems
    built_on = []

    def singular_cell_12(*args):
        blocks = build(*args)
        if 12 in blocks.cells:
            built_on.append(threading.current_thread())
            blocks.A[blocks.cells.index(12)] = 0.0
        return blocks

    monkeypatch.setattr(assembly, "BLOCK_CELLS", 3)
    monkeypatch.setattr(assembly, "build_local_systems", singular_cell_12)
    with pytest.raises(SolveError, match=r"singular interior block in cell 12;"):
        assemble_and_solve(mesh, spec, HdgConfig(1))
    assert built_on == [threading.main_thread()]


def test_assembly_never_holds_the_whole_mesh_local_systems(monkeypatch):
    # the whole mesh's dense local systems A, C, G and D never exist at
    # once: the block loop keeps only every cell's [S | rhs] and the u-rows
    # of the recovery operators, and its traced peak stays below 17 MB (it
    # read 14.4 MB; the loop that summed into CSC read 16.4 MB, two blocks
    # in flight 20.1-20.4 MB). Here A, C, G and D are 49.8 MB; the
    # whole-mesh assembly peaked at 100.7 MB.
    # The box-tree solve then holds its eliminators X (9.1 MB here) and
    # the condensed systems of two levels of one quadrant, merged in
    # chunks of about 2 MB: the traced peak of the whole solve reads
    # 24.2 MB (27.6 MB with whole levels), against 16.4 MB with SuperLU,
    # whose factor of about 25 MB tracemalloc never saw.
    k, N, eps = 2, 64, 1e-6
    spec = paper_problem(eps)
    mesh = build_mesh(N, eps, k + 1.0, 1.0, 2.0)
    # the reference tables and rules are cached on first use, not per solve
    assemble_and_solve(build_mesh(8, eps, k + 1.0, 1.0, 2.0),
                       spec, HdgConfig(k))
    solve, peaks = assembly.solve_box_tree, []

    def measured(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])  # the block loop's
        trace = solve(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])  # the whole solve's
        return trace

    monkeypatch.setattr(assembly, "solve_box_tree", measured)
    tracemalloc.start()
    try:
        assemble_and_solve(mesh, spec, HdgConfig(k))
    finally:
        tracemalloc.stop()
    assert peaks[0] < 17e6 and peaks[1] < 26e6, peaks
