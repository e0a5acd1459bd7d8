"""The trace solves: the box-tree solve against an independent SuperLU
solve, its fallback to the assembled system, and the sparse matrix
wrapper's solves, COLAMD fallback and failure reporting."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shishkin_hdg import assembly, linalg
from shishkin_hdg.assembly import (HdgConfig, assemble_and_solve,
                                   build_local_systems, condense)
from shishkin_hdg.linalg import (SolveError, SolveFallbackWarning,
                                 SparseMatrix, assemble_trace_system)
from shishkin_hdg.mesh import box_plan, build_mesh
from shishkin_hdg.problems import paper_problem


def _laplacian_1d(n):
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="coo")
    return SparseMatrix(A.data, A.row, A.col, n)


def _diagonal(values):
    """Diagonal matrix that keeps its zero entries stored."""
    i = np.arange(len(values))
    return SparseMatrix(np.asarray(values, dtype=float), i, i, len(i))


def test_solve_matches_dense():
    rng = np.random.default_rng(5)
    n = 40
    A = _laplacian_1d(n)
    b = rng.standard_normal(n)
    x = A.solve(b)
    dense = A.csc.toarray()
    assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-10)
    assert np.linalg.norm(A.csc @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_zero_rhs_and_empty_matrix():
    A = _laplacian_1d(4)
    assert np.allclose(A.solve(np.zeros(4)), 0.0)
    E = SparseMatrix(np.zeros(0), np.zeros(0, int), np.zeros(0, int), 0)
    assert E.solve(np.zeros(0)).size == 0


def test_singular_matrix_raises():
    A = _diagonal([1.0, 0.0])  # singular row
    with pytest.raises(SolveError):
        A.solve(np.array([1.0, 1.0]))


def test_validation_errors():
    with pytest.raises(ValueError):
        _diagonal([1.0, 1.0]).solve(np.zeros(3))


def _meets_gate(A, x, b):
    return np.linalg.norm(b - A.csc @ x) <= \
        linalg.RESIDUAL_TOL * np.linalg.norm(b)


def _patch_first_splu(monkeypatch, first):
    """linalg's splu with the factor of its first call passed through
    first; returns the keyword arguments of every call."""
    real = spla.splu
    calls = []

    def splu(csc, **kw):
        calls.append(kw)
        return first(real(csc, **kw)) if len(calls) == 1 else real(csc, **kw)

    monkeypatch.setattr(linalg.spla, "splu", splu)
    return calls


def _first_given_then_colamd(calls):
    # the given order first, then COLAMD and partial pivots
    assert len(calls) == 2
    assert calls[0]["permc_spec"] == "NATURAL"
    assert calls[1].get("permc_spec", "COLAMD") == "COLAMD"
    assert calls[1].get("diag_pivot_thresh", 1.0) == 1.0


def test_fallback_when_given_order_factorization_fails(monkeypatch):
    def singular(lu):
        raise RuntimeError("Factor is exactly singular")

    calls = _patch_first_splu(monkeypatch, singular)
    A = _laplacian_1d(40)
    b = np.random.default_rng(1).standard_normal(40)
    with pytest.warns(SolveFallbackWarning, match="exactly singular"):
        x = A.solve(b)
    assert _meets_gate(A, x, b)
    _first_given_then_colamd(calls)


class _HalfSolve:
    """A factor whose solves return half the answer: two refinement steps
    leave an error of 1/8, far above the gate."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, r):
        return 0.5 * self.lu.solve(r)


def test_fallback_when_given_order_misses_the_gate(monkeypatch):
    calls = _patch_first_splu(monkeypatch, _HalfSolve)
    A = _laplacian_1d(40)
    b = np.random.default_rng(2).standard_normal(40)
    with pytest.warns(SolveFallbackWarning, match="residual"):
        x = A.solve(b)
    assert _meets_gate(A, x, b)
    _first_given_then_colamd(calls)


class _CountedCsc(sp.csc_matrix):
    """CSC storage that counts its matrix-vector products."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


class _CountedSolves:
    """A factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, r):
        self.solves += 1
        return self.lu.solve(r)


def test_each_residual_is_computed_once(monkeypatch):
    # a solve that meets the gate at once takes one product; one that is
    # refined takes one per residual, steps + 1, never a repeat for the
    # returned norm
    A = _laplacian_1d(40)
    b = np.random.default_rng(3).standard_normal(40)
    A.csc = _CountedCsc(A.csc)
    x = A.solve(b)
    assert A.csc.products == 1
    # factoring a perturbed copy forces refinement; the perturbation is
    # small enough that one step meets the gate
    real = spla.splu
    factors = []

    def perturbed(csc, **kw):
        shift = 1e-9 * sp.identity(csc.shape[0], format="csc")
        factors.append(_CountedSolves(real(csc + shift, **kw)))
        return factors[-1]

    monkeypatch.setattr(linalg.spla, "splu", perturbed)
    A.csc = _CountedCsc(A.csc)
    y = A.solve(b)
    [lu] = factors
    steps = lu.solves - 1
    assert steps >= 1 and A.csc.products == steps + 1
    assert _meets_gate(A, y, b)
    assert np.allclose(y, x, rtol=0, atol=1e-10 * np.abs(x).max())


def test_solve_error_names_both_attempts():
    A = _diagonal([1.0, 0.0])
    with pytest.raises(SolveError, match="given order.*COLAMD"):
        A.solve(np.array([1.0, 1.0]))


def test_other_factorization_errors_propagate(monkeypatch):
    def splu(csc, **kw):
        raise ValueError("not a numerical failure")

    monkeypatch.setattr(linalg.spla, "splu", splu)
    with pytest.raises(ValueError, match="not a numerical failure"):
        _laplacian_1d(4).solve(np.ones(4))


def _assembled(mesh, spec, cfg):
    """(A, b, pos) of the fallback, from the cells condensed in blocks."""
    return assemble_trace_system(
        mesh, assembly._condensed_cells(mesh, spec, cfg)[0],
        box_plan(mesh.nx, mesh.ny))


def _trace_system(k, N, eps):
    spec = paper_problem(eps)
    mesh = build_mesh(N, eps, k + 1.0, 1.0, 2.0)
    return _assembled(mesh, spec, HdgConfig(k))


@settings(max_examples=20)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
# unrefined, the COLAMD solve is off by about 2e-10 here (condition ~6e8)
@example(k=3, N=8, eps=1e-8)
def test_condensed_solve_matches_colamd(k, N, eps):
    A, b, _ = _trace_system(k, N, eps)
    x = A.solve(b)  # a fallback warning is an error (pyproject.toml)
    ref = _refined_colamd(A, b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def _refined_colamd(A, b):
    """The reference: a COLAMD factor and two refinement steps on it."""
    lu = spla.splu(A.csc, permc_spec="COLAMD")
    ref = lu.solve(b)
    for _ in range(2):
        ref += lu.solve(b - A.csc @ ref)
    return ref


@settings(max_examples=20)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 12, 16, 20, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
@example(k=3, N=8, eps=1e-8)
def test_box_tree_solve_matches_colamd(k, N, eps):
    # N = 12 and 20 split into boxes of several shapes per level
    spec = paper_problem(eps)
    mesh = build_mesh(N, eps, k + 1.0, 1.0, 2.0)
    cfg = HdgConfig(k)
    S, rhs, _, _ = condense(build_local_systems(mesh, spec, cfg))
    Sr = np.concatenate([S, rhs[:, :, None]], axis=2)
    trace = linalg.solve_box_tree(mesh, Sr)
    A, b, pos = assemble_trace_system(mesh, Sr, box_plan(N, N))
    ref = _refined_colamd(A, b).reshape(-1, k + 1)[pos]
    assert np.linalg.norm(trace - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("k, N", [(1, 12), (1, 16), (2, 12), (2, 16)])
def test_box_tree_traces_do_not_depend_on_the_merge_chunks(monkeypatch, k,
                                                           N):
    # one box per chunk and one chunk per group give the default's traces
    # bit for bit: each box's merge and solves see the same entries in the
    # same layout, whatever the batch
    spec = paper_problem(1e-6)
    mesh = build_mesh(N, 1e-6, k + 1.0, 1.0, 2.0)
    Sr = assembly._condensed_cells(mesh, spec, HdgConfig(k))[0]
    want = linalg.solve_box_tree(mesh, Sr)
    for merge_bytes in (1, 1 << 30):
        monkeypatch.setattr(linalg, "MERGE_BYTES", merge_bytes)
        assert np.array_equal(linalg.solve_box_tree(mesh, Sr), want)


@pytest.mark.parametrize("k, N", [(1, 12), (1, 16), (1, 64), (2, 12),
                                  (2, 16), (2, 64)])
def test_box_tree_traces_do_not_depend_on_the_quadrant_order(monkeypatch, k,
                                                             N):
    # the quadrant plan splits the groups of the lower levels by quadrant
    # and condenses one quadrant at a time: each box still merges and
    # solves the same entries, so the traces are the same to the bit
    spec = paper_problem(1e-6)
    mesh = build_mesh(N, 1e-6, k + 1.0, 1.0, 2.0)
    Sr = assembly._condensed_cells(mesh, spec, HdgConfig(k))[0]
    traces = []
    for quadrants in (False, True):
        monkeypatch.setattr(linalg, "box_plan",
                            lambda nx, ny, _: box_plan(nx, ny, quadrants))
        traces.append(linalg.solve_box_tree(mesh, Sr))
    assert np.array_equal(traces[0], traces[1])


def test_box_tree_falls_back_on_the_quadrant_plan(monkeypatch):
    # at N = 64 the cells' systems exceed a merge chunk, so the tree takes
    # the quadrant plan; a missed gate still returns SuperLU's traces of
    # the system numbered by that plan, 0 on the domain boundary
    spec = paper_problem(1e-6)
    mesh = build_mesh(64, 1e-6, 2.0, 1.0, 2.0)
    Sr = assembly._condensed_cells(mesh, spec, HdgConfig(1))[0]
    assert Sr.nbytes > linalg.MERGE_BYTES
    monkeypatch.setattr(linalg, "_condense_up",
                        _scaled_eliminators(linalg._condense_up))
    with pytest.warns(SolveFallbackWarning, match="residual .* exceeds"):
        trace = linalg.solve_box_tree(mesh, Sr)
    A, b, pos = assemble_trace_system(mesh, Sr, box_plan(64, 64, True))
    x = A.solve(b)
    assert _meets_gate(A, x, b)
    assert np.array_equal(trace, x.reshape(-1, 2)[pos])
    assert not trace[mesh.edge_boundary].any()


def _scaled_eliminators(condense_up):
    """The tree's eliminators off by 1e-6 relative: the traces miss the
    gate."""
    def scaled(*args):
        return [[X * (1 + 1e-6) for X in level]
                for level in condense_up(*args)]
    return scaled


def _zero_cells(condense_up):
    """The tree run on zero cell systems: the first separator block is
    exactly singular."""
    def zero(plan, Sr, kp):
        return condense_up(plan, np.zeros_like(Sr), kp)
    return zero


@pytest.mark.parametrize("broken, why", [
    (_scaled_eliminators, "residual .* exceeds 1.0e-12"),
    (_zero_cells, "separator block is singular")])
def test_box_tree_falls_back_to_the_assembled_system(monkeypatch, broken,
                                                     why):
    spec = paper_problem(1e-6)
    mesh = build_mesh(16, 1e-6, 3.0, 1.0, 2.0)
    cfg = HdgConfig(2)
    # the cells of each build_local_systems call, in blocks of 64
    monkeypatch.setattr(assembly, "BLOCK_CELLS", 64)
    built, build = [], assembly.build_local_systems
    monkeypatch.setattr(assembly, "build_local_systems",
                        lambda *args: built.append(args[3]) or build(*args))
    want = assemble_and_solve(mesh, spec, cfg)
    blocks = list(built)
    monkeypatch.setattr(linalg, "_condense_up", broken(linalg._condense_up))
    with pytest.warns(SolveFallbackWarning, match=why):
        got = assemble_and_solve(mesh, spec, cfg)
    # the fallback sums the cells the box tree was given: it builds each
    # block once, as the solve that passes the gate does
    assert len(blocks) == 4 and built == 2 * blocks
    # the answer of the fallback meets the gate on the assembled system,
    # with the boundary traces exactly 0
    A, b, pos = _assembled(mesh, spec, cfg)
    x = np.empty_like(got.trace)
    x[pos] = got.trace
    assert _meets_gate(A, x.ravel(), b)
    assert not got.trace[mesh.edge_boundary].any()
    for name in ("q1", "q2", "u", "trace"):
        ref = getattr(want, name)
        assert np.linalg.norm(getattr(got, name) - ref) <= \
            1e-10 * np.linalg.norm(ref)


def test_nested_dissection_order_cuts_fill(monkeypatch):
    # the trace unknowns come in the box tree's order, which SuperLU keeps:
    # the factor fills far less than under COLAMD
    A, b, _ = _trace_system(1, 32, 1e-6)
    colamd = spla.splu(A.csc).nnz
    fill = []
    calls = _patch_first_splu(monkeypatch,
                              lambda lu: fill.append(lu.nnz) or lu)
    A.solve(b)
    assert len(calls) == 1 and fill[0] < 0.6 * colamd


def _fresh_python(code: str) -> str:
    """What `code` prints when run by a new interpreter on this sys.path."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH":
                               os.pathsep.join(sys.path)}).stdout


# A small study cell, then a solve whose box tree misses the gate; prints
# whether scipy was loaded after each, the warnings of the second and the
# relative residual its answer leaves on the assembled system.
_LAZY_SCIPY_PROBE = """
import json, sys, warnings
import numpy as np
from shishkin_hdg import assembly, harness, linalg
from shishkin_hdg.mesh import box_plan, build_mesh
from shishkin_hdg.problems import paper_problem
harness.run_single(harness.StudyConfig(k_list=[1], eps_list=[1e-4],
                                       n_list=[8], mode="both"))
gated = "scipy" in sys.modules
up = linalg._condense_up
linalg._condense_up = lambda *args: [[X * (1 + 1e-6) for X in level]
                                     for level in up(*args)]
spec, cfg = paper_problem(1e-4), assembly.HdgConfig(1)
mesh = build_mesh(8, 1e-4, 2.0, 1.0, 2.0)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    got = assembly.assemble_and_solve(mesh, spec, cfg)
fallback = "scipy" in sys.modules
A, b, pos = linalg.assemble_trace_system(
    mesh, assembly._condensed_cells(mesh, spec, cfg)[0], box_plan(8, 8))
x = np.empty_like(got.trace)
x[pos] = got.trace
print(json.dumps({"gated": gated, "fallback": fallback,
                  "warnings": [w.category.__name__ for w in caught],
                  "residual": float(np.linalg.norm(b - A.csc @ x.ravel())
                                    / np.linalg.norm(b))}))
"""


def test_scipy_is_imported_by_the_fallback_alone():
    # a fresh interpreter: this process has scipy loaded already
    got = json.loads(_fresh_python(_LAZY_SCIPY_PROBE))
    assert not got["gated"] and got["fallback"]
    assert got["warnings"] == ["SolveFallbackWarning"]
    assert got["residual"] <= linalg.RESIDUAL_TOL
