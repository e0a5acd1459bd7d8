"""Sparse matrix wrapper: solves, the COLAMD fallback and failure
reporting."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_hdg import linalg
from shishkin_hdg.assembly import HdgConfig, assemble_trace_system
from shishkin_hdg.linalg import SolveError, SolveFallbackWarning, SparseMatrix
from shishkin_hdg.mesh import MeshConfig, build_mesh
from shishkin_hdg.problems import paper_problem


def _laplacian_1d(n):
    return SparseMatrix(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                                 shape=(n, n), format="csr"))


def _diagonal(values):
    """Diagonal matrix that keeps its zero entries stored."""
    i = np.arange(len(values))
    return SparseMatrix(sp.csr_matrix((values, (i, i)),
                                      shape=(len(i), len(i))))


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
    E = SparseMatrix(sp.csr_matrix((0, 0)))
    assert E.solve(np.zeros(0)).size == 0


def test_singular_matrix_raises():
    A = _diagonal([1.0, 0.0])  # singular row
    with pytest.raises(SolveError):
        A.solve(np.array([1.0, 1.0]))


def test_validation_errors():
    with pytest.raises(ValueError):
        _diagonal([1.0, 1.0]).solve(np.zeros(3))
    with pytest.raises(ValueError, match="square"):
        SparseMatrix(sp.csr_matrix((2, 3)))


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
    # the given order first, then SuperLU's defaults: COLAMD, partial pivots
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


def _trace_system(k, N, eps):
    spec = paper_problem(eps)
    mesh = build_mesh(MeshConfig(N, eps, k + 1.0, 1.0, 2.0))
    return assemble_trace_system(mesh, spec, HdgConfig(k))[:2]


@settings(max_examples=20)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8, 16, 32]),
       eps=st.floats(-8.0, -2.0).map(lambda p: 10.0 ** p))  # log-uniform
def test_condensed_solve_matches_colamd(k, N, eps):
    A, b = _trace_system(k, N, eps)
    x = A.solve(b)  # a fallback warning is an error (pyproject.toml)
    ref = spla.spsolve(A.csc, b, permc_spec="COLAMD")
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_nested_dissection_order_cuts_fill(monkeypatch):
    # the trace unknowns come in nested-dissection order, which SuperLU
    # keeps: the factor fills far less than under COLAMD (0.48 of it here)
    A, b = _trace_system(1, 32, 1e-6)
    colamd = spla.splu(A.csc).nnz
    fill = []
    calls = _patch_first_splu(monkeypatch,
                              lambda lu: fill.append(lu.nnz) or lu)
    A.solve(b)
    assert len(calls) == 1 and fill[0] < 0.6 * colamd
