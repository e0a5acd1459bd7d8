"""Sparse matrix wrapper: solves, the COLAMD fallback and failure
reporting."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_hdg import linalg
from shishkin_hdg.assembly import HdgConfig, assemble_trace_system
from shishkin_hdg.linalg import SolveError, SolveFallbackWarning, SparseMatrix
from shishkin_hdg.mesh import build_mesh
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
    # the given order first, then COLAMD and partial pivots; both in panels
    # of two columns, so the fallback keeps the small work arrays
    assert len(calls) == 2
    assert calls[0]["permc_spec"] == "NATURAL"
    assert calls[1].get("permc_spec", "COLAMD") == "COLAMD"
    assert calls[1].get("diag_pivot_thresh", 1.0) == 1.0
    assert [kw.get("panel_size") for kw in calls] == [2, 2]


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


def _trace_system(k, N, eps):
    spec = paper_problem(eps)
    mesh = build_mesh(N, eps, k + 1.0, 1.0, 2.0)
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


@pytest.mark.parametrize("k, N, fill", [(1, 64, 1_169_072), (2, 32, 515_532)])
def test_panel_size_leaves_the_fill_alone(k, N, fill):
    # the panel bounds SuperLU's work arrays only: the factor is the one
    # SuperLU's default panel of 20 columns gives, entry for entry
    A, _ = _trace_system(k, N, 1e-6)
    default_panel = {**linalg.GIVEN_ORDER, "panel_size": None}
    assert spla.splu(A.csc, **default_panel).nnz == fill
    assert spla.splu(A.csc, **linalg.GIVEN_ORDER).nnz == fill


# Peak (VmHWM) minus current (VmRSS) resident size, in kB, with the
# factor held. Not ru_maxrss: a child started from the test process
# inherits its parent's peak through fork and exec.
_HELD_FACTOR_PROBE = """
import scipy.sparse.linalg as spla
from shishkin_hdg import linalg
from shishkin_hdg.assembly import HdgConfig, assemble_trace_system
from shishkin_hdg.mesh import build_mesh
from shishkin_hdg.problems import paper_problem
A = assemble_trace_system(build_mesh(64, 1e-6, 3.0, 1.0, 2.0),
                          paper_problem(1e-6), HdgConfig(2))[0]
lu = spla.splu(A.csc, **linalg.GIVEN_ORDER)
with open("/proc/self/status") as fh:
    kb = {k: int(v.split()[0]) for k, v in
          (line.split(":", 1) for line in fh) if k in ("VmHWM", "VmRSS")}
print(kb["VmHWM"] - kb["VmRSS"])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the resident sizes from /proc")
def test_factor_work_arrays_stay_below_the_held_factor():
    # at k=2, N=64 the process peaks with the factor held, not above it:
    # SuperLU's default 20-column panel put its work arrays 8 MB on top
    out = subprocess.run([sys.executable, "-c", _HELD_FACTOR_PROBE],
                         capture_output=True, text=True, check=True,
                         timeout=120, env={**os.environ, "PYTHONPATH":
                                           os.pathsep.join(sys.path)})
    assert int(out.stdout) <= 2 * 1024
