"""Sparse matrix wrapper: assembly, solves, failure reporting."""

import numpy as np
import pytest

from shishkin_hdg.linalg import SolveError, SparseMatrix


def _laplacian_1d(n):
    A = SparseMatrix(n)
    i = np.arange(n)
    A.add(i, i, np.full(n, 2.0))
    A.add(i[:-1], i[1:], np.full(n - 1, -1.0))
    A.add(i[1:], i[:-1], np.full(n - 1, -1.0))
    return A.finalize()


def test_assembly_and_duplicate_summing():
    A = SparseMatrix(3)
    A.add([0, 0], [0, 0], [1.0, 2.0])  # duplicates sum
    A.add([1, 2], [1, 2], [1.0, 1.0])
    A.finalize()
    x = A.solve(np.array([3.0, 1.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0, 1.0])


def test_solve_matches_dense():
    rng = np.random.default_rng(5)
    n = 40
    A = _laplacian_1d(n)
    b = rng.standard_normal(n)
    x = A.solve(b)
    dense = A.csr.toarray()
    assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-10)
    assert np.linalg.norm(A.csr @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_zero_rhs_and_empty_matrix():
    A = _laplacian_1d(4)
    assert np.allclose(A.solve(np.zeros(4)), 0.0)
    E = SparseMatrix(0).finalize()
    assert E.solve(np.zeros(0)).size == 0


def test_singular_matrix_raises():
    A = SparseMatrix(2)
    A.add([0, 1], [0, 1], [1.0, 0.0])  # structurally singular row
    A.finalize()
    with pytest.raises(SolveError):
        A.solve(np.array([1.0, 1.0]))


def test_validation_errors():
    A = SparseMatrix(2)
    with pytest.raises(IndexError):
        A.add([2], [0], [1.0])
    with pytest.raises(ValueError):
        A.add([0], [0, 1], [1.0])
    with pytest.raises(RuntimeError):
        _ = A.csr  # not finalized
    A.add([0, 1], [0, 1], [1.0, 1.0])
    A.finalize()
    with pytest.raises(RuntimeError):
        A.add([0], [0], [1.0])  # already finalized
    with pytest.raises(ValueError):
        A.solve(np.zeros(3))
    with pytest.raises(ValueError):
        SparseMatrix(-1)
