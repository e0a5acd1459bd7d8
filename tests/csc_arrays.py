"""The CSC arrays linalg.SparseMatrix is built from, for a test matrix
given in any scipy sparse format."""

import scipy.sparse as sp


def csc_arrays(matrix) -> tuple:
    """(data, indices, indptr) of a square CSR or COO test matrix."""
    csc = sp.csc_matrix(matrix)
    return csc.data, csc.indices, csc.indptr
