"""The edge-id layout ShishkinMesh documents, rebuilt from the cell counts
alone: the tests read each edge's axis, grid line and segment from here."""

import numpy as np


def edge_layout(nx: int, ny: int):
    """(axis, line, seg) of every edge id: first the vertical edges, id =
    i*ny + j on line x = x_i, segment j (axis 0); then the horizontal ones,
    id = (nx+1)*ny + j*nx + i on line y = y_j, segment i (axis 1)."""
    iv, jv = np.divmod(np.arange((nx + 1) * ny), ny)
    jh, ih = np.divmod(np.arange(nx * (ny + 1)), nx)
    axis = np.repeat([0, 1], [len(iv), len(ih)])
    return axis, np.concatenate([iv, jh]), np.concatenate([jv, ih])
