"""Dense monolithic solve of the uncondensed HDG system: the reference the
statically condensed solver is checked against on small meshes."""

import numpy as np

from shishkin_hdg.assembly import (HdgConfig, SolutionFields,
                                   build_local_systems)
from shishkin_hdg.mesh import ShishkinMesh
from shishkin_hdg.problems import ProblemSpec


def assemble_monolithic(mesh: ShishkinMesh, spec: ProblemSpec,
                        cfg: HdgConfig) -> tuple[np.ndarray, np.ndarray]:
    """Uncondensed dense system over all interior unknowns plus interior
    traces (small meshes only)."""
    blocks = build_local_systems(mesh, spec, cfg)
    k = cfg.k
    kp, nb = k + 1, (k + 1) ** 2
    ni = 3 * nb
    nc = mesh.n_cells
    inner = np.flatnonzero(~mesh.edge_boundary)
    n_tr = len(inner) * kp
    dim = nc * ni + n_tr
    if dim > 20000:
        raise ValueError("monolithic oracle restricted to small meshes")
    M = np.zeros((dim, dim))
    b = np.zeros(dim)
    # the cell's trace dof ids, the interior edges numbered by id; -1 on
    # boundary edges
    index = np.full(mesh.n_edges, -1)
    index[inner] = np.arange(len(inner))
    ie = index[mesh.cell_edges][:, :, None]
    td = np.where(ie >= 0, ie * kp + np.arange(kp), -1).reshape(nc, 4 * kp)
    for c in range(nc):
        r0 = c * ni
        M[r0:r0 + ni, r0:r0 + ni] = blocks.A[c]
        b[r0:r0 + ni] = blocks.FC[c, :, 0]
        for loc, dof in enumerate(td[c]):
            if dof < 0:
                continue
            col = nc * ni + dof
            M[r0:r0 + ni, col] += blocks.C[c][:, loc]
            M[col, r0:r0 + ni] += blocks.G[c][loc, :]
            for loc2, dof2 in enumerate(td[c]):
                if dof2 >= 0:
                    M[col, nc * ni + dof2] += blocks.D[c][loc, loc2]
    return M, b


def solve_monolithic(mesh: ShishkinMesh, spec: ProblemSpec,
                     cfg: HdgConfig) -> SolutionFields:
    """Dense solve of the uncondensed system."""
    M, b = assemble_monolithic(mesh, spec, cfg)
    sol = np.linalg.solve(M, b)
    kp, nc = cfg.k + 1, mesh.n_cells
    nv = nc * 3 * kp * kp
    q1, q2, u = np.split(sol[:nv].reshape(nc, -1), 3, axis=1)
    # boundary edges carry zero traces
    trace = np.zeros((mesh.n_edges, kp))
    trace[~mesh.edge_boundary] = sol[nv:].reshape(-1, kp)
    return SolutionFields(cfg.k, q1, q2, u, trace)
