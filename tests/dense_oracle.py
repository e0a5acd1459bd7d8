"""Dense monolithic solve of the uncondensed HDG system: the reference the
statically condensed solver is checked against on small meshes."""

import numpy as np

from shishkin_hdg.assembly import (HdgConfig, SolutionFields, _trace_dofs,
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
    n_tr = mesh.n_interior_edges * kp
    dim = nc * ni + n_tr
    if dim > 20000:
        raise ValueError("monolithic oracle restricted to small meshes")
    M = np.zeros((dim, dim))
    b = np.zeros(dim)
    td = _trace_dofs(mesh, k)
    for c in range(nc):
        r0 = c * ni
        M[r0:r0 + ni, r0:r0 + ni] = blocks.A[c]
        b[r0:r0 + ni] = blocks.F[c]
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
    nv = mesh.n_cells * 3 * (cfg.k + 1) ** 2
    return SolutionFields.from_unknowns(
        mesh, cfg.k, sol[:nv].reshape(mesh.n_cells, -1), sol[nv:])
