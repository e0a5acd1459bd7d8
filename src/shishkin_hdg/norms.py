"""Energy-norm and L2 error measurement, residual functionals of the
discrete bilinear form, and convergence-rate formulas.

All field evaluation goes through TripleValues: pointwise values of a triple
(r, w, mu) on the tensor quadrature grid of every cell and on the Gauss
points of every cell side (order W, E, S, N). The same machinery serves the
true error, the supercloseness error and the Galerkin-orthogonality residual.
Every function takes the CellQuad of its rule; the exact solution
(ExactValues) and the energy-norm weights (EnergyWeights) are evaluated once
per rule and shared by every measure. Discrete triples are read in the
pulled-back orthonormal bases the solver computes in (assembly), straight
from the reference tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import layerquad
from .problems import ProblemSpec
from .refelem import CellQuad, gauss_rule, ref_tables


class StabilizationError(ValueError):
    """The edge weight tau - beta.n/2 is negative at a sampled point, so the
    energy norm (and the method's stability) is not defined."""


def edge_normal_beta(cq: CellQuad, spec: ProblemSpec):
    """beta.n at the side points of cq (W, E, S, N), signed with the cell's
    outward normal. Returns an (ncells, 4, n) array."""
    xs, ys = cq.side_points
    return np.stack([-spec.beta1(xs[:, 0], ys[:, 0]),
                     spec.beta1(xs[:, 1], ys[:, 1]),
                     -spec.beta2(xs[:, 2], ys[:, 2]),
                     spec.beta2(xs[:, 3], ys[:, 3])], axis=1)


@dataclass
class TripleValues:
    """Pointwise values of a triple (r, w, mu) on the quadrature grid.

    r1, r2, w: (ncells, n*n) cell values. r1_tr, r2_tr, w_tr, mu:
    (ncells, 4, n) side values; mu is single-valued per edge but stored per
    adjacent cell side for locality.
    """

    n: int
    r1: np.ndarray
    r2: np.ndarray
    w: np.ndarray
    r1_tr: np.ndarray
    r2_tr: np.ndarray
    w_tr: np.ndarray
    mu: np.ndarray


def triple_values_discrete(cq: CellQuad, flds) -> TripleValues:
    """Evaluate a discrete triple given by SolutionFields-style coefficient
    arrays (pulled-back orthonormal bases) on the rule cq."""
    mesh, n, k = cq.mesh, cq.n, flds.k
    R = ref_tables(k, n)

    def cell_vals(coef):
        return np.einsum("ca,ag->cg", coef, R.B0)

    tabs = R.side_traces

    def side_vals(coef):
        out = np.empty((mesh.n_cells, 4, n))
        for s in range(4):
            out[:, s] = np.einsum("ca,ag->cg", coef, tabs[s])
        return out

    # per-edge trace values, gathered onto cell sides
    mu = np.einsum("ea,ag->eg", flds.trace, R.V)[mesh.cell_edges]  # (nc, 4, n)

    return TripleValues(n, cell_vals(flds.q1), cell_vals(flds.q2),
                        cell_vals(flds.u), side_vals(flds.q1),
                        side_vals(flds.q2), side_vals(flds.u), mu)


def triple_values_exact(cq: CellQuad, spec: ProblemSpec) -> TripleValues:
    """Evaluate the exact triple (q, u, u|_edges) of a manufactured problem
    on the rule cq.

    u is continuous, so its side values serve as both w_tr and mu (one
    shared array)."""
    if spec.exact is None:
        raise ValueError("problem has no exact solution attached")
    ex = spec.exact
    xs, ys = cq.side_points
    u_side = ex.u(xs, ys)
    return TripleValues(cq.n, ex.q1(cq.X, cq.Y), ex.q2(cq.X, cq.Y),
                        ex.u(cq.X, cq.Y), ex.q1(xs, ys), ex.q2(xs, ys),
                        u_side, u_side)


@dataclass
class ExactValues:
    """The exact triple evaluated once on the rule cq: on its cells and
    sides (vals), and on the composite layer batches of the same n as
    (LayerBatch, (q1, q2, u)) pairs. The projection of the exact solution
    and the error measures all read these values."""

    cq: CellQuad
    vals: TripleValues
    batches: list


def exact_values(cq: CellQuad, spec: ProblemSpec) -> ExactValues:
    """Evaluate the exact triple of a manufactured problem on the rule cq."""
    vals, ex = triple_values_exact(cq, spec), spec.exact
    return ExactValues(cq, vals, [
        (b, (ex.q1(b.X, b.Y), ex.q2(b.X, b.Y), ex.u(b.X, b.Y)))
        for b in layerquad.layer_batches(cq.mesh, spec, cq.n)])


def triple_sub(a: TripleValues, b: TripleValues) -> TripleValues:
    if a.n != b.n:
        raise ValueError("quadrature mismatch between triples")
    return TripleValues(a.n, a.r1 - b.r1, a.r2 - b.r2, a.w - b.w,
                        a.r1_tr - b.r1_tr, a.r2_tr - b.r2_tr,
                        a.w_tr - b.w_tr, a.mu - b.mu)


@dataclass
class EnergyNormResult:
    total: float
    q_part_sq: float         # eps^-1 ||r||^2
    reaction_part_sq: float  # ||(c - div beta / 2)^{1/2} w||^2
    jump_part_sq: float      # ||(tau - beta.n/2)^{1/2} (w - mu)||^2 on cell sides
    region_cell_sq: dict     # cell contributions (q + reaction) per Region name


@dataclass
class EnergyWeights:
    """The weights of the energy norm on the rule cq: c - div beta / 2 at
    the cell points, (ncells, n*n), and tau - beta.n/2 at the side points,
    (ncells, 4, n)."""

    cq: CellQuad
    epsilon: float
    reaction: np.ndarray
    jump: np.ndarray


def energy_weights(cq: CellQuad, spec: ProblemSpec,
                   tau: float) -> EnergyWeights:
    """The energy-norm weights of a problem on the rule cq; raises
    StabilizationError where tau - beta.n/2 is negative."""
    weight = tau - 0.5 * edge_normal_beta(cq, spec)
    if np.min(weight) < 0:
        raise StabilizationError(
            f"tau = {tau:g} gives a negative edge weight tau - beta.n/2 "
            f"(min {np.min(weight):.3e}); energy norm undefined")
    return EnergyWeights(cq, spec.epsilon, spec.c(cq.X, cq.Y)
                         - 0.5 * spec.div_beta(cq.X, cq.Y), weight)


def _cell_integrals(wts: EnergyWeights, vals: TripleValues):
    """Per-cell integrals of |r|^2, (c - div beta / 2) w^2 and w^2 of a
    triple on the plain rule of the weights, (ncells,) each."""
    cq = wts.cq
    return (cq.J * np.einsum("g,cg->c", cq.W2, vals.r1**2 + vals.r2**2),
            cq.J * np.einsum("cg,cg->c", cq.W2 * wts.reaction, vals.w**2),
            cq.J * np.einsum("g,cg->c", cq.W2, vals.w**2))


def _energy_result(wts: EnergyWeights, vals: TripleValues, flux,
                   react) -> EnergyNormResult:
    """The energy norm from the per-cell integrals of |r|^2 (flux) and
    (c - div beta / 2) w^2 (react), and the side jumps of vals.

    Every cell side contributes, so interior edges are visited from both
    sides (with that cell's outward normal) and boundary sides once.
    """
    mesh = wts.cq.mesh
    half = mesh.edge_length[mesh.cell_edges] / 2.0
    jump_sq = float((half[:, :, None] * wts.jump * (vals.w_tr - vals.mu)**2
                     * gauss_rule(wts.cq.n).weights).sum())
    cell_q = flux / wts.epsilon
    q_sq, r_sq = float(cell_q.sum()), float(react.sum())
    return EnergyNormResult(float(np.sqrt(q_sq + r_sq + jump_sq)),
                            q_sq, r_sq, jump_sq,
                            mesh.region_sums(cell_q + react))


def energy_norm(wts: EnergyWeights, vals: TripleValues) -> EnergyNormResult:
    """Energy norm of a triple given on the rule of the weights:

    |||(r, w, mu)|||^2 = eps^-1 ||r||^2 + ||(c - div beta / 2)^{1/2} w||^2
                         + sum_cells sum_sides (tau - beta.n/2) (w - mu)^2.
    """
    flux, react, _ = _cell_integrals(wts, vals)
    return _energy_result(wts, vals, flux, react)


def bilinear_residual(cq: CellQuad, spec: ProblemSpec, cfg,
                      vals: TripleValues, parts=("r", "w", "mu")) -> float:
    """max |B(vals; test)| over all normalized discrete test functions, for
    a triple given on the rule cq.

    Tests are the physically orthonormal basis functions of the three spaces;
    "r" and "w" rows run over every cell, "mu" rows over interior edges.
    """
    k, tau = cfg.k, cfg.tau
    mesh, n = cq.mesh, cq.n
    kp = k + 1
    R = ref_tables(k, n)
    w1 = gauss_rule(n).weights
    sqj = np.sqrt(cq.J)
    sscale = mesh.edge_length[mesh.cell_edges] / 2.0  # half side lengths
    side = sscale / sqj[:, None]
    tabs = R.side_traces
    bn = edge_normal_beta(cq, spec)

    # numerical flux r.n + beta.n mu + tau (w - mu) on every cell side
    rn = np.empty_like(vals.mu)
    rn[:, 0] = -vals.r1_tr[:, 0]
    rn[:, 1] = vals.r1_tr[:, 1]
    rn[:, 2] = -vals.r2_tr[:, 2]
    rn[:, 3] = vals.r2_tr[:, 3]
    flux = rn + bn * vals.mu + tau * (vals.w_tr - vals.mu)

    worst = 0.0
    if "r" in parts:
        # rows of r1 (x derivative, sides W and E), then of r2 (S and N)
        for r, BD, s in ((vals.r1, R.BX, 0), (vals.r2, R.BY, 2)):
            res = (sqj / spec.epsilon)[:, None] * \
                np.einsum("cg,bg->cb", r * cq.W2, R.B0)
            res -= side[:, s, None] * \
                np.einsum("cg,bg->cb", vals.w * cq.W2, BD)
            res -= side[:, s, None] * \
                np.einsum("cg,bg->cb", vals.mu[:, s] * w1, tabs[s])
            res += side[:, s + 1, None] * \
                np.einsum("cg,bg->cb", vals.mu[:, s + 1] * w1, tabs[s + 1])
            worst = max(worst, float(np.abs(res).max()))

    if "w" in parts:
        b1 = spec.beta1(cq.X, cq.Y)
        b2 = spec.beta2(cq.X, cq.Y)
        cr = spec.c(cq.X, cq.Y) - spec.div_beta(cq.X, cq.Y)
        resw = -side[:, 0, None] * np.einsum(
            "cg,bg->cb", (vals.r1 + b1 * vals.w) * cq.W2, R.BX)
        resw -= side[:, 2, None] * np.einsum(
            "cg,bg->cb", (vals.r2 + b2 * vals.w) * cq.W2, R.BY)
        resw += sqj[:, None] * np.einsum("cg,bg->cb", cr * vals.w * cq.W2,
                                         R.B0)
        for s in range(4):
            resw += side[:, s, None] * \
                np.einsum("cg,bg->cb", flux[:, s] * w1, tabs[s])
        worst = max(worst, float(np.abs(resw).max()))

    if "mu" in parts:
        resm = np.zeros((mesh.n_edges, kp))
        contrib = np.sqrt(sscale)[:, :, None] * \
            np.einsum("csg,eg->cse", flux * w1, R.V)
        for s in range(4):
            np.add.at(resm, mesh.cell_edges[:, s], contrib[:, s])
        interior = resm[~mesh.edge_boundary]
        if interior.size:
            worst = max(worst, float(np.abs(interior).max()))
    return worst


def load_vector_scale(cq: CellQuad, spec: ProblemSpec) -> float:
    """max |(f, w)| over normalized Q^2 cell test functions on the rule cq
    (residual scaling)."""
    R = ref_tables(2, cq.n)
    fv = spec.f(cq.X, cq.Y)
    F = np.sqrt(cq.J)[:, None] * np.einsum("cg,bg->cb", fv * cq.W2, R.B0)
    return float(np.abs(F).max())


def refined_error_corrections(exact: ExactValues, spec: ProblemSpec,
                              wts: EnergyWeights, fields, cells) -> None:
    """Correct the per-cell integrals cells = (|r|^2, (c - div beta / 2)
    w^2, w^2) of the error (_cell_integrals) on the layer-refined cells in
    place, by adding the composite-rule integral and subtracting the
    plain-rule one. The composite half reads the exact values on their
    batches; the plain batches carry the points of the rule itself, so the
    plain half reads the exact values and the weights already on the rule.
    """
    ev, k = exact.vals, fields.k
    composite = [(b, vals, spec.c(b.X, b.Y) - 0.5 * spec.div_beta(b.X, b.Y))
                 for b, vals in exact.batches]
    plain = [(b, (ev.r1[b.cells], ev.r2[b.cells], ev.w[b.cells]),
              wts.reaction[b.cells]) for b in layerquad.layer_batches(
                  exact.cq.mesh, spec, exact.cq.n, composite=False)]
    flux, react, l2u = cells
    for batches, sign in ((composite, 1.0), (plain, -1.0)):
        for b, exact_b, cw in batches:
            B = b.basis(k)
            q1t, q2t, ut = (v - np.einsum("ca,cag->cg", coef[b.cells], B)
                            for v, coef in zip(exact_b, (fields.q1, fields.q2,
                                                         fields.u)))
            flux[b.cells] += sign * np.einsum("cg,cg->c", b.W, q1t**2 + q2t**2)
            react[b.cells] += sign * np.einsum("cg,cg->c", b.W, cw * ut**2)
            l2u[b.cells] += sign * np.einsum("cg,cg->c", b.W, ut**2)


@dataclass
class ErrorReport:
    """Error measurements of one solve."""

    N: int
    k: int
    epsilon: float
    energy_error: float
    l2_error_u: float
    l2_error_q: float
    q_part_sq: float
    reaction_part_sq: float
    jump_part_sq: float
    region_cell_sq: dict
    supercloseness_error: Optional[float] = None


def error_report(exact: ExactValues, spec: ProblemSpec, cfg, fields,
                 projected=None) -> ErrorReport:
    """Energy-norm and L2 errors of a solution, measured on the rule of the
    exact values; if a projected-exact triple is supplied, also the
    supercloseness distance |||(Pi q - q_h, Pi u - u_h, P u - u_hat)|||
    between the discrete solution and the projection of the exact one. Both
    distances share one set of energy-norm weights."""
    cq = exact.cq
    wts = energy_weights(cq, spec, cfg.tau)
    diff = triple_sub(exact.vals, triple_values_discrete(cq, fields))
    cells = _cell_integrals(wts, diff)
    refined_error_corrections(exact, spec, wts, fields, cells)
    flux, react, l2u = cells
    en = _energy_result(wts, diff, flux, react)
    sc = None
    if projected is not None:
        sc = energy_norm(wts, triple_values_discrete(
            cq, projected - fields)).total
    return ErrorReport(cq.mesh.N, cfg.k, spec.epsilon, en.total,
                       float(np.sqrt(l2u.sum())), float(np.sqrt(flux.sum())),
                       en.q_part_sq, en.reaction_part_sq, en.jump_part_sq,
                       en.region_cell_sq, sc)


def convergence_rate(e_coarse: float, e_fine: float, n_coarse: int) -> float:
    """Exponent p fitted to the two-level model e ~ (N^-1 ln N)^p, anchored
    at the fine pair (2N, 4N) of mesh sizes."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("rates need positive errors")
    n2 = 2 * n_coarse
    return float(np.log(e_coarse / e_fine)
                 / np.log(2.0 * np.log(n2) / np.log(2 * n2)))


def dyadic_rate(e_coarse: float, e_fine: float) -> float:
    """Plain log2 ratio of two errors under mesh doubling."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("rates need positive errors")
    return float(np.log2(e_coarse / e_fine))
