"""Acceptance criteria for the convergence study.

Each test prints and records exactly one pass/fail line for its criterion
(summarized at the end of the pytest run). Criteria 1-3 compare against the
reference convergence tables this study targets; the remaining criteria are
property-based checks of the solver itself.

Status note: criteria 1-3 fail. Our energy errors exceed the reference
table values by 34-52% uniformly, and the reference energy and
supercloseness tables can be shown to be mutually inconsistent (the
solver-independent interpolation part of the error triangle inequality
bounds the supercloseness entry at N=4 by 0.30, while the table prints
8.442). Every solver invariant that can be checked independently (criteria
5-10: rates, orthogonality, coercivity, exactness, dense-oracle agreement,
quadrature robustness) passes; the implementation is kept, and the
discrepancy is reported honestly rather than fitted away.
"""

import numpy as np
import pytest

from conftest import acceptance_lines
from dense_oracle import solve_monolithic

from shishkin_hdg import norms
from shishkin_hdg.assembly import (HdgConfig, assemble_and_solve, bilinear_form,
                                   galerkin_residual, random_fields)
from shishkin_hdg.harness import StudyConfig, solve_cell
from shishkin_hdg.mesh import build_mesh
from shishkin_hdg.norms import convergence_rate
from shishkin_hdg.problems import paper_problem, polynomial_problem
from shishkin_hdg.refelem import CellQuad

# reference convergence tables (energy errors, both polynomial degrees, and
# the fitted rates printed beside them; rate at row N pairs (N, 2N))
REF_ENERGY_K1 = {4: 1.188e-1, 8: 6.687e-2, 16: 3.553e-2, 32: 1.739e-2,
                 64: 8.011e-3, 128: 3.539e-3}
REF_RATES_K1 = {4: 1.42, 8: 1.35, 16: 1.40, 32: 1.44, 64: 1.46}
REF_ENERGY_K2 = {4: 2.764e-2, 8: 1.482e-2, 16: 5.965e-3, 32: 1.945e-3,
                 64: 5.543e-4}
REF_RATES_K2 = {4: 1.54, 8: 1.94, 16: 2.19, 32: 2.33}
# supercloseness reference tables at eps = 1e-6
REF_SUPER_K1 = {8: 1.549, 16: 2.770e-1, 32: 5.115e-2, 64: 1.129e-2,
                128: 3.639e-3}
REF_SUPER_K2 = {8: 4.086e-2, 16: 5.857e-3, 32: 1.553e-3, 64: 4.534e-4}

EPS_SWEEP = (1e-5, 1e-6, 1e-7, 1e-8)
N_K1 = (4, 8, 16, 32, 64, 128)
N_K2 = (4, 8, 16, 32, 64)

_cache = {}


def get_report(k, eps, N):
    """Module-level cache of (k, eps, N) solves in both error modes."""
    key = (k, eps, N)
    if key not in _cache:
        cfg = StudyConfig(k_list=[k], eps_list=[eps], n_list=[N], mode="both")
        _cache[key], _, _ = solve_cell(cfg, k, eps, N)
    return _cache[key]


def record(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{status}] {title}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    acceptance_lines.append(line)
    assert ok, line


def _check_table(k, eps, ns, ref_err, ref_rate, tol_err, tol_rate):
    bad = []
    for n in ns:
        e = get_report(k, eps, n).energy_error
        rel = abs(e - ref_err[n]) / ref_err[n]
        if rel > tol_err:
            bad.append(f"N={n}: {e:.4e} vs {ref_err[n]:.4e} "
                       f"({100 * rel:.0f}% off)")
    for n, target in ref_rate.items():
        if 2 * n not in ns:
            continue
        p = convergence_rate(get_report(k, eps, n).energy_error,
                             get_report(k, eps, 2 * n).energy_error, n)
        if abs(p - target) > tol_rate:
            bad.append(f"rate@N={n}: {p:.2f} vs {target:.2f}")
    return bad


def test_criterion_1_energy_table_k1():
    bad = _check_table(1, 1e-6, N_K1, REF_ENERGY_K1, REF_RATES_K1,
                       0.02, 0.02)
    record(1, "degree-1 energy errors and rates match reference table",
           not bad, "; ".join(bad[:3]))


def test_criterion_2_energy_table_k2():
    bad = _check_table(2, 1e-8, N_K2, REF_ENERGY_K2, REF_RATES_K2,
                       0.02, 0.02)
    record(2, "degree-2 energy errors and rates match reference table",
           not bad, "; ".join(bad[:3]))


def test_criterion_3_supercloseness_tables():
    bad = []
    for k, ref in ((1, REF_SUPER_K1), (2, REF_SUPER_K2)):
        for n, target in ref.items():
            e = get_report(k, 1e-6, n).supercloseness_error
            rel = abs(e - target) / target
            if rel > 0.05:
                bad.append(f"k={k}, N={n}: {e:.4e} vs {target:.4e}")
    record(3, "supercloseness errors match reference tables within 5%",
           not bad, "; ".join(bad[:3]))


def test_criterion_4_epsilon_uniformity():
    bad = []
    for k, ns in ((1, N_K1), (2, N_K2)):
        for n in ns:
            if n < 8:
                continue
            vals = [get_report(k, eps, n).energy_error for eps in EPS_SWEEP]
            # agreement to 3 significant digits: relative spread below one
            # unit in the third digit (string rounding would flag spurious
            # disagreements on rounding boundaries)
            spread = (max(vals) - min(vals)) / max(vals)
            if spread > 1e-3:
                bad.append(f"k={k}, N={n}: relative spread {spread:.2e}")
    record(4, "energy errors epsilon-uniform to 3 significant digits",
           not bad, "; ".join(bad[:3]))


def test_criterion_5_asymptotic_rates():
    bad = []
    for k, eps, pair in ((1, 1e-6, (64, 128)), (2, 1e-8, (32, 64))):
        ra, rb = get_report(k, eps, pair[0]), get_report(k, eps, pair[1])
        for mode, ea, eb in (
                ("energy", ra.energy_error, rb.energy_error),
                ("supercloseness", ra.supercloseness_error,
                 rb.supercloseness_error)):
            p = convergence_rate(ea, eb, pair[0])
            if p < k + 0.3:
                bad.append(f"k={k} {mode}: {p:.3f} < {k + 0.3}")
    record(5, "finest-doubling fitted rates reach k + 0.3 in both modes",
           not bad, "; ".join(bad))


def test_criterion_6_galerkin_orthogonality():
    spec = paper_problem(1e-2)
    mesh = build_mesh(8, 1e-2, 2.0, 1.0, 2.0)
    worst = max(galerkin_residual(mesh, spec, HdgConfig(k)) for k in (1, 2))
    record(6, "scaled discrete-orthogonality residual below 1e-8",
           worst <= 1e-8, f"residual {worst:.3e}")


def test_criterion_7_coercivity():
    spec = paper_problem(1e-2)
    mesh = build_mesh(4, 1e-2, 2.0, 1.0, 2.0)
    rng = np.random.default_rng(0)
    worst = np.inf
    for k in (1, 2):
        cfg = HdgConfig(k)
        wts = norms.energy_weights(CellQuad(mesh, cfg.n_error), spec, cfg.tau)
        for _ in range(100):
            xi = random_fields(mesh, k, rng)
            b = bilinear_form(xi, mesh, spec, cfg)
            vals = norms.triple_values_discrete(wts.cq, xi)
            nrm2 = norms.energy_norm(wts, vals) ** 2
            worst = min(worst, b / nrm2)
    record(7, "bilinear form coercive on 200 random discrete triples",
           worst >= 1.0 - 1e-10, f"worst ratio {worst:.15f}")


def test_criterion_8_polynomial_exactness():
    spec = polynomial_problem(1.0)
    worst = 0.0
    for N in (4, 8):
        with pytest.warns(UserWarning):
            mesh = build_mesh(N, 1.0, 3.0, 1.0, 2.0)
        cfg = HdgConfig(2)
        fields = assemble_and_solve(mesh, spec, cfg)
        cq = CellQuad(mesh, cfg.n_error)
        diff = norms.triple_sub(norms.triple_values_exact(cq, spec),
                                norms.triple_values_discrete(cq, fields))
        worst = max(worst, norms.energy_norm(
            norms.energy_weights(cq, spec, cfg.tau), diff))
    record(8, "polynomial manufactured solution reproduced to 1e-9",
           worst <= 1e-9, f"energy error {worst:.3e}")


def test_criterion_9_dense_oracle_equivalence():
    spec = paper_problem(1e-2)
    mesh = build_mesh(4, 1e-2, 2.0, 1.0, 2.0)
    worst = 0.0
    for k in (1, 2):
        cfg = HdgConfig(k)
        a = assemble_and_solve(mesh, spec, cfg)
        b = solve_monolithic(mesh, spec, cfg)
        scale = max(np.abs(a.u).max(), np.abs(a.q1).max(),
                    np.abs(a.q2).max(), np.abs(a.trace).max())
        for name in ("q1", "q2", "u", "trace"):
            d = np.max(np.abs(getattr(a, name) - getattr(b, name)))
            worst = max(worst, d / scale)
    record(9, "condensed and monolithic solves agree to 1e-9 relative",
           worst <= 1e-9, f"max relative difference {worst:.3e}")


def test_criterion_10_quadrature_robustness():
    bad = []
    for n in N_K1:
        base = get_report(1, 1e-6, n).energy_error
        cfg = StudyConfig(k_list=[1], eps_list=[1e-6], n_list=[n],
                          quad_assembly=HdgConfig(1).n_assembly + 2,
                          quad_error=HdgConfig(1).n_error + 2)
        rep, _, _ = solve_cell(cfg, 1, 1e-6, n)
        rel = abs(rep.energy_error - base) / base
        if rel > 1e-3:
            bad.append(f"N={n}: {100 * rel:.3f}% change")
    record(10, "raising quadrature by 2 points changes errors by < 0.1%",
           not bad, "; ".join(bad))
