"""Study driver: single solves, convergence sweeps over (epsilon, N, k) with
CSV and markdown table emission, and the diagnostic suite."""

from __future__ import annotations

import logging
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import assembly, norms, projections
from .assembly import HdgConfig, assemble_and_solve
from .linalg import SolveError
from .mesh import MeshConfig, build_mesh
from .norms import StabilizationError
from .problems import get_problem, verify_assumptions
from .refelem import CellQuad

log = logging.getLogger(__name__)

MODES = ("true-error", "supercloseness", "both")


@dataclass
class StudyConfig:
    """Everything a study needs: the problem, the (k, epsilon, N) grid, mesh
    and stabilization parameters, quadrature overrides and output options."""

    problem: str = "paper-sec5"
    k_list: list = field(default_factory=lambda: [1])
    eps_list: list = field(default_factory=lambda: [1e-6])
    n_list: list = field(default_factory=lambda: [4, 8, 16, 32, 64, 128])
    sigma: Optional[float] = None  # default k+1 per degree
    tau: float = 3.0
    quad_assembly: Optional[int] = None
    quad_error: Optional[int] = None
    mode: str = "true-error"
    out_dir: Optional[str] = None
    strict: bool = False
    max_n: Optional[int] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not self.k_list or not self.eps_list:
            raise ValueError("the k and eps lists must not be empty")
        for n in self.n_list:
            if n < 4 or n % 4:
                raise ValueError(f"N = {n} is not divisible by 4")
        if not self.effective_n_list():
            raise ValueError(f"the N grid {self.n_list} with max_n = "
                             f"{self.max_n} leaves no N")
        for k in self.k_list:
            if self.sigma is not None and self.sigma < k + 1:
                warnings.warn(f"sigma = {self.sigma:g} below k+1 = {k + 1}; "
                              "layer resolution is degraded", UserWarning,
                              stacklevel=3)

    def sigma_for(self, k: int) -> float:
        return self.sigma if self.sigma is not None else float(k + 1)

    def hdg(self, k: int) -> HdgConfig:
        return HdgConfig(k, self.tau, self.quad_assembly, self.quad_error)

    def effective_n_list(self) -> list:
        ns = sorted(set(self.n_list))
        if self.max_n is not None:
            ns = [n for n in ns if n <= self.max_n]
        return ns


def solve_cell(cfg: StudyConfig, k: int, eps: float, N: int):
    """One grid cell of a study: mesh, solve, measure. Returns
    (ErrorReport, SolutionFields, mesh)."""
    spec = get_problem(cfg.problem, eps)
    hdg = cfg.hdg(k)
    mcfg = MeshConfig(N, eps, cfg.sigma_for(k), spec.beta_lb[0],
                      spec.beta_lb[1])
    mesh = build_mesh(mcfg)
    fields = assemble_and_solve(mesh, spec, hdg)
    # the exact solution on the error rule, for projection and every measure
    exact = norms.exact_values(CellQuad(mesh, hdg.n_error), spec)
    projected = None
    if cfg.mode in ("supercloseness", "both"):
        projected = projections.project_exact(exact, k)
    report = norms.error_report(exact, spec, hdg, fields, projected)
    return report, fields, mesh


def run_single(cfg: StudyConfig) -> norms.ErrorReport:
    """Single (k, epsilon, N) solve; the config must pin down one cell."""
    if len(cfg.k_list) != 1 or len(cfg.eps_list) != 1 or len(cfg.n_list) != 1:
        raise ValueError("run_single needs exactly one k, one epsilon, one N")
    report, _, _ = solve_cell(cfg, cfg.k_list[0], cfg.eps_list[0],
                              cfg.n_list[0])
    return report


@dataclass
class SweepTable:
    """One emitted table: errors and rates per (N, epsilon) for a fixed
    degree and error mode. cells[eps][N] is an ErrorReport or an error
    string; rates[eps][N] is the fitted rate to the next N (None on the
    last row or next to a failed cell)."""

    k: int
    mode: str  # "energy" or "supercloseness"
    n_values: list
    eps_values: list
    cells: dict
    rates: dict

    def error(self, eps: float, n: int) -> Optional[float]:
        """The error this table reports for a cell, None if it failed."""
        rep = self.cells[eps][n]
        if isinstance(rep, str):
            return None
        return rep.energy_error if self.mode == "energy" \
            else rep.supercloseness_error

    def to_csv(self) -> str:
        lines = ["mode,k,eps,N,error,rate,rate_dyadic"]
        for eps in self.eps_values:
            for n in self.n_values:
                e = self.error(eps, n)
                estr = "error" if e is None else f"{e:.17e}"
                r = self.rates[eps].get(n)
                rstr = "" if r is None else f"{r[0]:.17e}"
                dstr = "" if r is None else f"{r[1]:.17e}"
                lines.append(f"{self.mode},{self.k},{eps:.17e},{n},"
                             f"{estr},{rstr},{dstr}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        head = ["N"]
        for eps in self.eps_values:
            head += [f"e ({self.mode}, eps={eps:.0e})", "p"]
        rows = [head]
        for n in self.n_values:
            row = [str(n)]
            for eps in self.eps_values:
                e = self.error(eps, n)
                row.append("error" if e is None else f"{e:.4g}")
                r = self.rates[eps].get(n)
                row.append("---" if r is None else f"{r[0]:.2f}")
            rows.append(row)
        widths = [max(len(r[c]) for r in rows) for c in range(len(head))]
        out = []
        for i, row in enumerate(rows):
            out.append("| " + " | ".join(v.ljust(w)
                                         for v, w in zip(row, widths)) + " |")
            if i == 0:
                out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        return "\n".join(out) + "\n"


@dataclass
class SweepResult:
    tables: list
    failures: list  # (k, eps, N, message)


def run_sweep(cfg: StudyConfig) -> SweepResult:
    """Full sweep over the configured grid. One table per (k, mode); failed
    cells are recorded and do not abort the rest. Writes CSV and markdown
    files when an output directory is configured."""
    ns = cfg.effective_n_list()
    modes = ["energy"] if cfg.mode == "true-error" else \
        ["supercloseness"] if cfg.mode == "supercloseness" else \
        ["energy", "supercloseness"]
    tables = []
    failures = []
    for k in cfg.k_list:
        cells = {eps: {} for eps in cfg.eps_list}
        for eps in cfg.eps_list:
            for n in ns:
                try:
                    rep, _, _ = solve_cell(cfg, k, eps, n)
                    cells[eps][n] = rep
                except (SolveError, StabilizationError,
                        np.linalg.LinAlgError) as exc:
                    log.error("cell (k=%d, eps=%g, N=%d) failed: %s",
                              k, eps, n, exc)
                    cells[eps][n] = f"{type(exc).__name__}: {exc}"
                    failures.append((k, eps, n, str(exc)))
        for mode in modes:
            table = SweepTable(k, mode, ns, list(cfg.eps_list), cells,
                               {eps: {} for eps in cfg.eps_list})
            for eps in cfg.eps_list:
                for a, b in zip(ns, ns[1:]):
                    ea, eb = table.error(eps, a), table.error(eps, b)
                    if b == 2 * a and ea and eb:
                        table.rates[eps][a] = (
                            norms.convergence_rate(ea, eb, a),
                            norms.dyadic_rate(ea, eb))
            tables.append(table)
    result = SweepResult(tables, failures)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for t in result.tables:
            stem = os.path.join(cfg.out_dir, f"table_k{t.k}_{t.mode}")
            with open(stem + ".csv", "w") as fh:
                fh.write(t.to_csv())
            with open(stem + ".md", "w") as fh:
                fh.write(t.to_markdown())
    return result


@dataclass
class DiagnosticEntry:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass
class DiagnosticReport:
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def render(self) -> str:
        lines = []
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            lines.append(f"{status}  {e.name}: {e.value:.6e} "
                         f"(threshold {e.threshold:.1e}) {e.detail}".rstrip())
        lines.append("diagnostics " + ("passed" if self.passed else "FAILED"))
        return "\n".join(lines) + "\n"


def run_diagnostics(cfg: StudyConfig, seed: int = 0,
                    n_triples: int = 200) -> DiagnosticReport:
    """Diagnostic suite at one (k, eps, N): assumption validation,
    stabilization margin, discrete-orthogonality residual, flux continuity,
    coercivity sampling and quadrature robustness."""
    if len(cfg.k_list) != 1 or len(cfg.eps_list) != 1 or len(cfg.n_list) != 1:
        raise ValueError("diagnostics need exactly one k, one epsilon, one N")
    k, eps, N = cfg.k_list[0], cfg.eps_list[0], cfg.n_list[0]
    spec = get_problem(cfg.problem, eps)
    hdg = cfg.hdg(k)
    entries = []

    rep = verify_assumptions(spec)
    margin = min(rep.min_beta1_margin, rep.min_beta2_margin,
                 rep.min_coercivity_margin)
    entries.append(DiagnosticEntry(
        "assumption margins (beta bounds, c - div beta / 2 >= c0)",
        margin, 0.0, rep.passed, "; ".join(rep.failures())))

    report, fields, mesh = solve_cell(cfg, k, eps, N)
    asm_cq = CellQuad(mesh, hdg.n_assembly)

    smargin = assembly.check_stabilization(
        norms.edge_normal_beta(asm_cq, spec), hdg.tau)
    entries.append(DiagnosticEntry("stabilization margin tau - |beta.n|/2",
                                   smargin, 0.0, smargin > 0))

    gres = assembly.galerkin_residual(mesh, spec, hdg)
    entries.append(DiagnosticEntry("discrete orthogonality residual (scaled)",
                                   gres, 1e-8, gres <= 1e-8))

    fres = assembly.flux_continuity_residual(fields, asm_cq, spec, hdg)
    entries.append(DiagnosticEntry("flux continuity residual",
                                   fres, 1e-9, fres <= 1e-9))

    rng = np.random.default_rng(seed)
    wts = norms.energy_weights(CellQuad(mesh, hdg.n_error), spec, hdg.tau)
    worst = np.inf
    for _ in range(n_triples):
        xi = assembly.random_fields(mesh, k, rng)
        b = assembly.bilinear_form(xi, mesh, spec, hdg)
        vals = norms.triple_values_discrete(wts.cq, xi)
        nrm2 = norms.energy_norm(wts, vals).total ** 2
        worst = min(worst, b / nrm2)
    entries.append(DiagnosticEntry(
        f"coercivity B(xi,xi)/|||xi|||^2 over {n_triples} random triples",
        worst, 1.0 - 1e-10, worst >= 1.0 - 1e-10))

    cfg2 = replace(cfg, quad_assembly=hdg.n_assembly + 2,
                   quad_error=hdg.n_error + 2)
    rep2, _, _ = solve_cell(cfg2, k, eps, N)
    delta = abs(rep2.energy_error - report.energy_error) / report.energy_error
    entries.append(DiagnosticEntry(
        "quadrature robustness (+2 points, relative change)",
        delta, 1e-3, delta < 1e-3))

    return DiagnosticReport(entries)
