"""Study driver: single solves, convergence sweeps over (epsilon, N, k) with
CSV and markdown table emission, and the diagnostic suite."""

from __future__ import annotations

import logging
import os
import warnings
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Optional

import numpy as np

from . import assembly, norms, projections
from .assembly import HdgConfig, assemble_and_solve
from .linalg import SolveError
from .mesh import build_mesh, shishkin_nodes
from .norms import StabilizationError
from .problems import ProblemSpec, get_problem
from .refelem import CellQuad

log = logging.getLogger(__name__)

# the tables each error mode emits
MODES = {"true-error": ("energy",), "supercloseness": ("supercloseness",),
         "both": ("energy", "supercloseness")}

# random triples the diagnostic suite samples the coercivity ratio on
COERCIVITY_TRIPLES = 200
# an energy error below this is rounding level (an exact solve), so the
# quadrature-robustness check divides by no less
ERROR_FLOOR = 1e-12


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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}")
        if not self.k_list or not self.eps_list or not self.n_list:
            raise ValueError("the k, eps and N lists must not be empty")
        # an invalid degree, rule, problem, eps or mesh fails here, before
        # any solve
        ks, eps_list, ns = self.grid()
        specs = [get_problem(self.problem, eps) for eps in eps_list]
        for k in ks:
            self.hdg(k)
            if self.sigma is not None and self.sigma < k + 1:
                warnings.warn(f"sigma = {self.sigma:g} below k+1 = {k + 1}; "
                              "layer resolution is degraded", UserWarning,
                              stacklevel=3)
        for spec, k, n in product(specs, ks, ns):
            shishkin_nodes(n, spec.epsilon, self.sigma_for(k), *spec.beta_lb)

    def derive(self, **changes) -> StudyConfig:
        """This config with some fields changed, validated again; the sigma
        warning was given when this config was built and is not repeated."""
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "sigma = ", UserWarning)
            return replace(self, **changes)

    def sigma_for(self, k: int) -> float:
        return self.sigma if self.sigma is not None else float(k + 1)

    def hdg(self, k: int) -> HdgConfig:
        return HdgConfig(k, self.tau, self.quad_assembly, self.quad_error)

    def grid(self) -> tuple:
        """The sweep grid (k values, eps values, N values): k and eps in the
        order given and N ascending, each without repeats."""
        return (list(dict.fromkeys(self.k_list)),
                list(dict.fromkeys(self.eps_list)), sorted(set(self.n_list)))


def cell_mesh(cfg: StudyConfig, spec: ProblemSpec, k: int, N: int):
    """The Shishkin mesh of the study cell (k, spec.epsilon, N)."""
    return build_mesh(N, spec.epsilon, cfg.sigma_for(k), *spec.beta_lb)


def solve_cell(cfg: StudyConfig, k: int, eps: float, N: int):
    """One grid cell of a study: mesh, solve, measure. Returns
    (ErrorReport, SolutionFields, mesh). The measures, on the error rule,
    project each block of the exact solution when the mode asks for the
    supercloseness distance (norms.error_report)."""
    spec = get_problem(cfg.problem, eps)
    hdg = cfg.hdg(k)
    mesh = cell_mesh(cfg, spec, k, N)
    fields = assemble_and_solve(mesh, spec, hdg)
    project = None
    if "supercloseness" in MODES[cfg.mode]:
        project = projections.project_exact
    report = norms.error_report(CellQuad(mesh, hdg.n_error), spec, hdg,
                                fields, project)
    return report, fields, mesh


def one_cell(cfg: StudyConfig, what: str) -> tuple:
    """The only (k, epsilon, N) of cfg.grid(), or ValueError naming what."""
    ks, eps_list, ns = cfg.grid()
    if len(ks) != 1 or len(eps_list) != 1 or len(ns) != 1:
        raise ValueError(f"{what} needs exactly one k, one epsilon, one N")
    return ks[0], eps_list[0], ns[0]


def run_single(cfg: StudyConfig) -> norms.ErrorReport:
    """Single (k, epsilon, N) solve; the config must pin down one cell."""
    return solve_cell(cfg, *one_cell(cfg, "run_single"))[0]


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
            head += [f"e ({self.mode}, eps={eps:g})", "p"]
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
    ks, eps_list, ns = cfg.grid()
    tables = []
    failures = []
    for k in ks:
        cells = {eps: {} for eps in eps_list}
        for eps in eps_list:
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
        for mode in MODES[cfg.mode]:
            table = SweepTable(k, mode, ns, eps_list, cells,
                               {eps: {} for eps in eps_list})
            for eps in eps_list:
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


def run_diagnostics(cfg: StudyConfig, seed: int = 0) -> DiagnosticReport:
    """Diagnostic suite at one (k, eps, N): the problem's declared bounds
    sampled on a 101 x 101 grid, stabilization margin, discrete-orthogonality
    residual, flux continuity, coercivity sampling, quadrature robustness."""
    k, eps, N = one_cell(cfg, "diagnose")
    spec = get_problem(cfg.problem, eps)
    hdg = cfg.hdg(k)

    X, Y = np.meshgrid(*2 * [np.linspace(0.0, 1.0, 101)], indexing="ij")
    lows = {"beta1": np.min(spec.beta1(X, Y) - spec.beta_lb[0]),
            "beta2": np.min(spec.beta2(X, Y) - spec.beta_lb[1]),
            "c - div(beta)/2": np.min(spec.c(X, Y) - 0.5 * spec.div_beta(X, Y)
                                      - spec.c0)}
    margin = float(min(lows.values()))
    entries = [DiagnosticEntry(
        "assumption margins (beta bounds, c - div beta / 2 >= c0)",
        margin, 0.0, margin >= -1e-12,
        "; ".join(f"{name} drops {-low:.3e} below its declared bound"
                  for name, low in lows.items() if low < -1e-12))]

    # only the energy error is read; raised rules fail before the first solve
    cfg = cfg.derive(mode="true-error")
    cfg2 = cfg.derive(quad_assembly=hdg.n_assembly + 2,
                      quad_error=hdg.n_error + 2)
    report, fields, mesh = solve_cell(cfg, k, eps, N)
    asm_cq = CellQuad(mesh, hdg.n_assembly)

    smargin = assembly.check_stabilization(
        norms.edge_normal_beta(asm_cq, spec), hdg.tau)
    entries.append(DiagnosticEntry("stabilization margin tau - |beta.n|/2",
                                   smargin, 0.0, smargin > 0))

    gres = assembly.galerkin_residual(mesh, spec, hdg)
    entries.append(DiagnosticEntry("discrete orthogonality residual (scaled)",
                                   gres, 1e-8, gres <= 1e-8))

    fres = norms.bilinear_residual(asm_cq, spec, hdg, fields)["mu"]
    entries.append(DiagnosticEntry("flux continuity residual",
                                   fres, 1e-9, fres <= 1e-9))

    rng = np.random.default_rng(seed)
    wts = norms.energy_weights(CellQuad(mesh, hdg.n_error), spec, hdg.tau)
    worst = np.inf
    for _ in range(COERCIVITY_TRIPLES):
        xi = assembly.random_fields(mesh, k, rng)
        b = assembly.bilinear_form(xi, mesh, spec, hdg)
        vals = norms.triple_values_discrete(wts.cq, xi)
        nrm2 = norms.energy_norm(wts, vals) ** 2
        worst = min(worst, b / nrm2)
    entries.append(DiagnosticEntry(
        f"coercivity B(xi,xi)/|||xi|||^2 over {COERCIVITY_TRIPLES} random "
        "triples",
        worst, 1.0 - 1e-10, worst >= 1.0 - 1e-10))

    rep2, _, _ = solve_cell(cfg2, k, eps, N)
    delta = abs(rep2.energy_error - report.energy_error) / max(
        report.energy_error, ERROR_FLOOR)
    entries.append(DiagnosticEntry(
        "quadrature robustness (+2 points, relative change)",
        delta, 1e-3, delta < 1e-3))

    return DiagnosticReport(entries)
