"""Command-line front end.

Subcommands: solve (single run), sweep (convergence tables), diagnose
(diagnostic suite), mesh-dump. A plain key=value config file can preload any
flag; explicit flags win. solve, diagnose and mesh-dump print their report,
or write it to the --out file. Exit codes: 0 success, 1 invalid input or
solver or assembly failure, 2 a diagnostic check that FAILs.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .harness import (MODES, StudyConfig, cell_mesh, one_cell,
                      run_diagnostics, run_single, run_sweep)
from .linalg import SolveError
from .mesh import dump_mesh
from .norms import StabilizationError
from .problems import get_problem

EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION = 0, 1, 2


# config key (the flag without "--", "-" read as "_") -> (StudyConfig field,
# value type, help); a list type marks a repeatable flag
_OPTIONS = {
    "problem": ("problem", str, "problem name (default paper-sec5)"),
    "k": ("k_list", [int], "polynomial degree, repeatable"),
    "eps": ("eps_list", [float], "perturbation parameter, repeatable"),
    "n": ("n_list", [int], "mesh cells per direction, repeatable"),
    "sigma": ("sigma", float, "mesh parameter (default k+1)"),
    "tau": ("tau", float, "stabilization constant"),
    "mode": ("mode", str, "errors to measure and tabulate"),
    "quad_assembly": ("quad_assembly", int,
                      "quadrature points per direction for assembly"),
    "quad_error": ("quad_error", int,
                   "quadrature points per direction for error norms"),
    "out": ("out_dir", str, "table directory (sweep) or file for the report"),
}


def parse_config_file(path: str) -> dict:
    """key=value per line; '#' starts a comment; list values separated by
    commas or whitespace. Returns the values by StudyConfig field."""
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            field, typ, _ = _OPTIONS[key]
            items = val.replace(",", " ").split()
            try:
                out[field] = [typ[0](v) for v in items] \
                    if isinstance(typ, list) else typ(val)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {key}: {exc}") from None
    return out


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file (flags override)")
    for key, (field, typ, help_) in _OPTIONS.items():
        kw = dict(type=typ, metavar=key.upper())
        if isinstance(typ, list):
            kw.update(type=typ[0], action="append")
        elif key == "mode":
            kw.update(choices=MODES, metavar=None)
        p.add_argument("--" + key.replace("_", "-"), dest=field, help=help_,
                       **kw)


def study_config(args) -> StudyConfig:
    """The config file's values, overridden by every flag given."""
    fields = parse_config_file(args.config) if args.config else {}
    for field, _, _ in _OPTIONS.values():
        if getattr(args, field) is not None:
            fields[field] = getattr(args, field)
    return StudyConfig(**fields)


def _emit(cfg: StudyConfig, text: str) -> None:
    """Write a single-cell command's report to the --out file, else stdout."""
    if cfg.out_dir:
        with open(cfg.out_dir, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    cfg = study_config(args)
    report = run_single(cfg)
    pairs = [("problem", cfg.problem), ("N", report.N), ("k", report.k),
             ("epsilon", f"{report.epsilon:.6e}"),
             ("sigma", cfg.sigma_for(report.k)), ("tau", cfg.tau),
             ("energy_error", f"{report.energy_error:.12e}"),
             ("l2_error_u", f"{report.l2_error_u:.12e}"),
             ("l2_error_q", f"{report.l2_error_q:.12e}")]
    if report.supercloseness_error is not None:
        pairs.append(("supercloseness_error",
                      f"{report.supercloseness_error:.12e}"))
    for reg, val in sorted(report.region_cell_sq.items()):
        pairs.append((f"region_{reg}_cell_sq", f"{val:.12e}"))
    _emit(cfg, "".join(f"{key} = {val}\n" for key, val in pairs))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = study_config(args)
    result = run_sweep(cfg)
    for table in result.tables:
        print(f"# k = {table.k}, {table.mode} error")
        print(table.to_markdown())
    for k, eps, n, msg in result.failures:
        print(f"failed cell (k={k}, eps={eps:g}, N={n}): {msg}",
              file=sys.stderr)
    return EXIT_SOLVER if result.failures else EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = study_config(args)
    report = run_diagnostics(cfg)
    _emit(cfg, report.render())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_mesh_dump(args) -> int:
    cfg = study_config(args)
    k, eps, n = one_cell(cfg, "mesh-dump")
    _emit(cfg, dump_mesh(cell_mesh(cfg, get_problem(cfg.problem, eps), k, n)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shishkin-hdg",
        description="HDG convergence studies on Shishkin meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_ in [
            ("solve", cmd_solve, "single solve, report to stdout"),
            ("sweep", cmd_sweep, "convergence sweep, CSV + markdown tables"),
            ("diagnose", cmd_diagnose, "diagnostic suite"),
            ("mesh-dump", cmd_mesh_dump, "plain-text mesh dump")]:
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SolveError, StabilizationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
