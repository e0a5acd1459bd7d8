"""Command-line front end.

Subcommands: solve (single run), sweep (convergence tables), diagnose
(diagnostic suite), mesh-dump. A plain key=value config file can preload any
flag; explicit flags win. Exit codes: 0 success, 1 solver or assembly
failure, 2 validation failure under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .harness import MODES, StudyConfig, run_diagnostics, run_single, run_sweep
from .linalg import SolveError
from .mesh import MeshConfig, build_mesh, dump_mesh
from .norms import StabilizationError
from .problems import get_problem, verify_assumptions

log = logging.getLogger(__name__)

EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION = 0, 1, 2

_LIST_KEYS = {"k", "eps", "n"}
# StudyConfig field of each option key that is named differently
_FIELDS = {"k": "k_list", "eps": "eps_list", "n": "n_list", "out": "out_dir"}
_KEYS = {field: key for key, field in _FIELDS.items()}
_DEFAULTS = {_KEYS.get(name, name): val
             for name, val in dataclasses.asdict(StudyConfig()).items()}


def parse_config_file(path: str) -> dict:
    """key=value per line; '#' starts a comment; list values separated by
    commas or whitespace."""
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
            if key not in _DEFAULTS:
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            out[key] = _coerce(key, val)
    return out


def _coerce(key: str, val: str):
    if key in _LIST_KEYS:
        items = val.replace(",", " ").split()
        cast = int if key in ("k", "n") else float
        return [cast(v) for v in items]
    if key in ("sigma", "tau"):
        return float(val)
    if key in ("quad_assembly", "quad_error", "max_n"):
        return int(val)
    if key == "strict":
        return val.lower() in ("1", "true", "yes", "on")
    return val


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file (flags override)")
    p.add_argument("--problem", help="problem name (default paper-sec5)")
    p.add_argument("--k", type=int, action="append",
                   help="polynomial degree, repeatable")
    p.add_argument("--eps", type=float, action="append",
                   help="perturbation parameter, repeatable")
    p.add_argument("--n", type=int, action="append",
                   help="mesh cells per direction, repeatable")
    p.add_argument("--sigma", type=float, help="mesh parameter (default k+1)")
    p.add_argument("--tau", type=float, help="stabilization constant")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--quad-assembly", type=int, dest="quad_assembly",
                   help="quadrature points per direction for assembly")
    p.add_argument("--quad-error", type=int, dest="quad_error",
                   help="quadrature points per direction for error norms")
    p.add_argument("--out", help="output directory (sweep) or file")
    p.add_argument("--strict", action="store_true", default=None,
                   help="turn validation failures into exit code 2")
    p.add_argument("--max-n", type=int, dest="max_n",
                   help="cap on N values taken from the sweep grid")


def merged_options(args) -> dict:
    opts = dict(_DEFAULTS)
    if args.config:
        opts.update(parse_config_file(args.config))
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def study_config(opts: dict) -> StudyConfig:
    return StudyConfig(**{_FIELDS.get(key, key): val
                          for key, val in opts.items()})


def _strict_assumption_gate(opts: dict) -> bool:
    rep = verify_assumptions(get_problem(opts["problem"], opts["eps"][0]))
    if not rep.passed:
        for msg in rep.failures():
            print(f"assumption check failed: {msg}", file=sys.stderr)
    return rep.passed


def cmd_solve(args) -> int:
    opts = merged_options(args)
    cfg = study_config(opts)
    if cfg.strict and not _strict_assumption_gate(opts):
        return EXIT_VALIDATION
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
    for key, val in pairs:
        print(f"{key} = {val}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    opts = merged_options(args)
    cfg = study_config(opts)
    if cfg.strict and not _strict_assumption_gate(opts):
        return EXIT_VALIDATION
    result = run_sweep(cfg)
    for table in result.tables:
        print(f"# k = {table.k}, {table.mode} error")
        print(table.to_markdown())
    for k, eps, n, msg in result.failures:
        print(f"failed cell (k={k}, eps={eps:g}, N={n}): {msg}",
              file=sys.stderr)
    if result.failures:
        return EXIT_SOLVER
    return EXIT_OK


def cmd_diagnose(args) -> int:
    opts = merged_options(args)
    if len(opts["n"]) > 1:
        opts["n"] = opts["n"][:1]
    cfg = study_config(opts)
    report = run_diagnostics(cfg)
    sys.stdout.write(report.render())
    if not report.passed and cfg.strict:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_mesh_dump(args) -> int:
    opts = merged_options(args)
    sigma = study_config(opts).sigma_for(opts["k"][0])
    spec = get_problem(opts["problem"], opts["eps"][0])
    mcfg = MeshConfig(opts["n"][0], opts["eps"][0], sigma,
                      spec.beta_lb[0], spec.beta_lb[1])
    text = dump_mesh(build_mesh(mcfg))
    if opts["out"]:
        with open(opts["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
