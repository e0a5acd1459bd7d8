"""Study driver and command-line interface."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from shishkin_hdg import cli, harness, layerquad, problems
from shishkin_hdg.harness import (DiagnosticReport, StudyConfig, run_diagnostics,
                                  run_single, run_sweep)
from shishkin_hdg.mesh import MeshConfig, build_mesh


def _cfg(**kw):
    base = dict(problem="paper-sec5", k_list=[1], eps_list=[1e-2],
                n_list=[4, 8], mode="true-error")
    base.update(kw)
    return StudyConfig(**base)


def test_study_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_list=[6])
    with pytest.raises(ValueError):
        _cfg(mode="l2")
    with pytest.warns(UserWarning) as rec:
        _cfg(sigma=1.5)
    # the warning names the line that built the config, not the generated
    # __init__ of the dataclass
    assert rec[0].filename == __file__
    assert _cfg().sigma_for(2) == 3.0
    assert _cfg(sigma=4.0).sigma_for(1) == 4.0
    assert _cfg(n_list=[16, 4, 8, 8], max_n=8).effective_n_list() == [4, 8]
    with pytest.raises(ValueError, match="leaves no N"):
        _cfg(n_list=[8, 16], max_n=4)
    # an empty k or eps list would give no tables or empty ones
    for empty in (dict(k_list=[]), dict(eps_list=[])):
        with pytest.raises(ValueError, match="must not be empty"):
            _cfg(**empty)


def test_run_single_requires_one_cell():
    with pytest.raises(ValueError):
        run_single(_cfg(n_list=[4, 8]))
    rep = run_single(_cfg(n_list=[8], mode="both"))
    assert rep.N == 8 and rep.supercloseness_error is not None
    assert 0 < rep.supercloseness_error < rep.energy_error


def test_sweep_rates_and_modes():
    res = run_sweep(_cfg(n_list=[4, 8, 16], mode="both"))
    assert not res.failures
    assert [t.mode for t in res.tables] == ["energy", "supercloseness"]
    t = res.tables[0]
    # errors decrease and rates exist except on the last row
    errs = [t.cells[1e-2][n].energy_error for n in (4, 8, 16)]
    assert errs[0] > errs[1] > errs[2]
    assert set(t.rates[1e-2]) == {4, 8}
    fitted, dyadic = t.rates[1e-2][8]
    assert 0.5 < dyadic < 2.5 and 0.5 < fitted < 3.5


def test_sweep_csv_markdown_deterministic(tmp_path):
    out = tmp_path / "tables"
    cfg = _cfg(n_list=[4, 8], out_dir=str(out))
    run_sweep(cfg)
    first = (out / "table_k1_energy.csv").read_text()
    md = (out / "table_k1_energy.md").read_text()
    run_sweep(cfg)
    assert (out / "table_k1_energy.csv").read_text() == first
    assert first.splitlines()[0] == "mode,k,eps,N,error,rate,rate_dyadic"
    assert len(first.splitlines()) == 3
    lines = md.splitlines()
    assert lines[0].startswith("| N")
    assert lines[-1].split("|")[-2].strip() == "---"  # last row has no rate


def test_sweep_records_failed_cells():
    # tau far below max |beta.n|/2 = 1.5 trips the stabilization gate
    res = run_sweep(_cfg(n_list=[4, 8], tau=0.2))
    assert res.failures
    assert len(res.failures) == 2
    t = res.tables[0]
    assert isinstance(t.cells[1e-2][4], str)
    assert t.rates[1e-2] == {}
    assert "error" in t.to_csv()


def test_sweep_propagates_programming_errors(monkeypatch):
    # only numerical failures are recorded per cell; a bug must surface
    def broken(*args):
        raise TypeError("broken cell")
    monkeypatch.setattr(harness, "solve_cell", broken)
    with pytest.raises(TypeError, match="broken cell"):
        run_sweep(_cfg(n_list=[4]))


def test_solve_cell_evaluates_each_point_set_once(monkeypatch):
    # the projection and every error measure share one evaluation of the
    # exact solution and of the coefficients: within one solve cell no
    # field is evaluated twice on the same point array
    seen = Counter()

    def recorded(name, fn):
        def field(x, y):
            bx, by = np.broadcast_arrays(np.asarray(x, float),
                                         np.asarray(y, float))
            seen[(name, bx.shape, bx.tobytes(), by.tobytes())] += 1
            return fn(x, y)
        return field

    def get_problem(name, eps):
        spec = problems.get_problem(name, eps)
        ex = spec.exact
        exact = dataclasses.replace(ex, **{
            f: recorded(f, getattr(ex, f))
            for f in ("u", "u_x", "u_y", "laplacian")})
        return dataclasses.replace(spec, exact=exact, **{
            f: recorded(f, getattr(spec, f))
            for f in ("beta1", "beta2", "c", "div_beta", "f")})

    monkeypatch.setattr(harness, "get_problem", get_problem)
    # eps = 1e-6 at N = 16 has layer batches at both rules
    harness.solve_cell(_cfg(mode="both"), 1, 1e-6, 16)
    assert {key[0] for key in seen} == {"u", "u_x", "u_y", "beta1", "beta2",
                                        "c", "div_beta", "f"}
    repeated = sorted((key[0], key[1]) for key, count in seen.items()
                      if count > 1)
    assert not repeated, repeated


def test_solve_cell_evaluates_each_layer_basis_once(monkeypatch):
    # the projection and the error corrections read the same composite
    # batches: each batch's basis table is evaluated once (two 1D
    # evaluations, x and y), however many readers it has
    built, evals = [], []

    def layer_batches(*args, **kw):
        out = real_batches(*args, **kw)
        built.extend(out)
        return out

    class CountedBasis(layerquad.Basis1D):
        def eval(self, points):
            evals.append(self.degree)
            return super().eval(points)

    real_batches = layerquad.layer_batches
    monkeypatch.setattr(layerquad, "layer_batches", layer_batches)
    monkeypatch.setattr(layerquad, "Basis1D", CountedBasis)
    harness.solve_cell(_cfg(mode="both"), 1, 1e-6, 16)
    assert built and len(evals) == 2 * len(built)


def test_skips_rates_for_non_doubling_pairs():
    res = run_sweep(_cfg(n_list=[4, 12]))
    assert res.tables[0].rates[1e-2] == {}


def test_diagnostics_pass_at_moderate_epsilon():
    cfg = _cfg(n_list=[8])
    rep = run_diagnostics(cfg, n_triples=50)
    assert isinstance(rep, DiagnosticReport)
    assert rep.passed, rep.render()
    text = rep.render()
    assert "coercivity" in text and "diagnostics passed" in text
    with pytest.raises(ValueError):
        run_diagnostics(_cfg(n_list=[4, 8]))


def test_cli_solve_and_flag_override(capsys, tmp_path):
    conf = tmp_path / "study.conf"
    conf.write_text(
        "# single solve\n"
        "problem = paper-sec5\n"
        "k = 1\n"
        "eps = 1e-2\n"
        "n = 4\n"
        "mode = both\n"
        "tau = 3.0\n")
    rc = cli.main(["solve", "--config", str(conf), "--n", "8"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "N = 8" in out  # flag wins over the config file
    assert "energy_error = " in out and "supercloseness_error = " in out
    assert "region_smooth_cell_sq = " in out


def test_cli_config_file_errors(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("nope = 1\n")
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_SOLVER
    bad.write_text("just a line\n")
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_SOLVER
    assert cli.main(["solve", "--config", str(tmp_path / "missing.conf")]) \
        == cli.EXIT_SOLVER


def test_cli_sweep_writes_tables(capsys, tmp_path):
    out = tmp_path / "tab"
    rc = cli.main(["sweep", "--k", "1", "--eps", "1e-2", "--n", "4",
                   "--n", "8", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert "# k = 1, energy error" in capsys.readouterr().out
    assert (out / "table_k1_energy.csv").exists()


def test_cli_sweep_solver_failure_exit_code(capsys):
    rc = cli.main(["sweep", "--k", "1", "--eps", "1e-2", "--n", "4",
                   "--tau", "0.2"])
    assert rc == cli.EXIT_SOLVER
    assert "failed cell" in capsys.readouterr().err


def test_cli_invalid_value_exit_code(capsys, tmp_path):
    rc = cli.main(["solve", "--k", "1", "--eps", "1e-2", "--n", "6"])
    assert rc == cli.EXIT_SOLVER
    assert "error:" in capsys.readouterr().err
    # an error rule below k+1 points under-integrates the norm; 0 is not
    # "use the default"
    for q in ("1", "0"):
        rc = cli.main(["solve", "--k", "2", "--eps", "1e-2", "--n", "8",
                       "--quad-error", q, "--mode", "true-error"])
        assert rc == cli.EXIT_SOLVER
        assert "error quadrature below k+1" in capsys.readouterr().err
    # a cap that leaves no N is an error, not empty tables
    rc = cli.main(["sweep", "--k", "1", "--eps", "1e-6", "--n", "8",
                   "--n", "16", "--max-n", "4"])
    assert rc == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "leaves no N" in captured.err and not captured.out
    # so is a config-file line that leaves the k or the eps list empty
    for line in ("k =", "eps ="):
        conf = tmp_path / "empty.conf"
        conf.write_text(f"{line}\nn = 8 16\n")
        rc = cli.main(["sweep", "--config", str(conf)])
        assert rc == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert "must not be empty" in captured.err and not captured.out


def test_cli_solve_solver_failure_exit_code(capsys):
    # tau = 0.5 violates tau - |beta.n|/2 > 0 (max |beta.n|/2 = 1.5)
    rc = cli.main(["solve", "--k", "1", "--eps", "1e-2", "--n", "4",
                   "--tau", "0.5"])
    assert rc == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err.startswith("solver failure:") and not captured.out


def test_cli_diagnose_strict_failure_exit_code(capsys):
    # the known orthogonality FAIL at this eps fails the suite under --strict
    rc = cli.main(["diagnose", "--k", "1", "--eps", "1e-6", "--n", "8",
                   "--strict"])
    assert rc == cli.EXIT_VALIDATION
    assert "orthogonality" in capsys.readouterr().out


def test_cli_strict_assumption_gate(capsys, monkeypatch):
    # declared bounds above the coefficients fail every assumption check
    monkeypatch.setitem(
        problems.PROBLEMS, "overclaimed",
        lambda eps: dataclasses.replace(problems.paper_problem(eps),
                                        beta_lb=(5.0, 5.0), c0=5.0))
    for cmd in ("solve", "sweep"):
        rc = cli.main([cmd, "--problem", "overclaimed", "--k", "1", "--eps",
                       "1e-2", "--n", "4", "--strict"])
        assert rc == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert not captured.out
        for what in ("beta1 drops", "beta2 drops", "c - div(beta)/2 drops"):
            assert f"assumption check failed: {what}" in captured.err


def test_cli_diagnose(capsys):
    rc = cli.main(["diagnose", "--k", "1", "--eps", "1e-2", "--n", "8"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "diagnostics passed" in out


def test_cli_mesh_dump(capsys, tmp_path):
    rc = cli.main(["mesh-dump", "--eps", "1e-3", "--n", "8"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "N = 8" in out or "8" in out.splitlines()[0]
    target = tmp_path / "mesh.txt"
    rc = cli.main(["mesh-dump", "--eps", "1e-3", "--n", "8",
                   "--out", str(target)])
    assert rc == cli.EXIT_OK
    assert target.read_text() == out
    # the default sigma is the study's k + 1 for the first degree
    cli.main(["mesh-dump", "--eps", "1e-3", "--n", "8", "--k", "2"])
    tau_x = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert tau_x == build_mesh(MeshConfig(8, 1e-3, 3.0, 1.0, 2.0)).tau_x


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
