"""Study driver and command-line interface."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from shishkin_hdg import (cli, harness, layerquad, linalg, norms, problems,
                          projections)
from shishkin_hdg.assembly import assemble_and_solve
from shishkin_hdg.harness import (DiagnosticReport, StudyConfig, run_diagnostics,
                                  run_single, run_sweep)
from shishkin_hdg.linalg import SolveFallbackWarning
from shishkin_hdg.mesh import build_mesh
from shishkin_hdg.refelem import CellQuad


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
    # repeats are dropped: k and eps keep their first place, N is sorted
    assert _cfg(k_list=[2, 1, 2], eps_list=[1e-2, 1e-3, 1e-2],
                n_list=[16, 4, 8, 8]).grid() == ([2, 1], [1e-2, 1e-3],
                                                 [4, 8, 16])
    # an empty k, eps or N list would give no tables or empty ones
    for empty in (dict(k_list=[]), dict(eps_list=[]), dict(n_list=[])):
        with pytest.raises(ValueError, match="must not be empty"):
            _cfg(**empty)
    # a bad degree, eps, problem, rule or mesh late in a list fails before
    # any solve: k = 29 needs a 33-point error rule, and at eps = 1e-17 the
    # fine mesh nodes coincide
    for bad, msg in ((dict(k_list=[1, 0]), "k must be >= 1"),
                     (dict(eps_list=[1e-2, 2.0]), "epsilon must lie"),
                     (dict(eps_list=[1e-2, 1e-17]), "nodes coincide"),
                     (dict(n_list=[4, 6]), "divisible by 4, got 6"),
                     (dict(k_list=[1, 29]), "quadrature above 30"),
                     (dict(problem="nope"), "unknown problem")):
        with pytest.raises(ValueError, match=msg):
            _cfg(**bad)


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


def test_sweep_records_a_failed_trace_solve(monkeypatch):
    # the box tree misses its gate in every cell, and SuperLU's
    # factorization fails at N = 8 alone (k = 1: 2 dofs on each of the
    # 2 N (N + 1) edges): that cell is recorded as a SolveError with the
    # fallback's message, and N = 4 keeps its report
    up = linalg._condense_up
    monkeypatch.setattr(linalg, "_condense_up", lambda *args: [
        [X * (1 + 1e-6) for X in level] for level in up(*args)])
    splu = linalg.spla.splu

    def singular_at_8(csc, **kw):
        if csc.shape[0] == 2 * 2 * 8 * 9:
            raise RuntimeError("Factor is exactly singular")
        return splu(csc, **kw)

    monkeypatch.setattr(linalg.spla, "splu", singular_at_8)
    with pytest.warns(SolveFallbackWarning):
        res = run_sweep(_cfg(n_list=[4, 8]))
    [(k, eps, n, msg)] = res.failures
    assert (k, eps, n) == (1, 1e-2, 8)
    assert "factorization failed: Factor is exactly singular" in msg
    cells = res.tables[0].cells[1e-2]
    assert cells[8] == f"SolveError: {msg}"
    assert isinstance(cells[4], norms.ErrorReport)
    assert cells[4].N == 4 and cells[4].energy_error > 0


def test_sweep_propagates_programming_errors(monkeypatch):
    # only numerical failures are recorded per cell; a bug must surface
    def broken(*args):
        raise TypeError("broken cell")
    monkeypatch.setattr(harness, "solve_cell", broken)
    with pytest.raises(TypeError, match="broken cell"):
        run_sweep(_cfg(n_list=[4]))


# measure blocks at N = 16: the default's one, and four of 5, 5, 5 and 1
# columns
BLOCKS = (norms.BLOCK_CELLS, 80)


def test_solve_cell_evaluates_each_point_set_once(monkeypatch):
    # the projection and every error measure share one evaluation of the
    # exact solution and of the coefficients: within one solve cell no
    # field is evaluated twice on the same point array, however many
    # measure blocks there are
    seen = Counter()
    on_edge_lines = set()  # the fields evaluated on edges

    def recorded(name, fn):
        def field(x, y):
            # on the lines of an edge the x or the y factor has one point
            # per line (refelem.on_lines)
            if min(np.prod(np.shape(x)[-2:]), np.prod(np.shape(y)[-2:])) == 1:
                on_edge_lines.add(name)
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
    for block_cells in BLOCKS:
        monkeypatch.setattr(norms, "BLOCK_CELLS", block_cells)
        seen.clear()
        on_edge_lines.clear()
        # eps = 1e-6 at N = 16 has layer batches at both rules
        harness.solve_cell(_cfg(mode="both"), 1, 1e-6, 16)
        assert {key[0] for key in seen} == {"u", "u_x", "u_y", "beta1",
                                            "beta2", "c", "div_beta", "f"}
        repeated = sorted((key[0], key[1]) for key, count in seen.items()
                          if count > 1)
        assert not repeated, repeated
        # only the residual reads the normal flux r.n, so no error measure
        # evaluates the exact flux on the edges; u is, as the trace
        assert "u" in on_edge_lines
        assert not on_edge_lines & {"u_x", "u_y"}, on_edge_lines


def test_solve_cell_evaluates_each_layer_basis_once(monkeypatch):
    # the projection and the error corrections read the same composite
    # batches: each batch's basis table is evaluated once (two 1D
    # evaluations, x and y), however many readers and measure blocks it has
    built, evals = [], []

    def layer_batches(*args, **kw):
        out = real_batches(*args, **kw)
        built.extend(out)
        return out

    def legendre(k, points):
        evals.append(k)
        return real_legendre(k, points)

    real_batches = layerquad.layer_batches
    real_legendre = layerquad.legendre
    monkeypatch.setattr(layerquad, "layer_batches", layer_batches)
    monkeypatch.setattr(layerquad, "legendre", legendre)
    for block_cells in BLOCKS:
        monkeypatch.setattr(norms, "BLOCK_CELLS", block_cells)
        built.clear()
        evals.clear()
        harness.solve_cell(_cfg(mode="both"), 1, 1e-6, 16)
        assert built and len(evals) == 2 * len(built)


@pytest.mark.parametrize("k, N", [(k, N) for k in (1, 2, 3)
                                  for N in (12, 16, 20)])
def test_error_report_does_not_depend_on_the_measure_blocks(monkeypatch, k,
                                                            N):
    # blocks of one column, of three (the last one shorter at N = 16 and
    # 20) and of the whole mesh give the same report to the bit: each
    # block writes its cells' terms, and each sum runs once over the mesh
    cfg = _cfg(k_list=[k], eps_list=[1e-6], n_list=[N])
    spec = problems.get_problem(cfg.problem, 1e-6)
    mesh = harness.cell_mesh(cfg, spec, k, N)
    hdg = cfg.hdg(k)
    fields = assemble_and_solve(mesh, spec, hdg)
    cq = CellQuad(mesh, hdg.n_error)
    assert layerquad.layer_batches(mesh, spec, cq.n, k)
    reports = []
    for columns in (1, 3, N):
        monkeypatch.setattr(norms, "BLOCK_CELLS", columns * N)
        reports.append([norms.error_report(cq, spec, hdg, fields, project)
                        for project in (projections.project_exact, None)])
    assert reports[0][0].supercloseness_error is not None
    assert reports[0][1].supercloseness_error is None
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_skips_rates_for_non_doubling_pairs():
    res = run_sweep(_cfg(n_list=[4, 12]))
    assert res.tables[0].rates[1e-2] == {}


def test_diagnostics_pass_at_moderate_epsilon(monkeypatch):
    cfg = _cfg(n_list=[8])
    rep = run_diagnostics(cfg)
    assert isinstance(rep, DiagnosticReport)
    assert rep.passed, rep.render()
    text = rep.render()
    assert "over 200 random triples" in text and "diagnostics passed" in text
    with pytest.raises(ValueError):
        run_diagnostics(_cfg(n_list=[4, 8]))

    # the robustness check raises both rules by 2 points; a raised rule
    # above 30 points fails before the first solve
    def no_solve(*args):
        raise AssertionError("solved before the raised rule was checked")

    monkeypatch.setattr(harness, "solve_cell", no_solve)
    with pytest.raises(ValueError, match="quadrature above 30 points"):
        run_diagnostics(_cfg(n_list=[4], quad_error=29))


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


def test_cli_config_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("nope = 1\n")
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_SOLVER
    bad.write_text("just a line\n")
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_SOLVER
    assert cli.main(["solve", "--config", str(tmp_path / "missing.conf")]) \
        == cli.EXIT_SOLVER
    capsys.readouterr()
    # a value that fails to convert names its line and key
    for line, msg in (("tau = abc", "tau: could not convert string to float"),
                      ("k = 1.5", "k: invalid literal for int()")):
        bad.write_text(f"eps = 1e-2\nn = 4\n{line}\n")
        assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert f"error: {bad}:3: {msg}" in captured.err and not captured.out


# every option as a config-file value and as the same value given by flags
_OPTION_SAMPLES = {
    "problem": ("poly-q2", ["--problem", "poly-q2"]),
    "k": ("1, 2", ["--k", "1", "--k", "2"]),
    "eps": ("1e-3 1e-5", ["--eps", "1e-3", "--eps", "1e-5"]),
    "n": ("8,16", ["--n", "8", "--n", "16"]),
    "sigma": ("3.5", ["--sigma", "3.5"]),
    "tau": ("2.5", ["--tau", "2.5"]),
    "mode": ("both", ["--mode", "both"]),
    "quad_assembly": ("6", ["--quad-assembly", "6"]),
    "quad_error": ("7", ["--quad-error", "7"]),
    "out": ("tables", ["--out", "tables"]),
}


@pytest.mark.parametrize("key", sorted(cli._OPTIONS))
def test_cli_config_file_and_flags_agree(key, tmp_path):
    # a removed option leaves no sample behind, and a new one needs one
    assert set(_OPTION_SAMPLES) == set(cli._OPTIONS)
    text, flags = _OPTION_SAMPLES[key]
    conf = tmp_path / "one.conf"
    conf.write_text(f"{key.replace('_', '-')} = {text}\n")
    parser = cli.build_parser()
    from_file = cli.study_config(parser.parse_args(
        ["sweep", "--config", str(conf)]))
    from_flags = cli.study_config(parser.parse_args(["sweep"] + flags))
    assert from_file == from_flags != StudyConfig()


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


def test_cli_invalid_value_exit_code(capsys, tmp_path, monkeypatch):
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
    # a config-file line that leaves the k, eps or N list empty is an
    # error, not empty tables
    for text in ("k =\nn = 8 16\n", "eps =\nn = 8 16\n", "n =\n"):
        conf = tmp_path / "empty.conf"
        conf.write_text(text)
        rc = cli.main(["sweep", "--config", str(conf)])
        assert rc == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert "must not be empty" in captured.err and not captured.out

    def no_solve(*args):
        raise AssertionError("a cell was solved")

    # an invalid degree late in the list fails before any cell is solved
    monkeypatch.setattr(harness, "solve_cell", no_solve)
    rc = cli.main(["sweep", "--k", "1", "--k", "0", "--eps", "1e-6",
                   "--n", "4", "--n", "8", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "k must be >= 1" in captured.err and not captured.out
    assert not (tmp_path / "out").exists()
    # a NaN sigma or a NaN or infinite tau is rejected before any solve
    for cmd, flags, message in (
            ("sweep", ["--sigma", "nan"], "sigma must be positive"),
            ("solve", ["--sigma", "nan"], "sigma must be positive"),
            ("solve", ["--tau", "nan"], "tau must be finite and positive"),
            ("solve", ["--tau", "inf"], "tau must be finite and positive"),
            ("sweep", ["--tau", "nan", "--n", "4", "--n", "8"],
             "tau must be finite and positive")):
        rc = cli.main([cmd, "--k", "1", "--eps", "1e-6", "--n", "8", *flags])
        assert rc == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out


def test_cli_sweep_checks_every_mesh_before_solving(capsys, tmp_path,
                                                    monkeypatch):
    def no_solve(*args):
        raise AssertionError("a cell was solved")

    # at eps = 1e-17 the fine nodes of the N = 4 mesh coincide; the first
    # eps is fine, and its cells are not solved either
    monkeypatch.setattr(harness, "solve_cell", no_solve)
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--k", "1", "--eps", "1e-6", "--eps", "1e-17",
                   "--n", "4", "--n", "8", "--out", str(out)])
    assert rc == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "epsilon = 1e-17" in captured.err and not captured.out
    assert not out.exists()


def test_cli_sweep_solves_repeated_k_and_eps_once(capsys, tmp_path,
                                                  monkeypatch):
    calls = Counter()
    real_solve = harness.solve_cell

    def counted_solve(cfg, k, eps, n):
        calls[k, eps, n] += 1
        return real_solve(cfg, k, eps, n)

    monkeypatch.setattr(harness, "solve_cell", counted_solve)
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--k", "1", "--k", "1", "--eps", "1e-6",
                   "--eps", "1e-6", "--n", "4", "--n", "8", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert calls == {(1, 1e-6, 4): 1, (1, 1e-6, 8): 1}
    csv = (out / "table_k1_energy.csv").read_text().splitlines()
    assert [row.split(",")[3] for row in csv[1:]] == ["4", "8"]
    assert (out / "table_k1_energy.md").read_text().count("eps=1e-06") == 1


def test_cli_solve_counts_a_repeated_k_and_eps_once(capsys):
    rc = cli.main(["solve", "--k", "1", "--k", "1", "--eps", "1e-2",
                   "--eps", "1e-2", "--n", "8"])
    repeated = capsys.readouterr()
    assert rc == cli.EXIT_OK and not repeated.err
    assert cli.main(["solve", "--k", "1", "--eps", "1e-2", "--n", "8"]) == 0
    assert repeated.out == capsys.readouterr().out


@pytest.mark.parametrize("command", ["diagnose", "mesh-dump"])
@pytest.mark.parametrize("extra", [["--n", "4"], ["--eps", "1e-3"],
                                   ["--k", "2"]])
def test_cli_single_cell_commands_reject_a_second_value(command, extra,
                                                        capsys):
    # a second N, eps or k is an error, as for solve, not dropped unseen;
    # a repeat of the same value is one value
    rc = cli.main([command, "--k", "1", "--eps", "1e-2", "--n", "8", *extra])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_SOLVER and not captured.out
    assert captured.err == (f"error: {command} needs exactly one k, one "
                            "epsilon, one N\n")
    rc = cli.main([command, "--k", "1", "--eps", "1e-2", "--n", "8",
                   "--n", "8"])
    assert rc == cli.EXIT_OK and capsys.readouterr().out


def test_cli_solve_solver_failure_exit_code(capsys):
    # tau = 0.5 violates tau - |beta.n|/2 > 0 (max |beta.n|/2 = 1.5)
    rc = cli.main(["solve", "--k", "1", "--eps", "1e-2", "--n", "4",
                   "--tau", "0.5"])
    assert rc == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err.startswith("solver failure:") and not captured.out


def test_cli_diagnose_strict_failure_exit_code(capsys):
    # the known orthogonality FAIL at this eps fails the suite
    rc = cli.main(["diagnose", "--k", "1", "--eps", "1e-6", "--n", "8"])
    assert rc == cli.EXIT_VALIDATION
    assert "FAIL  discrete orthogonality" in capsys.readouterr().out


def test_diagnose_names_each_violated_bound(capsys, monkeypatch):
    # declared bounds above the coefficients fail the assumption entry,
    # whose detail names each bound and how far the problem drops below it
    monkeypatch.setitem(
        problems.PROBLEMS, "overclaimed",
        lambda eps: dataclasses.replace(problems.paper_problem(eps),
                                        beta_lb=(5.0, 5.0), c0=5.0))
    entry = run_diagnostics(_cfg(problem="overclaimed", n_list=[4])).entries[0]
    assert entry.name.startswith("assumption margins") and not entry.passed
    # beta1 = 2 - x drops 4 below 5 at x = 1, beta2 = 3 - y^3 drops 3 at
    # y = 1, and c - div(beta)/2 = 3/2 + (3/2) y^2 drops 3.5 at y = 0
    assert entry.value == pytest.approx(-4.0)
    assert entry.detail == ("beta1 drops 4.000e+00 below its declared bound; "
                            "beta2 drops 3.000e+00 below its declared bound; "
                            "c - div(beta)/2 drops 3.500e+00 below its "
                            "declared bound")
    rc = cli.main(["diagnose", "--problem", "overclaimed", "--k", "1",
                   "--eps", "1e-2", "--n", "4"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_VALIDATION
    assert out.startswith("FAIL  assumption margins") and entry.detail in out


def test_cli_diagnose(capsys):
    rc = cli.main(["diagnose", "--k", "1", "--eps", "1e-2", "--n", "8"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "diagnostics passed" in out


@pytest.mark.parametrize("k, eps, n", [(2, "1e-3", "8"), (3, "1e-2", "4")])
def test_cli_diagnose_passes_on_an_exact_solve(capsys, k, eps, n):
    # poly-q2 lies in the discrete space, so both energy errors are
    # rounding noise (3e-16 and 2e-16 at k=2); the robustness entry must
    # not read their relative change as a quadrature effect
    rc = cli.main(["diagnose", "--problem", "poly-q2", "--k", str(k),
                   "--eps", eps, "--n", n])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK, out
    assert out.count("pass  ") == 6 and "diagnostics passed" in out


def test_markdown_headers_tell_close_epsilons_apart(capsys):
    rc = cli.main(["sweep", "--eps", "1.5e-6", "--eps", "2e-6", "--n", "4"])
    assert rc == cli.EXIT_OK
    head = capsys.readouterr().out.splitlines()[1]
    assert "eps=1.5e-06" in head and head.count("eps=2e-06") == 1


def test_cli_diagnose_warns_once_about_sigma(capsys):
    # the configs diagnose derives from the command's do not warn again
    with pytest.warns(UserWarning) as rec:
        rc = cli.main(["diagnose", "--k", "1", "--eps", "1e-2", "--n", "8",
                       "--sigma", "1.5"])
    assert rc == cli.EXIT_OK
    sigma = [w for w in rec if "sigma = 1.5 below k+1" in str(w.message)]
    assert [w.filename for w in sigma] == [cli.__file__]
    assert "diagnostics" in capsys.readouterr().out


def test_cli_mesh_dump(capsys):
    rc = cli.main(["mesh-dump", "--eps", "1e-3", "--n", "8"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "N = 8" in out or "8" in out.splitlines()[0]
    # the default sigma is the study's k + 1 for the first degree
    cli.main(["mesh-dump", "--eps", "1e-3", "--n", "8", "--k", "2"])
    tau_x = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert tau_x == build_mesh(8, 1e-3, 3.0, 1.0, 2.0).tau_x


@pytest.mark.parametrize("command", ["solve", "diagnose", "mesh-dump"])
def test_cli_out_writes_the_printed_report(command, capsys, tmp_path):
    # --out takes the place of stdout, with the same text
    args = [command, "--k", "1", "--eps", "1e-2", "--n", "4"]
    assert cli.main(args) == cli.EXIT_OK
    printed = capsys.readouterr().out
    target = tmp_path / "report.txt"
    assert cli.main(args + ["--out", str(target)]) == cli.EXIT_OK
    assert not capsys.readouterr().out
    assert target.read_text() == printed


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
