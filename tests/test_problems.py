"""Problem data: manufactured solutions, derivatives, and the declared
bounds of the well-posedness assumptions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import admissible_problems, declared_bound_margins
from shishkin_hdg import cli, harness
from shishkin_hdg.problems import (PROBLEMS, get_problem, paper_problem,
                                   polynomial_problem)


def pde_residual(spec, x, y):
    """-eps*Lap(u) + beta.grad(u) + c*u - f at a point; zero to rounding for
    manufactured problems."""
    ex = spec.exact
    return (-spec.epsilon * ex.laplacian(x, y)
            + spec.beta1(x, y) * ex.u_x(x, y)
            + spec.beta2(x, y) * ex.u_y(x, y)
            + spec.c(x, y) * ex.u(x, y) - spec.f(x, y))


def _fd(f, x, y, h, which):
    if which == "x":
        return (f(x + h, y) - f(x - h, y)) / (2 * h)
    return (f(x, y + h) - f(x, y - h)) / (2 * h)


def test_exact_derivatives_match_finite_differences():
    spec = paper_problem(1e-2)
    ex = spec.exact
    rng = np.random.default_rng(0)
    x = rng.uniform(0.05, 0.95, 20)
    y = rng.uniform(0.05, 0.95, 20)
    h = 1e-6
    assert np.allclose(ex.u_x(x, y), _fd(ex.u, x, y, h, "x"), atol=1e-5)
    assert np.allclose(ex.u_y(x, y), _fd(ex.u, x, y, h, "y"), atol=1e-5)
    lap_fd = (_fd(ex.u_x, x, y, h, "x") + _fd(ex.u_y, x, y, h, "y"))
    assert np.allclose(ex.laplacian(x, y), lap_fd, rtol=1e-4, atol=1e-4)


def test_exact_solution_boundary_conditions():
    spec = paper_problem(1e-3)
    s = np.linspace(0.0, 1.0, 33)
    z = np.zeros_like(s)
    for xb, yb in [(z, s), (z + 1.0, s), (s, z), (s, z + 1.0)]:
        assert np.max(np.abs(spec.exact.u(xb, yb))) < 1e-13


def test_pde_residual_zero_for_manufactured_data():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, 50)
    y = rng.uniform(0.0, 1.0, 50)
    for spec in (paper_problem(1e-1), paper_problem(1e-3),
                 polynomial_problem(1.0), polynomial_problem(1e-2)):
        res = pde_residual(spec, x, y)
        scale = max(1.0, np.max(np.abs(spec.f(x, y))))
        assert np.max(np.abs(res)) < 1e-12 * scale


def test_flux_definition():
    spec = paper_problem(1e-2)
    ex = spec.exact
    x, y = np.array([0.3]), np.array([0.7])
    assert np.isclose(ex.q1(x, y)[0], -1e-2 * ex.u_x(x, y)[0])
    assert np.isclose(ex.q2(x, y)[0], -1e-2 * ex.u_y(x, y)[0])


def test_coefficient_values():
    spec = paper_problem(1e-3)
    x, y = np.array([0.25]), np.array([0.5])
    assert np.isclose(spec.beta1(x, y)[0], 1.75)
    assert np.isclose(spec.beta2(x, y)[0], 3.0 - 0.125)
    assert np.isclose(spec.c(x, y)[0], 1.0)
    assert np.isclose(spec.div_beta(x, y)[0], -1.0 - 0.75)
    assert spec.beta_lb == (1.0, 2.0)
    assert spec.c0 == 1.5


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_registered_problems_keep_their_declared_bounds(name):
    margins = declared_bound_margins(get_problem(name, 1e-4))
    assert min(margins.values()) >= -1e-12, margins
    # beta = (2 - x, 3 - y^3) attains (1, 2) at x = y = 1, and
    # c - div(beta)/2 = 3/2 + (3/2) y^2 attains c0 at y = 0
    assert max(map(abs, margins.values())) < 1e-12, margins


@settings(max_examples=25)
@given(k=st.integers(1, 3), data=st.data())
def test_drawn_problems_keep_their_declared_bounds(k, data):
    spec, _ = data.draw(admissible_problems(k), label="problem")
    margins = declared_bound_margins(spec)
    assert min(margins.values()) >= -1e-12, margins
    # and attains each bound, up to the spacing of the sample grid
    assert max(margins.values()) < 1e-3, margins


def test_assumptions_fail_for_misdeclared_bound():
    # the helper catches a bound that the coefficients do not keep
    bad = dataclasses.replace(paper_problem(1e-4), beta_lb=(3.0, 2.0))
    margins = declared_bound_margins(bad)
    assert margins["beta1"] == pytest.approx(-2.0)
    assert margins["beta2"] >= 0.0 and margins["c - div(beta)/2"] >= -1e-12


def test_registry():
    assert get_problem("paper-sec5", 1e-3).name == "paper-sec5"
    assert get_problem("poly-q2", 1.0).name == "poly-q2"
    with pytest.raises(ValueError):
        get_problem("nope", 1e-3)
    with pytest.raises(ValueError):
        paper_problem(0.0)


@pytest.mark.parametrize("eps", [0.0, -1e-3, 2.0])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_every_problem_rejects_eps_outside_0_1(name, eps, monkeypatch,
                                               capsys):
    # the paper's range eps in (0, 1] holds for every registered problem:
    # the registry, a study config and the CLI all reject it before a solve
    msg = "epsilon must lie in (0, 1]"
    with pytest.raises(ValueError) as exc:
        get_problem(name, eps)
    assert str(exc.value) == msg

    def no_solve(*args):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(harness, "assemble_and_solve", no_solve)
    with pytest.raises(ValueError) as exc:
        harness.StudyConfig(problem=name, eps_list=[eps])
    assert str(exc.value) == msg
    rc = cli.main(["solve", "--problem", name, "--k", "1", f"--eps={eps}",
                   "--n", "8"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_SOLVER and not captured.out
    assert msg in captured.err
