"""Problem instances: coefficients, data and exact solutions. Each problem
declares the bounds of the paper's well-posedness assumptions (beta >=
beta_lb componentwise, c - div(beta)/2 >= c0). diagnose reports how far
its problem keeps them; the tests check them on every registered problem
and on randomly drawn admissible ones."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Field = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ExactSolution:
    """Exact solution with closed-form derivatives; q = -eps * grad(u)."""

    epsilon: float
    u: Field
    u_x: Field
    u_y: Field
    laplacian: Field

    def q1(self, x, y):
        return -self.epsilon * self.u_x(x, y)

    def q2(self, x, y):
        return -self.epsilon * self.u_y(x, y)


@dataclass(frozen=True)
class ProblemSpec:
    """-eps*Lap(u) + beta.grad(u) + c*u = f on (0,1)^2, u = 0 on the boundary."""

    name: str
    epsilon: float
    beta1: Field
    beta2: Field
    c: Field
    div_beta: Field
    f: Field
    beta_lb: tuple[float, float]
    c0: float
    exact: ExactSolution


# The coefficients every problem shares: beta = (2 - x, 3 - y^3), c = 1.
def _beta1(x, y):
    return 2.0 - np.asarray(x, float)


def _beta2(x, y):
    return 3.0 - np.asarray(y, float) ** 3


def _c(x, y):
    return np.ones(np.broadcast(x, y).shape)


def _div_beta(x, y):
    return -1.0 - 3.0 * np.asarray(y, float) ** 2


def _problem(name: str, eps: float, u: Field, u_x: Field, u_y: Field,
             lap: Field) -> ProblemSpec:
    """The problem with the shared coefficients whose exact solution is u;
    f is generated from u through the differential operator. Every
    registered problem is built here, so this checks eps for all of them."""
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")

    def f(x, y):
        return (-eps * lap(x, y) + _beta1(x, y) * u_x(x, y)
                + _beta2(x, y) * u_y(x, y) + _c(x, y) * u(x, y))

    exact = ExactSolution(eps, u, u_x, u_y, lap)
    # c - div(beta)/2 = 3/2 + (3/2) y^2 >= 3/2
    return ProblemSpec(name, eps, _beta1, _beta2, _c, _div_beta, f,
                       beta_lb=(1.0, 2.0), c0=1.5, exact=exact)


def paper_problem(epsilon: float) -> ProblemSpec:
    """The manufactured test problem with beta = (2-x, 3-y^3), c = 1 and
    exact solution u = y^3 sin(x) (1 - e^{-(1-x)/eps}) (1 - e^{-2(1-y)/eps}).

    The derivatives of u are hand-derived in closed form (cross-checked
    against finite differences in the test suite).
    """
    eps = float(epsilon)

    def e1(x):
        return np.exp(-(1.0 - np.asarray(x, float)) / eps)

    def e2(y):
        return np.exp(-2.0 * (1.0 - np.asarray(y, float)) / eps)

    # u = A(x) * B(y) with A = sin(x)(1 - E1), B = y^3 (1 - E2)
    def A(x):
        return np.sin(x) * (1.0 - e1(x))

    def Ap(x):
        return np.cos(x) * (1.0 - e1(x)) - np.sin(x) * e1(x) / eps

    def App(x):
        E = e1(x)
        return (-np.sin(x) * (1.0 - E) - 2.0 * np.cos(x) * E / eps
                - np.sin(x) * E / eps**2)

    def B(y):
        return y**3 * (1.0 - e2(y))

    def Bp(y):
        E = e2(y)
        return 3.0 * y**2 * (1.0 - E) - 2.0 * y**3 * E / eps

    def Bpp(y):
        E = e2(y)
        return (6.0 * y * (1.0 - E) - 12.0 * y**2 * E / eps
                - 4.0 * y**3 * E / eps**2)

    def u(x, y):
        return A(x) * B(y)

    def u_x(x, y):
        return Ap(x) * B(y)

    def u_y(x, y):
        return A(x) * Bp(y)

    def lap(x, y):
        return App(x) * B(y) + A(x) * Bpp(y)

    return _problem("paper-sec5", eps, u, u_x, u_y, lap)


def polynomial_problem(epsilon: float) -> ProblemSpec:
    """Diagnostic problem with the paper's coefficients and the global
    polynomial solution u = x(1-x) y(1-y) (in Q^2, vanishing on the boundary)."""
    eps = float(epsilon)

    def u(x, y):
        return x * (1.0 - x) * y * (1.0 - y)

    def u_x(x, y):
        return (1.0 - 2.0 * x) * y * (1.0 - y)

    def u_y(x, y):
        return x * (1.0 - x) * (1.0 - 2.0 * y)

    def lap(x, y):
        return -2.0 * y * (1.0 - y) - 2.0 * x * (1.0 - x)

    return _problem("poly-q2", eps, u, u_x, u_y, lap)


PROBLEMS = {
    "paper-sec5": paper_problem,
    "poly-q2": polynomial_problem,
}


def get_problem(name: str, epsilon: float) -> ProblemSpec:
    try:
        return PROBLEMS[name](epsilon)
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; available: "
                         f"{sorted(PROBLEMS)}") from None

