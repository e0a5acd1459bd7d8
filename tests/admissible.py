"""Randomly drawn admissible problems, in the sense of manufactured
solutions (Roache, J. Fluids Eng. 124, 2002): coefficients that keep the
paper's assumptions with each declared bound attained, and a polynomial
exact solution with f generated from it.

beta1 is a polynomial in x and beta2 one in y, each of degree <= 3, and c
is constant. For k >= 2, u = x(1-x) y(1-y) p with p in Q_{k-2} lies in the
discrete space, and the assembly rule of k + 2 points integrates every
term exactly, so the solve must reproduce u to rounding."""

import warnings

import numpy as np
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from shishkin_hdg.mesh import MeshAssumptionWarning, build_mesh
from shishkin_hdg.problems import ExactSolution, ProblemSpec


def declared_bound_margins(spec: ProblemSpec) -> dict:
    """The least margin of each declared bound over a 101 x 101 grid of the
    closed square; a bound the problem keeps has margin >= -1e-12."""
    X, Y = np.meshgrid(*2 * [np.linspace(0.0, 1.0, 101)], indexing="ij")
    return {"beta1": float(np.min(spec.beta1(X, Y) - spec.beta_lb[0])),
            "beta2": float(np.min(spec.beta2(X, Y) - spec.beta_lb[1])),
            "c - div(beta)/2": float(np.min(
                spec.c(X, Y) - 0.5 * spec.div_beta(X, Y) - spec.c0))}


def _extremes(q: Polynomial) -> tuple:
    """The least and the largest value of q on [0, 1]."""
    xs = [0.0, 1.0] + [r.real for r in q.deriv().roots()
                       if abs(r.imag) < 1e-12 and 0 <= r.real <= 1]
    vals = q(np.array(xs))
    return float(vals.min()), float(vals.max())


def _cubic(draw, low: float) -> Polynomial:
    """A polynomial of degree <= 3 whose minimum on [0, 1] is low. Its
    coefficients are multiples of 1/4: a leading one is never so small
    that the critical points overflow."""
    degree = draw(st.integers(0, 3))
    q = Polynomial([0.0] + [i / 4 for i in draw(st.lists(
        st.integers(-8, 8), min_size=degree, max_size=degree))])
    return q - _extremes(q)[0] + low


def _field(coef: np.ndarray):
    """(x, y) -> sum_ij coef[i, j] x^i y^j, x broadcast against y."""
    def field(x, y):
        return P.polyval2d(*np.broadcast_arrays(np.asarray(x, float),
                                                np.asarray(y, float)), coef)
    return field


@st.composite
def admissible_problems(draw, k: int):
    """(spec, tau): an admissible problem with eps log-uniform in
    [1e-8, 1], u = x(1-x) y(1-y) p with p in Q_{max(k-2, 0)}, and tau
    above max |beta.n|/2."""
    eps = 10.0 ** draw(st.floats(-8.0, 0.0))  # log-uniform
    lb1, lb2 = draw(st.floats(0.25, 3.0)), draw(st.floats(0.25, 3.0))
    b1, b2 = _cubic(draw, lb1), _cubic(draw, lb2)
    d1, d2 = b1.deriv(), b2.deriv()
    c0 = draw(st.floats(0.1, 2.0))
    c = c0 + 0.5 * (_extremes(d1)[1] + _extremes(d2)[1])
    tau = 0.5 * max(_extremes(b1)[1], _extremes(b2)[1]) \
        + draw(st.floats(0.1, 2.0))

    m = max(k - 2, 0) + 1
    p = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m * m,
                               max_size=m * m)
                      .filter(lambda v: max(map(abs, v)) > 0.1)))
    bubble = np.outer([0.0, 1.0, -1.0], [0.0, 1.0, -1.0])  # x(1-x) y(1-y)
    U = np.zeros((m + 2, m + 2))
    for (i, j), pij in np.ndenumerate(p.reshape(m, m)):
        U[i:i + 3, j:j + 3] += pij * bubble
    u, u_x, u_y = (_field(U), _field(P.polyder(U, axis=0)),
                   _field(P.polyder(U, axis=1)))
    u_xx, u_yy = (_field(P.polyder(U, 2, axis=0)),
                  _field(P.polyder(U, 2, axis=1)))

    def lap(x, y):
        return u_xx(x, y) + u_yy(x, y)

    def beta1(x, y):
        return b1(np.asarray(x, float))

    def beta2(x, y):
        return b2(np.asarray(y, float))

    def c_field(x, y):
        return np.full(np.broadcast(x, y).shape, c)

    def div_beta(x, y):
        return d1(np.asarray(x, float)) + d2(np.asarray(y, float))

    def f(x, y):
        return (-eps * lap(x, y) + beta1(x, y) * u_x(x, y)
                + beta2(x, y) * u_y(x, y) + c * u(x, y))

    spec = ProblemSpec("drawn", eps, beta1, beta2, c_field, div_beta, f,
                       beta_lb=(lb1, lb2), c0=c0,
                       exact=ExactSolution(eps, u, u_x, u_y, lap))
    return spec, tau


def drawn_mesh(spec: ProblemSpec, N: int, sigma: float):
    """The Shishkin mesh of a problem's declared convection bounds; eps > 1/N
    is allowed here (it only leaves the mesh uniform)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeshAssumptionWarning)
        return build_mesh(N, spec.epsilon, sigma, *spec.beta_lb)
