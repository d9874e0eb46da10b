"""Catalog of heat-equation instances: manufactured smooth solutions in 1D/2D,
a low-regularity solution with a temporal kink, and impulse (jump) forcing.

Conventions: 1D callables take (xi, t) or (xi); 2D callables take
(xi, eta, t) or (xi, eta); all accept numpy arrays with broadcasting.  An
attached exact solution carries the time derivative, spatial gradient and
Laplacian so that errors and residual spot-checks need no numerical
differentiation.
"""

import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ExactSolution:
    u: Callable
    du_dt: Callable
    grad: Callable        # 1D: du/dxi; 2D: returns the pair (du/dxi, du/deta)
    laplacian: Callable


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    dimension: int
    rhs: Optional[Callable]          # None means f == 0
    initial: Optional[Callable]      # None means u0 == 0
    final_time: float
    impulses: tuple = ()             # pairs (t_star, zeta)
    exact: Optional[ExactSolution] = None
    time_breakpoints: tuple = ()     # kink times; quadrature splits there

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not 0.0 < self.final_time < np.inf:
            raise ValueError("final time must be positive and finite")
        for t_star, _ in self.impulses:
            if not (0.0 < t_star <= self.final_time):
                raise ValueError("impulse time %r outside (0, T]" % (t_star,))


def problem_1d_smooth():
    """u(xi,t) = sin(2 pi xi) sin(2 pi t) on (0,1) x (0,1], u0 = 0."""
    two_pi = 2.0 * np.pi

    def u(x, t):
        return np.sin(two_pi * x) * np.sin(two_pi * t)

    def du_dt(x, t):
        return two_pi * np.sin(two_pi * x) * np.cos(two_pi * t)

    def grad(x, t):
        return two_pi * np.cos(two_pi * x) * np.sin(two_pi * t)

    def lap(x, t):
        return -two_pi ** 2 * np.sin(two_pi * x) * np.sin(two_pi * t)

    def rhs(x, t):
        return two_pi * np.sin(two_pi * x) * (np.cos(two_pi * t)
                                              + two_pi * np.sin(two_pi * t))

    return ProblemSpec(
        name="heat1d-smooth", dimension=1, rhs=rhs, initial=None,
        final_time=1.0, exact=ExactSolution(u, du_dt, grad, lap))


def problem_2d_smooth():
    """u = sin(pi xi) sin(pi eta) sin(pi t) on the unit square, u0 = 0."""
    pi = np.pi

    def u(x, y, t):
        return np.sin(pi * x) * np.sin(pi * y) * np.sin(pi * t)

    def du_dt(x, y, t):
        return pi * np.sin(pi * x) * np.sin(pi * y) * np.cos(pi * t)

    def grad(x, y, t):
        s = np.sin(pi * t)
        return (pi * np.cos(pi * x) * np.sin(pi * y) * s,
                pi * np.sin(pi * x) * np.cos(pi * y) * s)

    def lap(x, y, t):
        return -2.0 * pi ** 2 * u(x, y, t)

    def rhs(x, y, t):
        return pi * np.sin(pi * x) * np.sin(pi * y) * (np.cos(pi * t)
                                                       + 2.0 * pi * np.sin(pi * t))

    return ProblemSpec(
        name="heat2d-smooth", dimension=2, rhs=rhs, initial=None,
        final_time=1.0, exact=ExactSolution(u, du_dt, grad, lap))


def problem_1d_lowreg(epsilon=0.1):
    """u = |t - 1/2|^alpha sin(pi xi) with alpha = (3 - epsilon)/2.

    The second time derivative of u is not square integrable, which is the
    regime where nodal superconvergence degrades.  The kink time 0.5 is
    exposed as a quadrature breakpoint.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1), got %r" % (epsilon,))
    alpha = 0.5 * (3.0 - epsilon)
    pi = np.pi

    def u(x, t):
        return np.abs(t - 0.5) ** alpha * np.sin(pi * x)

    def du_dt(x, t):
        return alpha * np.sign(t - 0.5) * np.abs(t - 0.5) ** (alpha - 1.0) * np.sin(pi * x)

    def grad(x, t):
        return np.abs(t - 0.5) ** alpha * pi * np.cos(pi * x)

    def lap(x, t):
        return -pi ** 2 * u(x, t)

    def rhs(x, t):
        # in closed form, not from du_dt and lap, so validate_residual checks them
        s = np.abs(t - 0.5)
        return np.sin(pi * x) * (alpha * np.sign(t - 0.5) * s ** (alpha - 1.0)
                                 + pi ** 2 * s ** alpha)

    def initial(x):
        return 0.5 ** alpha * np.sin(pi * x)

    return ProblemSpec(
        name="heat1d-lowreg", dimension=1, rhs=rhs, initial=initial,
        final_time=1.0, exact=ExactSolution(u, du_dt, grad, lap),
        time_breakpoints=(0.5,))


def problem_impulse(zeta, t_star, final_time=1.0, dimension=1):
    """Homogeneous problem with a single jump of size zeta at time t_star.

    The impulse time must coincide with a partition node at solve time.  No
    exact solution is attached.
    """
    return ProblemSpec(
        name="impulse", dimension=dimension, rhs=None, initial=None,
        final_time=final_time, impulses=((float(t_star), zeta),))


def problem_by_id(pid, epsilon=0.1):
    """Problem referenced by CLI string id."""
    if pid == "heat1d-smooth":
        return problem_1d_smooth()
    if pid == "heat2d-smooth":
        return problem_2d_smooth()
    if pid == "heat1d-lowreg":
        return problem_1d_lowreg(epsilon)
    if pid == "impulse":
        return problem_impulse(lambda x: np.sin(np.pi * x), 0.5)
    raise ValueError("unknown problem id %r" % (pid,))


def validate_residual(problem, num_points=20, tol=1e-8, seed=0):
    """Spot-check dt u - lap u - f = 0 at num_points points that the standard
    library's random.Random(seed) draws (no artifact depends on them).

    Sampling stays clear of temporal breakpoints (the identity may involve
    unbounded derivatives there).  Returns the largest relative residual;
    raises if one exceeds tol or is not finite (a NaN rhs, say).
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution to validate")
    rng = random.Random(seed)
    T = problem.final_time
    margin = 0.02 * T
    worst = 0.0
    count = 0
    while count < num_points:
        t = rng.uniform(margin, T)
        if any(abs(t - b) < margin for b in problem.time_breakpoints):
            continue
        count += 1
        x = [rng.random() for _ in range(problem.dimension)]
        r = problem.exact.du_dt(*x, t) - problem.exact.laplacian(*x, t)
        f = problem.rhs(*x, t) if problem.rhs is not None else 0.0
        rel = abs(float(r - f)) / max(1.0, abs(float(f)))
        if not rel <= tol:   # NaN fails too
            raise ValueError("manufactured-solution residual %.3e exceeds %.1e" % (rel, tol))
        worst = max(worst, rel)
    return worst
