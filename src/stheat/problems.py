"""Catalog of heat-equation instances: manufactured smooth solutions in 1D/2D,
a low-regularity solution with a temporal kink, and impulse (jump) forcing.

Conventions: callables take one coordinate per axis, then t if they depend
on time: (xi, t) or (xi) in 1D, (xi, eta, t) or (xi, eta) in 2D; all accept
numpy arrays with broadcasting.  An attached exact solution carries the time
derivative, spatial gradient and Laplacian so that errors and residual
spot-checks need no numerical differentiation; its gradient returns one
component per axis, a tuple of one array in 1D.
"""

import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ExactSolution:
    u: Callable
    du_dt: Callable
    grad: Callable        # one component per axis: (du/dxi,) in 1D, (du/dxi, du/deta) in 2D
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


def _smooth(name, dimension, omega):
    """u = prod_a sin(omega x_a) sin(omega t) on (0,1)^dimension x (0,1], u0 = 0; each
    callable multiplies left to right, the axes before t, which keeps the artifacts' bits."""

    def spatial(scale, x, cos_axis=None):   # scale prod_a sin(omega x_a), cos on cos_axis
        for a, xa in enumerate(x):
            scale = scale * (np.cos if a == cos_axis else np.sin)(omega * xa)
        return scale

    def u(*xt):
        return spatial(1.0, xt[:-1]) * np.sin(omega * xt[-1])

    def du_dt(*xt):
        return spatial(omega, xt[:-1]) * np.cos(omega * xt[-1])

    def grad(*xt):
        s = np.sin(omega * xt[-1])
        return tuple(spatial(omega, xt[:-1], a) * s for a in range(dimension))

    def lap(*xt):
        return -dimension * omega ** 2 * u(*xt)

    def rhs(*xt):
        t = xt[-1]
        return spatial(omega, xt[:-1]) * (np.cos(omega * t) + dimension * omega * np.sin(omega * t))

    return ProblemSpec(
        name=name, dimension=dimension, rhs=rhs, initial=None,
        final_time=1.0, exact=ExactSolution(u, du_dt, grad, lap))


def problem_1d_smooth():
    """u(xi,t) = sin(2 pi xi) sin(2 pi t) on (0,1) x (0,1], u0 = 0."""
    return _smooth("heat1d-smooth", 1, 2.0 * np.pi)


def problem_2d_smooth():
    """u = sin(pi xi) sin(pi eta) sin(pi t) on the unit square, u0 = 0."""
    return _smooth("heat2d-smooth", 2, np.pi)


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
        return (np.abs(t - 0.5) ** alpha * pi * np.cos(pi * x),)

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
