"""Catalog of heat-equation instances: manufactured smooth solutions in 1D/2D,
a low-regularity solution with a temporal kink, and impulse (jump) forcing.

Space-time data are short sums of products of a spatial and a temporal
factor, declared once: the right-hand side f = sum_r X_r(x) T_r(t) as a
tuple of pairs (X_r, T_r) of callables, and an exact solution
u = sum_r X_r(x) T_r(t) as a tuple of pairs (SpaceFactor, TimeFactor), where
each spatial factor carries its gradient and Laplacian and each temporal one
its derivative.  A level integrates each spatial factor once and each
temporal one by scalar quadrature (stheat.solver, stheat.analysis); the
callables of ExactSolution and ProblemSpec.source, which validate_residual
and the tests use, are the sums of the factors' products.  The initial datum
and the impulses stay spatial callables.

Conventions: spatial callables take one coordinate per axis, (xi) in 1D and
(xi, eta) in 2D, temporal ones the time t, and summed ones (xi, t) or
(xi, eta, t); all accept numpy arrays with broadcasting.  A gradient returns
one component per axis, a tuple of one array in 1D.
"""

import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class SpaceFactor:
    value: Callable
    grad: Callable        # one component per axis: (dX/dxi,) in 1D, (dX/dxi, dX/deta) in 2D
    laplacian: Callable


@dataclass(frozen=True)
class TimeFactor:
    value: Callable
    derivative: Callable


def time_values(factors, t):
    """Values of the temporal callables at the array t, stacked on a last axis:
    shape t.shape + (len(factors),)."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (len(factors),))
    for r, T in enumerate(factors):
        out[..., r] = T(t)
    return out


@dataclass(frozen=True)
class ExactSolution:
    """u = sum_r X_r(x) T_r(t), with terms the pairs (SpaceFactor, TimeFactor);
    u, du_dt, grad and laplacian are the sums of the factors' products."""

    terms: tuple

    def u(self, *xt):
        return sum(X.value(*xt[:-1]) * T.value(xt[-1]) for X, T in self.terms)

    def du_dt(self, *xt):
        return sum(X.value(*xt[:-1]) * T.derivative(xt[-1]) for X, T in self.terms)

    def laplacian(self, *xt):
        return sum(X.laplacian(*xt[:-1]) * T.value(xt[-1]) for X, T in self.terms)

    def grad(self, *xt):
        terms = [[g * T.value(xt[-1]) for g in X.grad(*xt[:-1])] for X, T in self.terms]
        return tuple(map(sum, zip(*terms)))


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    dimension: int
    rhs: Optional[tuple]             # pairs (X, T), f = sum_r X_r(x) T_r(t); None or (): f == 0
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

    def source(self, *xt):
        """f at (x..., t), the sum of the products of its factors; 0 if f == 0."""
        return sum(X(*xt[:-1]) * T(xt[-1]) for X, T in self.rhs or ())


def _smooth(name, dimension, omega):
    """u = prod_a sin(omega x_a) sin(omega t) on (0,1)^dimension x (0,1], u0 = 0,
    and f = omega prod_a sin(omega x_a) (cos(omega t) + dimension omega sin(omega t)),
    one product each; every spatial factor multiplies its axes left to right."""

    def spatial(scale, cos_axis=None):   # scale prod_a sin(omega x_a), cos on cos_axis
        def X(*x):
            out = scale
            for a, xa in enumerate(x):
                out = out * (np.cos if a == cos_axis else np.sin)(omega * xa)
            return out
        return X

    def grad(*x):
        return tuple(spatial(omega, a)(*x) for a in range(dimension))

    X = spatial(1.0)
    space = SpaceFactor(X, grad, lambda *x: -dimension * omega ** 2 * X(*x))
    time = TimeFactor(lambda t: np.sin(omega * t), lambda t: omega * np.cos(omega * t))
    forcing = lambda t: np.cos(omega * t) + dimension * omega * np.sin(omega * t)
    return ProblemSpec(
        name=name, dimension=dimension, rhs=((spatial(omega), forcing),), initial=None,
        final_time=1.0, exact=ExactSolution(((space, time),)))


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

    def sine(x):
        return np.sin(pi * x)

    def forcing(t):
        # in closed form, not from the factors of u, so validate_residual checks them
        s = np.abs(t - 0.5)
        return alpha * np.sign(t - 0.5) * s ** (alpha - 1.0) + pi ** 2 * s ** alpha

    space = SpaceFactor(sine, lambda x: (pi * np.cos(pi * x),), lambda x: -pi ** 2 * sine(x))
    time = TimeFactor(lambda t: np.abs(t - 0.5) ** alpha,
                      lambda t: alpha * np.sign(t - 0.5) * np.abs(t - 0.5) ** (alpha - 1.0))
    return ProblemSpec(
        name="heat1d-lowreg", dimension=1, rhs=((sine, forcing),),
        initial=lambda x: 0.5 ** alpha * sine(x), final_time=1.0,
        exact=ExactSolution(((space, time),)), time_breakpoints=(0.5,))


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
        f = problem.source(*x, t)
        rel = abs(float(r - f)) / max(1.0, abs(float(f)))
        if not rel <= tol:   # NaN fails too
            raise ValueError("manufactured-solution residual %.3e exceeds %.1e" % (rel, tol))
        worst = max(worst, rel)
    return worst
