import dataclasses

import numpy as np
import pytest

from stheat.fem import assemble, spectral
from stheat.problems import (
    ExactSolution,
    ProblemSpec,
    problem_1d_lowreg,
    problem_1d_smooth,
    problem_2d_smooth,
    problem_by_id,
    problem_impulse,
    validate_residual,
)
from stheat.solver import run_decomposed
from stheat.timegrid import make_uniform_partition
from reference import l2_project, modal


@pytest.mark.parametrize("make", [problem_1d_smooth, problem_2d_smooth, problem_1d_lowreg])
def test_manufactured_residual_spot_check(make):
    assert validate_residual(make(), num_points=40, tol=1e-9) <= 1e-9


@pytest.mark.parametrize("make", [problem_1d_smooth, problem_2d_smooth, problem_1d_lowreg])
def test_residual_spot_check_catches_a_wrong_time_derivative(make):
    """An exact solution whose du_dt is off by 1 % fails the check."""
    problem = make()
    du_dt = problem.exact.du_dt
    wrong = dataclasses.replace(problem.exact, du_dt=lambda *args: 1.01 * du_dt(*args))
    with pytest.raises(ValueError, match="residual"):
        validate_residual(dataclasses.replace(problem, exact=wrong))


def test_residual_spot_check_is_seeded():
    """The same seed draws the same points; seeds 0 and 1 draw different
    ones, which the lowreg problem's rounding residual tells apart."""
    problem = problem_1d_lowreg()
    first = validate_residual(problem, seed=0)
    assert validate_residual(problem, seed=0) == first
    assert validate_residual(problem, seed=1) != first


_SMOOTH_RHS = problem_1d_smooth().rhs


@pytest.mark.parametrize("rhs", [
    lambda x, t: np.nan * x,
    lambda x, t: np.where(t > 0.5, np.nan, _SMOOTH_RHS(x, t)),
], ids=["everywhere", "after-half"])
def test_residual_spot_check_fails_on_a_nan_rhs(rhs):
    """A NaN residual fails like one that is too large, whether the rhs is
    NaN everywhere or only for t > 1/2."""
    with pytest.raises(ValueError, match="residual nan"):
        validate_residual(dataclasses.replace(problem_1d_smooth(), rhs=rhs))


def test_lowreg_residual_compares_independent_forms():
    """The low-regularity rhs is not du_dt - lap evaluated again, which
    would make the residual exactly 0.0: it is rounding, not nothing."""
    assert 0.0 < validate_residual(problem_1d_lowreg(), num_points=40) <= 1e-14


def test_residual_pinned_point_1d():
    p = problem_1d_smooth()
    x, t = 0.3, 0.7
    r = p.exact.du_dt(x, t) - p.exact.laplacian(x, t) - p.rhs(x, t)
    assert abs(r) <= 1e-10


def test_residual_pinned_point_2d():
    p = problem_2d_smooth()
    x, y, t = 0.2, 0.6, 0.4
    r = p.exact.du_dt(x, y, t) - p.exact.laplacian(x, y, t) - p.rhs(x, y, t)
    assert abs(r) <= 1e-10


def test_residual_pinned_point_lowreg():
    p = problem_1d_lowreg(0.1)
    x, t = 0.3, 0.9
    r = p.exact.du_dt(x, t) - p.exact.laplacian(x, t) - p.rhs(x, t)
    assert abs(r) <= 1e-9


def test_smooth_solutions_vanish_on_boundary():
    p1 = problem_1d_smooth()
    ts = np.linspace(0.05, 1.0, 7)
    assert np.allclose(p1.exact.u(0.0, ts), 0.0, atol=1e-14)
    assert np.allclose(p1.exact.u(1.0, ts), 0.0, atol=1e-13)
    p2 = problem_2d_smooth()
    line = np.linspace(0.0, 1.0, 5)
    for t in (0.25, 0.8):
        assert np.allclose(p2.exact.u(0.0, line, t), 0.0, atol=1e-13)
        assert np.allclose(p2.exact.u(line, 1.0, t), 0.0, atol=1e-13)


def test_smooth_problems_start_from_rest():
    for p in (problem_1d_smooth(), problem_2d_smooth()):
        assert p.initial is None
    p1 = problem_1d_smooth()
    assert p1.exact.u(0.37, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_lowreg_vanishes_at_kink_time():
    p = problem_1d_lowreg(0.1)
    xs = np.linspace(0.0, 1.0, 9)
    assert np.allclose(p.exact.u(xs, 0.5), 0.0, atol=1e-14)
    assert p.time_breakpoints == (0.5,)


def test_lowreg_initial_peak_value():
    p = problem_1d_lowreg(0.1)
    # alpha = (3 - 0.1)/2 = 1.45, u0(1/2) = (1/2)^1.45
    assert p.initial(0.5) == pytest.approx(0.5 ** 1.45, rel=1e-14)
    assert p.initial(0.5) == pytest.approx(0.36602142, rel=1e-7)
    # initial datum agrees with the exact solution at t = 0
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(p.initial(xs), p.exact.u(xs, 0.0), atol=1e-14)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
def test_lowreg_epsilon_validation(eps):
    with pytest.raises(ValueError):
        problem_1d_lowreg(eps)


def test_problem_by_id_round_trip():
    for pid, dim in [("heat1d-smooth", 1), ("heat2d-smooth", 2),
                     ("heat1d-lowreg", 1), ("impulse", 1)]:
        p = problem_by_id(pid)
        assert p.name == pid
        assert p.dimension == dim


def test_problem_by_id_unknown():
    with pytest.raises(ValueError):
        problem_by_id("advection")


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(name="bad", dimension=3, rhs=None, initial=None, final_time=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(name="bad", dimension=1, rhs=None, initial=None, final_time=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(name="bad", dimension=1, rhs=None, initial=None, final_time=np.nan)
    with pytest.raises(ValueError):
        problem_impulse(lambda x: x, t_star=0.0)
    with pytest.raises(ValueError):
        problem_impulse(lambda x: x, t_star=1.5, final_time=1.0)


# -- impulse forcing through the solver ---------------------------------------

def test_impulse_quiescent_before_jump_then_projected():
    zeta = lambda x: np.sin(np.pi * x)
    problem = problem_impulse(zeta, t_star=0.5)
    space = assemble(1, 8, 2)
    part = make_uniform_partition(1.0, 4)
    sol = run_decomposed(problem, space, part, q=0)
    # nothing happens up to and including the interval that ends at t*
    assert np.allclose(sol.u2[:2], 0.0, atol=1e-14)
    assert np.allclose(sol.u1[:2], 0.0, atol=1e-14)
    # the nodal component at t* picks up exactly the projected jump datum
    jump = sol.u2[2] - modal(space, l2_project(space, zeta))
    assert np.linalg.norm(jump) <= 1e-10
    # afterwards the solution is nontrivial
    assert np.linalg.norm(sol.u1[2]) > 1e-3


def test_impulse_relaxes_with_trapezoidal_factor():
    """After the jump, each modal amplitude decays by (1-k l/2)/(1+k l/2) per step."""
    zeta = lambda x: np.sin(np.pi * x) + 0.25 * np.sin(3.0 * np.pi * x)
    problem = problem_impulse(zeta, t_star=0.5)
    space = assemble(1, 6, 2)
    part = make_uniform_partition(1.0, 4)
    k = 0.25
    sol = run_decomposed(problem, space, part, q=0)
    dec = spectral(space)
    lam = dec.eigenvalues
    ratio = (1.0 - 0.5 * k * lam) / (1.0 + 0.5 * k * lam)
    a_in, a_mid, a_out = sol.u2[2:5]
    assert np.allclose(a_mid, ratio * a_in, atol=1e-12)
    assert np.allclose(a_out, ratio ** 2 * a_in, atol=1e-12)


def test_impulse_must_sit_on_a_node():
    problem = problem_impulse(lambda x: np.sin(np.pi * x), t_star=0.3)
    space = assemble(1, 4, 1)
    part = make_uniform_partition(1.0, 4)  # nodes at multiples of 1/4
    with pytest.raises(ValueError):
        run_decomposed(problem, space, part, q=0)


def test_exact_solution_fields_are_callables():
    ex = problem_1d_smooth().exact
    assert isinstance(ex, ExactSolution)
    for fn in (ex.u, ex.du_dt, ex.grad, ex.laplacian):
        assert callable(fn)
