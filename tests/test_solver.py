import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stheat import solver
from stheat.fem import assemble, load_vector
from stheat.problems import (
    ProblemSpec,
    problem_1d_lowreg,
    problem_1d_smooth,
    problem_2d_smooth,
    problem_impulse,
)
from stheat.solver import (
    CHUNK_VALUES,
    LocalBlockSystem,
    SpaceTimeSolution,
    interval_moments,
    march,
    march_chunks,
    run_decomposed,
)
from stheat.timegrid import TimePartition, cut_points, make_uniform_partition, reference_blocks
from reference import (
    assemble_bilinear,
    assemble_load,
    crank_nicolson,
    march_interval_by_interval,
    solve_global,
)

ONE = np.ones((1, 1))


def test_scalar_step_free_decay():
    # M = K = 1, k = 0.1, no forcing: c0 = 1/1.05, u2_out = 0.95/1.05
    c, out = LocalBlockSystem(ONE, ONE, 0.1, 0).step(np.array([1.0]))
    assert c[0, 0] == pytest.approx(1.0 / 1.05, abs=1e-14)
    assert out[0] == pytest.approx(0.95 / 1.05, abs=1e-14)


def test_scalar_step_constant_forcing():
    # f == 1 from rest: b_j = int l_j = 1/2 each, k = 0.1
    moments = np.array([[0.5], [0.5]])
    c, out = LocalBlockSystem(ONE, ONE, 0.1, 0).step(np.array([0.0]), moments=moments)
    assert c[0, 0] == pytest.approx(1.0 / 21.0, abs=1e-14)
    assert out[0] == pytest.approx(2.0 / 21.0, abs=1e-14)


def test_scalar_step_zero_data():
    c, out = LocalBlockSystem(ONE, ONE, 0.1, 1).step(np.array([0.0]))
    assert np.allclose(c, 0.0) and np.allclose(out, 0.0)


def test_scalar_two_steps_match_trapezoidal_squares():
    # k = 0.5, lambda = 1: factor (1 - 1/4)/(1 + 1/4) = 0.6 per interval
    system = LocalBlockSystem(ONE, ONE, 0.5, 0)
    _, out1 = system.step(np.array([1.0]))
    _, out2 = system.step(out1)
    assert out1[0] == pytest.approx(0.6, abs=1e-14)
    assert out2[0] == pytest.approx(0.36, abs=1e-14)


def _diagonal_pade(mu, n):
    """R(mu) = P(-mu)/P(mu), the (n, n) Pade approximant of exp(-mu), with
    P(z) = sum_j (2n-j)! n! / ((2n)! j! (n-j)!) z^j."""
    c = [factorial(2 * n - j) * factorial(n) / (factorial(2 * n) * factorial(j) * factorial(n - j))
         for j in range(n + 1)]
    P = np.polynomial.polynomial.polyval
    return P(-mu, c) / P(mu, c)


@pytest.mark.parametrize("q", range(10))
def test_nodal_amplification_is_the_diagonal_pade_approximant(q):
    """Without forcing, one interval of width k maps the nodal component by
    alpha(mu), mu = k lambda, which is the (q+1, q+1) Pade approximant of
    exp(-mu): the stability function of (q+1)-stage Gauss collocation.  One
    DOF (lambda = 12) and one interval of width mu/lambda per mu.  The bound
    is absolute: R crosses 0, where a relative one means nothing."""
    space = assemble(1, 2, 1)
    lam = space.line_stiffness[0, 0] / space.line_mass[0, 0]
    assert lam == pytest.approx(12.0, rel=1e-14)
    for mu in np.logspace(-3.0, 4.0, 60):
        problem = ProblemSpec(name="decay", dimension=1, rhs=None,
                              initial=lambda x: np.sin(np.pi * x), final_time=mu / lam)
        u2 = run_decomposed(problem, space, make_uniform_partition(mu / lam, 1), q).u2
        assert abs(u2[1, 0] / u2[0, 0] - _diagonal_pade(mu, q + 1)) <= 4e-15, mu


def test_q0_step_equals_hand_assembled_equations():
    space = assemble(1, 5, 2)
    M, K = space.line_mass, space.line_stiffness
    k = 0.2
    rng = np.random.default_rng(21)
    u2_in = rng.standard_normal(space.dof_count)
    moments = rng.standard_normal((2, space.dof_count))
    c, out = LocalBlockSystem(M, K, k, 0).step(u2_in, moments=moments)
    c0 = np.linalg.solve(M + 0.5 * k * K, M @ u2_in + k * moments[0])
    assert np.allclose(c[0], c0, atol=1e-12)
    out_ref = np.linalg.solve(M, k * moments[1] + M @ c0 - 0.5 * k * (K @ c0))
    assert np.allclose(out, out_ref, atol=1e-12)


def test_unconditional_contraction_for_all_step_sizes():
    """|u2_out| < |u2_in| for free decay at any ratio of k to the eigenvalue."""
    for lam in (1e-4, 1.0, 1e4):
        for k in (1e-3, 1.0, 1e3):
            _, out = LocalBlockSystem(ONE, lam * ONE, k, 0).step(np.array([1.0]))
            assert np.isfinite(out[0])
            assert abs(out[0]) < 1.0


def test_local_block_system_rejects_bad_width():
    with pytest.raises(ValueError):
        LocalBlockSystem(ONE, ONE, 0.0, 0)
    with pytest.raises(ValueError):
        LocalBlockSystem(ONE, ONE, -0.5, 1)


def test_run_decomposed_zero_problem_is_zero():
    problem = ProblemSpec(name="rest", dimension=1, rhs=None, initial=None, final_time=1.0)
    space = assemble(1, 4, 1)
    sol = run_decomposed(problem, space, make_uniform_partition(1.0, 3), q=1)
    assert np.allclose(sol.u1, 0.0, atol=1e-15)
    assert np.allclose(sol.u2, 0.0, atol=1e-15)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_decomposed_march_equals_coupled_solve(q):
    problem = problem_1d_smooth()
    space = assemble(1, 3, 1)
    part = make_uniform_partition(1.0, 3)
    a = run_decomposed(problem, space, part, q)
    b = solve_global(problem, space, part, q)
    assert np.allclose(a.u1, b.u1, atol=1e-10)
    assert np.allclose(a.u2, b.u2, atol=1e-10)


def test_decomposed_equals_coupled_with_interior_kink():
    # N = 3 puts the kink time 0.5 strictly inside the middle interval, so
    # both paths must split their load quadrature there
    problem = problem_1d_lowreg(0.5)
    space = assemble(1, 3, 2)
    part = make_uniform_partition(1.0, 3)
    a = run_decomposed(problem, space, part, q=1)
    b = solve_global(problem, space, part, q=1)
    assert np.allclose(a.u1, b.u1, atol=1e-10)
    assert np.allclose(a.u2, b.u2, atol=1e-10)


def test_decomposed_equals_coupled_with_impulse():
    problem = problem_impulse(lambda x: np.sin(np.pi * x), t_star=0.5)
    space = assemble(1, 3, 1)
    part = make_uniform_partition(1.0, 4)
    a = run_decomposed(problem, space, part, q=0)
    b = solve_global(problem, space, part, q=0)
    assert np.allclose(a.u1, b.u1, atol=1e-11)
    assert np.allclose(a.u2, b.u2, atol=1e-11)


def test_single_interval_reduction():
    problem = problem_1d_smooth()
    space = assemble(1, 4, 2)
    part = make_uniform_partition(1.0, 1)
    a = run_decomposed(problem, space, part, q=1)
    b = solve_global(problem, space, part, q=1)
    assert np.allclose(a.u2[1], b.u2[1], atol=1e-10)


def test_galerkin_residual_of_decomposed_solution():
    """The marched solution satisfies the coupled system row by row."""
    problem = problem_1d_smooth()
    space = assemble(1, 4, 2)
    part = make_uniform_partition(1.0, 3)
    q = 1
    sol = run_decomposed(problem, space, part, q)
    fe = space.coefficients
    x = np.concatenate([fe(sol.u1).ravel(), fe(sol.u2[-1])])   # U1 by interval, then U2(T)
    B = assemble_bilinear(space, part, q)
    F = assemble_load(problem, space, part, q)
    resid = B @ x - F
    scale = max(np.abs(F).max(), 1e-30)
    assert np.abs(resid).max() <= 1e-9 * scale


def test_crank_nicolson_matches_nodal_component_without_forcing():
    problem = ProblemSpec(name="decay", dimension=1, rhs=None,
                          initial=lambda x: np.sin(np.pi * x), final_time=1.0)
    space = assemble(1, 6, 2)
    part = make_uniform_partition(1.0, 5)
    W = crank_nicolson(problem, space, part)
    sol = run_decomposed(problem, space, part, q=0)
    assert W.shape == (6, space.dof_count)
    assert np.allclose(W, sol.u2, atol=1e-12)


def test_crank_nicolson_rejects_impulses():
    problem = problem_impulse(lambda x: np.sin(np.pi * x), t_star=0.5)
    space = assemble(1, 4, 1)
    with pytest.raises(ValueError):
        crank_nicolson(problem, space, make_uniform_partition(1.0, 4))


def test_interval_moments_shape_and_zero_rhs():
    problem = ProblemSpec(name="rest", dimension=1, rhs=None, initial=None, final_time=1.0)
    space = assemble(1, 4, 1)
    m = interval_moments(problem, space, TimePartition([0.0, 0.2, 0.5]), 2)
    assert m.shape == (2, 4, space.dof_count)
    assert np.allclose(m, 0.0)


def test_interval_moments_constant_forcing():
    # f == 1: b_j = load(1) * int l_j, and sum_j int l_j = 1
    problem = ProblemSpec(name="const", dimension=1, rhs=((np.ones_like, np.ones_like),),
                          initial=None, final_time=1.0)
    space = assemble(1, 4, 1)
    m = interval_moments(problem, space, TimePartition([0.0, 0.2, 0.7]), 1, 1, 2)
    assert m.shape == (1, 3, space.dof_count)
    assert np.allclose(m[0].sum(axis=0), load_vector(space, lambda x: np.ones_like(x)), atol=1e-13)


def test_march_chunks_cover_the_level():
    """The chunks are consecutive, cover the intervals, hold at least one
    interval each and about CHUNK_VALUES load values: 1D p=2, q=0, n=4 has
    3 * 16 values an interval, so 682 intervals a chunk."""
    space = assemble(1, 4, 2)
    assert march_chunks(space, make_uniform_partition(1.0, 1), 0) == [(0, 1)]
    plan = march_chunks(space, make_uniform_partition(1.0, 2000), 0)
    assert plan == [(0, 682), (682, 1364), (1364, 2000)]
    fine = assemble(2, 40, 2)   # 3 * 160^2 values an interval: more than CHUNK_VALUES
    assert march_chunks(fine, make_uniform_partition(1.0, 5), 0) == [(i, i + 1) for i in range(5)]


def test_interval_moments_chunk_invariance():
    """Moments over many chunks equal the per-interval ones.  The partition is
    non-uniform, one breakpoint lies strictly inside an interval and one on
    a node."""
    rng = np.random.default_rng(5)
    nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, size=1200))])
    part = TimePartition(nodes / nodes[-1])
    inside = 0.5 * (part.nodes[300] + part.nodes[301])
    on_node = part.nodes[900]
    f = ((lambda x: np.sin(np.pi * x),
          lambda t: np.abs(t - inside) + np.abs(t - on_node) ** 1.5),)
    problem = ProblemSpec(name="kinks", dimension=1, rhs=f, initial=None, final_time=1.0,
                          time_breakpoints=(inside, on_node))
    space, q = assemble(1, 8, 2), 0
    assert part.num_intervals * (q + 3) * space.grid_size(space.degree + 2) > 2 * CHUNK_VALUES
    whole = interval_moments(problem, space, part, q)
    single = np.stack([interval_moments(problem, space, part, q, i, i + 1)[0]
                       for i in range(part.num_intervals)])
    assert np.abs(whole - single).max() <= 1e-13 * np.abs(single).max()


def test_a_breakpoint_an_ulp_off_a_node_cuts_nothing():
    """At N = 98 linspace puts node 49 at 0.49999999999999994: a breakpoint at
    t = 1/2 is that node (timegrid.cut_points), so the moments equal those
    without it, while one 1e-9 off the node still cuts its interval."""
    part = make_uniform_partition(1.0, 98)
    assert 0.0 < 0.5 - part.nodes[49] < 1e-16
    f = ((lambda x: np.sin(np.pi * x), lambda t: np.abs(t - 0.5)),)
    kinked = ProblemSpec(name="kink", dimension=1, rhs=f, initial=None, final_time=1.0,
                         time_breakpoints=(0.5,))
    plain = ProblemSpec(name="kink", dimension=1, rhs=f, initial=None, final_time=1.0)
    space = assemble(1, 4, 2)
    assert cut_points(part, (0.5,)) == [] and cut_points(part, (0.5 + 1e-9,)) == [0.5 + 1e-9]
    assert np.array_equal(interval_moments(kinked, space, part, 1),
                          interval_moments(plain, space, part, 1))


def test_a_cut_chunk_takes_the_memory_of_an_uncut_one():
    """heat1d-lowreg, 1D n=16, p=2, q=1, N=301: the kink t = 1/2 inside
    interval 150 cuts the march chunk 128..256, which then has one time
    segment more than intervals; with warm caches the traced peak of its
    load moments is at most 1.1 times that of the uncut chunk 0..128."""
    problem, space, part = problem_1d_lowreg(), assemble(1, 16, 2), make_uniform_partition(1.0, 301)
    assert march_chunks(space, part, 1)[:2] == [(0, 128), (128, 256)]
    assert len(cut_points(part, problem.time_breakpoints, 128, 256)) == 1
    peaks = []
    for lo, hi in ((0, 128), (128, 256)):
        interval_moments(problem, space, part, 1, lo, hi)   # caches filled outside the trace
        tracemalloc.start()
        try:
            interval_moments(problem, space, part, 1, lo, hi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_solution_shape_validation():
    part = make_uniform_partition(1.0, 2)
    space = assemble(1, 3, 1)
    good_u1 = np.zeros((2, 1, 2))
    good_u2 = np.zeros((3, 2))
    SpaceTimeSolution(0, part, space, good_u1, good_u2)
    with pytest.raises(ValueError):
        SpaceTimeSolution(0, part, space, np.zeros((2, 2, 2)), good_u2)
    with pytest.raises(ValueError):
        SpaceTimeSolution(0, part, space, good_u1, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        SpaceTimeSolution(0, part, space, good_u1, np.zeros(3))
    bad = good_u2.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        SpaceTimeSolution(0, part, space, good_u1, bad)


def test_nonuniform_partition_march():
    problem = problem_1d_smooth()
    space = assemble(1, 4, 1)
    part = TimePartition([0.0, 0.2, 0.5, 1.0])
    sol = run_decomposed(problem, space, part, q=0)
    ref = solve_global(problem, space, part, q=0)
    assert np.allclose(sol.u2, ref.u2, atol=1e-10)


# -- modal march against the reference solvers --------------------------------

def _relative_gap(sol, u1, u2):
    """Largest entry gap between sol and the reference (u1, u2), relative to
    the largest reference entry of either component, as in criterion 09.
    (u2 alone can be orders smaller than u1 when k lambda is large, and
    every solver computes it from u1 with a cancellation of that size.)"""
    scale = max(np.abs(u1).max(), np.abs(u2).max(), 1e-300)
    return max(np.abs(sol.u1 - u1).max(), np.abs(sol.u2 - u2).max()) / scale


def _decay(dimension):
    if dimension == 1:
        initial = lambda x: np.sin(np.pi * x) + 0.3 * np.sin(4.0 * np.pi * x)
    else:
        initial = lambda x, y: np.sin(np.pi * x) * np.sin(2.0 * np.pi * y) + x * y
    return ProblemSpec(name="decay", dimension=dimension, rhs=None, initial=initial,
                       final_time=1.0)


_THREE_WIDTHS = TimePartition([0.0, 0.1, 0.25, 0.3, 0.6, 0.65, 1.0])


@pytest.mark.parametrize("problem,space_args,partition,q", [
    (problem_1d_smooth(), (1, 6, 2), make_uniform_partition(1.0, 8), 0),
    (problem_1d_smooth(), (1, 5, 3), make_uniform_partition(1.0, 5), 1),
    (problem_1d_smooth(), (1, 4, 1), make_uniform_partition(1.0, 3), 2),
    (problem_1d_smooth(), (1, 5, 2), _THREE_WIDTHS, 0),
    (problem_1d_lowreg(0.5), (1, 4, 2), _THREE_WIDTHS, 1),
    (problem_1d_lowreg(0.5), (1, 5, 2), make_uniform_partition(1.0, 3), 1),  # kink inside
    (problem_impulse(lambda x: np.sin(np.pi * x), 0.5), (1, 5, 2),
     make_uniform_partition(1.0, 4), 0),
    (problem_impulse(lambda x: x * (1.0 - x), 0.5), (1, 4, 2),
     make_uniform_partition(1.0, 6), 1),
    (_decay(1), (1, 6, 2), make_uniform_partition(1.0, 7), 0),
    (_decay(2), (2, 3, 2), make_uniform_partition(1.0, 4), 0),
    (problem_2d_smooth(), (2, 3, 2), make_uniform_partition(1.0, 4), 0),
    (problem_2d_smooth(), (2, 3, 1), _THREE_WIDTHS, 1),
])
def test_modal_march_matches_references(problem, space_args, partition, q):
    """run_decomposed (modal) equals the dense interval march and the coupled
    solve, and with q = 0 and no forcing the Crank-Nicolson iterates."""
    space = assemble(*space_args)
    sol = run_decomposed(problem, space, partition, q)
    assert _relative_gap(sol, *march_interval_by_interval(problem, space, partition, q)) <= 1e-12
    ref = solve_global(problem, space, partition, q)
    assert _relative_gap(sol, ref.u1, ref.u2) <= 1e-12
    if q == 0 and problem.rhs is None and not problem.impulses:
        W = crank_nicolson(problem, space, partition)
        assert np.abs(sol.u2 - W).max() <= 1e-12 * np.abs(W).max()


@settings(max_examples=30, deadline=None)
@given(dimension=st.sampled_from([1, 2]), n=st.integers(2, 4), p=st.integers(1, 3),
       q=st.integers(0, 2),
       widths=st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0]), min_size=1, max_size=6))
def test_modal_march_property(dimension, n, p, q, widths):
    """Random small spaces and partitions, repeated widths included: the modal
    march equals the interval march and the coupled solve."""
    nodes = np.concatenate([[0.0], np.cumsum(widths)]) / np.sum(widths)
    partition = TimePartition(nodes)
    problem = problem_1d_lowreg(0.5) if dimension == 1 else problem_2d_smooth()
    space = assemble(dimension, n, p)
    sol = run_decomposed(problem, space, partition, q)
    assert _relative_gap(sol, *march_interval_by_interval(problem, space, partition, q)) <= 1e-12
    ref = solve_global(problem, space, partition, q)
    assert _relative_gap(sol, ref.u1, ref.u2) <= 1e-12


def _graded(N):
    """t_i = (i/N)^2: every interval width distinct, finest at t = 0."""
    return TimePartition((np.arange(N + 1) / N) ** 2)


def _cycled():
    """Widths 1, 1.5, 1.5 and six of 2, four times over, in units of 1/64:
    36 intervals on [0, 1] whose three widths recur bit for bit by design."""
    return TimePartition(np.cumsum([0.0] + ([1.0, 1.5, 1.5] + [2.0] * 6) * 4) / 64)


def _count_formations(monkeypatch):
    """The number of widths of each np.linalg.inv call from here on: the
    march inverts the blocks of all the widths it forms in one call."""
    formed, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda A: formed.append(A.shape[0]) or inv(A))
    return formed


@pytest.mark.parametrize("problem,space_args,partition,q", [
    (problem_1d_smooth(), (1, 5, 2), _graded(42), 1),
    (problem_1d_lowreg(0.5), (1, 4, 2), make_uniform_partition(1.0, 45), 2),
    (_decay(1), (1, 6, 1), make_uniform_partition(1.0, 45), 0),
    (problem_2d_smooth(), (2, 3, 1), _graded(42), 1),
    (problem_2d_smooth(), (2, 3, 2), make_uniform_partition(1.0, 45), 0),
    (problem_2d_smooth(), (2, 3, 2), _cycled(), 1),
])
def test_march_across_chunks_of_changing_widths(monkeypatch, problem, space_args, partition, q):
    """Chunks of three intervals: a graded partition has new widths in every
    chunk, so the march forms the local inverses in each; a uniform one has
    one width, formed once; the cycled widths appear, recur and change
    between chunks, so the march forms them in the 8 of 12 chunks that have
    a width it does not hold.  The march equals the interval march and the
    coupled solve."""
    space = assemble(*space_args)
    monkeypatch.setattr(solver, "CHUNK_VALUES", 3 * (q + 3) * space.grid_size(space.degree + 2))
    plan = march_chunks(space, partition, q)
    assert {hi - lo for lo, hi in plan} == {3}
    interval = march_interval_by_interval(problem, space, partition, q)
    formed = _count_formations(monkeypatch)
    sol = run_decomposed(problem, space, partition, q)
    monkeypatch.undo()
    distinct = np.unique(partition.widths).size
    if distinct == partition.num_intervals:   # graded
        assert formed == [3] * len(plan)
    elif distinct == 1:   # uniform
        assert formed == [1]
    else:   # [1, 1.5, 1.5], [2, 2, 2] twice, four times over
        assert formed == [2, 1] * 4 and len(plan) == 12
    assert _relative_gap(sol, *interval) <= 1e-12
    ref = solve_global(problem, space, partition, q)
    assert _relative_gap(sol, ref.u1, ref.u2) <= 1e-12


def test_march_forms_each_width_of_a_linspace_level_once(monkeypatch):
    """1D p=2, n=100, q=0, N=4000: linspace's nodes have one width
    (timegrid.TimePartition), so the march forms the local inverses once
    over its 149 chunks.  It equals the march in one chunk bit for bit, and
    the dense interval march on the FE matrices to 1e-11 relative: that
    march drifts by 2.1e-12 over the 4000 intervals."""
    problem, space = problem_1d_smooth(), assemble(1, 100, 2)
    partition = make_uniform_partition(1.0, 4000)
    assert np.unique(partition.widths).size == 1 and len(march_chunks(space, partition, 0)) == 149
    interval = march_interval_by_interval(problem, space, partition, 0)
    space.eigenvalues   # the eigenbasis, inverted once, formed outside the count
    formed = _count_formations(monkeypatch)
    sol = run_decomposed(problem, space, partition, 0)
    monkeypatch.undo()
    assert formed == [1]
    monkeypatch.setattr(solver, "CHUNK_VALUES", 1 << 40)
    whole = run_decomposed(problem, space, partition, 0)
    assert np.array_equal(sol.u1, whole.u1) and np.array_equal(sol.u2, whole.u2)
    assert _relative_gap(sol, *interval) <= 1e-11


def test_a_uniform_2d_level_forms_its_local_inverses_once(monkeypatch):
    """2D heat2d-smooth, p=2, q=0, n=24, N=576: one interval a chunk, and one
    width, so the march forms the local inverses once over its 576 chunks."""
    problem, space = problem_2d_smooth(), assemble(2, 24, 2)
    partition = make_uniform_partition(problem.final_time, 576)
    assert len(march_chunks(space, partition, 0)) == 576
    space.eigenvalues, reference_blocks(0)   # each inverts once, outside the count
    formed = _count_formations(monkeypatch)
    for chunk in march(problem, space, partition, 0):
        del chunk
    monkeypatch.undo()
    assert formed == [1]


def _march_peak(problem, space, partition, q):
    """Traced peak of consuming the march of a level built beforehand."""
    tracemalloc.start()
    try:
        for chunk in march(problem, space, partition, q):
            del chunk
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graded_march_memory_is_independent_of_the_interval_count():
    """1D p=2, n=16, q=1 on graded partitions, where every width is distinct:
    from N = 1000 to 4000 the traced peak of the march grows by at most 64
    bytes an interval, and by no local inverse of dof doubles an interval."""
    problem, space = problem_1d_smooth(), assemble(1, 16, 2)
    _march_peak(problem, space, _graded(10), 1)   # caches filled outside the trace
    small, large = (_march_peak(problem, space, _graded(N), 1) for N in (1000, 4000))
    assert large - small <= 64 * 3000


def test_graded_march_takes_the_memory_of_a_uniform_one():
    """2D p=2, n=24, q=1, N=256, one interval a chunk: the traced peak of the
    march on the graded partition is at most 1.1 times that on the uniform
    one, though every width of the graded one is distinct."""
    problem, space = problem_2d_smooth(), assemble(2, 24, 2)
    assert march_chunks(space, _graded(256), 1) == [(i, i + 1) for i in range(256)]
    _march_peak(problem, space, _graded(2), 1)   # caches filled outside the trace
    uniform = _march_peak(problem, space, make_uniform_partition(1.0, 256), 1)
    assert _march_peak(problem, space, _graded(256), 1) <= 1.1 * uniform
