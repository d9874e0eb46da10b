import dataclasses
import math
import warnings

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
import scipy.linalg

from stheat import analysis
from stheat.analysis import (
    LevelSums,
    _grams,
    _condense,
    _last_pivot,
    _mode_top,
    _top,
    cfl_constant,
    cs_constant,
    diagnostic_constants,
    error_norms,
    fit_rate,
    infsup_discrete,
    stability_check,
)
from stheat import fem
from stheat.fem import assemble, load_vector
from stheat.problems import (
    ExactSolution,
    ProblemSpec,
    SpaceFactor,
    TimeFactor,
    problem_1d_lowreg,
    problem_1d_smooth,
    problem_2d_smooth,
    problem_by_id,
    problem_impulse,
)
from stheat import solver
from stheat.solver import interval_moments, march, march_chunks, run_decomposed
from stheat.timegrid import (
    ReferenceBlocks,
    TimePartition,
    gauss_rule,
    make_uniform_partition,
    quadrature_nodes,
)
from reference import (assemble_bilinear, banded, banded_constants, bisected_top,
                       dense_line_tables, dense_pair, from_matrices, global_layout,
                       grid_error_norms, grid_f_dual_sq, grid_moments, mass_cho, per_mode_bands,
                       quadrature_reference_blocks)


def test_fit_rate_recovers_exact_power_law():
    ks = [0.4, 0.2, 0.1, 0.05]
    for r in (0.5, 1.0, 2.0, 3.7):
        pairs = [(k, 2.3 * k ** r) for k in ks]
        assert fit_rate(pairs) == pytest.approx(r, abs=1e-12)


def test_fit_rate_argument_validation():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (0.05, 0.0)])
    with pytest.raises(ValueError):
        fit_rate([(-0.1, 1.0), (0.05, 0.5)])


def _zero_problem():
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    space = SpaceFactor(zero, lambda x: (zero(x),), zero)   # one gradient component per axis
    exact = ExactSolution(((space, TimeFactor(zero, zero)),))
    return ProblemSpec(name="rest", dimension=1, rhs=None, initial=None,
                       final_time=1.0, exact=exact)


def test_error_norms_zero_problem():
    problem = _zero_problem()
    space = assemble(1, 4, 1)
    sol = run_decomposed(problem, space, make_uniform_partition(1.0, 3), q=0)
    rep = error_norms(sol, problem)
    assert rep.err_u1_L2V == pytest.approx(0.0, abs=1e-14)
    assert rep.err_u2_nodal_max == pytest.approx(0.0, abs=1e-14)
    assert rep.per_node.shape == (4,)


def test_error_norms_requires_exact_solution():
    problem = ProblemSpec(name="rest", dimension=1, rhs=None, initial=None, final_time=1.0)
    space = assemble(1, 3, 1)
    sol = run_decomposed(problem, space, make_uniform_partition(1.0, 2), q=0)
    with pytest.raises(ValueError):
        error_norms(sol, problem)


def _error_norms_one_point_at_a_time(sol, problem):
    """Reference: (err_u1_L2V, per-node errors), one time point per step, in
    FE coordinates."""
    space, part, q = sol.space, sol.partition, sol.q
    u1, u2 = (space.coefficients(u) for u in (sol.u1, sol.u2))
    x, w, B, D = dense_line_tables(space.n, space.degree, space.degree + 4)
    points, weights = gauss_rule(q + 4)
    err1_sq = 0.0
    for i in range(part.num_intervals):
        a, b = part.nodes[i], part.nodes[i + 1]
        cuts = [s for s in problem.time_breakpoints if a < s < b]
        for s0, s1 in zip([a] + cuts, cuts + [b]):
            for tau, wt in zip(points, weights):
                t = s0 + (s1 - s0) * tau
                c = npleg.legvander(2.0 * (t - a) / (b - a) - 1.0, q)[0] @ u1[i]
                if space.dimension == 1:
                    (ex,) = problem.exact.grad(x, t)
                    sp = np.sum(w * (D.T @ c - ex) ** 2)
                else:
                    C = c.reshape(B.shape[0], -1)
                    ex, ey = problem.exact.grad(x[:, None], x[None, :], t)
                    sq = (D.T @ C @ B - ex) ** 2 + (B.T @ C @ D - ey) ** 2
                    sp = np.sum(np.outer(w, w) * sq)
                err1_sq += wt * (s1 - s0) * sp
    per_node, mass = [], dense_pair(space)[0]
    cho = mass_cho(space)
    for n, t in enumerate(part.nodes):
        if space.dimension == 1:
            load = (B * w) @ problem.exact.u(x, t)
        else:
            load = ((B * w) @ problem.exact.u(x[:, None], x[None, :], t) @ (B * w).T).ravel()
        diff = u2[n] - scipy.linalg.cho_solve(cho, load)
        per_node.append(np.sqrt(diff @ mass @ diff))
    return np.sqrt(err1_sq), np.array(per_node)


@pytest.mark.parametrize("problem,space_args,N,q", [
    (problem_1d_lowreg(0.5), (1, 5, 2), 3, 1),   # kink at t = 1/2 inside interval 1
    (problem_2d_smooth(), (2, 3, 2), 4, 0),
])
def test_error_norms_match_pointwise_reference(problem, space_args, N, q):
    space = assemble(*space_args)
    sol = run_decomposed(problem, space, make_uniform_partition(1.0, N), q)
    rep = error_norms(sol, problem)
    err1, per_node = _error_norms_one_point_at_a_time(sol, problem)
    assert rep.err_u1_L2V == pytest.approx(err1, rel=1e-12)
    assert np.allclose(rep.per_node, per_node, rtol=1e-12, atol=1e-15)


def _in_space_problem(a=0.3, b=0.7):
    """Exact solution (a + b t) x(1-x): inside the trial space for p >= 2, q >= 1.
    Two products each: u = a g + (b t) g with g = x(1-x), and f = du/dt - lap u
    = g b + 2 (a + b t)."""
    g = lambda x: x * (1.0 - x)
    space = SpaceFactor(g, lambda x: (1.0 - 2.0 * x,), lambda x: -2.0 + 0.0 * x)
    exact = ExactSolution(((space, TimeFactor(lambda t: a + 0.0 * t, lambda t: 0.0 * t)),
                           (space, TimeFactor(lambda t: b * t, lambda t: b + 0.0 * t))))
    rhs = ((g, lambda t: b + 0.0 * t), (lambda x: 2.0 + 0.0 * x, lambda t: a + b * t))
    return ProblemSpec(name="poly", dimension=1, rhs=rhs,
                       initial=lambda x: a * g(x), final_time=1.0, exact=exact)


def test_scheme_reproduces_trial_space_solutions():
    """Consistency: data whose solution lies in the trial space is hit exactly."""
    problem = _in_space_problem()
    space = assemble(1, 4, 2)
    part = make_uniform_partition(1.0, 3)
    sol = run_decomposed(problem, space, part, q=1)
    rep = error_norms(sol, problem)
    assert rep.err_u1_L2V <= 1e-11
    assert rep.err_u2_nodal_max <= 1e-12


@pytest.mark.parametrize("problem,space_args,N,q", [
    (problem_1d_smooth(), (1, 8, 2), 50, 0),
    (problem_1d_smooth(), (1, 6, 3), 30, 1),
    (problem_1d_smooth(), (1, 5, 2), 20, 2),
    (problem_2d_smooth(), (2, 4, 2), 20, 0),
    (problem_2d_smooth(), (2, 3, 3), 12, 1),
    (problem_1d_lowreg(), (1, 16, 2), 301, 1),   # the kink t = 1/2 cuts interval 150
    (_in_space_problem(), (1, 4, 2), 9, 0),      # two products each, and an initial datum
], ids=["1d-q0", "1d-q1", "1d-q2", "2d-q0", "2d-q1", "lowreg-cut", "rank-2"])
def test_sums_of_products_match_the_grid_oracle(problem, space_args, N, q):
    """The data integrated as sums of space x time products (spatial loads
    once per level, the U1 error split by Legendre orthogonality) equal the
    same integrals with the data evaluated on the whole space-time grid:
    the V error to 1e-12 relative, every nodal error to 1e-14 absolute, the
    load moments and the f term of the stability bound to 1e-12 relative."""
    space = assemble(*space_args)
    part = make_uniform_partition(problem.final_time, N)
    sol = run_decomposed(problem, space, part, q)
    report = error_norms(sol, problem)
    err1, per_node = grid_error_norms(sol, problem)
    assert report.err_u1_L2V == pytest.approx(err1, rel=1e-12, abs=0.0)
    assert np.abs(report.per_node - per_node).max() <= 1e-14
    moments, grid = interval_moments(problem, space, part, q), grid_moments(problem, space, part, q)
    assert np.abs(moments - grid).max() <= 1e-12 * np.abs(grid).max()
    f_sq = stability_check(sol, problem, 1.0)["f_dual_sq"]
    assert f_sq == pytest.approx(grid_f_dual_sq(problem, space, part, q), rel=1e-12, abs=0.0)


def test_an_exact_gradient_must_give_one_component_per_axis():
    """A spatial factor whose gradient is a bare array, or a tuple of the
    wrong length, raises ValueError when the error norms are set up (a bare
    1D array was once split into its time rows: err_u1_L2V 2.564 in place
    of 0.0286 on 1D heat1d-smooth p=2, n=16, N=256, q=0)."""
    for problem, args in ((problem_1d_smooth(), (1, 16, 2)), (problem_2d_smooth(), (2, 3, 2))):
        (space, time), = problem.exact.terms
        for grad in (lambda *x: space.grad(*x)[0], lambda *x: space.grad(*x)[:1] * 3):
            wrong = ExactSolution(((dataclasses.replace(space, grad=grad), time),))
            with pytest.raises(ValueError, match="one per axis"):
                LevelSums(dataclasses.replace(problem, exact=wrong), assemble(*args),
                          make_uniform_partition(1.0, 256), 0)


def _dense_gram_trial(space, partition, q):
    """Gram of the trial norm: ||y1||_{L2(V)}^2 + ||y2||_H^2, block diagonal."""
    N, dof = partition.num_intervals, space.dof_count
    trial, _ = global_layout(N, q)
    mass, stiffness = dense_pair(space)
    nb = N * (q + 1) + 1
    G = np.zeros((nb, dof, nb, dof))
    for i, k in enumerate(partition.widths):
        for m, b in enumerate(trial[i]):
            G[b, :, b] = (k / (2 * m + 1)) * stiffness
    G[nb - 1, :, nb - 1] = mass
    return G.reshape(nb * dof, nb * dof)


def _dense_gram_test(space, partition, q, projected):
    """Gram of the test norm sum_i int_{I_i} (||dX/dt||_{H^-1}^2 + ||Y||_V^2)
    + ||X(0)||_H^2 with Y = Pi_q X when projected, Y = X otherwise."""
    N, dof = partition.num_intervals, space.dof_count
    _, test = global_layout(N, q)
    rb = ReferenceBlocks(q)
    if projected:
        Lq = rb.L[:, : q + 1]
        vterm = Lq @ np.diag(1.0 / (2 * np.arange(q + 1) + 1)) @ Lq.T
    else:
        vterm = rb.GL2
    mass, stiffness = dense_pair(space)
    dualM = mass @ scipy.linalg.solve(stiffness, mass)
    dualM = 0.5 * (dualM + dualM.T)
    nb = N * (q + 1) + 1
    G = np.zeros((nb, dof, nb, dof))
    for i, k in enumerate(partition.widths):
        for j, row in enumerate(test[i]):
            for jp, col in enumerate(test[i]):
                G[row, :, col] += (rb.E[j, jp] / k) * dualM + k * vterm[j, jp] * stiffness
    G[0, :, 0] += mass
    return G.reshape(nb * dof, nb * dof)


def _dense_diagnostics(space, partition, q):
    """Reference (c_B, C_B, c_S) from the assembled space-time matrices."""
    B = assemble_bilinear(space, partition, q)
    GX = _dense_gram_test(space, partition, q, projected=True)
    GC = _dense_gram_test(space, partition, q, projected=False)
    Lx = scipy.linalg.cholesky(GX, lower=True)
    Ly = scipy.linalg.cholesky(_dense_gram_trial(space, partition, q), lower=True)
    A = scipy.linalg.solve_triangular(Lx, B, lower=True)
    A = scipy.linalg.solve_triangular(Ly, A.T, lower=True).T
    svals = np.linalg.svd(A, compute_uv=False)
    c_S = np.sqrt(scipy.linalg.eigh(GC, GX, eigvals_only=True)[-1])
    return svals.min(), svals.max(), c_S


_NONUNIFORM = TimePartition([0.0, 0.1, 0.25, 0.3, 0.6, 0.65, 1.0])

_DENSE_CASES = [
    ((1, 5, 2), make_uniform_partition(1.0, 6), 0),
    ((1, 4, 3), make_uniform_partition(1.0, 5), 1),
    ((1, 4, 1), make_uniform_partition(0.5, 3), 2),
    ((2, 3, 2), make_uniform_partition(1.0, 4), 0),
    ((1, 6, 1), _NONUNIFORM, 0),
    ((1, 3, 2), _NONUNIFORM, 1),
]


@pytest.mark.parametrize("space_args,partition,q", _DENSE_CASES)
def test_diagnostics_match_dense_oracle(space_args, partition, q):
    space = assemble(*space_args)
    c_B, C_B, c_S = _dense_diagnostics(space, partition, q)
    got_b, got_B = infsup_discrete(space, partition, q)
    assert got_b == pytest.approx(c_B, rel=1e-12)
    assert got_B == pytest.approx(C_B, rel=1e-12)
    assert cs_constant(space, partition, q) == pytest.approx(c_S, rel=1e-12)


@pytest.mark.parametrize("q", [0, 1, 3, 9])
@pytest.mark.parametrize("partition", [make_uniform_partition(1.0, 5), _NONUNIFORM],
                         ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("space_args", [(1, 4, 2), (2, 2, 2)], ids=["1d", "2d"])
def test_constants_match_the_banded_and_dense_oracles(space_args, partition, q):
    """The condensed pass against bisections of each mode's banded pencils
    on LAPACK's Cholesky and against the assembled space-time matrices, to
    1e-12; c_B and C_B are exactly 1."""
    space = assemble(*space_args)
    got = diagnostic_constants(space, partition, q)
    assert got[:2] == (1.0, 1.0)
    for oracle in (banded_constants, _dense_diagnostics):
        assert got == pytest.approx(oracle(space, partition, q), rel=1e-12)


def _top_of(partition, q, lam):
    """The top eigenvalue of the pencil (GC, GX) of the mode lam."""
    widths, width_of = np.unique(partition.widths, return_inverse=True)
    return _mode_top(q, widths * lam, width_of.tolist())


@pytest.mark.parametrize("space_args,partition,q", _DENSE_CASES + [
    ((1, 32, 2), make_uniform_partition(1.0, 1024), 0),
    ((2, 8, 2), make_uniform_partition(1.0, 64), 0),
])
def test_pruned_maxima_match_every_mode(space_args, partition, q):
    """c_S equals the largest of every mode's own bisected top eigenvalue;
    c_B and C_B equal the banded oracle's, which bisects (GX, BB) and
    (BB, GX) on every mode, to 1e-12 (they sit at 1, where that bisection
    settles a few ulps away)."""
    space = assemble(*space_args)
    top_s = max(_top_of(partition, q, lam) for lam in np.unique(space.eigenvalues))
    c_B, C_B, c_S = diagnostic_constants(space, partition, q)
    ref_b, ref_B, _ = banded_constants(space, partition, q)
    assert c_B == pytest.approx(ref_b, abs=1e-12)
    assert C_B == pytest.approx(ref_B, abs=1e-12)
    assert c_S == np.sqrt(top_s)
    assert (c_B, C_B) == infsup_discrete(space, partition, q)
    assert c_S == cs_constant(space, partition, q)


def test_indefinite_gram_raises_after_the_maximum_is_set():
    """lambda = -1 beside lambda = 4: only the largest mode is bisected, and
    its top is finite, so the check that every eigenvalue is positive must
    raise."""
    space = from_matrices(np.eye(2), np.diag([4.0, -1.0]))
    part = make_uniform_partition(1.0, 2)
    assert _top_of(part, 0, 4.0) > 1.0
    for diagnostic in (diagnostic_constants, cs_constant, infsup_discrete):
        with pytest.raises(RuntimeError, match="norm Gram matrix is not positive definite"):
            diagnostic(space, part, 0)
    nan = from_matrices(np.eye(1), np.array([[np.nan]]))
    with pytest.raises(RuntimeError, match="norm Gram matrix is not positive definite"):
        diagnostic_constants(nan, part, 0)


def test_top_raises_on_a_pencil_without_a_finite_top():
    """_top ends with RuntimeError, and no overflow warning, on a Gram that
    is not positive definite: G = diag(1, -1, 1) against A = I, and the
    pencil (GC, GX) of the lambda = -1 mode above, whose bracket once grew
    forever."""
    def diagonal(sigma):
        first, second, last = sigma - 1.0, -sigma - 1.0, sigma - 1.0
        return last if first > 0.0 and second > 0.0 else np.nan

    space = from_matrices(np.eye(2), np.diag([4.0, -1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="no finite top eigenvalue"):
            _top(diagonal, 2.0, 1.0)
        with pytest.raises(RuntimeError, match="no finite top eigenvalue"):
            _top_of(make_uniform_partition(1.0, 2), 0, -1.0)


@pytest.mark.parametrize("lam", [1e150, 1e155, 1e300])
def test_top_raises_where_the_bound_overflows(lam):
    """A mode so stiff that sigma GX would overflow at the bound raises the
    same RuntimeError, with no OverflowError from squaring mu in Python
    floats (past 1e154) and no numpy overflow warning (from 1e150)."""
    space = from_matrices(np.eye(1), [[lam]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="no finite top eigenvalue"):
            diagnostic_constants(space, make_uniform_partition(1.0, 2), 0)


@pytest.mark.parametrize("lam", [1e-6, 1e-8, 1e-12])
def test_top_where_the_bound_lies_within_an_ulp_of_one(lam):
    """A mode so soft that C_CFL is below about 1e-5 puts the bound within
    1e-10 of 1, where 2^-20 of the bracket is less than half an ulp: the
    first secant's second point still lies a float above the bound (it
    once coincided with it and divided by zero), and c_S matches the
    bisection to 1e-12."""
    part = make_uniform_partition(1.0, 2)
    _, _, c_S = diagnostic_constants(from_matrices(np.eye(1), [[lam]]), part, 0)
    assert c_S >= 1.0
    widths, width_of = np.unique(part.widths, return_inverse=True)
    top = bisected_top(0, widths * lam, width_of.tolist())
    assert c_S == pytest.approx(np.sqrt(top), rel=1e-12)


_TRIPLE = ("GX", "BB", "GC")


@pytest.mark.parametrize("matrix", _TRIPLE)
@pytest.mark.parametrize("partition", [make_uniform_partition(1.0, 5), _NONUNIFORM],
                         ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("q", [0, 1, 3, 9])
@pytest.mark.parametrize("space_args", [(1, 5, 2), (2, 3, 2)], ids=["1d", "2d"])
def test_level_bands_match_per_mode_construction(space_args, q, partition, matrix):
    """Each matrix of the oracle's triple (GX, BB, GC), built afresh for every
    eigenvalue, equals the sum of the interval blocks that the diagnostics
    condense (_grams, with the node-0 term 1), to 1e-13 of its largest
    entry.  BB equals GX: the isometry behind c_B = C_B = 1."""
    space = assemble(*space_args)
    want = list(per_mode_bands(space, partition, q))
    lam = np.unique(space.eigenvalues)[::-1]
    assert len(want) == lam.size
    back = np.argsort(np.r_[1:q + 1, 0, q + 1])   # _grams' order back to time order
    for l, triple in zip(lam, want):
        blocks = _grams(q, partition.widths * l)[1 if matrix == "GC" else 0]
        band = banded(blocks[:, back[:, None], back])
        band[0, 0] += 1.0
        oracle = triple[_TRIPLE.index(matrix)]
        assert band.shape == oracle.shape
        assert np.abs(band - oracle).max() <= 1e-13 * np.abs(oracle).max()


def _counting(monkeypatch, name):
    calls = []
    function = getattr(analysis, name)
    monkeypatch.setattr(analysis, name, lambda *args: calls.append(1) or function(*args))
    return calls


@pytest.mark.parametrize("q", [0, 1, 3, 9])
@pytest.mark.parametrize("partition", [make_uniform_partition(1.0, 5), _NONUNIFORM],
                         ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("space_args", [(1, 6, 2), (2, 3, 2)], ids=["1d", "2d"])
def test_mode_tops_do_not_decrease_in_lambda(space_args, partition, q):
    """Divided by lambda, the Rayleigh quotient of a mode's pencil (GC, GX)
    is (a + b)/(a + c) with b >= c >= 0 free of lambda and a decreasing in
    it, so no mode's own bisected top exceeds that of the largest
    eigenvalue, and c_S is the square root of the latter, bit for bit."""
    space = assemble(*space_args)
    lam = np.unique(space.eigenvalues)
    top = _top_of(partition, q, lam[-1])
    assert all(_top_of(partition, q, l) <= top for l in lam[:-1])
    assert cs_constant(space, partition, q) == np.sqrt(top)


def test_one_bisection_bounds_the_factorization_count(monkeypatch):
    """63 distinct eigenvalues: only the largest mode's pencil is searched,
    in Python floats, in at most 30 probes of the last pivot (the bisection
    from 1 took 70, the banded Cholesky 411 factorizations); each level of
    a p=3, q=1 sweep n = 3..11 with k = h^2 takes at most 25."""
    modes = _counting(monkeypatch, "_mode_top")
    probes = _counting(monkeypatch, "_last_pivot")
    diagnostic_constants(assemble(1, 32, 2), make_uniform_partition(1.0, 1024), 0)
    assert len(modes) == 1
    assert len(probes) <= 30
    for n in (3, 4, 6, 8, 11):
        probes.clear()
        diagnostic_constants(assemble(1, n, 3), make_uniform_partition(1.0, n * n), 1)
        assert len(probes) <= 25


def test_top_of_a_closed_form_pencil():
    """Pencil (A, I) with A = tridiag(-c, 1, -c) of size n: its top is
    1 + 2c cos(pi/(n+1)), below 1 + 2c.  sigma I - A is the nodal
    tridiagonal of n-1 two-node blocks, the last of its own width to carry
    the last node's sigma - 1, so the last pivot decides it, and _top lands
    within 4 ulps."""
    n, c = 40, 0.01
    top = 1.0 + 2.0 * c * np.cos(np.pi / (n + 1))

    def last_pivot(sigma):
        return _last_pivot(0.0, np.array([sigma - 1.0] * 2), np.array([c] * 2),
                           np.array([0.0, sigma - 1.0]), [0] * (n - 2) + [1])

    assert abs(_top(last_pivot, 1.0 + 2.0 * c, 1.0) - top) <= 4 * np.spacing(top)


@pytest.mark.parametrize("last_pivot,root,most", [
    (lambda sigma: math.log(sigma - 1.0) - 0.3, 1.0 + math.exp(0.3), 14),
    (lambda sigma: math.exp(50.0 * (sigma - 1.3)) - 2.0, 1.3 + math.log(2.0) / 50.0, 40),
], ids=["concave", "convex"])
def test_top_of_a_smooth_last_pivot(last_pivot, root, most):
    """A concave last pivot, like a pencil's, takes regula falsi with the
    Illinois halving (19 probes without it).  A convex one holds regula
    falsi at the lower end, and bisecting when the bracket has not halved
    in three probes ends the search (134 probes without it).  Either lands
    on the least float at which the pivot is positive."""
    probes = []
    top = _top(lambda sigma: probes.append(1) or last_pivot(sigma), 3.0, 1.0)
    assert len(probes) <= most
    assert last_pivot(top) > 0.0 and not last_pivot(np.nextafter(top, 0.0)) > 0.0
    assert top == pytest.approx(root, rel=1e-15)


def _random_level(seed):
    """(space, partition, q) of a random level: 1D or 2D, q = 0..9, a
    uniform or a random partition of [0, 1]."""
    rng = np.random.default_rng(seed)
    dimension, q = int(rng.integers(1, 3)), int(rng.integers(0, 10))
    n = int(rng.integers(2, 12 if dimension == 1 else 7))
    space, N = assemble(dimension, n, int(rng.integers(1, 4))), int(rng.integers(1, 300))
    if seed % 2:
        return space, make_uniform_partition(1.0, N), q
    nodes = np.r_[0.0, np.cumsum(rng.uniform(0.2, 1.0, N))]
    return space, TimePartition(nodes / nodes[-1]), q


def _gap_bound(q, c_cfl):
    """The proved bound 1 + C_CFL^2 / (4 (2q+1)(2q+3)) on c_S^2."""
    return 1.0 + c_cfl ** 2 / (4.0 * (2 * q + 1) * (2 * q + 3))


@pytest.mark.parametrize("seed", range(24))
def test_search_matches_the_bisection_on_random_levels(monkeypatch, seed):
    """The search from the bound agrees with the bisection from 1 to 1e-12
    (the pivot test is not monotone within about 1e-14 of the top, so the
    two land on different floats), its top passes the pivot test and the
    float below it does not, in at most 72 probes; and c_S^2 is at most
    1 + C_CFL^2 / (4 (2q+1)(2q+3))."""
    space, partition, q = _random_level(seed)
    widths, width_of = np.unique(partition.widths, return_inverse=True)
    mu, width_of = widths * space.eigenvalues.max(), width_of.tolist()
    probes = _counting(monkeypatch, "_last_pivot")
    top = _mode_top(q, mu, width_of)
    assert len(probes) <= 72
    assert top == pytest.approx(bisected_top(q, mu, width_of), rel=1e-12)
    GX, GC = _grams(q, mu)

    def last_pivot(sigma):
        return _last_pivot(sigma - 1.0, *_condense(sigma * GX - GC, q), width_of)

    assert last_pivot(top) > 0.0
    assert not last_pivot(np.nextafter(top, 0.0)) > 0.0
    assert top <= _gap_bound(q, cfl_constant(space, partition.k_max))


def test_gap_constant_of_the_reference_interval():
    """On the complement of constants, the top of (GL2 - Pi, E) over the
    reference interval is 1/(4 (2q+1)(2q+3)), with the blocks by quadrature
    and Pi = G W G^T the Gram of the projection onto degree q: X - Pi_q X is
    c P_{q+1}, of squared norm c^2/(2q+3), and X' keeps 2(2q+1) c P_q."""
    for q in range(10):
        _, G, E, GL2, _ = quadrature_reference_blocks(q)
        Pi = (G * (2.0 * np.arange(q + 1) + 1.0)) @ G.T
        Q = scipy.linalg.eigh(E)[1][:, 1:]   # E's range: the constants span its kernel
        top = scipy.linalg.eigh(Q.T @ (GL2 - Pi) @ Q, Q.T @ E @ Q, eigvals_only=True)[-1]
        assert 1.0 / top == pytest.approx(4.0 * (2 * q + 1) * (2 * q + 3), rel=1e-12)


def test_gap_bound_is_tight_on_a_fine_level():
    """c_S^2 sits within 0.1 % of its bound on 1D n=32, N=1024, q=0."""
    space, partition = assemble(1, 32, 2), make_uniform_partition(1.0, 1024)
    c_S = cs_constant(space, partition, 0)
    ratio = c_S ** 2 / _gap_bound(0, cfl_constant(space, partition.k_max))
    assert 0.999 <= ratio <= 1.0


@pytest.mark.parametrize("space_args,N,q,tol", [
    (None, 1, 0, 1e-8),       # scalar space
    ((1, 4, 1), 4, 0, 1e-6),
    ((1, 3, 1), 2, 1, 1e-6),
    ((1, 3, 2), 3, 6, 1e-12),
    ((1, 4, 3), 4, 9, 1e-12),
])
def test_infsup_constants_are_one(space_args, N, q, tol):
    space = (from_matrices([[1.0]], [[1.0]])
             if space_args is None else assemble(*space_args))
    c_B, C_B = infsup_discrete(space, make_uniform_partition(1.0, N), q)
    assert c_B == pytest.approx(1.0, abs=tol)
    assert C_B == pytest.approx(1.0, abs=tol)


def test_cs_constant_matches_two_by_two_closed_form():
    """One spatial mode, one interval, q = 0: both Gram matrices are 2x2 and
    can be written down from the reference tables directly."""
    m, kap, k = 1.0 / 3.0, 4.0, 0.7
    E = np.array([[1.0, -1.0], [-1.0, 1.0]])             # int l_i' l_j'
    GL2 = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    proj = np.full((2, 2), 0.25)                         # mean tensor mean
    e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
    Gc = m * e00 + k * kap * GL2 + (m * m / (k * kap)) * E
    Gd = m * e00 + k * kap * proj + (m * m / (k * kap)) * E
    ref = float(np.sqrt(scipy.linalg.eigh(Gc, Gd, eigvals_only=True)[-1]))
    space = from_matrices([[m]], [[kap]])
    got = cs_constant(space, make_uniform_partition(k, 1), 0)
    assert got == pytest.approx(ref, abs=1e-10)


def test_cs_constant_at_least_one():
    for n, N in [(2, 2), (3, 4)]:
        space = assemble(1, n, 1)
        assert cs_constant(space, make_uniform_partition(1.0, N), 0) >= 1.0 - 1e-12


def test_cs_bounded_under_parabolic_coupling():
    """k = h^2 keeps the norm-equivalence constant bounded while pure spatial
    refinement at fixed k lets it grow like 1/h."""
    coupled = []
    for n in (2, 4, 8):
        space = assemble(1, n, 1)
        part = make_uniform_partition(1.0, n * n)
        coupled.append(cs_constant(space, part, 0))
    assert all(c <= 4.0 for c in coupled)
    assert coupled[0] < coupled[1] < coupled[2]
    # increments shrink as the CFL number saturates
    assert coupled[2] - coupled[1] < coupled[1] - coupled[0]

    fixed = []
    for n in (3, 6, 12):
        space = assemble(1, n, 1)
        part = make_uniform_partition(1.0, 4)
        fixed.append(cs_constant(space, part, 0))
    assert fixed[1] / fixed[0] >= 1.8
    assert fixed[2] / fixed[1] >= 1.8
    assert fixed[2] >= 20.0


def test_cfl_constant_exact_coarse_case():
    # single P1 interior node: lambda_max = 12, so C_CFL = 0.1 * 12
    space = assemble(1, 2, 1)
    assert cfl_constant(space, 0.1) == pytest.approx(1.2, rel=1e-12)
    assert cfl_constant(space, 0.2) == pytest.approx(2.4, rel=1e-12)


def test_cfl_constant_saturates_under_coupling():
    vals = []
    for n in (4, 8, 16):
        space = assemble(1, n, 1)
        vals.append(cfl_constant(space, 1.0 / n ** 2))
    assert vals[0] < vals[1] < vals[2] <= 12.0 + 1e-9
    assert vals[2] >= 10.0


def test_infsup_on_large_system_is_one():
    space = assemble(1, 64, 1)  # 63 unknowns
    part = make_uniform_partition(1.0, 32)  # 33 * 63 = 2079 space-time unknowns
    c_B, C_B = infsup_discrete(space, part, 0)
    assert c_B == pytest.approx(1.0, abs=1e-10)
    assert C_B == pytest.approx(1.0, abs=1e-10)


def test_stability_bound_holds_on_smooth_run():
    problem = problem_1d_smooth()
    space = assemble(1, 6, 2)
    part = make_uniform_partition(1.0, 6)
    sol = run_decomposed(problem, space, part, q=0)
    c_s = cs_constant(space, part, 0)
    report = stability_check(sol, problem, c_s)
    assert report["satisfied"]
    assert report["lhs"] <= report["rhs"] * (1.0 + 1e-9)
    assert report["u0_H_sq"] == pytest.approx(0.0, abs=1e-14)
    assert report["f_dual_sq"] > 0.0


def test_stability_check_rejects_impulses():
    problem = problem_impulse(lambda x: np.sin(np.pi * x), t_star=0.5)
    space = assemble(1, 4, 1)
    part = make_uniform_partition(1.0, 4)
    sol = run_decomposed(problem, space, part, q=0)
    with pytest.raises(ValueError):
        stability_check(sol, problem, 2.0)


def _stability_dense_reference(solution, problem, c_s):
    """Reference: the stability terms from the dense matrices in FE
    coordinates, with a Cholesky solve against K for the H^-1 norm of f."""
    space, part, q = solution.space, solution.partition, solution.q
    u1, u2 = (space.coefficients(u) for u in (solution.u1, solution.u2))
    mass, stiffness = dense_pair(space)
    u1_sq = 0.0
    for i in range(part.num_intervals):
        k = float(part.widths[i])
        for m in range(q + 1):
            c = u1[i, m]
            u1_sq += (k / (2 * m + 1)) * float(c @ stiffness @ c)
    u2N_sq = float(u2[-1] @ mass @ u2[-1])
    u0_sq = float(u2[0] @ mass @ u2[0])
    stiffness_cho = scipy.linalg.cho_factor(stiffness)
    t, _, w, _ = quadrature_nodes(part, 0, part.num_intervals, q + 4, problem.time_breakpoints)
    loads = load_vector(space, problem.source, t=t.ravel())
    f_sq = float(w.ravel() @ np.sum(loads * scipy.linalg.cho_solve(stiffness_cho, loads.T).T,
                                    axis=1))
    return {"u1_L2V_sq": u1_sq, "u2_final_H_sq": u2N_sq, "f_dual_sq": f_sq, "u0_H_sq": u0_sq,
            "lhs": u1_sq + u2N_sq, "rhs": c_s ** 2 * f_sq + u0_sq}


@pytest.mark.parametrize("problem,space_args,N,q", [
    (problem_1d_smooth(), (1, 8, 2), 40, 0),
    (problem_1d_lowreg(0.5), (1, 6, 3), 7, 1),   # initial datum, kink inside interval 3
    (problem_2d_smooth(), (2, 4, 2), 9, 0),
])
def test_stability_check_matches_dense_reference(problem, space_args, N, q):
    space = assemble(*space_args)
    sol = run_decomposed(problem, space, make_uniform_partition(1.0, N), q)
    report = stability_check(sol, problem, 1.7)
    ref = _stability_dense_reference(sol, problem, 1.7)
    for key, value in ref.items():
        assert report[key] == pytest.approx(value, rel=1e-12, abs=1e-300), key


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "random"])
@pytest.mark.parametrize("q", [0, 1, 2, 5])
@pytest.mark.parametrize("dimension", [1, 2])
def test_unforced_scheme_keeps_the_energy_identity(dimension, q, uniform):
    """With f = 0 the scheme keeps the heat equation's energy identity,
    2 ||U1||^2_{L2(V)} + ||U2(T)||^2 = ||u0||^2, to rounding (at most 3.2e-15
    relative measured), and the stability sums show it with no right-hand
    side.  On [0, 0.05] the final term keeps a fair share of the energy."""
    if dimension == 1:
        problem = dataclasses.replace(problem_1d_smooth(), rhs=None, final_time=0.05,
                                      initial=lambda x: np.sin(np.pi * x) + 3.0 * x * (1.0 - x))
    else:
        problem = dataclasses.replace(
            problem_2d_smooth(), rhs=None, final_time=0.05,
            initial=lambda x, y: np.sin(np.pi * x) * np.sin(2.0 * np.pi * y) + x * y)
    space, N = assemble(dimension, 6 if dimension == 1 else 4, 2), 17
    if uniform:
        part = make_uniform_partition(problem.final_time, N)
    else:
        nodes = np.r_[0.0, np.cumsum(np.random.default_rng(q).uniform(0.2, 1.0, N))]
        part = TimePartition(problem.final_time * nodes / nodes[-1])
    bound = stability_check(run_decomposed(problem, space, part, q), problem, 1.0)
    assert bound["f_dual_sq"] == 0.0 and bound["satisfied"]
    assert bound["u2_final_H_sq"] > 0.01 * bound["u0_H_sq"]
    energy = 2.0 * bound["u1_L2V_sq"] + bound["u2_final_H_sq"]
    assert energy == pytest.approx(bound["u0_H_sq"], rel=1e-13, abs=0.0)


def test_stability_result_evaluates_no_rhs(monkeypatch):
    """Once the last chunk is fed, LevelSums.result only combines the sums:
    with the rhs and fem.load_vector both raising, it returns the block of
    stability_check.  heat1d-lowreg, N = 301 marches in 3 chunks."""
    problem = problem_1d_lowreg(0.1)
    space, part, q = assemble(1, 16, 2), make_uniform_partition(1.0, 301), 1
    sums = LevelSums(problem, space, part, q)
    for chunk in march(problem, space, part, q):
        sums.add(*chunk)
    expected = stability_check(run_decomposed(problem, space, part, q), problem, 1.7)

    def refuse(*args, **kwargs):
        raise AssertionError("result evaluated the right-hand side")

    monkeypatch.setattr(fem, "load_vector", refuse)
    sums.problem = dataclasses.replace(problem, rhs=((refuse, refuse),))
    assert sums.result(1.7) == expected


def test_level_sums_evaluate_nothing_in_space_after_set_up(monkeypatch):
    """Once LevelSums is set up, its chunks touch no spatial grid: with
    fem.gather, fem.load_vector and every spatial callable of the data
    raising, it takes every chunk of a 2D q=1 level (heat2d-smooth, p=2,
    n=4, N=40, 2 march chunks) and its report and bound equal error_norms
    and stability_check."""
    armed = []

    def guarded(f):
        def g(*x):
            if armed:
                raise AssertionError("a chunk evaluated the data in space")
            return f(*x)
        return g

    smooth = problem_2d_smooth()
    (X, T), = smooth.exact.terms
    (F, S), = smooth.rhs
    X = SpaceFactor(guarded(X.value), guarded(X.grad), guarded(X.laplacian))
    problem = dataclasses.replace(smooth, exact=ExactSolution(((X, T),)),
                                  rhs=((guarded(F), S),))
    space, part, q = assemble(2, 4, 2), make_uniform_partition(1.0, 40), 1
    sol = run_decomposed(problem, space, part, q)
    errors, bound = error_norms(sol, problem), stability_check(sol, problem, 1.7)
    sums = LevelSums(problem, space, part, q)
    armed.append(True)

    def refuse(*args, **kwargs):
        raise AssertionError("a chunk evaluated on the spatial grid")

    monkeypatch.setattr(fem, "gather", refuse)
    monkeypatch.setattr(fem, "load_vector", refuse)
    chunks = march_chunks(space, part, q)
    assert len(chunks) == 2
    for lo, hi in chunks:
        sums.add(lo, hi, sol.u1[lo:hi], sol.u2[lo:hi + 1])
    report = sums.report()
    assert (report.err_u1_L2V, report.err_u2_nodal_max) == (errors.err_u1_L2V,
                                                            errors.err_u2_nodal_max)
    assert np.array_equal(report.per_node, errors.per_node)
    assert sums.result(1.7) == bound


def test_quadrature_is_chunk_invariant(monkeypatch):
    """Loads, error norms and the stability terms do not depend on the chunk
    size.  N = 9 puts the kink of heat1d-lowreg (t = 1/2) inside interval 4:
    one chunk holds the cut with all eight uncut intervals, while in chunks
    of 3 intervals only one of them holds it and the others take the
    reference points."""
    problem = problem_1d_lowreg(0.5)
    space, part, q = assemble(1, 4, 2), make_uniform_partition(1.0, 9), 1
    sol = run_decomposed(problem, space, part, q)

    def quadratures():
        errors = error_norms(sol, problem)
        stability = stability_check(sol, problem, 1.7)
        return (interval_moments(problem, space, part, q),
                np.array([errors.err_u1_L2V, *errors.per_node]),
                np.array([v for v in stability.values() if not isinstance(v, bool)]))

    monkeypatch.setattr(solver, "CHUNK_VALUES", 1 << 40)
    whole = quadratures()
    monkeypatch.setattr(solver, "CHUNK_VALUES", 3 * (q + 3) * space.grid_size(space.degree + 2))
    assert len(march_chunks(space, part, q)) == 3
    for one, many in zip(whole, quadratures()):
        assert np.all(np.isfinite(many))
        assert np.abs(many - one).max() <= 1e-13 * np.abs(one).max()


@pytest.mark.parametrize("problem_id,n,p,q,N", [
    ("heat1d-lowreg", 16, 2, 1, 301),   # 3 march chunks, the kink at t = 1/2 inside interval 150
    ("heat2d-smooth", 5, 2, 0, 40),     # 2 march chunks
    ("heat1d-smooth", 32, 2, 0, 1024),  # march chunks of 85 intervals
])
def test_error_and_stability_sums_do_not_depend_on_the_chunks(problem_id, n, p, q, N):
    """LevelSums fed one collected level in the march's
    chunks, in chunks of one interval, and in chunks of seven (the last one
    shorter) agree with error_norms and stability_check: bit for bit in the
    march's chunks, else to 1e-13 relative.  Each nodal error agrees bit
    for bit in every plan: the trace is the time factor's value at the node
    times the level's one modal load, whatever rows a chunk holds (it
    agreed to 1e-14 of the largest nodal norm of the solution while a
    one-interval chunk took V^T load of the trace as a matrix-vector
    product)."""
    problem = problem_by_id(problem_id)
    space = assemble(problem.dimension, n, p)
    part = make_uniform_partition(problem.final_time, N)
    sol = run_decomposed(problem, space, part, q)
    errors, stability = error_norms(sol, problem), stability_check(sol, problem, 1.7)
    plans = {"march": march_chunks(space, part, q),
             "one": [(i, i + 1) for i in range(N)],
             "seven": [(lo, min(lo + 7, N)) for lo in range(0, N, 7)]}
    assert len(plans["march"]) > 1
    for name, plan in plans.items():
        sums = LevelSums(problem, space, part, q)
        for lo, hi in plan:
            sums.add(lo, hi, sol.u1[lo:hi], sol.u2[lo:hi + 1])
        report, bound = sums.report(), sums.result(1.7)
        if name == "march":
            assert (report.err_u1_L2V, report.err_u2_nodal_max) == (
                errors.err_u1_L2V, errors.err_u2_nodal_max)
            assert bound == stability
            continue
        assert report.err_u1_L2V == pytest.approx(errors.err_u1_L2V, rel=1e-13, abs=0.0), name
        assert np.array_equal(report.per_node, errors.per_node), name
        for key, value in stability.items():
            assert bound[key] == pytest.approx(value, rel=1e-13, abs=0.0), (name, key)


def test_sums_of_chunks_that_miss_the_first_read_nan():
    """LevelSums fed every chunk of the march but the
    first (1D heat1d-smooth, p=2, n=16, N=256, q=0) read NaN in every sum
    that the level does not cover: the nodes not fed and the nodal maximum
    of the errors, the V error (0.01623 at the sums of the intervals fed
    before they counted them), both sides of the bound and its interval
    sums, so the bound is not satisfied."""
    problem = problem_1d_smooth()
    space, part, q = assemble(1, 16, 2), make_uniform_partition(1.0, 256), 0
    assert len(march_chunks(space, part, q)) > 1
    sums = LevelSums(problem, space, part, q)
    chunks = march(problem, space, part, q)
    lo = next(chunks)[1]
    for chunk in chunks:
        sums.add(*chunk)
    report, bound = sums.report(), sums.result(1.7)
    assert np.isnan(report.per_node[:lo]).all() and np.isfinite(report.per_node[lo:]).all()
    assert np.isnan(report.err_u2_nodal_max) and np.isnan(report.err_u1_L2V)
    assert np.isnan(bound["rhs"]) and np.isnan(bound["u0_H_sq"]) and np.isnan(bound["lhs"])
    assert np.isnan(bound["u1_L2V_sq"]) and np.isnan(bound["f_dual_sq"])
    assert np.isfinite(bound["u2_final_H_sq"])
    assert bound["satisfied"] is False


def test_sums_fed_a_chunk_twice_read_nan():
    """LevelSums counts the intervals fed: a level whose
    first chunk is fed twice reads NaN in its V error and in both sides of
    the bound, though every node has a finite error."""
    problem = problem_1d_smooth()
    space, part, q = assemble(1, 16, 2), make_uniform_partition(1.0, 256), 0
    sums = LevelSums(problem, space, part, q)
    chunks = list(march(problem, space, part, q))
    for chunk in chunks[:1] + chunks:
        sums.add(*chunk)
    report, bound = sums.report(), sums.result(1.7)
    assert np.isfinite(report.per_node).all() and np.isnan(report.err_u1_L2V)
    assert np.isnan(bound["lhs"]) and np.isnan(bound["rhs"]) and bound["satisfied"] is False
