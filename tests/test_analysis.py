import numpy as np
import pytest
import scipy.linalg

from stheat import analysis
from stheat.analysis import (
    _mode_matrices,
    _top,
    cfl_constant,
    cs_constant,
    error_norms,
    fit_rate,
    infsup_discrete,
    stability_check,
)
from stheat.fem import assemble, load_vector, spectral
from stheat.problems import (
    ExactSolution,
    ProblemSpec,
    problem_1d_lowreg,
    problem_1d_smooth,
    problem_2d_smooth,
    problem_impulse,
)
from stheat import timegrid
from stheat.solver import interval_moments, run_decomposed
from stheat.timegrid import (
    ReferenceBlocks,
    TemporalBasis,
    TimePartition,
    chunks,
    gauss_rule,
    make_uniform_partition,
    quadrature_nodes,
)
from reference import (assemble_bilinear, dense_line_tables, from_matrices, global_layout,
                       mass_cho, per_mode_bands)


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
    zero2 = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    exact = ExactSolution(u=zero2, du_dt=zero2, grad=zero2, laplacian=zero2)
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
    """Reference: (err_u1_L2V, per-node errors), one time point per step."""
    space, part, q = sol.space, sol.partition, sol.q
    x, w, B, D = dense_line_tables(space.n, space.degree, space.degree + 4)
    rule, trial = gauss_rule(q + 4), TemporalBasis(q, "legendre")
    err1_sq = 0.0
    for i in range(part.num_intervals):
        a, b = part.nodes[i], part.nodes[i + 1]
        cuts = [s for s in problem.time_breakpoints if a < s < b]
        for s0, s1 in zip([a] + cuts, cuts + [b]):
            for tau, wt in zip(rule.points, rule.weights):
                t = s0 + (s1 - s0) * tau
                c = trial.eval_all((t - a) / (b - a))[:, 0] @ sol.u1[i]
                if space.dimension == 1:
                    sp = np.sum(w * (D.T @ c - problem.exact.grad(x, t)) ** 2)
                else:
                    C = c.reshape(B.shape[0], -1)
                    ex, ey = problem.exact.grad(x[:, None], x[None, :], t)
                    sq = (D.T @ C @ B - ex) ** 2 + (B.T @ C @ D - ey) ** 2
                    sp = np.sum(np.outer(w, w) * sq)
                err1_sq += wt * (s1 - s0) * sp
    per_node = []
    cho = mass_cho(space)
    for n, t in enumerate(part.nodes):
        if space.dimension == 1:
            load = (B * w) @ problem.exact.u(x, t)
        else:
            load = ((B * w) @ problem.exact.u(x[:, None], x[None, :], t) @ (B * w).T).ravel()
        diff = sol.u2[n] - scipy.linalg.cho_solve(cho, load)
        per_node.append(np.sqrt(diff @ space.mass @ diff))
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
    """Exact solution (a + b t) x(1-x): inside the trial space for p >= 2, q >= 1."""
    g = lambda x: x * (1.0 - x)

    def u(x, t):
        return (a + b * t) * g(x)

    def du_dt(x, t):
        return b * g(x) + 0.0 * x

    def grad(x, t):
        return (a + b * t) * (1.0 - 2.0 * x)

    def lap(x, t):
        return -2.0 * (a + b * t) + 0.0 * x

    def rhs(x, t):
        return du_dt(x, t) - lap(x, t)

    return ProblemSpec(name="poly", dimension=1, rhs=rhs,
                       initial=lambda x: a * g(x), final_time=1.0,
                       exact=ExactSolution(u, du_dt, grad, lap))


def test_scheme_reproduces_trial_space_solutions():
    """Consistency: data whose solution lies in the trial space is hit exactly."""
    problem = _in_space_problem()
    space = assemble(1, 4, 2)
    part = make_uniform_partition(1.0, 3)
    sol = run_decomposed(problem, space, part, q=1)
    rep = error_norms(sol, problem)
    assert rep.err_u1_L2V <= 1e-11
    assert rep.err_u2_nodal_max <= 1e-12


def _dense_gram_trial(space, partition, q):
    """Gram of the trial norm: ||y1||_{L2(V)}^2 + ||y2||_H^2, block diagonal."""
    N, dof = partition.num_intervals, space.dof_count
    trial, _ = global_layout(N, q)
    nb = N * (q + 1) + 1
    G = np.zeros((nb, dof, nb, dof))
    for i, k in enumerate(partition.widths):
        for m, b in enumerate(trial[i]):
            G[b, :, b] = (k / (2 * m + 1)) * space.stiffness
    G[nb - 1, :, nb - 1] = space.mass
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
    dualM = space.mass @ scipy.linalg.solve(space.stiffness, space.mass)
    dualM = 0.5 * (dualM + dualM.T)
    nb = N * (q + 1) + 1
    G = np.zeros((nb, dof, nb, dof))
    for i, k in enumerate(partition.widths):
        for j, row in enumerate(test[i]):
            for jp, col in enumerate(test[i]):
                G[row, :, col] += (rb.E[j, jp] / k) * dualM + k * vterm[j, jp] * space.stiffness
    G[0, :, 0] += space.mass
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


@pytest.mark.parametrize("space_args,partition,q", _DENSE_CASES + [
    ((1, 32, 2), make_uniform_partition(1.0, 1024), 0),
    ((2, 8, 2), make_uniform_partition(1.0, 64), 0),
])
def test_pruned_maxima_match_every_mode(space_args, partition, q):
    """The floors only skip modes: the constants equal the maxima of every
    mode's own top eigenvalue, bisected without a floor.  c_B and C_B sit
    near 1, where a bisection started from another bracket may settle a few
    ulps away."""
    space = assemble(*space_args)
    lo, hi = zip(*((_top(GX, BB), _top(BB, GX))
                   for BB, GX in _mode_matrices(space, partition, q, "BB")))
    top_s = max(_top(GC, GX) for GC, GX in _mode_matrices(space, partition, q, "GC"))
    c_B, C_B = infsup_discrete(space, partition, q)
    assert c_B == pytest.approx(np.sqrt(1.0 / max(lo)), abs=1e-12)
    assert C_B == pytest.approx(np.sqrt(max(hi)), abs=1e-12)
    assert cs_constant(space, partition, q) == np.sqrt(top_s)


def test_indefinite_gram_raises_after_the_maximum_is_set():
    """Modes are visited largest eigenvalue first, so lambda = -1 comes after
    lambda = 4 has set every maximum; its Gram check must still run."""
    space = from_matrices(np.eye(2), np.diag([4.0, -1.0]))
    part = make_uniform_partition(1.0, 2)
    for diagnostic in (cs_constant, infsup_discrete):
        with pytest.raises(RuntimeError, match="norm Gram matrix is not positive definite"):
            diagnostic(space, part, 0)
    # G = [[1, 2], [2, 1]] is indefinite though 2 G - A = 1.5 I is definite
    G, A = np.array([[1.0, 1.0], [2.0, 0.0]]), np.array([[0.5, 0.5], [4.0, 0.0]])
    with pytest.raises(RuntimeError, match="norm Gram matrix is not positive definite"):
        _top(A, G, 2.0)


@pytest.mark.parametrize("other", ["BB", "GC"])
@pytest.mark.parametrize("partition", [make_uniform_partition(1.0, 5), _NONUNIFORM],
                         ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("q", [0, 1, 3, 9])
@pytest.mark.parametrize("space_args", [(1, 5, 2), (2, 3, 2)], ids=["1d", "2d"])
def test_level_bands_match_per_mode_construction(space_args, q, partition, other):
    """The bands built once per level and combined per eigenvalue equal the
    bands built afresh for every eigenvalue, each to 1e-13 of its largest entry."""
    space = assemble(*space_args)
    got = list(_mode_matrices(space, partition, q, other))
    want = list(per_mode_bands(space, partition, q, other))
    assert len(got) == len(want) == np.unique(spectral(space).eigenvalues).size
    for pair, ref in zip(got, want):
        for band, oracle in zip(pair, ref):
            assert band.shape == oracle.shape
            assert np.abs(band - oracle).max() <= 1e-13 * np.abs(oracle).max()


def _counting_definite(monkeypatch):
    calls = []
    definite = analysis._definite
    monkeypatch.setattr(analysis, "_definite", lambda ab: calls.append(1) or definite(ab))
    return calls


def test_floors_bound_the_factorization_count(monkeypatch):
    """63 distinct eigenvalues: with the floors a mode below the maxima takes
    2 (c_S) and 4 (c_B, C_B) banded factorizations, and a top a few ulps above
    its anchor a few more (278 in all for c_B and C_B)."""
    space = assemble(1, 32, 2)
    part = make_uniform_partition(1.0, 1024)
    calls = _counting_definite(monkeypatch)
    cs_constant(space, part, 0)
    assert len(calls) <= 4 * 63
    calls.clear()
    infsup_discrete(space, part, 0)
    assert len(calls) <= 5 * 63


def test_top_from_floors_below_a_closed_form_top(monkeypatch):
    """Pencil (A, I) with A = tridiag(-c, 1, -c) of size n: its top is
    1 + 2c cos(pi/(n+1)).  From floors at 0, 1 and 8 ulps below it and 1e-6
    below it, _top lands within 4 ulps.  From 8 ulps below, the first gap (4
    ulps for a top just above 1) falls short and the second overshoots by
    about 56 ulps, so the Gram check, the floor check, two bracket checks and
    six bisections make 10 factorizations."""
    n, c = 40, 0.01
    top = 1.0 + 2.0 * c * np.cos(np.pi / (n + 1))
    ulp = np.spacing(top)
    A = np.vstack([np.ones(n), np.full(n, -c)])   # lower banded; A[1, -1] is unused
    G = np.vstack([np.ones(n), np.zeros(n)])
    calls = _counting_definite(monkeypatch)
    for floor in (0.0, top - ulp, top - 8 * ulp, top * (1.0 - 1e-6)):
        calls.clear()
        assert abs(_top(A, G, floor) - top) <= 4 * ulp, floor
        if floor == top - 8 * ulp:
            assert len(calls) <= 10


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
    """Reference: the stability terms from the dense matrices, with a
    Cholesky solve against K for the H^-1 norm of f."""
    space, part, q = solution.space, solution.partition, solution.q
    u1_sq = 0.0
    for i in range(part.num_intervals):
        k = float(part.widths[i])
        for m in range(q + 1):
            c = solution.u1[i, m]
            u1_sq += (k / (2 * m + 1)) * float(c @ space.stiffness @ c)
    u2N_sq = float(solution.u2[-1] @ space.mass @ solution.u2[-1])
    u0_sq = float(solution.u2[0] @ space.mass @ solution.u2[0])
    stiffness_cho = scipy.linalg.cho_factor(space.stiffness)
    f_sq = 0.0
    per_item = (q + 4) * space.grid_size(space.degree + 2)
    for lo, hi in chunks(0, part.num_intervals, per_item):
        t, _, w = quadrature_nodes(part, lo, hi, q + 4, problem.time_breakpoints)
        loads = load_vector(space, problem.rhs, t=t.ravel())
        f_sq += float(w.ravel() @ np.sum(loads * scipy.linalg.cho_solve(stiffness_cho, loads.T).T,
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


def test_quadrature_is_chunk_invariant(monkeypatch):
    """Loads, error norms and the stability terms do not depend on the chunk
    size.  N = 9 puts the kink of heat1d-lowreg (t = 1/2) inside interval 4:
    in one chunk every row but interval 4 carries pad slots, while chunks of
    2-3 intervals pad only the rows that share a chunk with interval 4."""
    problem = problem_1d_lowreg(0.5)
    space, part, q = assemble(1, 4, 2), make_uniform_partition(1.0, 9), 1
    sol = run_decomposed(problem, space, part, q)

    def quadratures():
        errors = error_norms(sol, problem)
        stability = stability_check(sol, problem, 1.7)
        return (interval_moments(problem, space, part, q),
                np.array([errors.err_u1_L2V, *errors.per_node]),
                np.array([v for v in stability.values() if not isinstance(v, bool)]))

    monkeypatch.setattr(timegrid, "CHUNK_VALUES", 1 << 40)
    whole = quadratures()
    monkeypatch.setattr(timegrid, "CHUNK_VALUES", 2 * (q + 4) * space.grid_size(space.degree + 4))
    assert len(timegrid.chunks(0, part.num_intervals, (q + 3) * space.grid_size(space.degree + 2))) == 3
    for one, many in zip(whole, quadratures()):
        assert np.all(np.isfinite(many))
        assert np.abs(many - one).max() <= 1e-13 * np.abs(one).max()
