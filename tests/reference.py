"""Reference implementations the tests compare the package against.

The package solves the scheme one way only: the per-mode interval march
stheat.solver.run_decomposed.  This module holds the dense oracles:

  * solve_global: the coupled space-time system (assemble_bilinear,
    assemble_load, layout from global_layout) solved in one shot, with U2 at
    the interior nodes rebuilt from the last test equation of the interval
    ending there;
  * march_interval_by_interval: one LocalBlockSystem.step per interval, in
    FE coordinates throughout;
  * crank_nicolson: the trapezoidal iteration, which the nodal component
    reproduces for q = 0 without forcing;

the three solve in FE coordinates and return modal ones (modal), like
run_decomposed, and take their loads from the grid oracles;
  * grid_moments, grid_error_norms and grid_f_dual_sq: the load moments,
    the error norms and the stability bound's f term with the data
    evaluated on the whole space-time quadrature grid, through the summed
    callables problem.source and problem.exact, the oracles for the
    package's sums of products, which integrate each spatial factor once
    per level;
  * dense_line_tables: the basis tables of the 1D factor mesh as dense
    (dof, n*nq) matrices, the oracle for the element-local contraction;
  * quadrature_reference_blocks: the temporal couplings of
    timegrid.ReferenceBlocks by Gauss quadrature, the oracle for their
    closed form in Legendre coefficients;
  * per_mode_bands, banded_top and banded_constants: the banded diagnostic
    matrices (GX, BB, GC) built afresh for every eigenvalue from mu = k
    lambda, and the constants (c_B, C_B, c_S) by bisection on LAPACK's
    banded Cholesky (pbtrf) of each mode's pencils, the oracle for
    analysis.diagnostic_constants, which condenses interval blocks and
    needs no BB;
  * bisected_top: the top of one mode's pencil (GC, GX) by bisection, to
    the last bit, on the sign of analysis's last pivot, the oracle for the
    superlinear search of analysis._top;
  * from_matrices and l2_project: an abstract space given by its matrices
    (one spatial mode, say) and the L2 projection onto a space;
  * dense_pair: the dense mass and stiffness matrices of a space of any
    number of axes, formed from its line factors (the package keeps only
    those);
  * modal: the modal coordinates V^T M u of FE coefficients u, the one
    place where the oracles' FE results meet the package's modal ones;
  * mass_cho: the Cholesky factor of a space's dense mass matrix, for the
    mass solves of the dense oracles;
  * chunks_of: a chunk plan of c intervals on a space of dof unknowns, for
    the tests whose premise is a level of several chunks or of chunks of a
    given length.
"""

import functools

import numpy as np
import numpy.polynomial.legendre as npleg
import scipy.linalg

from stheat.analysis import _condense, _grams, _last_pivot
from stheat import solver
from stheat.fem import FemSpace, gather, load_vector, rotation
from stheat.solver import LocalBlockSystem, SpaceTimeSolution, impulse_loads
from stheat.timegrid import (ReferenceBlocks, gauss_rule, lagrange_coefficient_matrix,
                             lobatto_points, quadrature_nodes, reference_blocks,
                             reference_values)


def chunks_of(monkeypatch, c, q, dof):
    """Have solver.march_chunks cut a level of degree q on a space of dof
    unknowns into chunks of c intervals (the last one shorter), through
    solver.CHUNK_VALUES, for as long as monkeypatch holds it."""
    monkeypatch.setattr(solver, "CHUNK_VALUES", c * (q + 2) * dof)


def from_matrices(mass, stiffness):
    """Abstract space given directly by its matrices: dimension 1 with no mesh.

    Mesh-based operations such as load_vector are unavailable on it.
    """
    mass = np.atleast_2d(np.asarray(mass, dtype=float))
    stiffness = np.atleast_2d(np.asarray(stiffness, dtype=float))
    if mass.shape != stiffness.shape or mass.shape[0] != mass.shape[1]:
        raise ValueError("mass and stiffness must be square and of equal shape")
    return FemSpace(1, None, None, mass, stiffness)


def dense_pair(space):
    """(mass, stiffness): the dense matrices of the space, for any number of
    axes.  The mass is M (x) ... (x) M, and the stiffness the sum over the
    axes a of that product with K in slot a, so in 2D kron(M, M) and
    kron(K, M) + kron(M, K), and in 1D the line's M and K."""
    M, K = space.line_mass, space.line_stiffness
    axes = range(space.dimension)
    mass = functools.reduce(np.kron, [M for _ in axes])
    stiffness = sum(functools.reduce(np.kron, [K if b == a else M for b in axes]) for a in axes)
    return mass, stiffness


def mass_cho(space):
    """scipy.linalg.cho_factor of the dense mass matrix of the space."""
    return scipy.linalg.cho_factor(dense_pair(space)[0])


def l2_project(space, g):
    """Coefficients of the L2-orthogonal projection of g onto the space:
    M^-1 load = V V^T load."""
    return space.coefficients(space.modal_loads(load_vector(space, g)))


def modal(space, u):
    """V^T M u, the modal coordinates of the FE coefficients on the last
    axis of u, by the dense mass matrix."""
    return space.modal_loads(u @ dense_pair(space)[0])


def dense_line_tables(n, p, nq):
    """(x, w, B, D): global quadrature points and weights on (0,1), and the
    values and x-derivatives of the interior basis functions there, shape
    (dof, n*nq) with dof = n*p - 1."""
    points, weights = gauss_rule(nq)
    h = 1.0 / n
    x = (np.arange(n)[:, None] + points[None, :]).ravel() * h
    w = np.tile(weights * h, n)
    coeff = lagrange_coefficient_matrix(np.arange(p + 1) / p)  # column j = basis j
    powers = np.vander(points, p + 1, increasing=True)
    vals = powers @ coeff                            # (nq, p+1)
    dcoef = np.zeros_like(coeff)
    for j in range(p + 1):
        der = np.polynomial.polynomial.polyder(coeff[:, j])
        dcoef[: der.size, j] = der
    dvals = (powers @ dcoef) / h                     # d/dx, (nq, p+1)
    dof = n * p - 1
    B = np.zeros((dof, n * nq))
    D = np.zeros((dof, n * nq))
    for e in range(n):
        cols = slice(e * nq, (e + 1) * nq)
        for r in range(p + 1):
            g = e * p + r
            if 1 <= g <= dof:
                B[g - 1, cols] += vals[:, r]
                D[g - 1, cols] += dvals[:, r]
    return x, w, B, D


def quadrature_reference_blocks(q):
    """(D, G, E, GL2, L) of ReferenceBlocks(q), by (q+3)-point Gauss quadrature.

    The test functions l_j at the q+2 Gauss-Lobatto points are evaluated by
    the product formula l_j = prod_{i != j} (tau - x_i) / (x_j - x_i) and
    their derivatives as the sum over k != j of the same product with
    factor k replaced by 1 / (x_j - x_k); the shifted Legendre P_r come from
    Bonnet's recurrence.  No monomial or Legendre coefficients are formed.
    """
    x = lobatto_points(q + 2)
    tau, w = gauss_rule(q + 3)
    val = np.empty((q + 2, tau.size))
    der = np.zeros((q + 2, tau.size))
    for j in range(q + 2):
        others = [i for i in range(q + 2) if i != j]
        factors = [(tau - x[i]) / (x[j] - x[i]) for i in others]
        val[j] = np.prod(factors, axis=0)
        for k, i in enumerate(others):
            der[j] += np.prod(factors[:k] + factors[k + 1:], axis=0) / (x[j] - x[i])
    s = 2.0 * tau - 1.0
    P = [np.ones_like(s), s]
    for n in range(1, q + 1):
        P.append(((2 * n + 1) * s * P[n] - n * P[n - 1]) / (n + 1))
    P = np.array(P)
    return ((der * w) @ P[: q + 1].T, (val * w) @ P[: q + 1].T, (der * w) @ der.T,
            (val * w) @ val.T, ((val * w) @ P.T) * (2.0 * np.arange(q + 2) + 1.0))


# -- data on the whole space-time grid -------------------------------------------

def grid_moments(problem, space, partition, q, lo=0, hi=None):
    """The load moments of solver.interval_moments in FE coordinates, with
    f = problem.source evaluated at every spatial quadrature point (p+2 a
    element) and every time (q+3 a segment) of the intervals lo..hi-1."""
    hi = partition.num_intervals if hi is None else hi
    if not problem.rhs or hi == lo:
        return np.zeros((hi - lo, q + 2, space.dof_count))
    t, tau, w, owner = quadrature_nodes(partition, lo, hi, q + 3, problem.time_breakpoints)
    loads = load_vector(space, problem.source, t=t.ravel()).reshape(*t.shape, -1)
    if owner is None:
        return np.matmul(reference_values(q, q + 3)[0], loads)
    basis = reference_blocks(q).test.eval_all(tau.ravel()).reshape(-1, *t.shape) * (
        w / partition.widths[lo + owner, None])
    moments = np.zeros((hi - lo, q + 2, space.dof_count))
    np.add.at(moments, owner, np.matmul(basis.transpose(1, 0, 2), loads))
    return moments


def grid_error_norms(solution, problem):
    """(err_u1_L2V, per-node errors) of a whole solution: the discrete and
    the exact gradient compared at every spatial quadrature point (p+4 a
    element) and time (q+4 a segment), U1 expanded in time at each, and U2
    against the projected trace of problem.exact.u at each node."""
    space, part, q = solution.space, solution.partition, solution.q
    dim, d = space.dimension, space.line_mass.shape[0]
    x, w, B, D = space.line_tables(space.degree + 4)
    grid = np.ix_(*(x,) * dim)
    grid = [grid[(a - 1) % dim] for a in range(dim)]   # as gathered: (eta, xi) in 2D
    t, tau, wt, owner = quadrature_nodes(part, 0, part.num_intervals, q + 4,
                                         problem.time_breakpoints)
    c = space.coefficients(solution.u1)
    coeffs = np.matmul(npleg.legvander(2.0 * tau - 1.0, q), c if owner is None else c[owner])
    coeffs = coeffs.reshape((t.size,) + (d,) * dim)
    exact = problem.exact.grad(*grid, t.reshape((-1,) + (1,) * dim))
    sq = 0.0
    for a in range(dim):
        u = gather(D if a == dim - 1 else B, coeffs)
        for axis in reversed(range(dim - 1)):
            u = gather(D if axis == a else B, u.transpose(rotation(1, dim)))
        sq = sq + (u - exact[a]) ** 2
    for _ in range(dim):
        sq = sq @ w
    trace = load_vector(space, problem.exact.u, nq=space.degree + 4, t=part.nodes)
    diff = solution.u2 - space.modal_loads(trace)
    return float(np.sqrt(wt.ravel() @ sq)), np.sqrt(np.sum(diff * diff, axis=1))


def grid_f_dual_sq(problem, space, partition, q):
    """||f||_{L2(H^-1)}^2 of the stability bound: V^T load(f) at every time
    (q+4 a segment), from problem.source on the spatial grid (p+2 a element)."""
    if not problem.rhs:
        return 0.0
    t, _, w, _ = quadrature_nodes(partition, 0, partition.num_intervals, q + 4,
                                  problem.time_breakpoints)
    f = space.modal_loads(load_vector(space, problem.source, t=t.ravel()))
    return float(w.ravel() @ ((f * f) @ (1.0 / space.eigenvalues)))


# -- the coupled space-time system ---------------------------------------------

def global_layout(N, q):
    """Block indices of the coupled system, one block of dof entries each.

    trial[i, m] is the block of Legendre mode m on interval i (intervals
    outer, modes inner); the final trace follows as block N(q+1).
    test[i, j] is the block of local Lagrange function j on interval i: the
    node blocks 0..N come first, so j = 0 and j = q+1 land on the shared
    blocks i and i+1, and the q interior blocks of each interval follow.
    """
    trial = np.arange(N * (q + 1)).reshape(N, q + 1)
    test = np.empty((N, q + 2), dtype=int)
    test[:, 0] = np.arange(N)
    test[:, q + 1] = np.arange(1, N + 1)
    test[:, 1:q + 1] = N + 1 + np.arange(N * q).reshape(N, q)
    return trial, test


def assemble_bilinear(space, partition, q):
    """Dense matrix of the space-time form; rows test, columns trial."""
    N, dof = partition.num_intervals, space.dof_count
    trial, test = global_layout(N, q)
    rb = ReferenceBlocks(q)
    M, K = dense_pair(space)
    nb = N * (q + 1) + 1
    B = np.zeros((nb, dof, nb, dof))
    for i, k in enumerate(partition.widths):
        for j, row in enumerate(test[i]):
            for m, col in enumerate(trial[i]):
                B[row, :, col] = -rb.D[j, m] * M + k * rb.G[j, m] * K
    B[N, :, nb - 1] = M
    return B.reshape(nb * dof, nb * dof)


def assemble_load(problem, space, partition, q):
    """Dense load functional vector matching assemble_bilinear's test layout."""
    N, dof = partition.num_intervals, space.dof_count
    _, test = global_layout(N, q)
    F = np.zeros((N * (q + 1) + 1, dof))
    moments = grid_moments(problem, space, partition, q)
    for i, k in enumerate(partition.widths):
        F[test[i]] += k * moments[i]
    if problem.initial is not None:
        F[0] += load_vector(space, problem.initial)
    for idx, vec in impulse_loads(problem, space, partition).items():
        F[idx] += vec
    return F.ravel()


def solve_global(problem, space, partition, q):
    """Solve the coupled space-time system in one shot, in FE coordinates;
    returns the solution in modal coordinates, like run_decomposed.

    Its unknowns are U1 and the final trace.  U2 at node 0 is the projected
    initial datum, and at an interior node n it comes from the last test
    equation of interval n-1:

        M u2_n = k b_{q+1} + zeta_n + sum_m (D[q+1, m] M - k G[q+1, m] K) c_m.
    """
    N, dof = partition.num_intervals, space.dof_count
    x = scipy.linalg.solve(assemble_bilinear(space, partition, q),
                           assemble_load(problem, space, partition, q)).reshape(-1, dof)
    u1 = x[:-1].reshape(N, q + 1, dof)
    rb = ReferenceBlocks(q)
    M, K = dense_pair(space)
    k = partition.widths[:-1, None]
    bottom = k * grid_moments(problem, space, partition, q, 0, N - 1)[:, q + 1]
    bottom += (rb.D[q + 1] @ u1[:-1]) @ M - k * ((rb.G[q + 1] @ u1[:-1]) @ K)
    for n, vec in impulse_loads(problem, space, partition).items():
        if n < N:
            bottom[n - 1] += vec
    u2 = np.empty((N + 1, dof))
    u2[0] = 0.0 if problem.initial is None else l2_project(space, problem.initial)
    u2[1:N] = scipy.linalg.cho_solve(mass_cho(space), bottom.T).T
    u2[N] = x[-1]
    return SpaceTimeSolution(q, partition, space, modal(space, u1), modal(space, u2))


def march_interval_by_interval(problem, space, partition, q):
    """The dense interval march, one LocalBlockSystem.step per interval, in
    FE coordinates throughout; returns (u1, u2) in modal coordinates."""
    N, dof = partition.num_intervals, space.dof_count
    jumps = impulse_loads(problem, space, partition)
    moments = grid_moments(problem, space, partition, q)
    u1 = np.empty((N, q + 1, dof))
    u2 = np.zeros((N + 1, dof))
    if problem.initial is not None:
        u2[0] = scipy.linalg.cho_solve(mass_cho(space), load_vector(space, problem.initial))
    systems, (M, K) = {}, dense_pair(space)
    for i in range(N):
        k = float(partition.widths[i])
        if k not in systems:
            systems[k] = LocalBlockSystem(M, K, k, q)
        u1[i], u2[i + 1] = systems[k].step(u2[i], moments[i], jumps.get(i + 1))
    return modal(space, u1), modal(space, u2)


def crank_nicolson(problem, space, partition):
    """Trapezoidal iterates W, shape (N+1, dof), in modal coordinates, with
    the load of step i the integral of load(f) over interval i by 4-point
    Gauss; no impulses."""
    if problem.impulses:
        raise ValueError("the Crank-Nicolson reference does not take impulses")
    N, dof = partition.num_intervals, space.dof_count
    M, K = dense_pair(space)
    forcing = np.zeros((N, dof))
    if problem.rhs:
        t, _, w, owner = quadrature_nodes(partition, 0, N, 4, problem.time_breakpoints)
        loads = load_vector(space, problem.source, t=t.ravel()).reshape(*t.shape, dof)
        np.add.at(forcing, np.arange(N) if owner is None else owner,
                  np.matmul(w[:, None, :], loads)[:, 0])
    W = np.empty((N + 1, dof))
    W[0] = 0.0 if problem.initial is None else l2_project(space, problem.initial)
    for i, k in enumerate(partition.widths):
        W[i + 1] = scipy.linalg.solve(M + 0.5 * k * K, (M - 0.5 * k * K) @ W[i] + forcing[i],
                                      assume_a="pos")
    return modal(space, W)


def banded(blocks):
    """Lower banded storage of the sum of the interval blocks (N, q+2, q+2),
    block i covering the time-ordered positions i(q+1) .. i(q+1)+q+1."""
    N, s, _ = blocks.shape
    ab = np.zeros((s, N * (s - 1) + 1))
    for r in range(s):
        for c in range(r + 1):
            ab[r - c, c:c + N * (s - 1):s - 1] += blocks[:, r, c]
    return ab


def per_mode_bands(space, partition, q):
    """The banded triples (GX, BB, GC) of the diagnostics, per distinct
    eigenvalue, largest first, each built from its own interval blocks:
    GX = E/mu + mu Pi, BB = b (2m+1)/mu b^T with b = mu G - D and
    GC = E/mu + mu GL2, mu = k_i lambda, plus the node-0 and node-N terms."""
    rb = ReferenceBlocks(q)
    Lq = rb.L[:, : q + 1]
    odd = 2.0 * np.arange(q + 1) + 1.0
    proj = (Lq / odd) @ Lq.T

    def gram(mu, V):
        G = banded(rb.E / mu + mu * V)
        G[0, 0] += 1.0
        return G

    for lam in np.unique(space.eigenvalues)[::-1]:
        mu = partition.widths[:, None, None] * lam
        b = mu * rb.G - rb.D
        BB = banded((b * (odd / mu)) @ b.transpose(0, 2, 1))
        BB[0, -1] += 1.0
        yield gram(mu, proj), BB, gram(mu, rb.GL2)


_pbtrf, = scipy.linalg.get_lapack_funcs(("pbtrf",), dtype=np.float64)


def banded_top(A, G):
    """Largest eigenvalue of the banded pencil (A, G), A with a positive
    diagonal: bisection, to the last bit, on whether sigma G - A is
    positive definite (pbtrf), from the largest diagonal Rayleigh quotient
    up; raises RuntimeError if G is not positive definite."""
    def definite(ab):
        return _pbtrf(ab, lower=1)[1] == 0

    if not definite(G):
        raise RuntimeError("norm Gram matrix is not positive definite")
    lo = float(np.max(A[0] / G[0]))
    hi = 2.0 * lo
    while not definite(hi * G - A):
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if definite(mid * G - A):
            hi = mid
        else:
            lo = mid
    return hi


def banded_constants(space, partition, q):
    """(c_B, C_B, c_S) from every mode's pencils (GX, BB), (BB, GX) and
    (GC, GX), each bisected on its own."""
    tops = [(banded_top(GX, BB), banded_top(BB, GX), banded_top(GC, GX))
            for GX, BB, GC in per_mode_bands(space, partition, q)]
    inv_lo, hi, top = map(max, zip(*tops))
    return float(np.sqrt(1.0 / inv_lo)), float(np.sqrt(hi)), float(np.sqrt(top))


def bisected_top(q, mu, width_of):
    """Top eigenvalue of the pencil (GC, GX) of one mode, mu = k lambda per
    distinct width: bisection, to the last bit, on whether the last pivot
    of sigma GX - GC is positive.  The bracket grows from 1 in gaps of 4,
    64, 1024, ... ulps; a GX that is not positive definite raises
    RuntimeError before sigma times a bound on its entries overflows."""
    GX, GC = _grams(q, mu)
    scale = 2.0 * float(np.abs(GX).max()) + 1.0

    def definite(sigma):
        return _last_pivot(sigma - 1.0, *_condense(sigma * GX - GC, q), width_of) > 0.0

    lo, gap = 1.0, 2.0 ** -50
    hi = 1.0 + gap
    while not definite(hi):
        if not 0.0 < 32.0 * hi * (1.0 + scale) < np.finfo(float).max:
            raise RuntimeError("pencil has no finite top eigenvalue")
        lo, gap = hi, 16.0 * gap
        hi = 1.0 + gap
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if definite(mid):
            hi = mid
        else:
            lo = mid
    return hi
