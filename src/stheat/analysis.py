"""Error norms, convergence rates, and functional-analytic diagnostics.

The error norms (ErrorNorms) and the two sides of the stability bound
(StabilitySums) are sums over intervals and nodes, so both accumulate the
chunks of solver.march as they come, each chunk whole, and a run never
holds the solution whole.  Both integrate the exact solution or the
right-hand side on each chunk's own intervals, so a level takes one pass
in one chunk plan (solver.march_chunks), in which error_norms and
stability_check feed them a collected SpaceTimeSolution.

The diagnostics realize three constants of the discretization:

  * infsup_discrete: extreme singular values of the space-time form after
    normalizing trial and test sides by their natural norms, both 1 by an
    identity of the reference blocks (timegrid.ReferenceBlocks.check_isometry);
  * cs_constant: the norm-equivalence constant between the true test norm
    (with ||X||_V) and the computable one (with ||Pi_q X||_V), the square
    root of the top eigenvalue of the pencil of the two Gram matrices;
  * cfl_constant: C_CFL = k_max * lambda_max(K, M), which bounds it:
    c_S^2 <= 1 + C_CFL^2 / (4 (2q+1)(2q+3)).

Dual norms on V_h are spectral: ||w||_{H^-1}^2 = w^T M K^-1 M w.  In the
M-orthonormal eigenbasis of (K, M) both Gram matrices split into one
problem per spatial mode, a sum of interval blocks in time that depend on an
interval only through mu = k lambda.  Divided by lambda, the pencil's
Rayleigh quotient is (a + b)/(a + c) with b >= c >= 0 free of lambda and a
decreasing in it, so a mode's top eigenvalue does not decrease in lambda and
c_S is exact on any level from the largest mode alone: diagnostic_constants
condenses its blocks to the nodes and searches the last pivot of their
recurrence down from the bound (README: the proofs, the method, its cost).
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from . import fem
from .solver import march_chunks
from .timegrid import quadrature_nodes, reference_blocks, reference_values


@dataclass
class ErrorReport:
    err_u1_L2V: float
    err_u2_nodal_max: float
    per_node: np.ndarray


class ErrorNorms:
    """L2(V) error of U1 and nodal H errors of U2 against the exact solution,
    accumulated over the chunks of a march (solver.march).

    Both errors integrate the true pointwise difference: the V part compares
    discrete gradients with the exact gradient at spatial quadrature points
    (p+4 Gauss points per element, q+4 per time segment), the nodal part
    integrates (U2 - u(., t_n))^2 directly.  The V part takes u1 to FE
    coefficients first, as a modal sum would cancel the leading digits of a
    fine level's error.  Both take each chunk fed whole.
    """

    def __init__(self, problem, space, partition, q):
        if problem.exact is None:
            raise ValueError("error computation requires an exact solution")
        self.problem, self.space, self.partition, self.q = problem, space, partition, q
        self._dec, nq = fem.spectral(space), space.degree + 4
        self._tables = space.line_tables(nq)
        self._grid = np.ix_(*self._tables[:1] * space.dimension)[::-1]   # (eta, xi) in 2D
        self._err1_sq = 0.0
        self.per_node = np.empty(partition.num_intervals + 1)

    def add(self, lo, hi, u1, u2):
        """Feed u1 of the intervals lo..hi-1 and u2 of the nodes lo..hi;
        node hi counts with the chunk that starts there, or with the last."""
        space, problem, part, q = self.space, self.problem, self.partition, self.q
        end = hi + (hi == part.num_intervals)
        self._u2_term(lo, end, u2[: end - lo])   # first: the U1 term's arrays stay to the end
        _, w, B, D = self._tables
        t, tau, wt, owner = quadrature_nodes(part, lo, hi, q + 4, problem.time_breakpoints)
        c = self._dec.coefficients(u1)   # a cut interval's segments share its coefficients
        P = reference_values(q, q + 4)[1] if owner is None else npleg.legvander(2.0 * tau - 1.0, q)
        dim, d = space.dimension, space.line_mass.shape[0]
        coeffs = np.matmul(P, c if owner is None else c[owner]).reshape((t.size,) + (d,) * dim)
        grad = None
        for a in range(dim):
            # component a: D on axis a, B on the others, last axis first, with a swap
            # between gathers (a rotation of at most two axes), so it ends as (time, eta, xi)
            u = coeffs
            for axis in reversed(range(dim)):
                u = fem.gather(D if axis == a else B, u if axis == dim - 1 else u.swapaxes(1, -1))
            if grad is None:   # the exact values, formed once no gather's window is held
                grad = problem.exact.grad(*self._grid, t.reshape((-1,) + (1,) * dim))
                grad = [grad] if isinstance(grad, np.ndarray) else list(grad)   # 1D: du/dxi
            u -= grad[a]
            grad[a] = None   # each exact component goes before the next discrete one is formed
            sq = np.square(u, out=u) if a == 0 else np.add(sq, np.square(u, out=u), out=sq)
        sp = sq
        for _ in range(dim):
            sp = sp @ w
        self._err1_sq += float(wt.ravel() @ sp)

    def _u2_term(self, lo, hi, u2):
        # Nodal error of U2 against the projected exact trace.  The projection
        # realizes the exact trace in the discrete H = V_h, matching the
        # semidiscrete superconvergence statement; measuring against u itself
        # would re-add the best-approximation floor ~ h^(p+1) that the nodal
        # component cannot beat.  In the M-orthonormal eigenbasis, where u2
        # lives, the H norm is the Euclidean one and the projection of a load
        # vector is V^T load.
        space = self.space
        trace = fem.load_vector(space, self.problem.exact.u, nq=space.degree + 4,
                                t=self.partition.nodes[lo:hi])
        diff = u2 - self._dec.modal_loads(trace)
        self.per_node[lo:hi] = np.sqrt(np.sum(diff * diff, axis=1))

    def report(self):
        """The ErrorReport of the chunks fed, which must cover the level."""
        return ErrorReport(
            err_u1_L2V=float(np.sqrt(self._err1_sq)),
            err_u2_nodal_max=float(self.per_node.max()),
            per_node=self.per_node,
        )


def _feed(sums, solution):
    """sums (ErrorNorms or StabilitySums) fed a whole SpaceTimeSolution in
    the chunks of march_chunks, so they equal a streamed level's bit for bit."""
    for lo, hi in march_chunks(solution.space, solution.partition, solution.q):
        sums.add(lo, hi, solution.u1[lo:hi], solution.u2[lo:hi + 1])
    return sums


def error_norms(solution, problem):
    """ErrorNorms of a whole SpaceTimeSolution."""
    return _feed(ErrorNorms(problem, solution.space, solution.partition, solution.q),
                 solution).report()


def fit_rate(pairs):
    """Least-squares slope of log(error) against log(k)."""
    pairs = [(float(k), float(e)) for k, e in pairs]
    if len(pairs) < 2:
        raise ValueError("need at least two (k, error) pairs")
    if any(k <= 0.0 or e <= 0.0 for k, e in pairs):
        raise ValueError("rate fitting needs positive step sizes and errors")
    logk = np.log([k for k, _ in pairs])
    loge = np.log([e for _, e in pairs])
    return float(np.polyfit(logk, loge, 1)[0])


def _grams(q, mu):
    """Interval blocks of the test Grams GX = E/mu + mu Pi and GC = E/mu +
    mu GL2 at mu = k lambda (any shape), each of shape mu.shape + (q+2, q+2),
    with Pi the Gram of the projection onto degree q, rows and columns in
    elimination order: the q interiors, then the left and the right node.
    The node-0 term ||X(0)||_H^2 adds 1 to both."""
    rb = reference_blocks(q)
    Lq = rb.L[:, : q + 1]
    order = np.ix_(np.r_[1:q + 1, 0, q + 1], np.r_[1:q + 1, 0, q + 1])
    proj = (Lq / (2.0 * np.arange(q + 1) + 1.0)) @ Lq.T
    mu = np.asarray(mu)[..., None, None]
    dual = rb.E[order] / mu
    GX, GC = mu * proj[order], mu * rb.GL2[order]   # dual added in place: no temporary block
    return np.add(GX, dual, out=GX), np.add(GC, dual, out=GC)


def _condense(A, q):
    """Eliminate the q interior rows of each block of A in place; returns
    the nodal Schur complements (c00, c01, c11).  A pivot that is not
    positive becomes NaN, which fails the pivot recurrence; an overflow,
    which a positive definite block cannot reach, only deepens a failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(q):
            pivot = np.where(A[..., j, j] > 0.0, A[..., j, j], np.nan)[..., None, None]
            A[..., j + 1:, j + 1:] -= A[..., j + 1:, j, None] * (A[..., None, j, j + 1:] / pivot)
    return A[..., q, q], A[..., q, q + 1], A[..., q + 1, q + 1]


def _last_pivot(x0, c00, c01, c11, width_of):
    """The last LDL^T pivot e_N of the nodal tridiagonal of the condensed
    blocks c.. (arrays over the distinct widths) in Python floats, NaN once
    an earlier pivot is not positive: interval i, of width w = width_of[i],
    takes the pivot of node i to the next, d_i = e_i + c00[w] and e_{i+1} =
    c11[w] - c01[w]^2 / d_i, from e_0 = x0.  It is definite iff e_N > 0."""
    blocks = [(a, c, b * b) for a, b, c in zip(c00.tolist(), c01.tolist(), c11.tolist())]
    e = x0
    for w in width_of:
        c0, c1, square = blocks[w]
        d = e + c0
        if not d > 0.0:
            return np.nan
        e = c1 - square / d
    return e


def _mode_top(q, mu, width_of):
    """_top of the pencil (GC, GX) of one mode, mu = k lambda per distinct
    width, below 1 + max(mu)^2 / (4 (2q+1)(2q+3)) (README: the proof).
    Twice the largest entry of a GX block, plus 1, bounds GX."""
    GX, GC = _grams(q, mu)

    def last_pivot(sigma):
        return _last_pivot(sigma - 1.0, *_condense(sigma * GX - GC, q), width_of)

    m = float(mu.max())   # m * m: m ** 2 raises OverflowError past 1e154
    return _top(last_pivot, 1.0 + m * m / (4.0 * (2 * q + 1) * (2 * q + 3)),
                2.0 * float(np.abs(GX).max()) + 1.0)


def _top(last_pivot, hi, scale):
    """Largest eigenvalue, at least 1, of a pencil (A, G), to the last bit:
    the least float sigma at which last_pivot(sigma), the last LDL^T pivot
    of sigma G - A (NaN when an earlier one is not positive), is positive,
    searched down from a bound hi (README: the method).  A bound that fails
    grows in gaps of 16 max(hi - 1, 4 ulps); a G not positive definite raises
    RuntimeError before sigma times scale, a bound on G's entries, overflows."""
    lo, e_lo = 1.0, np.nan
    while True:
        if not 0.0 < 32.0 * hi * (1.0 + scale) < np.finfo(float).max:
            raise RuntimeError("pencil has no finite top eigenvalue: "
                               "norm Gram matrix is not positive definite")
        e_hi = last_pivot(hi)
        if e_hi > 0.0:
            break
        lo, e_lo, hi = hi, e_hi, 1.0 + 16.0 * max(hi - 1.0, 2.0 ** -50)
    prev = max(hi + 2.0 ** -20 * (hi - lo), float(np.nextafter(hi, np.inf)))
    e_prev = last_pivot(prev)   # a second definite point, a float or more above hi
    w3, w2, w1, w_lo, w_hi, side = np.inf, np.inf, np.inf, 1.0, 1.0, 0
    while lo < 0.5 * (lo + hi) < hi:
        if -np.inf < e_lo < 0.0:   # regula falsi, Illinois
            a, b = w_lo * e_lo, w_hi * e_hi
            x = (lo * b - hi * a) / (b - a)
        else:   # the secant through the two lowest definite points
            slope = (e_prev - e_hi) / (prev - hi)
            x = hi - e_hi / slope if slope > 0.0 else np.nan
        if not lo < x < hi or hi - lo > 0.5 * w3:   # Brent: bisect
            x = 0.5 * (lo + hi)
        w3, w2, w1 = w2, w1, hi - lo   # the bracket's last three widths
        e = last_pivot(x)
        if e > 0.0:   # Illinois: an end kept twice in a row has its pivot halved
            prev, e_prev, hi, e_hi, w_hi = hi, e_hi, x, e, 1.0
            w_lo, side = (0.5 * w_lo if side > 0 else w_lo), 1
        else:
            lo, e_lo, w_lo = x, e, 1.0
            w_hi, side = (0.5 * w_hi if side < 0 else w_hi), -1
    return hi


def diagnostic_constants(space, partition, q):
    """(c_B, C_B, c_S) of a level: c_B = C_B = 1 (reference_blocks checks the
    identity), and c_S^2 the top of the pencil (GC, GX) of the largest
    eigenvalue of (K, M), which is the largest top over the modes (README:
    the proof).  GX is positive definite on every mode exactly when every
    eigenvalue is positive."""
    lam = fem.spectral(space).eigenvalues
    if not lam.min() > 0.0:   # NaN fails too
        raise RuntimeError("norm Gram matrix is not positive definite")
    widths, width_of = np.unique(partition.widths, return_inverse=True)
    width_of = width_of.tolist()   # the index array is dropped before the blocks are formed
    return 1.0, 1.0, float(np.sqrt(_mode_top(q, widths * lam.max(), width_of)))


def infsup_discrete(space, partition, q):
    """Extreme singular values (c_B, C_B) of the norm-normalized form."""
    return diagnostic_constants(space, partition, q)[:2]


def cs_constant(space, partition, q):
    """Equivalence constant c_S between the true and projected test norms."""
    return diagnostic_constants(space, partition, q)[2]


def cfl_constant(space, k_max):
    """k_max times the largest generalized eigenvalue of (K, M)."""
    lam_max = float(fem.spectral(space).eigenvalues.max())
    return float(k_max) * lam_max


class StabilitySums:
    """Both sides of the discrete stability bound, accumulated over the
    chunks of a march (solver.march).

    lhs = ||U1||_{L2(V)}^2 + ||U2^(N)||_H^2 and
    rhs = c_s^2 ||f||_{L2(H^-1)}^2 + ||u0||_H^2, all realized on V_h.  In
    the modal coordinates a = V^T M u of the solution, ||u||_H^2 = sum a^2
    and ||u||_V^2 = sum lambda a^2, and a load vector f has
    ||f||_{H^-1}^2 = sum (V^T f)^2 / lambda, so no solve is needed.  The f
    term does not depend on the solution, but add sums it over the chunk's
    intervals too, at q+4 Gauss points per time segment; a level then takes
    one pass over its intervals, and result only combines the sums.
    """

    def __init__(self, problem, space, partition, q):
        if problem.impulses:
            raise ValueError("stability bound implemented for impulse-free forcing")
        self.problem, self.space, self.partition, self.q = problem, space, partition, q
        self._dec = fem.spectral(space)
        self.u1_sq = self.f_sq = 0.0
        self.u0_sq = self.u2N_sq = None

    def add(self, lo, hi, u1, u2):
        """Feed u1 of the intervals lo..hi-1 and u2 of the nodes lo..hi."""
        dec, problem = self._dec, self.problem
        scale = self.partition.widths[lo:hi, None] / (2.0 * np.arange(self.q + 1) + 1.0)  # k/(2m+1)
        self.u1_sq += float(np.einsum("im,imd,imd,d->", scale, u1, u1, dec.eigenvalues))
        if lo == 0:
            self.u0_sq = float(np.sum(u2[0] * u2[0]))
        if hi == self.partition.num_intervals:
            self.u2N_sq = float(np.sum(u2[-1] * u2[-1]))
        if problem.rhs is None:   # f = 0
            return
        t, _, w, _ = quadrature_nodes(self.partition, lo, hi, self.q + 4,
                                      problem.time_breakpoints)
        f = dec.modal_loads(fem.load_vector(self.space, problem.rhs, t=t.ravel()))
        self.f_sq += float(w.ravel() @ ((f * f) @ (1.0 / dec.eigenvalues)))

    def result(self, c_s):
        """The bound of the chunks fed, which must cover the level, with
        the equivalence constant c_s."""
        lhs = self.u1_sq + self.u2N_sq
        rhs = c_s ** 2 * self.f_sq + self.u0_sq
        return {
            "lhs": lhs,
            "rhs": rhs,
            "u1_L2V_sq": self.u1_sq,
            "u2_final_H_sq": self.u2N_sq,
            "f_dual_sq": self.f_sq,
            "u0_H_sq": self.u0_sq,
            "satisfied": bool(lhs <= rhs * (1.0 + 1e-9)),
        }


def stability_check(solution, problem, c_s):
    """StabilitySums of a whole SpaceTimeSolution."""
    return _feed(StabilitySums(problem, solution.space, solution.partition, solution.q),
                 solution).result(c_s)
