"""Error norms, convergence rates, and functional-analytic diagnostics.

The error norms (ErrorNorms) and the two sides of the stability bound
(StabilitySums) are sums over intervals and nodes, so both accumulate the
chunks of solver.march as they come, each chunk whole, and a run never
holds the solution whole.  The exact solution and the right-hand side are
sums of space x time products (stheat.problems): both integrate each
spatial factor once per level, and its temporal factor on each chunk's
own intervals by scalar quadrature, so a level takes one pass in one
chunk plan (solver.march_chunks), in which error_norms and
stability_check feed them a collected SpaceTimeSolution.  Each reads NaN
unless the chunks fed cover the level once.

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

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from . import fem
from .problems import time_values
from .solver import factor_loads, march_chunks
from .timegrid import gauss_rule, quadrature_nodes, reference_blocks, reference_values


@dataclass
class ErrorReport:
    err_u1_L2V: float
    err_u2_nodal_max: float
    per_node: np.ndarray


def _weighted_quadratic(weights, values, gram):
    """sum_s weights_s values_s^T gram values_s over the points s of the leading axes."""
    return float(weights.ravel() @ np.sum((values @ gram) * values, axis=-1).ravel())


class ErrorNorms:
    """L2(V) error of U1 and nodal H errors of U2 against the exact solution
    u = sum_r X_r(x) T_r(t), accumulated over the chunks of a march
    (solver.march).

    Space integrals take p+4 Gauss points per element, time integrals q+4
    per time segment, the rule of the true pointwise difference.  Its
    Legendre orthogonality splits the V part of each segment of length l
    into a sum of squares: with T_r = sum_m That_rm P_m + rho_r on the
    segment's points (That_r the rule's projection onto degree q),

        l sum_m ||grad c_m - sum_r grad X_r That_rm||^2 / (2m+1)
            + sum_s l w_s ||sum_r grad X_r rho_rs||^2,

    so the gathers take the q+1 coefficient rows of a segment and the
    exact gradients grad X_r are evaluated once per level, as is the Gram
    matrix of the second term.  U1 goes to FE coefficients first, as a
    modal sum would cancel the leading digits of a fine level's error; a
    cut interval's segments re-expand it in their own Legendre bases.  The
    nodal part compares U2 with the projected trace sum_r T_r(t_n) V^T
    load(X_r).  Both take each chunk fed whole, and read NaN unless every
    interval and node was fed once.
    """

    def __init__(self, problem, space, partition, q):
        if problem.exact is None:
            raise ValueError("error computation requires an exact solution")
        self.problem, self.space, self.partition, self.q = problem, space, partition, q
        spatial = [X for X, _ in problem.exact.terms]
        self._temporal = [T.value for _, T in problem.exact.terms]
        dim = space.dimension
        x, w, self._B, self._D = space.line_tables(space.degree + 4)
        grid = np.ix_(*(x,) * dim)
        grid = [grid[(a - 1) % dim] for a in range(dim)]   # as gathered: (eta, xi) in 2D
        self._grads = np.empty((dim, len(spatial), x.size ** dim))   # (axes, terms, points)
        for r, X in enumerate(spatial):
            components = X.grad(*grid)
            if len(components) != dim:
                raise ValueError("an exact gradient gives %d components, not one per axis (%d)"
                                 % (len(components), dim))
            for a, component in enumerate(components):
                self._grads[a, r].reshape((x.size,) * dim)[...] = component
            del components   # freed before the Gram's weights are formed (cli.level_bytes)
        weights = functools.reduce(np.multiply.outer, [w] * dim).ravel()
        self._gram = sum((grad * weights) @ grad.T for grad in self._grads)   # (grad X_r, grad X_s)
        del weights   # freed before the trace's load is formed (cli.level_bytes)
        self._w, self._rotate = w, fem.rotation(1, dim)
        self._trace = factor_loads(space, [X.value for X in spatial], space.degree + 4)
        # P_m(tau_s) at the rule's points, and the rule's projection onto degree q,
        # (2m+1) sum_s w_s P_m(tau_s) g(tau_s), as a (q+1, q+4) matrix
        self._trial = reference_values(q, q + 4)[1]
        odd = 2.0 * np.arange(q + 1) + 1.0
        self._project = self._trial.T * gauss_rule(q + 4)[1] * odd[:, None]
        self._intervals = 0
        self._err1_sq = 0.0
        self.per_node = np.full(partition.num_intervals + 1, np.nan)

    def add(self, lo, hi, u1, u2):
        """Feed u1 of the intervals lo..hi-1 and u2 of the nodes lo..hi;
        node hi counts with the chunk that starts there, or with the last."""
        space, part, q = self.space, self.partition, self.q
        end = hi + (hi == part.num_intervals)
        self._u2_term(lo, end, u2[: end - lo])
        self._intervals += hi - lo
        t, tau, wt, owner = quadrature_nodes(part, lo, hi, q + 4, self.problem.time_breakpoints)
        c = space.coefficients(u1)
        if owner is not None:   # each segment re-expands U1 in its own Legendre basis
            c = np.matmul(self._project @ npleg.legvander(2.0 * tau - 1.0, q), c[owner])
        values = time_values(self._temporal, t)          # (segments, points, terms)
        coeffs = np.matmul(self._project, values)         # (segments, q+1, terms)
        remainder = _weighted_quadratic(wt, values - np.matmul(self._trial, coeffs), self._gram)
        dim, d = space.dimension, space.line_mass.shape[0]
        rows = c.reshape((-1,) + (d,) * dim)
        coeffs = coeffs.reshape(len(rows), -1)             # (rows, terms)
        B, D = self._B, self._D
        for a in range(dim):
            # component a: D on axis a, B on the others, last axis first, with a rotation
            # between gathers, so the axes end as 1, ..., dim-1, 0: (rows, eta, xi) in 2D
            u = fem.gather(D if a == dim - 1 else B, rows)
            for axis in reversed(range(dim - 1)):
                u = fem.gather(D if axis == a else B, u.transpose(self._rotate))
            u = u.reshape(len(rows), -1)
            u -= coeffs @ self._grads[a]
            sq = np.square(u, out=u) if a == 0 else np.add(sq, np.square(u, out=u), out=sq)
        sp = sq.reshape((-1,) + (self._w.size,) * dim)
        for _ in range(dim):
            sp = sp @ self._w
        scale = wt @ (self._trial * self._trial)   # (segments, q+1): l / (2m+1) by the rule
        self._err1_sq += float(scale.ravel() @ sp) + remainder

    def _u2_term(self, lo, hi, u2):
        # Nodal error of U2 against the projected exact trace.  The projection
        # realizes the exact trace in the discrete H = V_h, matching the
        # semidiscrete superconvergence statement; measuring against u itself
        # would re-add the best-approximation floor ~ h^(p+1) that the nodal
        # component cannot beat.  In the M-orthonormal eigenbasis, where u2
        # lives, the H norm is the Euclidean one and the projection of a load
        # vector is V^T load.
        trace = time_values(self._temporal, self.partition.nodes[lo:hi]) @ self._trace
        diff = u2 - trace
        self.per_node[lo:hi] = np.sqrt(np.sum(diff * diff, axis=1))

    def report(self):
        """The ErrorReport of the chunks fed, which must cover the level once:
        otherwise the V error is NaN, and so is the nodal maximum if a node
        was not fed."""
        covered = self._intervals == self.partition.num_intervals
        return ErrorReport(
            err_u1_L2V=float(np.sqrt(self._err1_sq)) if covered else np.nan,
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
    lam = space.eigenvalues
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
    lam_max = float(space.eigenvalues.max())
    return float(k_max) * lam_max


class StabilitySums:
    """Both sides of the discrete stability bound, accumulated over the
    chunks of a march (solver.march).

    lhs = ||U1||_{L2(V)}^2 + ||U2^(N)||_H^2 and
    rhs = c_s^2 ||f||_{L2(H^-1)}^2 + ||u0||_H^2, all realized on V_h.  In
    the modal coordinates a = V^T M u of the solution, ||u||_H^2 = sum a^2
    and ||u||_V^2 = sum lambda a^2, and a load vector f has
    ||f||_{H^-1}^2 = sum (V^T f)^2 / lambda, so no solve is needed.  With
    f = sum_r X_r T_r that is T^T G T, G the Gram matrix of the factors'
    modal loads v_r weighted by 1/lambda, formed once per level.  The f
    term does not depend on the solution, but add sums it over the chunk's
    intervals too, at q+4 Gauss points per time segment; a level then takes
    one pass over its intervals, and result only combines the sums, which
    read NaN unless every interval was fed once.
    """

    def __init__(self, problem, space, partition, q):
        if problem.impulses:
            raise ValueError("stability bound implemented for impulse-free forcing")
        self.problem, self.space, self.partition, self.q = problem, space, partition, q
        loads = factor_loads(space, [X for X, _ in problem.rhs or ()])
        self._gram = (loads / space.eigenvalues) @ loads.T
        self._temporal = [T for _, T in problem.rhs or ()]
        self._intervals = 0
        self.u1_sq = self.f_sq = 0.0
        self.u0_sq = self.u2N_sq = np.nan

    def add(self, lo, hi, u1, u2):
        """Feed u1 of the intervals lo..hi-1 and u2 of the nodes lo..hi."""
        scale = self.partition.widths[lo:hi, None] / (2.0 * np.arange(self.q + 1) + 1.0)  # k/(2m+1)
        self.u1_sq += float(np.einsum("im,imd,imd,d->", scale, u1, u1, self.space.eigenvalues))
        self._intervals += hi - lo
        if lo == 0:
            self.u0_sq = float(np.sum(u2[0] * u2[0]))
        if hi == self.partition.num_intervals:
            self.u2N_sq = float(np.sum(u2[-1] * u2[-1]))
        if not self._temporal:   # f = 0
            return
        t, _, w, _ = quadrature_nodes(self.partition, lo, hi, self.q + 4,
                                      self.problem.time_breakpoints)
        self.f_sq += _weighted_quadratic(w, time_values(self._temporal, t), self._gram)

    def result(self, c_s):
        """The bound of the chunks fed, which must cover the level once, with
        the equivalence constant c_s: otherwise the interval sums read NaN,
        and so does a side whose end node was not fed (rhs: node 0, lhs:
        node N), and the bound is not satisfied."""
        covered = 1.0 if self._intervals == self.partition.num_intervals else np.nan
        u1_sq, f_sq = self.u1_sq * covered, self.f_sq * covered
        lhs = u1_sq + self.u2N_sq
        rhs = c_s ** 2 * f_sq + self.u0_sq
        return {
            "lhs": lhs,
            "rhs": rhs,
            "u1_L2V_sq": u1_sq,
            "u2_final_H_sq": self.u2N_sq,
            "f_dual_sq": f_sq,
            "u0_H_sq": self.u0_sq,
            "satisfied": bool(lhs <= rhs * (1.0 + 1e-9)),
        }


def stability_check(solution, problem, c_s):
    """StabilitySums of a whole SpaceTimeSolution."""
    return _feed(StabilitySums(problem, solution.space, solution.partition, solution.q),
                 solution).result(c_s)
