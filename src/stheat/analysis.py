"""Error norms, convergence rates, and functional-analytic diagnostics.

A level's error norms and both sides of its stability bound are sums over
intervals and nodes, kept by one accumulator, LevelSums, fed each chunk of
solver.march whole (error_norms and stability_check: of a collected
SpaceTimeSolution).  The data are sums of space x time products, so all
that is spatial is formed once per level, and a chunk costs scalar time
quadrature and sums of squares over its modal rows.  The U1 error splits
by Galerkin orthogonality (Wheeler 1973): R_h u - U1 lies in V_h and
u - R_h u is a-orthogonal to it, so ||u - U1||^2 = ||R_h u - U1||^2 +
||u - R_h u||^2 in L2(V).  The first term is modal, with R_h X_r of modal
coordinates rho_r = Lambda^-1 V^T load(-lap X_r); the second, the spatial
floor, is sum_rs (int T_r T_s) S_rs with S the Gram matrix of
grad(X_r - R_h X_r) on the spatial grid.  Differences are formed per mode
or per grid point before they are squared, so every term is a sum of
squares and nothing cancels.

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


def _floor_gram(space, factors, ritz):
    """S_rs = (grad(X_r - R_h X_r), grad(X_s - R_h X_s)), R_h X_r of modal
    coordinates ritz[r], on the grid of p+4 Gauss points an element."""
    dim, d = space.dimension, space.line_mass.shape[0]
    x, w, B, D = space.line_tables(space.degree + 4)
    grid = np.ix_(*(x,) * dim)
    grid = [grid[(a - 1) % dim] for a in range(dim)]   # as gathered: (eta, xi) in 2D
    diffs = np.empty((dim, len(factors), x.size ** dim))   # (axes, terms, points)
    for r, X in enumerate(factors):
        components = X.grad(*grid)
        if len(components) != dim:
            raise ValueError("an exact gradient gives %d components, not one per axis (%d)"
                             % (len(components), dim))
        for a in range(dim):
            diffs[a, r].reshape((x.size,) * dim)[...] = components[a]
        del components   # freed before the next factor's are formed (cli.level_bytes)
    rows = space.coefficients(ritz).reshape((-1,) + (d,) * dim)
    for a in range(dim):
        # component a: D on axis a, B on the others, last axis first, with a rotation
        # between gathers, so the axes end as 1, ..., dim-1, 0: (terms, eta, xi) in 2D
        u = fem.gather(D if a == dim - 1 else B, rows)
        for axis in reversed(range(dim - 1)):
            u = fem.gather(D if axis == a else B, u.transpose(fem.rotation(1, dim)))
        diffs[a] -= u.reshape(len(rows), -1)
        del u   # freed before the next axis is gathered (cli.level_bytes)
    weights = functools.reduce(np.multiply.outer, [w] * dim).ravel()
    return sum((diff * weights) @ diff.T for diff in diffs)


class LevelSums:
    """The sums of a level over the chunks of its march, each fed whole
    once (add): with errors, the L2(V) error of U1 and the nodal H errors
    of U2 against the exact solution u = sum_r X_r(x) T_r(t) (report); with
    bound, both sides of the stability bound (result).  Each reads NaN
    unless the chunks fed cover the level once.  Set-up forms every spatial
    matrix (module docstring); a chunk evaluates nothing in space.

    Time integrals take q+4 Gauss points per segment, where T_r = sum_m
    That_rm P_m + rem_r (That_r the rule's projection onto degree q) splits
    the modal error of a segment of length l into

        l sum_m sum_d lambda_d (a_m - sum_r That_rm rho_r)_d^2 / (2m+1)
            + sum_s l w_s rem_s^T (rho Lambda rho^T) rem_s,

    a_m the rows of U1, re-expanded in each segment's own Legendre basis on
    a cut interval.  The floor takes sum_s l w_s T_s^T S T_s, and the f term
    sum_s l w_s F_s^T G F_s, G the Gram matrix of the rhs's modal loads over
    lambda, as ||f||_{H^-1}^2 = sum (V^T f)^2 / lambda."""

    def __init__(self, problem, space, partition, q, errors=True, bound=True):
        if errors and problem.exact is None:
            raise ValueError("error computation requires an exact solution")
        if bound and problem.impulses:
            raise ValueError("stability bound implemented for impulse-free forcing")
        self.problem, self.space, self.partition, self.q = problem, space, partition, q
        self.errors, self.bound, lam = errors, bound, space.eigenvalues
        exact, rhs = problem.exact.terms if errors else (), (problem.rhs or ()) if bound else ()
        self._exact, self._forcing = [T.value for _, T in exact], [T for _, T in rhs]
        if rhs:
            loads = factor_loads(space, [X for X, _ in rhs])
            self._dual = (loads / lam) @ loads.T
        if errors:   # what the level keeps first, the floor's grid last (cli.level_bytes)
            self.per_node = np.full(partition.num_intervals + 1, np.nan)
            self._trace = factor_loads(space, [X.value for X, _ in exact], space.degree + 4)
            self._ritz = factor_loads(space, [X.laplacian for X, _ in exact],
                                      space.degree + 4) / -lam
            self._ritz_gram = (self._ritz * lam) @ self._ritz.T
            self._floor = _floor_gram(space, [X for X, _ in exact], self._ritz)
            # P_m(tau_s) at the rule's points, and the rule's projection onto degree q,
            # (2m+1) sum_s w_s P_m(tau_s) g(tau_s), as a (q+1, q+4) matrix
            self._trial = reference_values(q, q + 4)[1]
            odd = 2.0 * np.arange(q + 1) + 1.0
            self._project = self._trial.T * gauss_rule(q + 4)[1] * odd[:, None]
        self._intervals = 0
        self.err1_sq = self.u1_sq = self.f_sq = 0.0
        self.u0_sq = self.u2N_sq = np.nan

    def add(self, lo, hi, u1, u2):
        """Feed u1 of the intervals lo..hi-1 and u2 of the nodes lo..hi; a
        nodal error takes node hi with the chunk that starts there, or the last."""
        part, q, lam = self.partition, self.q, self.space.eigenvalues
        last = hi == part.num_intervals
        self._intervals += hi - lo
        if self.bound:
            scale = part.widths[lo:hi, None] / (2.0 * np.arange(q + 1) + 1.0)  # k/(2m+1)
            self.u1_sq += float(np.einsum("im,imd,imd,d->", scale, u1, u1, lam))
            self.u0_sq = float(np.sum(u2[0] * u2[0])) if lo == 0 else self.u0_sq
            self.u2N_sq = float(np.sum(u2[-1] * u2[-1])) if last else self.u2N_sq
        if self.errors:   # U2 against the exact trace's projection onto V_h, V^T load
            end = hi + last
            diff = time_values(self._exact, part.nodes[lo:end]) @ self._trace
            diff = np.square(np.subtract(u2[: end - lo], diff, out=diff), out=diff)
            self.per_node[lo:end] = np.sqrt(np.sum(diff, axis=1))
        if not (self._exact or self._forcing):
            return
        t, tau, wt, owner = quadrature_nodes(part, lo, hi, q + 4, self.problem.time_breakpoints)
        if self._forcing:
            self.f_sq += _weighted_quadratic(wt, time_values(self._forcing, t), self._dual)
        if not self.errors:
            return
        values = time_values(self._exact, t)              # (segments, points, terms)
        coeffs = np.matmul(self._project, values)         # (segments, q+1, terms)
        remainder = values - np.matmul(self._trial, coeffs)
        if owner is not None:   # each segment re-expands U1 in its own Legendre basis
            u1 = np.matmul(self._project @ npleg.legvander(2.0 * tau - 1.0, q), u1[owner])
        diff = np.matmul(coeffs, self._ritz)                # (segments, q+1, dof)
        diff = np.subtract(u1, diff, out=diff)
        scale = wt @ (self._trial * self._trial)   # (segments, q+1): l / (2m+1) by the rule
        self.err1_sq += (float(np.einsum("im,imd,imd,d->", scale, diff, diff, lam))
                         + _weighted_quadratic(wt, remainder, self._ritz_gram)
                         + _weighted_quadratic(wt, values, self._floor))

    def _covered(self):
        return 1.0 if self._intervals == self.partition.num_intervals else np.nan

    def report(self):
        """The ErrorReport of the chunks fed; a node not fed makes the maximum NaN."""
        return ErrorReport(float(np.sqrt(self.err1_sq * self._covered())),
                           float(self.per_node.max()), self.per_node)

    def result(self, c_s):
        """The bound lhs = ||U1||_{L2(V)}^2 + ||U2^(N)||_H^2 <= rhs = c_s^2
        ||f||_{L2(H^-1)}^2 + ||u0||_H^2, not satisfied where a side reads NaN,
        as it does if its end node was not fed (rhs: node 0, lhs: node N)."""
        u1_sq, f_sq = self.u1_sq * self._covered(), self.f_sq * self._covered()
        lhs, rhs = u1_sq + self.u2N_sq, c_s ** 2 * f_sq + self.u0_sq
        return {"lhs": lhs, "rhs": rhs, "u1_L2V_sq": u1_sq, "u2_final_H_sq": self.u2N_sq,
                "f_dual_sq": f_sq, "u0_H_sq": self.u0_sq,
                "satisfied": bool(lhs <= rhs * (1.0 + 1e-9))}


def _feed(problem, solution, **which):
    """The LevelSums of a whole SpaceTimeSolution, fed in the chunks of
    march_chunks, so they equal a streamed level's bit for bit."""
    sums = LevelSums(problem, solution.space, solution.partition, solution.q, **which)
    for lo, hi in march_chunks(solution.space, solution.partition, solution.q):
        sums.add(lo, hi, solution.u1[lo:hi], solution.u2[lo:hi + 1])
    return sums


def error_norms(solution, problem):
    """LevelSums.report of a whole SpaceTimeSolution."""
    return _feed(problem, solution, bound=False).report()


def stability_check(solution, problem, c_s):
    """LevelSums.result of a whole SpaceTimeSolution."""
    return _feed(problem, solution, errors=False).result(c_s)


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
