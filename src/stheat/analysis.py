"""Error norms, convergence rates, and functional-analytic diagnostics.

The diagnostics realize three constants of the discretization:

  * infsup_discrete: extreme singular values of the space-time form after
    normalizing trial and test sides by their natural norms (both are 1 for
    this pair of spaces);
  * cs_constant: the norm-equivalence constant between the true test norm
    (with ||X||_V) and the computable one (with ||Pi_q X||_V), obtained as a
    generalized eigenvalue between the two Gram matrices;
  * cfl_constant: k_max * lambda_max(K, M), the quantity whose boundedness
    keeps cs_constant uniform under refinement.

Dual norms on V_h are spectral: ||w||_{H^-1}^2 = w^T M K^-1 M w.  In the
M-orthonormal eigenbasis of (K, M) the form and both Gram matrices split
into one problem per spatial mode, banded in time with bandwidth q+1, so the
first two constants are exact on any level: per mode, each extreme
eigenvalue is found by bisection on banded Cholesky factorizations.  Each
constant is a maximum over modes (c_B^-2, C_B^2 and c_S^2 of a pencil's top
eigenvalue), so the running maximum is a floor: a mode that cannot beat it
costs one factorization besides its Gram check.  Modes are visited largest
eigenvalue first, which set the c_S maximum on the first mode in every case
measured; c_B^-2 and C_B^2 are 1 to rounding on every mode, so only the few
modes that beat the maximum by rounding are bisected, from a bracket grown
out of the floor, in 4 to 10 factorizations each.  The banded matrices come
from bands built once per level, so a mode costs a few elementwise array
operations besides its factorizations.  On 1D n=32, N=1024, p=2, q=0 (63
distinct eigenvalues) c_B and C_B take 278 factorizations and c_S 196; on
2D n=32, N=1024 they take 0.42 s and 0.21 s on a 2-core machine.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import fem
from .timegrid import TemporalBasis, chunks, quadrature_nodes, reference_blocks


@dataclass
class ErrorReport:
    err_u1_L2V: float
    err_u2_nodal_max: float
    per_node: np.ndarray


def error_norms(solution, problem):
    """L2(V) error of U1 and nodal H errors of U2 against the exact solution.

    Both errors integrate the true pointwise difference: the V part compares
    discrete gradients with the exact gradient at spatial quadrature points
    (p+4 Gauss points per element, q+4 per time segment), the nodal part
    integrates (U2 - u(., t_n))^2 directly.  Both stream over chunks of
    intervals and nodes.
    """
    if problem.exact is None:
        raise ValueError("error computation requires an exact solution")
    space, part, q = solution.space, solution.partition, solution.q
    nq = space.degree + 4
    x, w, B, D = space.line_tables(nq)
    trial = TemporalBasis(q, "legendre")

    err1_sq = 0.0
    for lo, hi in chunks(0, part.num_intervals, (q + 4) * space.grid_size(nq)):
        t, tau, wt = quadrature_nodes(part, lo, hi, q + 4, problem.time_breakpoints)
        P = trial.eval_all(tau.ravel()).T.reshape(*t.shape, q + 1)
        coeffs = np.matmul(P, solution.u1[lo:hi]).reshape(t.size, -1)   # (nt, dof)
        if space.dimension == 1:
            sq = fem.gather(D, coeffs)
            sq -= problem.exact.grad(x[None, :], t.reshape(-1, 1))
            sp = np.square(sq, out=sq) @ w
        else:
            d = space.line_mass.shape[0]
            Cm = coeffs.reshape(-1, d, d)
            # D^T C B and B^T C D one axis at a time, as (nt, ny, nx) arrays
            sq = fem.gather(D, fem.gather(B, Cm).swapaxes(1, 2))
            uy = fem.gather(B, fem.gather(D, Cm).swapaxes(1, 2))
            ex, ey = problem.exact.grad(x[None, None, :], x[None, :, None], t.reshape(-1, 1, 1))
            sq -= ex
            uy -= ey
            sq *= sq
            sq += np.square(uy, out=uy)
            sp = (sq @ w) @ w
        err1_sq += float(wt.ravel() @ sp)

    # Nodal error of U2 against the projected exact trace.  The projection
    # realizes the exact trace in the discrete H = V_h, matching the
    # semidiscrete superconvergence statement; measuring against u itself
    # would re-add the best-approximation floor ~ h^(p+1) that the nodal
    # component cannot beat.  In the M-orthonormal eigenbasis the H norm is
    # the Euclidean one and the projection of a load vector is V^T load.
    dec = fem.spectral(space)
    nodes = part.nodes
    per_node = np.empty(nodes.size)
    for lo, hi in chunks(0, nodes.size, space.grid_size(nq)):
        trace = fem.load_vector(space, problem.exact.u, nq=nq, t=nodes[lo:hi])
        diff = dec.modal_coefficients(solution.u2[lo:hi]) - dec.modal_loads(trace)
        per_node[lo:hi] = np.sqrt(np.sum(diff * diff, axis=1))

    return ErrorReport(
        err_u1_L2V=float(np.sqrt(err1_sq)),
        err_u2_nodal_max=float(per_node.max()),
        per_node=per_node,
    )


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


def _banded(blocks):
    """Lower banded storage of the sum of the interval blocks (N, q+2, q+2),
    block i covering the time-ordered positions i(q+1) .. i(q+1)+q+1."""
    N, s, _ = blocks.shape
    ab = np.zeros((s, N * (s - 1) + 1))
    for r in range(s):
        for c in range(r + 1):
            ab[r - c, c:c + N * (s - 1):s - 1] += blocks[:, r, c]
    return ab


# LAPACK's banded Cholesky behind scipy.linalg.cholesky_banded, without its checks;
# the one scipy routine a run calls, and only for diagnostics.  Looked up at
# import: a lazy lookup would move scipy.linalg's import (about 0.2 s on a
# 2-core machine) from start-up into the first diagnosed level.
_pbtrf, = scipy.linalg.get_lapack_funcs(("pbtrf",), dtype=np.float64)


def _definite(ab):
    """Whether the lower banded matrix ab is positive definite."""
    return _pbtrf(ab, lower=1)[1] == 0


def _top(A, G, floor=0.0):
    """Largest eigenvalue of the banded pencil (A, G), A with a positive
    diagonal, or floor if that is larger: bisection, to the last bit, on
    whether sigma G - A is positive definite.  G is checked first, so an
    indefinite Gram raises whatever the floor; then one factorization of
    floor G - A settles a pencil that cannot exceed the floor.  The bracket
    grows from the anchor (the floor, or the largest diagonal Rayleigh
    quotient if that is larger) in gaps of 4, 64, 1024, ... ulps times the
    anchor, so a top a few ulps above it costs a few factorizations."""
    if not _definite(G):
        raise RuntimeError("norm Gram matrix is not positive definite")
    if floor > 0.0 and _definite(floor * G - A):
        return floor
    anchor = max(floor, float(np.max(A[0] / G[0])))  # Rayleigh quotient of a unit vector
    lo, gap = anchor, 4.0 * np.finfo(float).eps * anchor
    hi = anchor + gap
    while not _definite(hi * G - A):
        lo, gap = hi, 16.0 * gap
        hi = anchor + gap
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _definite(mid * G - A):
            hi = mid
        else:
            lo = mid
    return hi


def _mode_matrices(space, partition, q, other):
    """Per distinct eigenvalue of (K, M), largest first, the banded pair
    (S, GX) over the time-ordered test layout (node, interiors, node, ...),
    S being BB for other="BB" and GC for other="GC".  Modes sharing an
    eigenvalue (lam_i + lam_j = lam_j + lam_i in 2D) share them.

    In the M-orthonormal eigenbasis M -> 1, K -> lambda and M K^-1 M ->
    1/lambda, so interval i contributes with mu = k_i lambda: the projected
    test Gram GX = E/mu + mu Pi, the true test Gram GC = E/mu + mu GL2, and
    BB = b GY^-1 b^T with b = mu G - D and the trial Gram GY = mu/(2m+1).
    The node-0 term ||X(0)||_H^2 adds 1 to both Grams; the final trace adds
    1 to BB at node N.  The banded sum over intervals is linear, so the
    lambda-free bands are built once per call, and each eigenvalue combines
    them elementwise, with no matrix product per eigenvalue: with
    W = diag(2m+1) = mu GY^-1,

        GX = band(E/k)/lam + lam band(k Pi),  GC = band(E/k)/lam + lam band(k GL2),
        BB = lam band(k G W G^T) - band(G W D^T + D W G^T) + band(D W D^T/k)/lam.

    The largest eigenvalue comes first: it set the c_S maximum in every case
    measured, so the floor of _top settles every later mode in one
    factorization.  Correctness does not depend on the order.
    """
    rb = reference_blocks(q)
    k = partition.widths[:, None, None]
    Lq = rb.L[:, : q + 1]
    odd = 2.0 * np.arange(q + 1) + 1.0
    dual = _banded(rb.E / k)
    proj = _banded(k * ((Lq / odd) @ Lq.T))
    if other == "BB":
        GW, DW = rb.G * odd, rb.D * odd
        cross = GW @ rb.D.T
        gg = _banded(k * (GW @ rb.G.T))
        gd = _banded(np.broadcast_to(cross + cross.T, (k.size, q + 2, q + 2)))
        dd = _banded((DW @ rb.D.T) / k)
    else:
        true = _banded(k * rb.GL2)

    for lam in np.unique(fem.spectral(space).eigenvalues)[::-1]:
        GX = dual / lam + lam * proj
        GX[0, 0] += 1.0
        if other == "BB":
            S = lam * gg - gd + dd / lam
            S[0, -1] += 1.0
        else:
            S = dual / lam + lam * true
            S[0, 0] += 1.0
        yield S, GX


def infsup_discrete(space, partition, q):
    """Extreme singular values (c_B, C_B) of the norm-normalized form: the
    extreme square roots of the pencil (B GY^-1 B^T, GX) over all modes.
    c_B^-2 and C_B^2 are running maxima of top eigenvalues, each passed to
    _top as its floor."""
    inv_lo, hi = 0.0, 0.0
    for BB, GX in _mode_matrices(space, partition, q, "BB"):
        inv_lo = _top(GX, BB, inv_lo)
        hi = _top(BB, GX, hi)
    return float(np.sqrt(1.0 / inv_lo)), float(np.sqrt(hi))


def cs_constant(space, partition, q):
    """Equivalence constant between the true and projected test norms: the
    square root of the top eigenvalue of (GC, GX) over all modes, a running
    maximum passed to _top as its floor."""
    top = 0.0
    for GC, GX in _mode_matrices(space, partition, q, "GC"):
        top = _top(GC, GX, top)
    return float(np.sqrt(top))


def cfl_constant(space, k_max):
    """k_max times the largest generalized eigenvalue of (K, M)."""
    lam_max = float(fem.spectral(space).eigenvalues.max())
    return float(k_max) * lam_max


def stability_check(solution, problem, c_s):
    """Evaluate both sides of the discrete stability bound.

    Returns a dict with lhs = ||U1||_{L2(V)}^2 + ||U2^(N)||_H^2 and
    rhs = c_s^2 ||f||_{L2(H^-1)}^2 + ||u0||_H^2, all realized on V_h; the
    f term uses q+4 Gauss points per time segment.  In the M-orthonormal
    eigenbasis of (K, M), with a = V^T M u, ||u||_H^2 = sum a^2 and
    ||u||_V^2 = sum lambda a^2, and a load vector f has
    ||f||_{H^-1}^2 = sum (V^T f)^2 / lambda, so no solve is needed.
    """
    if problem.impulses:
        raise ValueError("stability bound implemented for impulse-free forcing")
    space, part, q = solution.space, solution.partition, solution.q
    dec = fem.spectral(space)
    lam = dec.eigenvalues
    scale = part.widths[:, None] / (2.0 * np.arange(q + 1) + 1.0)   # k / (2m+1)
    u1_sq = 0.0
    for lo, hi in chunks(0, part.num_intervals, (q + 1) * space.dof_count):
        a = dec.modal_coefficients(solution.u1[lo:hi])
        u1_sq += float(np.sum(scale[lo:hi] * ((a * a) @ lam)))
    u2N_sq, u0_sq = (float(np.sum(a * a))
                     for a in dec.modal_coefficients(solution.u2[[-1, 0]]))
    f_sq = 0.0
    if problem.rhs is not None:
        per_item = (q + 4) * space.grid_size(space.degree + 2)
        for lo, hi in chunks(0, part.num_intervals, per_item):
            t, _, w = quadrature_nodes(part, lo, hi, q + 4, problem.time_breakpoints)
            f = dec.modal_loads(fem.load_vector(space, problem.rhs, t=t.ravel()))
            f_sq += float(w.ravel() @ ((f * f) @ (1.0 / lam)))
    lhs = u1_sq + u2N_sq
    rhs = c_s ** 2 * f_sq + u0_sq
    return {
        "lhs": lhs,
        "rhs": rhs,
        "u1_L2V_sq": u1_sq,
        "u2_final_H_sq": u2N_sq,
        "f_dual_sq": f_sq,
        "u0_H_sq": u0_sq,
        "satisfied": bool(lhs <= rhs * (1.0 + 1e-9)),
    }
