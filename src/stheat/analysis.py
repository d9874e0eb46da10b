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
eigenvalue), so diagnostic_constants computes all three in one pass over the
modes, each running maximum a floor: a mode checks its two Grams once and
costs one factorization per constant that it cannot beat.  Modes are
visited largest eigenvalue first, which set the c_S maximum on the first
mode in every case measured; c_B^-2 and C_B^2 are 1 to rounding on every
mode, so only the few modes that beat the maximum by rounding are bisected,
from a bracket grown out of the floor, in 4 to 10 factorizations each.  The
bands are built once per level, so a mode costs a few elementwise array
operations besides its factorizations (README: counts and timings).
"""

from dataclasses import dataclass

import numpy as np

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
    intervals and nodes; the V part takes u1 to FE coefficients first, as a
    modal sum would cancel the leading digits of a fine level's error.
    """
    if problem.exact is None:
        raise ValueError("error computation requires an exact solution")
    space, part, q = solution.space, solution.partition, solution.q
    dec, nq = fem.spectral(space), space.degree + 4
    x, w, B, D = space.line_tables(nq)
    trial = TemporalBasis(q, "legendre")

    err1_sq = 0.0
    for lo, hi in chunks(0, part.num_intervals, (q + 4) * space.grid_size(nq)):
        t, tau, wt = quadrature_nodes(part, lo, hi, q + 4, problem.time_breakpoints)
        P = trial.eval_all(tau.ravel()).T.reshape(*t.shape, q + 1)
        coeffs = np.matmul(P, dec.coefficients(solution.u1[lo:hi])).reshape(t.size, -1)
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
    # component cannot beat.  In the M-orthonormal eigenbasis, where u2
    # lives, the H norm is the Euclidean one and the projection of a load
    # vector is V^T load.
    nodes = part.nodes
    per_node = np.empty(nodes.size)
    for lo, hi in chunks(0, nodes.size, space.grid_size(nq)):
        trace = fem.load_vector(space, problem.exact.u, nq=nq, t=nodes[lo:hi])
        diff = solution.u2[lo:hi] - dec.modal_loads(trace)
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
# the one scipy routine a run calls, and only for diagnostics.  load_pbtrf binds
# it, importing scipy.linalg (about 0.2 s); cli calls it in start-up (module
# docstring there), and _definite reads the global with no call per factorization.
_pbtrf = None


def load_pbtrf():
    """Import scipy.linalg and bind LAPACK's pbtrf, once; raises ImportError
    if scipy cannot be imported."""
    global _pbtrf
    if _pbtrf is None:
        import scipy.linalg
        _pbtrf, = scipy.linalg.get_lapack_funcs(("pbtrf",), dtype=np.float64)


def _definite(ab):
    """Whether the lower banded matrix ab is positive definite."""
    return _pbtrf(ab, lower=1)[1] == 0


def _top(A, G, floor=0.0):
    """Largest eigenvalue of the banded pencil (A, G), A with a positive
    diagonal and G positive definite (the caller has checked it), or floor
    if that is larger: bisection, to the last bit, on whether sigma G - A is
    positive definite.  One factorization of floor G - A settles a pencil
    that cannot exceed the floor.  The bracket grows from the anchor (the
    floor, or the largest diagonal Rayleigh quotient if that is larger) in
    gaps of 4, 64, 1024, ... ulps times the anchor, so a top a few ulps
    above it costs a few factorizations.  A G that is not positive definite
    raises RuntimeError before sigma G overflows (pbtrf passes inf/NaN)."""
    if floor > 0.0 and _definite(floor * G - A):
        return floor
    anchor = float(max(floor, np.max(A[0] / G[0])))  # Rayleigh quotient of a unit vector
    lo, gap = anchor, anchor * 2.0 ** -50   # 4 ulps, in Python floats: no overflow warning
    hi = anchor + gap
    while not _definite(hi * G - A):
        if not 0.0 < 32.0 * hi * (1.0 + float(np.abs(G).max())) < np.finfo(float).max:
            raise RuntimeError("pencil has no finite top eigenvalue: "
                               "norm Gram matrix is not positive definite")
        lo, gap = hi, 16.0 * gap
        hi = anchor + gap
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _definite(mid * G - A):
            hi = mid
        else:
            lo = mid
    return hi


def _mode_matrices(space, partition, q):
    """Per distinct eigenvalue of (K, M), largest first, the banded triple
    (GX, BB, GC) over the time-ordered test layout (node, interiors, node,
    ...).  Modes sharing an eigenvalue (lam_i + lam_j = lam_j + lam_i in 2D)
    share them.

    In the M-orthonormal eigenbasis M -> 1, K -> lambda and M K^-1 M ->
    1/lambda, so interval i contributes with mu = k_i lambda: the projected
    test Gram GX = E/mu + mu Pi, the true test Gram GC = E/mu + mu GL2, and
    BB = b GY^-1 b^T with b = mu G - D and the trial Gram GY = mu/(2m+1).
    The node-0 term ||X(0)||_H^2 adds 1 to both test Grams; the final trace
    adds 1 to BB at node N.  The banded sum over intervals is linear, so the
    six lambda-free bands are built once per call, and each eigenvalue
    combines them elementwise, with no matrix product per eigenvalue: with
    W = diag(2m+1) = mu GY^-1,

        GX = band(E/k)/lam + lam band(k Pi),  GC = band(E/k)/lam + lam band(k GL2),
        BB = lam band(k G W G^T) - band(G W D^T + D W G^T) + band(D W D^T/k)/lam.

    The largest eigenvalue comes first: it set the c_S maximum in every case
    measured, so the floor of _top settles every later mode in one
    factorization.  Correctness does not depend on the order.
    """
    load_pbtrf()
    rb = reference_blocks(q)
    k = partition.widths[:, None, None]
    Lq = rb.L[:, : q + 1]
    odd = 2.0 * np.arange(q + 1) + 1.0
    GW, DW = rb.G * odd, rb.D * odd
    cross = GW @ rb.D.T
    dual = _banded(rb.E / k)
    proj = _banded(k * ((Lq / odd) @ Lq.T))
    true = _banded(k * rb.GL2)
    gg = _banded(k * (GW @ rb.G.T))
    gd = _banded(np.broadcast_to(cross + cross.T, (k.size, q + 2, q + 2)))
    dd = _banded((DW @ rb.D.T) / k)

    # one temporary band at a time: 11 to 13 bands in all (cli.level_bytes)
    for lam in np.unique(fem.spectral(space).eigenvalues)[::-1]:
        GX = dual / lam
        GC = GX + lam * true
        GX += lam * proj
        GX[0, 0] += 1.0
        GC[0, 0] += 1.0
        BB = lam * gg
        BB -= gd
        BB += dd / lam
        BB[0, -1] += 1.0
        yield GX, BB, GC


def diagnostic_constants(space, partition, q):
    """(c_B, C_B, c_S) in one pass over the modes: each mode checks its Grams
    GX and BB once, then c_B^-2, C_B^2 and c_S^2, the top eigenvalues of the
    pencils (GX, BB), (BB, GX) and (GC, GX), are running maxima, each passed
    to _top as its floor."""
    inv_lo = hi = top = 0.0
    for GX, BB, GC in _mode_matrices(space, partition, q):
        if not (_definite(GX) and _definite(BB)):
            raise RuntimeError("norm Gram matrix is not positive definite")
        inv_lo = _top(GX, BB, inv_lo)
        hi = _top(BB, GX, hi)
        top = _top(GC, GX, top)
    return float(np.sqrt(1.0 / inv_lo)), float(np.sqrt(hi)), float(np.sqrt(top))


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


def stability_check(solution, problem, c_s):
    """Evaluate both sides of the discrete stability bound.

    Returns a dict with lhs = ||U1||_{L2(V)}^2 + ||U2^(N)||_H^2 and
    rhs = c_s^2 ||f||_{L2(H^-1)}^2 + ||u0||_H^2, all realized on V_h; the
    f term uses q+4 Gauss points per time segment.  In the modal
    coordinates a = V^T M u of the solution, ||u||_H^2 = sum a^2 and
    ||u||_V^2 = sum lambda a^2, and a load vector f has
    ||f||_{H^-1}^2 = sum (V^T f)^2 / lambda, so no solve is needed.
    """
    if problem.impulses:
        raise ValueError("stability bound implemented for impulse-free forcing")
    space, part, q = solution.space, solution.partition, solution.q
    dec = fem.spectral(space)
    lam = dec.eigenvalues
    scale = part.widths[:, None] / (2.0 * np.arange(q + 1) + 1.0)   # k / (2m+1)
    u1_sq = float(np.einsum("im,imd,imd,d->", scale, solution.u1, solution.u1, lam))
    u2N_sq, u0_sq = (float(np.sum(a * a)) for a in solution.u2[[-1, 0]])
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
