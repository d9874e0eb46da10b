"""Space-time discretization of the heat equation in its weak (second) form.

Trial functions pair a time-discontinuous piecewise polynomial of degree q
(Legendre coefficients per interval, values in V_h) with one extra V_h
function carrying the final-time trace.  Test functions are continuous
piecewise polynomials of degree q+1 in time (nodal Lagrange at Gauss-Lobatto
points per interval).  Testing the form

    sum_i int_{I_i} <U1, -dX/dt + A X> ds + <U2, X(T)>
        = sum_i int_{I_i} <f, X> ds + <u0, X(0)> + sum_j <zeta_j, X(t_j)>

against all X yields one square linear system.  Each interval's interior
test functions only see that interval, so the system is an
interval-by-interval march.  run_decomposed, below, is the one solver; the
coupled one-shot solve of the whole system (solve_global in
tests/reference.py) and the dense step LocalBlockSystem are references the
tests compare it against.

On interval [a, a+k] with U1 = sum_m c_m P_m(tau), tau = (s-a)/k, testing
with X = l_j(tau) v gives for j = 0 .. q+1

    sum_m (-D[j,m] M + k G[j,m] K) c_m + delta_{j,q+1} M u2_out
        = k b_j + delta_{j,0} M u2_in + delta_{j,q+1} load(zeta),

where b_j = int_0^1 load(f(a + k tau)) l_j(tau) dtau.  The rows j <= q close
over the c_m alone; the last row then yields u2_out through a mass solve
(LocalBlockSystem.step).

run_decomposed marches in the M-orthonormal eigenbasis of (K, M), where
M -> 1 and K -> lambda, so the equations split into one scalar problem per
spatial mode.  With mu = k lambda, A = mu G[:q+1] - D[:q+1] (a (q+1)x(q+1)
matrix per mode and distinct width) and r = D[q+1] - mu G[q+1]:

    c = A^-1 (k b_top + e_0 a2_in),
    a2_out = alpha a2_in + g,   alpha = r A^-1 e_0,
    g = k b_{q+1} + zeta + r A^-1 (k b_top),

with b, zeta and a2 in modal coordinates (V^T load, V^T M u2).
"""

import functools

import numpy as np

from . import fem
from .timegrid import TemporalBasis, chunks, quadrature_nodes, reference_blocks


class SpaceTimeSolution:
    """Discrete solution pair: U1 per interval, U2 at the nodes.

    u1 has shape (N, q+1, dof) holding shifted-Legendre coefficients of U1 on
    each interval; u2 has shape (N+1, dof) with u2[0] the projected initial
    datum and u2[N] the final-time component.
    """

    def __init__(self, q, partition, space, u1, u2):
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        N = partition.num_intervals
        dof = u2.shape[1]
        if u1.shape != (N, q + 1, dof) or u2.shape != (N + 1, dof):
            raise ValueError("solution arrays inconsistent with q=%d, N=%d" % (q, N))
        if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
            raise ValueError("solution contains non-finite entries")
        self.q = q
        self.partition = partition
        self.space = space
        self.u1 = u1
        self.u2 = u2


class LocalBlockSystem:
    """Dense factorized interval system for one width k (reused across
    intervals): the reference step in FE coordinates.

    Only the tests step with it (tests/reference.py); it stays in the
    package because perfbench's solver.factor and solver.march hooks name it.
    It factors with scipy, imported here: the modules of a run import no
    scipy (stheat.fem module docstring).
    """

    def __init__(self, space, k, q):
        import scipy.linalg

        if k <= 0.0:
            raise ValueError("interval width must be positive")
        self.space = space
        self.k = float(k)
        self.q = int(q)
        self.blocks = reference_blocks(q)
        M, K = space.mass, space.stiffness
        top_D = self.blocks.D[: q + 1]
        top_G = self.blocks.G[: q + 1]
        A = np.kron(-top_D, M) + self.k * np.kron(top_G, K)
        mass_cho = scipy.linalg.cho_factor(M)
        self._mass_solve = lambda rhs: scipy.linalg.cho_solve(mass_cho, rhs)
        try:
            if q == 0:
                # A = M + (k/2) K is symmetric positive definite
                self._factor = scipy.linalg.cho_factor(A)
                self._solve = lambda rhs: scipy.linalg.cho_solve(self._factor, rhs)
            else:
                self._factor = scipy.linalg.lu_factor(A)
                self._solve = lambda rhs: scipy.linalg.lu_solve(self._factor, rhs)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            cond = float(np.linalg.cond(A))
            raise RuntimeError(
                "singular local block system for k=%g (cond ~ %.3e)" % (k, cond)) from exc

    def step(self, u2_in, moments=None, impulse_load=None):
        """Advance one interval; returns (c, u2_out) with c of shape (q+1, dof)."""
        space, k, q = self.space, self.k, self.q
        dof = space.dof_count
        u2_in = np.asarray(u2_in, dtype=float)
        rhs = np.zeros((q + 1, dof))
        if moments is not None:
            rhs += k * moments[: q + 1]
        rhs[0] += space.mass @ u2_in
        c = self._solve(rhs.ravel()).reshape(q + 1, dof)
        bottom = np.zeros(dof)
        if moments is not None:
            bottom += k * moments[q + 1]
        if impulse_load is not None:
            bottom += impulse_load
        D_last, G_last = self.blocks.D[q + 1], self.blocks.G[q + 1]
        for m in range(q + 1):
            bottom += D_last[m] * (space.mass @ c[m]) - k * G_last[m] * (space.stiffness @ c[m])
        u2_out = self._mass_solve(bottom)
        return c, u2_out


def _load_chunks(space, lo, hi, npoints):
    """Interval ranges of lo..hi-1 whose load blocks (load_vector grid points
    times npoints quadrature times per interval) hold about CHUNK_VALUES values."""
    return chunks(lo, hi, npoints * space.grid_size(space.degree + 2))


def interval_moments(problem, space, partition, q, lo=0, hi=None):
    """Load moments of the intervals lo..hi-1, shape (hi-lo, q+2, dof).

    Entry [i-lo, j] is b_j = int_0^1 load(f(a + k tau)) l_j(tau) dtau on
    interval i = [a, a+k].  Quadrature splits at the problem's temporal
    breakpoints so kinks inside an interval do not degrade accuracy.
    """
    hi = partition.num_intervals if hi is None else hi
    out = np.zeros((hi - lo, q + 2, space.dof_count))
    if problem.rhs is None:
        return out
    test = _test_basis(q)
    for a, b in _load_chunks(space, lo, hi, q + 3):
        t, tau, w = quadrature_nodes(partition, a, b, q + 3, problem.time_breakpoints)
        loads = fem.load_vector(space, problem.rhs, t=t.ravel()).reshape(*t.shape, -1)
        basis = test.eval_all(tau.ravel()).reshape(-1, *t.shape) * (w / partition.widths[a:b, None])
        np.matmul(basis.transpose(1, 0, 2), loads, out=out[a - lo: b - lo])
    return out


@functools.lru_cache(maxsize=None)
def _test_basis(q):
    """The test basis of interval_moments, built once per degree."""
    return TemporalBasis(q + 1, "nodal-lagrange")


def impulse_loads(problem, space, partition):
    """Load vectors of the impulses keyed by their node index."""
    if not problem.impulses:
        return {}
    nodes = partition.nodes
    tol = 1e-12 * max(1.0, partition.final_time)
    loads = {}
    for t_star, zeta in problem.impulses:
        idx = int(np.argmin(np.abs(nodes - t_star)))
        if abs(nodes[idx] - t_star) > tol or idx == 0:
            raise ValueError(
                "impulse time %g does not coincide with an interior or final "
                "partition node" % (t_star,))
        vec = fem.load_vector(space, zeta)
        loads[idx] = loads.get(idx, 0.0) + vec
    return loads


def run_decomposed(problem, space, partition, q):
    """March the scheme mode by mode (module docstring), one load chunk at a time.

    Each chunk's load moments go to modal coordinates, its forced parts and
    recurrence terms are formed for all its intervals at once, the scalar
    recurrence runs over its intervals for all modes together, and its u1
    and u2 go back to FE coefficients before the next chunk.
    """
    N = partition.num_intervals
    dof = space.dof_count
    dec = fem.spectral(space)
    rb = reference_blocks(q)
    widths, width_of = np.unique(partition.widths, return_inverse=True)
    mu = widths[:, None, None, None] * dec.eigenvalues[:, None, None]  # (widths, modes, 1, 1)
    inv = np.linalg.inv(mu * rb.G[: q + 1] - rb.D[: q + 1])            # (widths, modes, q+1, q+1)
    r = rb.D[q + 1] - mu[..., 0] * rb.G[q + 1]                         # (widths, modes, q+1)
    alpha = np.einsum("wds,wds->wd", r, inv[..., 0])
    inv_t = inv.transpose(0, 2, 3, 1)                                  # modes last
    r_t = r.transpose(0, 2, 1)
    jumps = {i: dec.modal_loads(v) for i, v in impulse_loads(problem, space, partition).items()}

    u1 = np.empty((N, q + 1, dof))
    u2 = np.empty((N + 1, dof))   # modal coordinates until converted
    u2[0] = 0.0 if problem.initial is None else dec.modal_loads(
        fem.load_vector(space, problem.initial))
    for lo, hi in _load_chunks(space, 0, N, q + 3):
        w = width_of[lo:hi]
        kb = dec.modal_loads(interval_moments(problem, space, partition, q, lo, hi))
        kb *= partition.widths[lo:hi, None, None]
        forced = np.einsum("irsd,isd->ird", inv_t[w], kb[:, : q + 1])
        g = kb[:, q + 1] + np.einsum("ird,ird->id", r_t[w], forced)
        for i, zeta in jumps.items():
            if lo < i <= hi:
                g[i - 1 - lo] += zeta
        a = alpha[w]
        for j in range(hi - lo):
            u2[lo + j + 1] = a[j] * u2[lo + j] + g[j]
        u1[lo:hi] = dec.coefficients(forced + inv_t[w, :, 0] * u2[lo:hi, None, :])
        u2[lo:hi] = dec.coefficients(u2[lo:hi])
    u2[N] = dec.coefficients(u2[N])
    return SpaceTimeSolution(q, partition, space, u1, u2)
