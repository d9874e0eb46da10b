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
interval-by-interval march.  march, below, is the one solver: a generator
that yields the solution one chunk of intervals at a time, so a run never
holds it whole (cli.run_level feeds each chunk to the error norms and the
stability sums and drops it).  march_chunks is the only chunk plan of a
level: the consumers take its chunks whole and pass over no interval after
the march.  run_decomposed collects the chunks into a SpaceTimeSolution;
the coupled one-shot solve of the whole system (solve_global in
tests/reference.py) and the dense step LocalBlockSystem, on the dense
matrices the tests form, are references the tests compare it against.

On interval [a, a+k] with U1 = sum_m c_m P_m(tau), tau = (s-a)/k, testing
with X = l_j(tau) v gives for j = 0 .. q+1

    sum_m (-D[j,m] M + k G[j,m] K) c_m + delta_{j,q+1} M u2_out
        = k b_j + delta_{j,0} M u2_in + delta_{j,q+1} load(zeta),

where b_j = int_0^1 load(f(a + k tau)) l_j(tau) dtau.  The rows j <= q close
over the c_m alone; the last row then yields u2_out through a mass solve
(LocalBlockSystem.step).

march works in the M-orthonormal eigenbasis of (K, M), where
M -> 1 and K -> lambda, so the equations split into one scalar problem per
spatial mode.  With mu = k lambda, A = mu G[:q+1] - D[:q+1] (a (q+1)x(q+1)
matrix per mode and width of a chunk) and r = D[q+1] - mu G[q+1]:

    c = A^-1 (k b_top + e_0 a2_in),
    a2_out = alpha a2_in + g,   alpha = r A^-1 e_0,
    g = k b_{q+1} + zeta + r A^-1 (k b_top),

with b and zeta in modal coordinates V^T load, and u1 and u2 in a = V^T M u.
The data are sums of products, f = sum_r X_r(x) T_r(t) (stheat.problems),
so b_j = sum_r V^T load(X_r) int_0^1 T_r(a + k tau) l_j(tau) dtau: march
forms the modal load of each spatial factor once per level (factor_loads),
and each chunk's moments by scalar time quadrature (interval_moments).
"""

import numpy as np

from . import fem
from .problems import time_values
from .timegrid import quadrature_nodes, reference_blocks, reference_values


class SpaceTimeSolution:
    """Discrete solution pair: U1 per interval, U2 at the nodes, the whole
    march collected by run_decomposed (for the tests and the API; a run
    consumes the march chunk by chunk and never builds one).

    u1 has shape (N, q+1, dof) holding shifted-Legendre coefficients of U1 on
    each interval; u2 has shape (N+1, dof) with u2[0] the projected initial
    datum and u2[N] the final-time component, both in the modal coordinates
    a = V^T M u of the space's eigenbasis (fem.FemSpace), where the H = V_h
    norm is the Euclidean one.
    """

    def __init__(self, q, partition, space, u1, u2):
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        N = partition.num_intervals
        if u2.ndim != 2 or u2.shape[0] != N + 1 or u1.shape != (N, q + 1, u2.shape[1]):
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
    intervals): the reference step in FE coordinates, on the caller's dense
    mass and stiffness matrices of the space.

    Only the tests step with it (tests/reference.py); it stays in the
    package because perfbench's solver.factor and solver.march hooks name it.
    It factors with scipy, imported here: the modules of a run import no
    scipy (stheat.fem module docstring).
    """

    def __init__(self, mass, stiffness, k, q):
        import scipy.linalg

        if k <= 0.0:
            raise ValueError("interval width must be positive")
        self.mass, self.stiffness, self.k, self.q = mass, stiffness, float(k), int(q)
        self.blocks = reference_blocks(q)
        top_D = self.blocks.D[: q + 1]
        top_G = self.blocks.G[: q + 1]
        A = np.kron(-top_D, mass) + self.k * np.kron(top_G, stiffness)
        mass_cho = scipy.linalg.cho_factor(mass)
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
        M, K, k, q = self.mass, self.stiffness, self.k, self.q
        dof = M.shape[0]
        u2_in = np.asarray(u2_in, dtype=float)
        rhs = np.zeros((q + 1, dof))
        if moments is not None:
            rhs += k * moments[: q + 1]
        rhs[0] += M @ u2_in
        c = self._solve(rhs.ravel()).reshape(q + 1, dof)
        bottom = np.zeros(dof)
        if moments is not None:
            bottom += k * moments[q + 1]
        if impulse_load is not None:
            bottom += impulse_load
        D_last, G_last = self.blocks.D[q + 1], self.blocks.G[q + 1]
        for m in range(q + 1):
            bottom += D_last[m] * (M @ c[m]) - k * G_last[m] * (K @ c[m])
        u2_out = self._mass_solve(bottom)
        return c, u2_out


# The size of a chunk of the march: about this many values of q+3 times per interval on the
# spatial grid of the loads, the scale of the error norms' gathered rows (cli.level_bytes).
CHUNK_VALUES = 1 << 15


def chunk_length(q, points):
    """Intervals in a chunk of the march on a spatial grid of points points."""
    return max(1, CHUNK_VALUES // ((q + 3) * points))


def march_chunks(space, partition, q):
    """The chunk plan of a level, the only one: consecutive ranges (lo, hi)
    of its intervals that hold about CHUNK_VALUES values of q+3 times per
    interval on the load grid (p+2 Gauss points an element).  march solves
    in these chunks, its consumers take them whole, and error_norms and
    stability_check feed a collected solution through them, so their sums
    equal a streamed level's."""
    N, step = partition.num_intervals, chunk_length(q, space.grid_size(space.degree + 2))
    return [(lo, min(lo + step, N)) for lo in range(0, N, step)]


def factor_loads(space, factors, nq=None):
    """V^T load(X) of each spatial callable X, one row each, shape (len(factors), dof):
    a level integrates each spatial factor of its data once (fem.load_vector)."""
    rows = [fem.load_vector(space, X, nq) for X in factors]
    return space.modal_loads(np.reshape(rows, (len(rows), space.dof_count)))


def interval_moments(problem, space, partition, q, lo=0, hi=None, loads=None):
    """Load moments of the intervals lo..hi-1, shape (hi-lo, q+2, dof), in
    one quadrature block (march asks for one chunk of march_chunks at a time).

    Entry [i-lo, j] is b_j = int_0^1 load(f(a + k tau)) l_j(tau) dtau on
    interval i = [a, a+k].  With f = sum_r X_r(x) T_r(t) that is
    sum_r loads[r] int_0^1 T_r(a + k tau) l_j(tau) dtau: scalar time
    quadrature, then one vector per spatial factor.  loads holds those
    vectors in the caller's coordinates, one row per term of problem.rhs:
    march passes the modal ones of factor_loads, formed once per level; by
    default they are the load vectors load(X_r) themselves.  Quadrature
    splits at the problem's temporal breakpoints so kinks inside an
    interval do not degrade accuracy.
    """
    hi = partition.num_intervals if hi is None else hi
    if not problem.rhs or hi == lo:
        return np.zeros((hi - lo, q + 2, space.dof_count))
    if loads is None:
        loads = np.array([fem.load_vector(space, X) for X, _ in problem.rhs])
    t, tau, w, owner = quadrature_nodes(partition, lo, hi, q + 3, problem.time_breakpoints)
    values = time_values([T for _, T in problem.rhs], t)   # (rows, q+3, terms)
    if owner is None:   # no interval is cut: every row has the reference nodes
        moments = np.matmul(reference_values(q, q + 3)[0], values)
    else:
        basis = reference_blocks(q).test.eval_all(tau.ravel()).reshape(-1, *t.shape)
        basis *= w / partition.widths[lo + owner, None]
        moments = np.zeros((hi - lo, q + 2, len(problem.rhs)))
        np.add.at(moments, owner, np.matmul(basis.transpose(1, 0, 2), values))
        del basis   # freed before the moments are: a cut chunk takes an uncut one's memory
    return (moments.reshape(-1, len(problem.rhs)) @ loads).reshape(hi - lo, q + 2, -1)


def impulse_nodes(problem, partition):
    """Partition node index of each impulse time, in order; raises ValueError
    for a time that is no interior or final node, to the partition's node_tolerance."""
    nodes = partition.nodes
    found = [int(np.argmin(np.abs(nodes - t_star))) for t_star, _ in problem.impulses]
    for idx, (t_star, _) in zip(found, problem.impulses):
        if abs(nodes[idx] - t_star) > partition.node_tolerance or idx == 0:
            raise ValueError("impulse time %g does not coincide with an interior or final "
                             "partition node" % (t_star,))
    return found


def impulse_loads(problem, space, partition):
    """Load vectors of the impulses keyed by their node index."""
    loads = {}
    for idx, (_, zeta) in zip(impulse_nodes(problem, partition), problem.impulses):
        loads[idx] = loads.get(idx, 0.0) + fem.load_vector(space, zeta)
    return loads


def _local_inverses(widths, eigenvalues, q):
    """The recurrence blocks of the given widths (module docstring), modes
    last: A^-1 of shape (widths, q+1, q+1, modes), r (widths, q+1, modes)
    and alpha (widths, modes)."""
    rb = reference_blocks(q)
    mu = widths[:, None, None, None] * eigenvalues[:, None, None]   # widths, modes, 1, 1
    inv = np.linalg.inv(mu * rb.G[: q + 1] - rb.D[: q + 1])
    r = rb.D[q + 1] - mu[..., 0] * rb.G[q + 1]
    alpha = np.einsum("wds,wds->wd", r, inv[..., 0])
    return inv.transpose(0, 2, 3, 1), r.transpose(0, 2, 1), alpha


def _merge(mask, old, new):
    """The rows old where mask holds and new where it does not, in one array."""
    out = np.empty(mask.shape + new.shape[1:])
    out[mask], out[~mask] = old, new
    return out


def march(problem, space, partition, q):
    """March the scheme mode by mode (module docstring), one chunk of
    march_chunks at a time: yields (lo, hi, u1[lo:hi], u2[lo:hi+1]) for the
    chunks of intervals lo..hi-1 in order, u1 of shape (hi-lo, q+1, dof)
    and u2 of shape (hi-lo+1, dof), in modal coordinates (SpaceTimeSolution).

    Each chunk's load moments come from the level's modal factor loads, its
    forced parts and recurrence terms are formed for all its intervals at
    once, and the scalar recurrence runs over its intervals for all modes
    together, starting from the last nodal value of the chunk before.  A
    chunk holds the local inverses of its own widths: it inverts the blocks
    of the widths that the chunk before did not hold, and takes the others
    over from it.  Raises ValueError on the first chunk that holds a
    non-finite entry.
    """
    dof = space.dof_count
    jumps = {i: space.modal_loads(v) for i, v in impulse_loads(problem, space, partition).items()}

    loads = factor_loads(space, [X for X, _ in problem.rhs or ()])
    node = 0.0 if problem.initial is None else space.modal_loads(
        fem.load_vector(space, problem.initial))
    held = np.full(1, np.inf)   # the sorted widths whose inverses are held: none yet
    for lo, hi in march_chunks(space, partition, q):
        k = partition.widths[lo:hi]
        w = held.searchsorted(k)
        if (held.take(w, mode="clip") != k).any():   # a width of this chunk is not held
            widths, w = np.unique(k, return_inverse=True)
            at = held.searchsorted(widths)
            have = held.take(at, mode="clip") == widths
            kept = [b[at[have]] for b in (inv, r, alpha)] if have.any() else None
            inv = r = alpha = None   # the rest freed before new ones are formed (cli.level_bytes)
            inv, r, alpha = _local_inverses(widths[~have], space.eigenvalues, q)
            if kept is not None:   # the held widths' blocks are taken over, not formed again
                inv, r, alpha = (_merge(have, *pair) for pair in zip(kept, (inv, r, alpha)))
            held = widths
        kb = interval_moments(problem, space, partition, q, lo, hi, loads)
        kb *= k[:, None, None]
        forced = np.einsum("irsd,isd->ird", inv[w], kb[:, : q + 1])
        g = kb[:, q + 1] + np.einsum("ird,ird->id", r[w], forced)
        del kb   # freed before the chunk's solution is allocated (cli.level_bytes)
        for i, zeta in jumps.items():
            if lo < i <= hi:
                g[i - 1 - lo] += zeta
        a = alpha[w]
        u2 = np.empty((hi - lo + 1, dof))
        u2[0] = node
        for j in range(hi - lo):
            u2[j + 1] = a[j] * u2[j] + g[j]
        u1 = np.empty((hi - lo, q + 1, dof))
        np.add(forced, inv[w, :, 0] * u2[:-1, None, :], out=u1)
        del forced, g, a
        if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
            raise ValueError("solution contains non-finite entries")
        node = u2[-1].copy()
        yield lo, hi, u1, u2
        del u1, u2   # the consumer's references alone keep them past this chunk


def run_decomposed(problem, space, partition, q):
    """The whole solution of march, collected into a SpaceTimeSolution."""
    N = partition.num_intervals
    u1 = np.empty((N, q + 1, space.dof_count))
    u2 = np.empty((N + 1, space.dof_count))
    for lo, hi, c, a in march(problem, space, partition, q):
        u1[lo:hi] = c
        u2[lo:hi + 1] = a
    return SpaceTimeSolution(q, partition, space, u1, u2)
