"""Temporal partitions, polynomial bases on [0,1], and space-time quadrature.

The time discretization works interval by interval.  On the reference
interval [0,1] two bases appear: shifted Legendre polynomials (trial side,
orthogonal, so interval mass matrices are diagonal) and nodal Lagrange
polynomials at Gauss-Lobatto points (test side, so the endpoint values of a
test function are single coefficients).  Both are held as rows of
shifted-Legendre coefficients, so the reference blocks that couple them are
closed-form products of those rows, exact up to round-off.  Every space-time
integral of the package takes its time nodes from quadrature_nodes, one
chunk of intervals at a time, as (segment, point) arrays with the
interval that owns each segment, so an integral over each interval is a
contraction over the point axis summed over its segments.  An interval is
cut only at a breakpoint off its nodes (cut_points); an uncut one is one
segment with the reference Gauss points exactly, where reference_values
holds both bases.
"""

import functools

import numpy as np
from numpy.polynomial import legendre as npleg


class TimePartition:
    """Strictly increasing finite time nodes t_0 < t_1 < ... < t_N.  Where
    np.diff(nodes) spreads by at most 4 ulps of the largest |node| (linspace's
    rounding spreads it by 2), widths is one width, (t_N - t_0)/N: it may
    differ from np.diff(nodes) by up to 2 ulps of t_N.  The nodes are kept."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time partition needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("time nodes must be finite")
        widths = np.diff(nodes)
        if widths.min() <= 0.0:   # no mask of N bools: cli.level_bytes counts nodes and widths
            raise ValueError("time nodes must be strictly increasing")
        # the largest |node| from the ends: np.abs(nodes) would add N+1 doubles (cli.level_bytes)
        if widths.max() - widths.min() <= 4 * np.spacing(max(-nodes[0], nodes[-1])):
            widths.fill((nodes[-1] - nodes[0]) / (nodes.size - 1))
        self.nodes = nodes
        self.widths = widths
        self.k_max = float(widths.max())
        self.num_intervals = nodes.size - 1
        # a time this close to a node is that node (cut_points, solver.impulse_nodes)
        self.node_tolerance = 1e-12 * max(1.0, float(nodes[-1]))

    def __repr__(self):
        return "TimePartition(N=%d, k_max=%g)" % (self.num_intervals, self.k_max)


def make_uniform_partition(T, N):
    """Partition of [0, T] into N equal intervals."""
    if not 0.0 < T < np.inf:
        raise ValueError("final time must be positive and finite, got %r" % (T,))
    if int(N) != N or N < 1:
        raise ValueError("number of intervals must be a positive integer, got %r" % (N,))
    return TimePartition(np.linspace(0.0, float(T), int(N) + 1))


@functools.lru_cache(maxsize=None)
def gauss_rule(n):
    """(points, weights) of the Gauss-Legendre rule with n points on [0,1];
    exact for degree <= 2n-1.  Built once per point count, so its arrays are
    shared and read-only."""
    if n < 1:
        raise ValueError("need at least one quadrature point")
    x, w = npleg.leggauss(int(n))
    points, weights = 0.5 * (x + 1.0), 0.5 * w
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def lobatto_points(m):
    """m Gauss-Lobatto points on [0,1] (endpoints included), m >= 2."""
    if m < 2:
        raise ValueError("Lobatto rule needs at least the two endpoints")
    # interior points are the roots of P'_{m-1} (none for m = 2)
    coeffs = np.zeros(m)
    coeffs[m - 1] = 1.0
    interior = npleg.legroots(npleg.legder(coeffs))
    pts = np.concatenate(([-1.0], np.sort(interior), [1.0]))
    return 0.5 * (pts + 1.0)


# Largest trial degree q a config may ask for: no shipped config needs more,
# and the march is untested above it.
MAX_TRIAL_DEGREE = 9


def lagrange_coefficient_matrix(nodes):
    """Monomial coefficients of the Lagrange basis on the given nodes.

    Column j holds the coefficients of the polynomial that is 1 at nodes[j]
    and 0 at the others, lowest order first.  Used only for the spatial
    element tables (degree p <= 3), where its Vandermonde is harmless.  Built
    from lagrange_legendre instead, M and K move by an ulp, and with them the
    error norms (the low-regularity nodal error by 2.6e-7 relative).
    """
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.size
    V = np.vander(nodes, m, increasing=True)
    return np.linalg.solve(V, np.eye(m))


def lagrange_legendre(nodes):
    """Shifted-Legendre coefficients of the Lagrange basis on nodes in [0,1]:
    row j holds those of the polynomial that is 1 at nodes[j] and 0 at the others."""
    return np.linalg.inv(npleg.legvander(2.0 * np.asarray(nodes) - 1.0, len(nodes) - 1)).T


class TemporalBasis:
    """The test side's Lagrange basis of the given degree on [0,1] at the
    Gauss-Lobatto points, as rows of shifted-Legendre coefficients: basis 0
    is the only one nonzero at tau=0 and basis `degree` the only one nonzero
    at tau=1.  The trial side's shifted Legendre polynomials need no class:
    their values are npleg.legvander(2 tau - 1, q).
    """

    def __init__(self, degree):
        self.degree = int(degree)
        self.nodes = lobatto_points(self.degree + 1)
        self.coeffs = lagrange_legendre(self.nodes)

    def eval_all(self, tau):
        """Values of all basis functions at the array tau; shape (degree+1, len(tau))."""
        return self.coeffs @ npleg.legvander(2.0 * tau - 1.0, self.degree).T


def cut_points(partition, breakpoints, lo=0, hi=None):
    """The breakpoints inside the intervals lo..hi-1 farther than node_tolerance
    from every node, sorted: a breakpoint that close is that node (impulse_nodes)."""
    nodes = partition.nodes[lo:(partition.num_intervals if hi is None else hi) + 1]
    inside = [b for b in sorted(set(breakpoints)) if nodes[0] < b < nodes[-1]]
    return [b for b, i in zip(inside, np.searchsorted(nodes, inside))
            if min(b - nodes[i - 1], nodes[i] - b) > partition.node_tolerance]


def quadrature_nodes(partition, lo, hi, npoints, breakpoints=()):
    """Time nodes of the space-time quadrature on the intervals lo..hi-1.

    Each interval is cut at its cut_points (so a kink does not degrade
    accuracy) and every segment gets the npoints-point Gauss rule.  Returns
    (t, tau, weight, owner) with one row per segment, in time order: t and
    weight of shape (segments, npoints), owner the interval of each row
    relative to lo, and tau the reference coordinates
    (s0 - a)/k + (l/k) tau_ref of segment [s0, s0 + l] of interval [a, a + k],
    which are the points of gauss_rule(npoints) bit for bit on an uncut interval.
    If no interval of the block is cut, the rows are its intervals, owner is
    None and tau is those points themselves, shape (npoints,), the
    points where reference_values holds both bases: consumers branch on
    owner alone.
    """
    points, weights = gauss_rule(npoints)
    nodes = partition.nodes[lo:hi + 1]
    pts = np.sort(np.concatenate((nodes, cut_points(partition, breakpoints, lo, hi))))
    seg = np.diff(pts)[:, None]
    # outer products as matmuls, which hold no ufunc buffers, and t built in place
    t, weight = seg @ points[None], seg @ weights[None]
    t += pts[:-1, None]
    if pts.size == nodes.size:   # no interval of the block is cut: segments are intervals
        return t, points, weight, None
    owner = np.searchsorted(nodes, pts[:-1], side="right") - 1
    a, k = nodes[owner, None], np.diff(nodes)[owner, None]   # uncut: s0 = a, l = k
    return t, (pts[:-1, None] - a) / k + seg / k * points, weight, owner


class ReferenceBlocks:
    """Reference-interval couplings between trial degree q and test degree q+1.

    With P_m the shifted Legendre basis (trial) and l_j the Gauss-Lobatto
    Lagrange basis of degree q+1 (test), all on [0,1]:

      D[j, m]   = int dl_j/dtau * P_m
      G[j, m]   = int l_j * P_m
      E[i, j]   = int dl_i/dtau * dl_j/dtau
      GL2[i, j] = int l_i * l_j
      L[j, r]   = coefficient of P_r in l_j (r = 0..q+1), the rows of test

    These scale to a physical interval of width k by the chain rule; the
    solver and the norm Gram matrices are assembled from them.
    """

    def __init__(self, q):
        self.q = int(q)
        # int_0^1 P_r P_s = delta_rs / (2r+1), so each block is a product of
        # coefficient rows weighted by s_r = 1/(2r+1); d/dtau = 2 d/dx on [-1,1]
        s = 1.0 / (2.0 * np.arange(q + 2) + 1.0)
        self.test = TemporalBasis(q + 1)
        L = self.test.coeffs
        Ld = 2.0 * npleg.legder(L, axis=1)              # (q+2, q+1)
        self.G = L[:, : q + 1] * s[: q + 1]
        self.D = Ld * s[: q + 1]
        self.GL2 = (L * s) @ L.T
        self.E = (Ld * s[: q + 1]) @ Ld.T
        self.L = L

    def check_isometry(self):
        """Raise RuntimeError unless, with W = diag(2m+1) and Pi = L_q W^-1 L_q^T,
        G W G^T = Pi, D W D^T = E and G W D^T + D W G^T = diag(-1, 0, ..., 0, 1),
        each to 1e-13 of its right side's largest entry (the defects stay below
        2e-16 of it for q <= 15): the identities that make the normalized form
        an isometry on every mode, so c_B = C_B = 1 (README)."""
        q = self.q
        odd = 2.0 * np.arange(q + 1) + 1.0
        Lq = self.L[:, : q + 1]
        cross = (self.G * odd) @ self.D.T
        for name, got, want in (("G W G^T = Pi", (self.G * odd) @ self.G.T, (Lq / odd) @ Lq.T),
                                ("D W D^T = E", (self.D * odd) @ self.D.T, self.E),
                                ("G W D^T + D W G^T = diag(-1, 0, ..., 1)", cross + cross.T,
                                 np.diag(np.r_[-1.0, np.zeros(q), 1.0]))):
            if not np.abs(got - want).max() <= 1e-13 * np.abs(want).max():
                raise RuntimeError("reference blocks of q=%d break %s" % (q, name))


@functools.lru_cache(maxsize=None)
def reference_blocks(q):
    """ReferenceBlocks(q), built and checked (check_isometry) once per
    degree, so its arrays are shared and read-only."""
    rb = ReferenceBlocks(q)
    rb.check_isometry()
    for block in (rb.D, rb.G, rb.E, rb.GL2, rb.L):
        block.flags.writeable = False
    return rb


@functools.lru_cache(maxsize=None)
def reference_values(q, npoints):
    """Both time bases at the npoints Gauss points tau_s, built once per (q, npoints)
    and read-only: test[j, s] = l_j(tau_s) w_s (times the weights), trial[s, m] = P_m(tau_s)."""
    points, weights = gauss_rule(npoints)
    test = reference_blocks(q).test.eval_all(points) * weights
    trial = npleg.legvander(2.0 * points - 1.0, q)
    test.flags.writeable = trial.flags.writeable = False
    return test, trial
