"""Temporal partitions, polynomial bases on [0,1], and space-time quadrature.

The time discretization works interval by interval.  On the reference
interval [0,1] two bases appear: shifted Legendre polynomials (trial side,
orthogonal, so interval mass matrices are diagonal) and nodal Lagrange
polynomials at Gauss-Lobatto points (test side, so the endpoint values of a
test function are single coefficients).  Both are held as rows of
shifted-Legendre coefficients, so the reference blocks that couple them are
closed-form products of those rows, exact up to round-off.  Every space-time
integral of the package (load moments, error norms, the stability bound)
takes its time nodes from quadrature_nodes, one chunk of intervals at a
time, in a regular (interval, slot) layout: row i holds the Gauss nodes of
one interval, so an integral over each interval is a contraction over the
slot axis.
"""

import functools

import numpy as np
from numpy.polynomial import legendre as npleg


class TimePartition:
    """Strictly increasing time nodes t_0 < t_1 < ... < t_N."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time partition needs at least two nodes")
        widths = np.diff(nodes)
        if np.any(widths <= 0.0):
            raise ValueError("time nodes must be strictly increasing")
        self.nodes = nodes
        self.widths = widths
        self.k_max = float(widths.max())
        self.num_intervals = nodes.size - 1

    @property
    def final_time(self):
        return float(self.nodes[-1])

    def __repr__(self):
        return "TimePartition(N=%d, k_max=%g)" % (self.num_intervals, self.k_max)


def make_uniform_partition(T, N):
    """Partition of [0, T] into N equal intervals."""
    if T <= 0.0:
        raise ValueError("final time must be positive, got %r" % (T,))
    if int(N) != N or N < 1:
        raise ValueError("number of intervals must be a positive integer, got %r" % (N,))
    return TimePartition(np.linspace(0.0, float(T), int(N) + 1))


class QuadratureRule:
    """Points and positive weights on the reference interval [0,1]."""

    def __init__(self, points, weights):
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if points.shape != weights.shape or points.ndim != 1:
            raise ValueError("points and weights must be 1d arrays of equal length")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        self.points = points
        self.weights = weights


@functools.lru_cache(maxsize=None)
def gauss_rule(n):
    """Gauss-Legendre rule with n points on [0,1]; exact for degree <= 2n-1.
    Built once per point count, so its arrays are shared and read-only."""
    if n < 1:
        raise ValueError("need at least one quadrature point")
    x, w = npleg.leggauss(int(n))
    rule = QuadratureRule(0.5 * (x + 1.0), 0.5 * w)
    rule.points.flags.writeable = rule.weights.flags.writeable = False
    return rule


def lobatto_points(m):
    """m Gauss-Lobatto points on [0,1] (endpoints included), m >= 2."""
    if m < 2:
        raise ValueError("Lobatto rule needs at least the two endpoints")
    if m == 2:
        interior = np.empty(0)
    else:
        # interior points are the roots of P'_{m-1}
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
    """Polynomial basis of the given degree on [0,1], as rows of
    shifted-Legendre coefficients.

    kind='legendre' gives shifted Legendre polynomials (orthogonal,
    int_0^1 P_m^2 = 1/(2m+1)); kind='nodal-lagrange' gives the Lagrange basis
    at the Gauss-Lobatto points, so basis 0 is the only one nonzero at tau=0
    and basis `degree` the only one nonzero at tau=1.
    """

    def __init__(self, degree, kind):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if kind not in ("legendre", "nodal-lagrange"):
            raise ValueError("unknown basis kind %r" % (kind,))
        self.degree = int(degree)
        if kind == "nodal-lagrange":
            self.nodes = lobatto_points(self.degree + 1)
            self.coeffs = lagrange_legendre(self.nodes)
        else:
            self.nodes = None
            self.coeffs = np.eye(self.degree + 1)

    def eval_all(self, tau):
        """Values of all basis functions; shape (degree+1, len(tau))."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        return self.coeffs @ npleg.legvander(2.0 * tau - 1.0, self.degree).T


# Values (spatial points times quadrature times) in one block of a batched
# space-time quadrature; callers march over the intervals in chunks of this size.
CHUNK_VALUES = 1 << 15


def chunks(lo, hi, values_per_item):
    """Consecutive ranges (a, b) covering lo..hi-1, each worth about CHUNK_VALUES values."""
    step = max(1, CHUNK_VALUES // values_per_item)
    return [(a, min(a + step, hi)) for a in range(lo, hi, step)]


def quadrature_nodes(partition, lo, hi, npoints, breakpoints=()):
    """Time nodes of the space-time quadrature on the intervals lo..hi-1.

    Each interval is cut at the breakpoints that lie strictly inside it (so a
    kink of the integrand does not degrade accuracy) and every segment gets
    the npoints-point Gauss rule.  Returns (t, tau, weight) of shape
    (hi-lo, slots): row i holds the physical times, their reference
    coordinates (t - a)/k on interval lo+i = [a, a + k], and the physical
    weights, in time order.  slots is npoints times the largest segment
    count in the chunk; a shorter row is padded with weight 0 at copies of
    its own first Gauss nodes, never at an interval end or a cut.
    """
    rule = gauss_rule(npoints)
    nodes = partition.nodes[lo:hi + 1]
    cuts = [b for b in breakpoints if nodes[0] < b < nodes[-1] and b not in nodes]
    pts = np.union1d(nodes, cuts)
    seg0, seg = pts[:-1], np.diff(pts)
    first = np.searchsorted(pts, nodes)   # the segment each node starts
    slots = np.arange(np.diff(first).max())
    live = slots < np.diff(first)[:, None]
    pick = first[:-1, None] + slots * live   # a pad repeats its row's first segment
    t = (seg0[pick][..., None] + seg[pick][..., None] * rule.points).reshape(hi - lo, -1)
    weight = ((live * seg[pick])[..., None] * rule.weights).reshape(hi - lo, -1)
    tau = (t - nodes[:-1, None]) / partition.widths[lo:hi, None]
    return t, tau, weight


class ReferenceBlocks:
    """Reference-interval couplings between trial degree q and test degree q+1.

    With P_m the shifted Legendre basis (trial) and l_j the Gauss-Lobatto
    Lagrange basis of degree q+1 (test), all on [0,1]:

      D[j, m]   = int dl_j/dtau * P_m
      G[j, m]   = int l_j * P_m
      E[i, j]   = int dl_i/dtau * dl_j/dtau
      GL2[i, j] = int l_i * l_j
      L[j, r]   = coefficient of P_r in l_j (r = 0..q+1)

    These scale to a physical interval of width k by the chain rule; the
    solver and the norm Gram matrices are assembled from them.
    """

    def __init__(self, q):
        self.q = int(q)
        # int_0^1 P_r P_s = delta_rs / (2r+1), so each block is a product of
        # coefficient rows weighted by s_r = 1/(2r+1); d/dtau = 2 d/dx on [-1,1]
        s = 1.0 / (2.0 * np.arange(q + 2) + 1.0)
        L = lagrange_legendre(lobatto_points(q + 2))
        Ld = 2.0 * npleg.legder(L, axis=1)              # (q+2, q+1)
        self.G = L[:, : q + 1] * s[: q + 1]
        self.D = Ld * s[: q + 1]
        self.GL2 = (L * s) @ L.T
        self.E = (Ld * s[: q + 1]) @ Ld.T
        self.L = L


@functools.lru_cache(maxsize=None)
def reference_blocks(q):
    """ReferenceBlocks(q), built once per degree, so its arrays are shared
    and read-only."""
    rb = ReferenceBlocks(q)
    for block in (rb.D, rb.G, rb.E, rb.GL2, rb.L):
        block.flags.writeable = False
    return rb
