"""Lagrange finite elements on (0,1) and (0,1)^2 with homogeneous Dirichlet data.

1D spaces use continuous piecewise polynomials of degree p in {1,2,3} on a
uniform mesh of n elements, boundary DOFs eliminated.  The 2D space on the
unit square is the tensor product of the 1D space with itself.  A space
keeps only the 1D mass and stiffness matrices (M, K) of the line; every
spatial operation works through them and the M-orthonormal eigenbasis of
(K, M) computed once on the line (spectral).  The dense 2D matrices

    M2 = kron(M, M),    K2 = kron(K, M) + kron(M, K)

are formed only on first access, by the reference solvers.

Spatial quadrature is element-local: local degree r of element e is line
node e*p + r, so loads (_scatter) and point values (gather) contract each
element with the (nq, p+1) tables of the reference element (element_tables),
one axis at a time in 2D (sum factorization), at a cost per time linear in
the DOF count.  Only assemble forms dense (dof, n*nq) tables, which keeps
the rounding of M and K.

Coefficient vectors in 2D are flattened row-major: entry i*d + j multiplies
phi_i(xi) * phi_j(eta) where d is the 1D DOF count.
"""

import functools

import numpy as np
import scipy.linalg

from .timegrid import gauss_rule, lagrange_coefficient_matrix


class FemSpace:
    """Assembled finite element space; immutable once built.

    line_mass and line_stiffness are the 1D matrices of the line; for a 1D
    or abstract space they are the space's own matrices.
    """

    def __init__(self, dimension, n, degree, line_mass, line_stiffness):
        self.dimension = dimension
        self.n = n
        self.degree = degree
        self.line_mass = line_mass
        self.line_stiffness = line_stiffness
        self.dof_count = line_mass.shape[0] ** max(dimension, 1)
        self._mass_cho = None
        self._spectral = None

    @functools.cached_property
    def mass(self):
        """Dense mass matrix; in 2D kron(M, M), formed on first access."""
        M = self.line_mass
        return M if self.dimension < 2 else np.kron(M, M)

    @functools.cached_property
    def stiffness(self):
        """Dense stiffness matrix; in 2D kron(K, M) + kron(M, K), formed on first access."""
        M, K = self.line_mass, self.line_stiffness
        return K if self.dimension < 2 else np.kron(K, M) + np.kron(M, K)

    @property
    def h(self):
        """Mesh size 1/n."""
        if self.n is None:
            raise ValueError("abstract space has no mesh size")
        return 1.0 / self.n

    # -- quadrature tables ------------------------------------------------

    def line_tables(self, nq):
        """(x, w, B, D) for the 1D factor mesh with nq Gauss points per element.

        x, w: global quadrature points/weights on (0,1), element-major, shape
        (n*nq,); B, D: values and x-derivatives of the p+1 local basis
        functions of one element at its nq points, shape (nq, p+1).
        """
        if self.n is None:
            raise ValueError("no mesh attached to this space")
        return _line_tables(self.n, self.degree, nq)

    def grid_size(self, nq):
        """Points of the spatial quadrature grid of line_tables(nq); 1 without a mesh."""
        if self.n is None:
            return 1
        return (self.n * nq) ** self.dimension

    def mass_cho(self):
        """Cholesky factor of the dense mass matrix (reference solvers only)."""
        if self._mass_cho is None:
            self._mass_cho = scipy.linalg.cho_factor(self.mass)
        return self._mass_cho

    def __repr__(self):
        return "FemSpace(dim=%r, n=%r, p=%r, dof=%d)" % (
            self.dimension, self.n, self.degree, self.dof_count)


class SpectralDecomposition:
    """M-orthonormal eigenpairs of (K, M): K V = M V diag(lam), V^T M V = I.

    eigenvectors is the matrix V of the line.  In 2D the eigenvectors are the
    products V[:, i](xi) V[:, j](eta) with eigenvalues lam_i + lam_j, indexed
    i*d + j like the coefficients; they are applied as V^T X V and never
    formed.  Modal coordinates are V^T f for a load vector f and V^T M u for
    a coefficient vector u; both map arrays whose last axis is the DOF axis.
    """

    def __init__(self, dimension, line_eigenvalues, eigenvectors, line_mass):
        self.dimension = max(dimension, 1)
        self.eigenvectors = eigenvectors
        self._mass_vectors = line_mass @ eigenvectors
        if self.dimension == 2:
            line_eigenvalues = (line_eigenvalues[:, None] + line_eigenvalues[None, :]).ravel()
        self.eigenvalues = line_eigenvalues

    def _apply(self, X, P):
        if self.dimension == 1:
            return X @ P
        d = P.shape[0]
        lead = X.shape[:-1]
        return (P.T @ X.reshape(lead + (d, d)) @ P).reshape(lead + (d * d,))

    def modal_loads(self, f):
        """V^T f for load vectors f."""
        return self._apply(f, self.eigenvectors)

    def modal_coefficients(self, u):
        """V^T M u for coefficient vectors u."""
        return self._apply(u, self._mass_vectors)

    def coefficients(self, a):
        """V a: the coefficient vectors of modal coordinates a."""
        return self._apply(a, self.eigenvectors.T)


@functools.lru_cache(maxsize=None)
def element_tables(p, nq):
    """Values and d/dxi of the p+1 Lagrange basis functions on [0,1]
    (equispaced nodes) at the nq Gauss points, (nq, p+1) each; built once
    per (p, nq), so the arrays are shared and read-only."""
    coeff = lagrange_coefficient_matrix(np.arange(p + 1) / p)  # column j = basis j
    powers = np.vander(gauss_rule(nq).points, p + 1, increasing=True)
    dcoef = np.zeros_like(coeff)
    for j in range(p + 1):
        der = np.polynomial.polynomial.polyder(coeff[:, j])
        dcoef[: der.size, j] = der
    vals, dvals = powers @ coeff, powers @ dcoef
    vals.flags.writeable = dvals.flags.writeable = False
    return vals, dvals


def _line_tables(n, p, nq):
    rule = gauss_rule(nq)
    h = 1.0 / n
    x = (np.arange(n)[:, None] + rule.points[None, :]).ravel() * h
    w = np.tile(rule.weights * h, n)
    vals, dvals = element_tables(p, nq)
    return x, w, vals, dvals / h


def assemble(dimension, n, p):
    """Build the FemSpace for the given mesh resolution and degree."""
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2, got %r" % (dimension,))
    if p not in (1, 2, 3):
        raise ValueError("polynomial degree must be 1, 2 or 3, got %r" % (p,))
    if n < 2:
        raise ValueError("need at least 2 elements per side, got %r" % (n,))
    # M and K are products of the dense (dof, n*nq) basis tables, exact for
    # the degree-2p integrands; the element-local form would move them by an ulp.
    _, w, vals, dvals = _line_tables(n, p, p + 1)
    e = np.arange(n)
    B = np.zeros((n * p + 1, n, p + 1))
    D = np.zeros_like(B)
    for r in range(p + 1):
        B[e * p + r, e] = vals[:, r]
        D[e * p + r, e] = dvals[:, r]
    B = B[1:-1].reshape(n * p - 1, -1)
    D = D[1:-1].reshape(n * p - 1, -1)
    M = (B * w) @ B.T
    K = (D * w) @ D.T
    M = 0.5 * (M + M.T)
    K = 0.5 * (K + K.T)
    return FemSpace(dimension, n, p, M, K)


def _scatter(table, f):
    """Contract the last axis of f, the n*nq points of a line, element by
    element with the local table (nq, p+1) and sum into the n*p - 1 interior
    nodes.  The lines are laid end to end as one flat array of n*p nodes
    each: degrees r < p of element e fill node e*p + r, and degree p adds
    into the next node p places on, which for the last element is node 0
    of the next line (or a spare slot), dropped with the boundary."""
    nq, p = table.shape[0], table.shape[1] - 1
    lead, n = f.shape[:-1], f.shape[-1] // nq
    f = f.reshape(-1, nq)
    nodes = np.empty(f.shape[0] * p + 1)
    np.matmul(f, table[:, :p], out=nodes[:-1].reshape(-1, p))
    nodes[-1] = 0.0
    nodes[p::p] += f @ table[:, p]
    return nodes[:-1].reshape(lead + (n * p,))[..., 1:]


def gather(table, c):
    """Values at the n*nq points of a line from the interior-node
    coefficients on the last axis of c, the transpose of _scatter: nodes
    e*p .. e*p + p of element e times the local table (nq, p+1).  In the
    flat layout of _scatter node n*p of a line is node 0 of the next, zero
    like it, so the p+1 windows are strided slices of one array."""
    nq, p = table.shape[0], table.shape[1] - 1
    lead, n = c.shape[:-1], (c.shape[-1] + 1) // p
    rows = c.size // c.shape[-1] * n
    nodes = np.zeros(rows * p + 1)
    nodes[:-1].reshape(lead + (n * p,))[..., 1:] = c
    win = np.empty((p + 1, rows))
    for r in range(p + 1):
        win[r] = nodes[r:r + rows * p:p]
    return (win.T @ table.T).reshape(lead + (n * nq,))


def load_vector(space, g, nq=None, t=None):
    """Vector of inner products (g, phi_a) by element-wise Gauss quadrature.

    1D: g(x) vectorized over arrays.  2D: g(x, y) with broadcasting
    (evaluated on the tensor quadrature grid).  Given an array of times t,
    g takes t as its last argument, broadcasting over a leading time axis,
    and the result has shape (len(t), dof): one load vector per time.
    """
    if nq is None:
        nq = space.degree + 2
    x, w, B, _ = space.line_tables(nq)
    args = (x,) if space.dimension == 1 else (x[:, None], x[None, :])
    lead = ()
    if t is not None:
        t = np.asarray(t, dtype=float)
        lead = t.shape
        args += (t.reshape(lead + (1,) * space.dimension),)
    Bw = B * w[:nq, None]
    # no name keeps g's values: they are freed once the first axis is summed
    out = _scatter(Bw, np.broadcast_to(np.asarray(g(*args), dtype=float),
                                       lead + (x.size,) * space.dimension))
    if space.dimension == 2:
        out = _scatter(Bw, out.swapaxes(-1, -2)).swapaxes(-1, -2)
    # one contiguous row per time for the callers' products; _scatter's slice is not
    return np.ascontiguousarray(out.reshape(lead + (space.dof_count,)))


def spectral(space):
    """Eigendecomposition of (K, M), solved once on the line and cached on the space."""
    if space._spectral is None:
        vals, vecs = scipy.linalg.eigh(space.line_stiffness, space.line_mass)
        space._spectral = SpectralDecomposition(space.dimension, vals, vecs, space.line_mass)
    return space._spectral
