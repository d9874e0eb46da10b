"""Lagrange finite elements on (0,1) and (0,1)^2 with homogeneous Dirichlet data.

1D spaces use continuous piecewise polynomials of degree p in {1,2,3} on a
uniform mesh of n elements, boundary DOFs eliminated.  The 2D space on the
unit square is the tensor product of the 1D space with itself.  A space
keeps only the 1D mass and stiffness matrices (M, K) of the line; every
spatial operation works through them and the M-orthonormal eigenbasis of
(K, M) computed once on the line (spectral).  The dense 2D matrices

    M2 = kron(M, M),    K2 = kron(K, M) + kron(M, K)

are formed only on first access, by the reference solvers.

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
        self._tables = {}
        self._mass_cho = None
        self._spectral = None

    @classmethod
    def from_matrices(cls, mass, stiffness):
        """Abstract space given directly by its matrices (no mesh attached).

        Used for checks on hand-written matrices, such as one spatial mode;
        mesh-based operations such as load_vector are unavailable on the
        result.
        """
        mass = np.atleast_2d(np.asarray(mass, dtype=float))
        stiffness = np.atleast_2d(np.asarray(stiffness, dtype=float))
        if mass.shape != stiffness.shape or mass.shape[0] != mass.shape[1]:
            raise ValueError("mass and stiffness must be square and of equal shape")
        return cls(0, None, None, mass, stiffness)

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

        x, w: global quadrature points/weights on (0,1); B, D: values and
        x-derivatives of the interior basis functions there, shape (dof, npts).
        """
        if self.n is None:
            raise ValueError("no mesh attached to this space")
        if nq not in self._tables:
            self._tables[nq] = _build_line_tables(self.n, self.degree, nq)
        return self._tables[nq]

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


def _build_line_tables(n, p, nq):
    rule = gauss_rule(nq)
    h = 1.0 / n
    # physical points and weights, element-major
    x = (np.arange(n)[:, None] + rule.points[None, :]).ravel() * h
    w = np.tile(rule.weights * h, n)
    ref_nodes = np.arange(p + 1) / p
    coeff = lagrange_coefficient_matrix(ref_nodes)  # (p+1, p+1), column j = basis j
    powers = np.vander(rule.points, p + 1, increasing=True)
    vals = powers @ coeff                            # (nq, p+1)
    dcoef = np.zeros_like(coeff)
    for j in range(p + 1):
        der = np.polynomial.polynomial.polyder(coeff[:, j])
        dcoef[: der.size, j] = der
    dvals = (powers @ dcoef) / h                     # d/dx, (nq, p+1)
    dof = n * p - 1
    B = np.zeros((dof, n * nq))
    D = np.zeros((dof, n * nq))
    for e in range(n):
        cols = slice(e * nq, (e + 1) * nq)
        for r in range(p + 1):
            g = e * p + r
            if 1 <= g <= dof:
                B[g - 1, cols] += vals[:, r]
                D[g - 1, cols] += dvals[:, r]
    return x, w, B, D


def assemble(dimension, n, p):
    """Build the FemSpace for the given mesh resolution and degree."""
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2, got %r" % (dimension,))
    if p not in (1, 2, 3):
        raise ValueError("polynomial degree must be 1, 2 or 3, got %r" % (p,))
    if n < 2:
        raise ValueError("need at least 2 elements per side, got %r" % (n,))
    x, w, B, D = _build_line_tables(n, p, p + 1)  # exact for the degree-2p integrands
    M = (B * w) @ B.T
    K = (D * w) @ D.T
    M = 0.5 * (M + M.T)
    K = 0.5 * (K + K.T)
    return FemSpace(dimension, n, p, M, K)


def load_vector(space, g, nq=None, t=None):
    """Vector of inner products (g, phi_a) by element-wise Gauss quadrature.

    1D: g(x) vectorized over arrays.  2D: g(x, y) with broadcasting
    (evaluated on the tensor quadrature grid).  Given an array of times t,
    g takes t as its last argument, broadcasting over a trailing time axis,
    and the result has shape (dof, len(t)): one load vector per time.
    """
    if nq is None:
        nq = space.degree + 2
    x, w, B, _ = space.line_tables(nq)
    grid = (x,) if space.dimension == 1 else (x[:, None], x[None, :])
    shape = (x.size,) * space.dimension
    if t is None:
        vals = g(*grid)
    else:
        t = np.asarray(t, dtype=float)
        vals = g(*(c[..., None] for c in grid), t)
        shape += t.shape
    out = np.broadcast_to(np.asarray(vals, dtype=float), shape)
    Bw = B * w
    for axis in range(space.dimension):
        out = np.moveaxis(np.tensordot(Bw, out, axes=(1, axis)), 0, axis)
    return out.reshape((space.dof_count,) + shape[space.dimension:])


def l2_project(space, g, nq=None):
    """Coefficients of the L2-orthogonal projection of g onto the space:
    M^-1 load = V V^T load."""
    dec = spectral(space)
    return dec.coefficients(dec.modal_loads(load_vector(space, g, nq=nq)))


def spectral(space):
    """Eigendecomposition of (K, M), solved once on the line and cached on the space."""
    if space._spectral is None:
        vals, vecs = scipy.linalg.eigh(space.line_stiffness, space.line_mass)
        space._spectral = SpectralDecomposition(space.dimension, vals, vecs, space.line_mass)
    return space._spectral
