"""Lagrange finite elements on (0,1) and (0,1)^2 with homogeneous Dirichlet data.

1D spaces use continuous piecewise polynomials of degree p in {1,2,3} on a
uniform mesh of n elements, boundary DOFs eliminated.  The 2D space on the
unit square is the tensor product of the 1D space with itself, so its mass
and stiffness matrices are Kronecker combinations of the 1D ones:

    M2 = kron(M, M),    K2 = kron(K, M) + kron(M, K).

Coefficient vectors in 2D are flattened row-major: entry i*d + j multiplies
phi_i(xi) * phi_j(eta) where d is the 1D DOF count.  Dual-type norms are
realized spectrally through the generalized eigenproblem K phi = lambda M phi.
"""

import numpy as np
import scipy.linalg

from .timegrid import gauss_rule, lagrange_coefficient_matrix


class FemSpace:
    """Assembled finite element space; immutable once built."""

    def __init__(self, dimension, n, degree, mass, stiffness, line=None):
        self.dimension = dimension
        self.n = n
        self.degree = degree
        self.mass = mass
        self.stiffness = stiffness
        self.dof_count = mass.shape[0]
        self._line = line  # 1D factor space when dimension == 2
        self._tables = {}
        self._mass_cho = None
        self._stiffness_cho = None
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
        return cls(dimension=0, n=None, degree=None, mass=mass, stiffness=stiffness)

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
        line = self._line if self.dimension == 2 else self
        if line is None or line.dimension != 1:
            raise ValueError("no mesh attached to this space")
        if nq not in line._tables:
            line._tables[nq] = _build_line_tables(line.n, line.degree, nq)
        return line._tables[nq]

    def grid_size(self, nq):
        """Points of the spatial quadrature grid of line_tables(nq); 1 without a mesh."""
        if self.n is None:
            return 1
        return (self.n * nq) ** self.dimension

    # -- factorizations ----------------------------------------------------

    def mass_cho(self):
        if self._mass_cho is None:
            self._mass_cho = scipy.linalg.cho_factor(self.mass)
        return self._mass_cho

    def stiffness_cho(self):
        if self._stiffness_cho is None:
            self._stiffness_cho = scipy.linalg.cho_factor(self.stiffness)
        return self._stiffness_cho

    def __repr__(self):
        return "FemSpace(dim=%r, n=%r, p=%r, dof=%d)" % (
            self.dimension, self.n, self.degree, self.dof_count)


class SpectralDecomposition:
    """Generalized eigenpairs K phi = lambda M phi, M-orthonormal, ascending."""

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors


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
    line = FemSpace(1, n, p, M, K)
    if dimension == 1:
        return line
    M2 = np.kron(M, M)
    K2 = np.kron(K, M) + np.kron(M, K)
    return FemSpace(2, n, p, M2, K2, line=line)


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
    """Coefficients of the L2-orthogonal projection of g onto the space."""
    return scipy.linalg.cho_solve(space.mass_cho(), load_vector(space, g, nq=nq))


def spectral(space):
    """Full generalized eigendecomposition of (K, M), cached on the space."""
    if space._spectral is None:
        vals, vecs = scipy.linalg.eigh(space.stiffness, space.mass)
        space._spectral = SpectralDecomposition(vals, vecs)
    return space._spectral
