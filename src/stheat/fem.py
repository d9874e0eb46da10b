"""Lagrange finite elements on (0,1) and (0,1)^2 with homogeneous Dirichlet data.

1D spaces use continuous piecewise polynomials of degree p in {1,2,3} on a
uniform mesh of n elements, boundary DOFs eliminated.  The 2D space on the
unit square is the tensor product of the 1D space with itself.  A space
keeps only the 1D mass and stiffness matrices (M, K) of the line; every
spatial operation works through them and the M-orthonormal eigenbasis of
(K, M) that the space solves once on the line with numpy's LAPACK: numpy and
scipy each load their own OpenBLAS, whose thread pools compete for the cores
when one process calls both, so no command imports scipy; only the test
references do.  Space-time solutions stay in that eigenbasis
(stheat.solver).  Only the tests form the dense matrices of a space.

Spatial quadrature is element-local: local degree r of element e is line
node e*p + r, so loads (_scatter) and point values (gather) contract each
element with the (nq, p+1) tables of the reference element (element_tables),
one axis at a time (sum factorization, for any number of axes: rotation), at
a cost per time linear in the DOF count.  Only assemble forms dense (dof,
n*nq) tables, which keeps the rounding of M and K.

Coefficient vectors in 2D are flattened row-major: entry i*d + j multiplies
phi_i(xi) * phi_j(eta) where d is the 1D DOF count.
"""

import functools

import numpy as np

from .timegrid import gauss_rule, lagrange_coefficient_matrix


class FemSpace:
    """Assembled finite element space and its eigenbasis; immutable once built.

    line_mass and line_stiffness, the only matrices kept, are those of the line,
    in 1D the space's own, also for an abstract space (dimension 1, n and degree None).

    The eigenbasis is the M-orthonormal eigenpairs of (K, M): K V = M V diag(lam),
    V^T M V = I, solved on the line on first use.  eigenvectors is the matrix V of
    the line.  With several axes the eigenvectors are products of its columns,
    V[:, i](xi) V[:, j](eta) in 2D with eigenvalue lam_i + lam_j, indexed i*d + j
    like the coefficients, and never formed.  The solution is kept in modal
    coordinates a = V^T M u, a load vector f enters as V^T f, and values in space
    need u = V a; both maps apply V to each axis as one 2-D GEMM over all leading
    rows on the last axis, which then moves to the first spatial one (V^T X V in 2D).
    """

    def __init__(self, dimension, n, degree, line_mass, line_stiffness):
        self.dimension = dimension
        self.n = n
        self.degree = degree
        self.line_mass = line_mass
        self.line_stiffness = line_stiffness
        self.dof_count = line_mass.shape[0] ** dimension
        self._stack = (-1,) + line_mass.shape[:1] * dimension
        self._rotate = rotation(1, dimension)

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
        functions of one element at its nq points, shape (nq, p+1); cached
        per (n, p, nq), so the arrays are shared and read-only."""
        if self.n is None:
            raise ValueError("no mesh attached to this space")
        return _line_tables(self.n, self.degree, nq)

    def grid_size(self, nq):
        """Points of the spatial quadrature grid of line_tables(nq)."""
        return (self.n * nq) ** self.dimension

    # -- eigenbasis -------------------------------------------------------

    @functools.cached_property
    def _eigenpairs(self):
        # With M = L L^T, the pencil reduces to the symmetric C = L^-1 K L^-T,
        # whose eigenvectors Y give V = L^-T Y.  numpy's Cholesky, inverse and
        # eigh keep the run on numpy's OpenBLAS alone (module docstring); the
        # eigenvalues agree with scipy.linalg.eigh(K, M) to about 1e-12 relative.
        Linv = np.linalg.inv(np.linalg.cholesky(self.line_mass))
        C = Linv @ self.line_stiffness @ Linv.T
        line, Y = np.linalg.eigh(0.5 * (C + C.T))
        eigenvalues = line
        for _ in range(self.dimension - 1):
            eigenvalues = np.add.outer(eigenvalues, line).ravel()
        return eigenvalues, Linv.T @ Y

    @property
    def eigenvalues(self):
        """Generalized eigenvalues of (K, M) of the space, lam_i + lam_j in 2D."""
        return self._eigenpairs[0]

    @property
    def eigenvectors(self):
        """The M-orthonormal eigenvectors V of the line's (K, M)."""
        return self._eigenpairs[1]

    def _apply(self, X, P):
        shape = X.shape
        for _ in range(self.dimension):   # dimension rotations restore the axis order
            X = (X.reshape(-1, P.shape[0]) @ P).reshape(self._stack).transpose(self._rotate)
        return X.reshape(shape)

    def modal_loads(self, f):
        """V^T f for load vectors f."""
        return self._apply(f, self.eigenvectors)

    def coefficients(self, a):
        """V a: the coefficient vectors of modal coordinates a."""
        return self._apply(a, self.eigenvectors.T)

    def __repr__(self):
        return "FemSpace(dim=%r, n=%r, p=%r, dof=%d)" % (
            self.dimension, self.n, self.degree, self.dof_count)


@functools.lru_cache(maxsize=None)
def rotation(lead, dim):
    """Axes of the transpose that moves the last of dim spatial axes after lead
    leading ones to the first spatial place; dim of them restore the order."""
    return tuple(range(lead)) + (lead + dim - 1,) + tuple(range(lead, lead + dim - 1))


@functools.lru_cache(maxsize=None)
def element_tables(p, nq):
    """Values and d/dxi of the p+1 Lagrange basis functions on [0,1]
    (equispaced nodes) at the nq Gauss points, (nq, p+1) each; built once
    per (p, nq), so the arrays are shared and read-only."""
    coeff = lagrange_coefficient_matrix(np.arange(p + 1) / p)  # column j = basis j
    powers = np.vander(gauss_rule(nq)[0], p + 1, increasing=True)
    dcoef = np.zeros_like(coeff)
    for j in range(p + 1):
        der = np.polynomial.polynomial.polyder(coeff[:, j])
        dcoef[: der.size, j] = der
    vals, dvals = powers @ coeff, powers @ dcoef
    vals.flags.writeable = dvals.flags.writeable = False
    return vals, dvals


@functools.lru_cache(maxsize=None)
def _line_tables(n, p, nq):
    points, weights = gauss_rule(nq)
    h = 1.0 / n
    x = (np.arange(n)[:, None] + points[None, :]).ravel() * h
    w = np.tile(weights * h, n)
    vals, dvals = element_tables(p, nq)
    dvals = dvals / h
    x.flags.writeable = w.flags.writeable = dvals.flags.writeable = False
    return x, w, vals, dvals


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
    M, K = (B * w) @ B.T, (D * w) @ D.T
    for A in (M, K):   # symmetrized in place: one L^2 temporary at a time (cli.level_bytes)
        A += A.T
        A *= 0.5
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
    del nodes   # only the window is held beside the values
    return (win.T @ table.T).reshape(lead + (n * nq,))


def load_vector(space, g, nq=None, t=None):
    """Vector of inner products (g, phi_a) by element-wise Gauss quadrature.

    1D: g(x) vectorized over arrays, 2D: g(x, y) and so on, with broadcasting
    (evaluated on the tensor quadrature grid).  Given an array of times t,
    g takes t as its last argument, broadcasting over leading time axes,
    and the result has shape t.shape + (dof,): one load vector per time.
    """
    if nq is None:
        nq = space.degree + 2
    dim = space.dimension
    x, w, B, _ = space.line_tables(nq)
    args = np.ix_(*(x,) * dim)
    lead = ()
    if t is not None:
        t = np.asarray(t, dtype=float)
        lead = t.shape
        args += (t.reshape(lead + (1,) * dim),)
    Bw = B * w[:nq, None]
    out = np.broadcast_to(np.asarray(g(*args), dtype=float), lead + (x.size,) * dim)
    for _ in range(dim):
        # sum the last axis and move it to the front; g's values go once the first is summed
        out = _scatter(Bw, out).transpose(rotation(len(lead), dim))
    # one contiguous row per time for the callers' products; _scatter's slice is not
    return np.ascontiguousarray(out.reshape(lead + (space.dof_count,)))

