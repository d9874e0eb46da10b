"""Dense reference tables shared by the tests.

dense_line_tables builds the basis tables of the 1D factor mesh as dense
(dof, n*nq) matrices, one column per quadrature point, by looping over the
elements.  The package contracts the element-local (nq, p+1) tables
instead; these are the oracle for that contraction.

quadrature_reference_blocks integrates the temporal couplings of
timegrid.ReferenceBlocks by Gauss quadrature from the Lagrange product
formula, the oracle for their closed form in Legendre coefficients.
"""

import numpy as np

from stheat.timegrid import gauss_rule, lagrange_coefficient_matrix, lobatto_points


def dense_line_tables(n, p, nq):
    """(x, w, B, D): global quadrature points and weights on (0,1), and the
    values and x-derivatives of the interior basis functions there, shape
    (dof, n*nq) with dof = n*p - 1."""
    rule = gauss_rule(nq)
    h = 1.0 / n
    x = (np.arange(n)[:, None] + rule.points[None, :]).ravel() * h
    w = np.tile(rule.weights * h, n)
    coeff = lagrange_coefficient_matrix(np.arange(p + 1) / p)  # column j = basis j
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


def quadrature_reference_blocks(q):
    """(D, G, E, GL2, L) of ReferenceBlocks(q), by (q+3)-point Gauss quadrature.

    The test functions l_j at the q+2 Gauss-Lobatto points are evaluated by
    the product formula l_j = prod_{i != j} (tau - x_i) / (x_j - x_i) and
    their derivatives as the sum over k != j of the same product with
    factor k replaced by 1 / (x_j - x_k); the shifted Legendre P_r come from
    Bonnet's recurrence.  No monomial or Legendre coefficients are formed.
    """
    x = lobatto_points(q + 2)
    rule = gauss_rule(q + 3)
    tau, w = rule.points, rule.weights
    val = np.empty((q + 2, tau.size))
    der = np.zeros((q + 2, tau.size))
    for j in range(q + 2):
        others = [i for i in range(q + 2) if i != j]
        factors = [(tau - x[i]) / (x[j] - x[i]) for i in others]
        val[j] = np.prod(factors, axis=0)
        for k, i in enumerate(others):
            der[j] += np.prod(factors[:k] + factors[k + 1:], axis=0) / (x[j] - x[i])
    s = 2.0 * tau - 1.0
    P = [np.ones_like(s), s]
    for n in range(1, q + 1):
        P.append(((2 * n + 1) * s * P[n] - n * P[n - 1]) / (n + 1))
    P = np.array(P)
    return ((der * w) @ P[: q + 1].T, (val * w) @ P[: q + 1].T, (der * w) @ der.T,
            (val * w) @ val.T, ((val * w) @ P.T) * (2.0 * np.arange(q + 2) + 1.0))
