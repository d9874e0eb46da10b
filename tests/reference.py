"""Dense reference tables shared by the tests.

dense_line_tables builds the basis tables of the 1D factor mesh as dense
(dof, n*nq) matrices, one column per quadrature point, by looping over the
elements.  The package contracts the element-local (nq, p+1) tables
instead; these are the oracle for that contraction.
"""

import numpy as np

from stheat.timegrid import gauss_rule, lagrange_coefficient_matrix


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
