"""Jet-level oracles: reference algorithms over nested lists of scalar jets.

They use only ``TaylorJet`` arithmetic, so they serve the tests as independent
checks of the array kernels the library runs on stacked coefficient arrays.
"""

import numpy as np

from finslerkit.errors import NearDegenerateMetric


def jet_solve(matrix, rhs):
    """Solve M p = r by Gaussian elimination over jets, pivoting on values.

    ``matrix`` is an n x n nested list of jets, ``rhs`` a length-n list; the
    returned list holds jets of the common validity order.
    """
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    inv = [None] * n  # pivot reciprocals; row k is final after step k
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(aug[r][k].value))
        if abs(aug[pivot_row][k].value) < 1e-300:
            raise NearDegenerateMetric("zero pivot in jet-valued linear solve")
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        inv[k] = aug[k][k].reciprocal()
        for r in range(k + 1, n):
            if np.all(aug[r][k].c == 0.0):
                continue
            f = aug[r][k] * inv[k]
            for c in range(k + 1, n + 1):
                aug[r][c] = aug[r][c] - f * aug[k][c]
    out = [None] * n
    for k in range(n - 1, -1, -1):
        acc = aug[k][n]
        for c in range(k + 1, n):
            acc = acc - aug[k][c] * out[c]
        out[k] = acc * inv[k]
    return out


def jet_level_n(L, y, order):
    """N^a_b's jets (valid to ``order``) from L's jet at (x, y) by jet
    arithmetic alone: derivatives by ``TaylorJet.deriv``, the bracket by jet
    products and the spray by :func:`jet_solve`."""
    n = len(y)
    ys = [L.space.variable(n + i, y[i]) for i in range(n)]
    dL_x = [L.deriv(q) for q in range(n)]
    g = [[0.5 * L.deriv(n + a).deriv(n + b) for b in range(n)] for a in range(n)]
    rhs = []
    for q in range(n):
        acc = -1.0 * dL_x[q]
        for k in range(n):
            acc = acc + ys[k] * dL_x[k].deriv(n + q)
        rhs.append(acc)
    spray = jet_solve(g, rhs)
    return [[0.25 * spray[a].deriv(n + b) for b in range(n)] for a in range(n)]
