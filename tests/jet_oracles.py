"""Jet-level oracles and readers for the tests.

The oracles are reference algorithms over nested lists of scalar jets, or
closed forms in the connection's derivatives.  They use only ``TaylorJet``
arithmetic and ``evaluate_deep``, so they serve the tests as independent
checks of the array kernels the library runs on stacked coefficient arrays
and of the degree recursion behind ``exp_map_jets`` at rest.  The readers
take single partials and derivative blocks out of the library's jets.
"""

from itertools import permutations
from types import SimpleNamespace

import numpy as np

from finslerkit.bundle import bundle_point
from finslerkit.dynamics import exp_map_jets
from finslerkit.errors import NearDegenerateMetric
from finslerkit.jets import JetSpace, TaylorJet, eval_taylor


def jet_partial(jet, alpha) -> float:
    """True mixed partial of ``jet`` for exponent tuple ``alpha`` (its Taylor
    coefficient times alpha!)."""
    i = jet.space.index_of[tuple(alpha)]
    return float(jet.c[i] * jet.space.factorials[i])


def horizontal_derivative(conn, field, point) -> np.ndarray:
    """delta_a f = d_a f - N^b_a d/dy^b f for a scalar bundle field."""
    n = conn.dimension
    jet = eval_taylor(field, point, 1)
    N = conn.coefficients(point)
    return jet.partials(range(n)) - N.T @ jet.partials(range(n, 2 * n))


def rest_blocks(conn, base, v):
    """EXP's derivative blocks at (0, v), read from ``exp_map_jets`` at rest.

    First-derivative blocks are (n, n); ``d2*_duu`` are (n, b, c) and
    ``d3x_duuu`` is (n, b, c, d); ``d2y_duv[q, b, c]`` is d^2 y^q / du^b dv^c.
    """
    n = conn.dimension
    # seeds (dv, du); no block is second order in v, so v's degree is capped at 1
    space = JetSpace.get(2 * n, 3, n, 1)
    x, y = exp_map_jets(conn, base, np.zeros(n), v, space, u_seed=n, v_seed=0)
    us, vs = range(n, 2 * n), range(n)

    def block(rows, *axes):
        return np.array([TaylorJet(space, space.order, c).partials(*axes) for c in rows])

    return SimpleNamespace(
        dx_du=block(x, us), dy_du=block(y, us), dx_dv=block(x, vs), dy_dv=block(y, vs),
        d2x_duu=block(x, us, us), d2y_duu=block(y, us, us),
        d3x_duuu=block(x, us, us, us), d2y_duv=block(y, us, vs),
    )


def _sym(t):
    """Symmetrize a tensor over every slot after the first."""
    perms = list(permutations(range(1, t.ndim)))
    return sum(np.transpose(t, (0,) + p) for p in perms) / len(perms)


def closed_form_blocks(conn, base, v):
    """EXP's second and third u-derivative blocks and its du dv block at
    (0, v) in closed form, from one deep evaluation of the connection; they
    hold for any connection, fiber-symmetric or not.  Layout as in
    :func:`rest_blocks`."""
    deep = conn.evaluate_deep(bundle_point(np.asarray(base, float), np.asarray(v, float)))
    dN_y = deep.dN_y
    # x'''^q = raw[q, b, c, d] u^b u^c u^d: x'' = -dN_y[q, b, c] u^b u^c
    # differentiated along the flow, with u' = x'' in each of its two slots
    raw = (
        -deep.delta_dN
        + np.einsum("qrc,rbd->qbcd", dN_y, dN_y)
        + np.einsum("qbr,rcd->qbcd", dN_y, dN_y)
    )
    return SimpleNamespace(
        d2x_duu=-_sym(dN_y),
        d2y_duu=_sym(-deep.delta_N + np.einsum("qa,abc->qbc", deep.N, dN_y)),
        d3x_duuu=_sym(raw),
        d2y_duv=-dN_y,
    )


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
