"""Jet-level oracles and readers for the tests.

The oracles are reference algorithms over nested lists of scalar jets, or
closed forms in the connection's derivatives.  :func:`family_walk` is L as
the library evaluated it before its compiled tape: one closure per family
walking the parsed coefficient trees over any scalars, so over TaylorJets it
is the oracle the tape must match bit for bit.  They use only ``TaylorJet``
arithmetic and ``evaluate_deep``, so they serve the tests as independent
checks of the array kernels the library runs on stacked coefficient arrays
and of the degree recursion behind ``exp_map_jets`` at rest.  The readers
take single partials and derivative blocks out of the library's jets.
:func:`loop_tables` builds a space's tables the way ``JetSpace`` built them
before its slot codes, one Python loop over the pairs and slots, as the
reference the array build must reproduce.
"""

import math
from itertools import combinations_with_replacement, permutations
from types import SimpleNamespace

import numpy as np

from finslerkit import jets
from finslerkit.bundle import bundle_point
from finslerkit.dynamics import exp_map_jets
from finslerkit.errors import NearDegenerateMetric, OrderUnsupported
from finslerkit.expressions import coordinate_env, evaluate, parse
from finslerkit.jets import JetSpace, TaylorJet, eval_taylor


def unit_index(nvars: int, *slots: int) -> tuple:
    """Exponent tuple over ``nvars`` variables with one count per listed slot.

    ``unit_index(4, 1)`` is (0, 1, 0, 0); repeats add up, so
    ``unit_index(4, 1, 3, 3)`` is (0, 1, 0, 2).
    """
    alpha = [0] * nvars
    for v in slots:
        alpha[v] += 1
    return tuple(alpha)


def multi_indices(space) -> list:
    """The exponent tuples of ``space``'s slots, in slot order."""
    return [tuple(alpha) for alpha in space.exponents.tolist()]


def slot(space, alpha) -> int:
    """The slot of exponent tuple ``alpha``; KeyError where ``space`` lacks it."""
    i = int(space.slots(alpha))
    if i < 0:
        raise KeyError(tuple(alpha))
    return i


def jet_partial(jet, alpha) -> float:
    """True mixed partial of ``jet`` for exponent tuple ``alpha`` (its Taylor
    coefficient times alpha!)."""
    i = slot(jet.space, alpha)
    return float(jet.c[i] * jet.space.factorials[i])


def restrict(jet, order):
    """``jet`` in the order-``order`` space of its own cap: its first slots."""
    space = jet.space
    low = JetSpace.get(space.nvars, order, space.capped, space.cap)
    return TaylorJet(low, jet.c[: low.size], jet.support)


def deriv(jet, v):
    """Partial derivative of ``jet`` in variable ``v``, a jet in the space one
    order lower."""
    space = jet.space
    if space.order < 1:
        raise OrderUnsupported("cannot differentiate an order-0 jet")
    return restrict(TaylorJet(space, space.derivative(jet.c, v), jet.support), space.order - 1)


def loop_tables(nvars, order, capped=0, cap=None):
    """The tables of ``JetSpace(nvars, order, capped, cap)`` built by loops
    over tuples: the multi-indices sorted by (degree, lex), the pair table
    i-major within each output degree (``ends[d]``: the number of pairs of
    output degree <= d), one shifted lookup per slot and
    variable for the derivatives, and the first variable's parent for the
    monomial recursion."""
    cap = order if cap is None else cap
    indices = []
    for deg in range(order + 1):
        block = {
            unit_index(nvars, *combo)
            for combo in combinations_with_replacement(range(nvars), deg)
        }
        indices.extend(a for a in sorted(block) if sum(a[:capped]) <= cap)
    index_of = {alpha: i for i, alpha in enumerate(indices)}
    size = len(indices)
    degrees = np.array([sum(a) for a in indices], dtype=np.int64)

    by_degree = {d: [] for d in range(order + 1)}
    for i, alpha in enumerate(indices):
        by_degree[sum(alpha)].append(i)
    ia, ib, ic, ends = [], [], [], []
    for d in range(order + 1):
        for da in range(d + 1):
            for i in by_degree[da]:
                for j in by_degree[d - da]:
                    gamma = tuple(a + b for a, b in zip(indices[i], indices[j]))
                    k = index_of.get(gamma)
                    if k is not None:
                        ia.append(i)
                        ib.append(j)
                        ic.append(k)
        ends.append(len(ia))

    deriv = []
    for v in range(nvars):
        src, dst, fac = [], [], []
        for j, beta in enumerate(indices):
            k = index_of.get(tuple(b + (w == v) for w, b in enumerate(beta)))
            if k is not None:
                src.append(k)
                dst.append(j)
                fac.append(beta[v] + 1.0)
        deriv.append((np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), np.array(fac)))

    mono_var = np.zeros(size, dtype=np.intp)
    mono_parent = np.zeros(size, dtype=np.intp)
    for i, alpha in enumerate(indices[1:], start=1):
        v = next(k for k, a in enumerate(alpha) if a)
        mono_var[i] = v
        mono_parent[i] = index_of[tuple(a - (k == v) for k, a in enumerate(alpha))]

    return SimpleNamespace(
        indices=indices,
        size=size,
        degrees=degrees,
        exponents=np.array(indices, dtype=np.int64).reshape(size, nvars),
        factorials=np.array([float(np.prod([math.factorial(k) for k in a])) for a in indices]),
        _mul_ia=np.array(ia, dtype=np.intp),
        _mul_ib=np.array(ib, dtype=np.intp),
        _mul_ic=np.array(ic, dtype=np.intp),
        ends=ends,
        _deriv=deriv,
        _mono_var=mono_var,
        _mono_parent=mono_parent,
    )


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
        return np.array([TaylorJet(space, c).partials(*axes) for c in rows])

    return SimpleNamespace(
        dx_du=block(x, us), dy_du=block(y, us), dx_dv=block(x, vs), dy_dv=block(y, vs),
        d2x_duu=block(x, us, us), d2y_duu=block(y, us, us),
        d3x_duuu=block(x, us, us, us), d2y_duv=block(y, us, vs),
    )


class KernelCalls(list):
    """The order of each kernel call, in call order; ``lanes`` holds the
    number of states each call took (1 for a single state)."""

    def __init__(self):
        super().__init__()
        self.lanes = []

    def __delitem__(self, index):
        super().__delitem__(index)
        del self.lanes[index]

    def since(self, mark: int) -> list:
        """(order, lanes) of every call from the ``mark``-th on."""
        return list(zip(self[mark:], self.lanes[mark:]))


def count_kernel_calls(conn) -> KernelCalls:
    """From now on, record the order and the lane count of each call of one
    of ``conn``'s kernels, the one evaluation of N's jet: ``n_jets`` (and so
    ``coefficients``, ``evaluate`` and ``evaluate_deep``) and every flow
    stage call one, and a solution's dense stages and a residual probe call
    one on a stack of states.  A flow field takes its kernel when it is
    built, so count before building the field."""
    calls = KernelCalls()
    kernel = conn.kernel

    class Counted:
        def __init__(self, inner):
            self.inner = inner

        def __call__(self, xy):
            calls.append(self.inner.order)
            calls.lanes.append(len(xy) if xy.ndim > 1 else 1)
            return self.inner(xy)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    conn.kernel = lambda order: Counted(kernel(order))
    return calls


def second_derivatives(ev):
    """The second derivatives of N an evaluation of order >= 2 holds, read
    from its jet as [a, b, c, d] arrays: ``ddN_xy`` is d/dx^d d/dy^c N^a_b,
    ``ddN_yy`` is d/dy^d d/dy^c N^a_b and ``delta_dN`` is delta_d of
    d/dy^c N^a_b."""
    n = ev.n
    space = JetSpace.get(2 * n, ev.order)
    fibers = range(n, 2 * n)

    def partials(*axes):
        idx, factorials = space.partial_slots(*axes)
        return ev.jet[:, :, idx] * factorials

    xy, yy = partials(fibers, range(n)), partials(fibers, fibers)
    return SimpleNamespace(
        ddN_xy=xy, ddN_yy=yy, delta_dN=xy - np.einsum("md,abcm->abcd", ev.N, yy)
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
        -second_derivatives(deep).delta_dN
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

    ``matrix`` is an n x n nested list of jets, ``rhs`` a length-n list, all
    in one space; the returned list holds jets in that space.
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


def jet_level_n(L, y):
    """N^a_b's jets from L's jet at (x, y) by jet arithmetic alone:
    derivatives by :func:`deriv`, the bracket by jet products and the spray by
    :func:`jet_solve`.  They lie three orders below L's space."""
    n = len(y)
    low = L.space.order - 2  # the order of g, the bracket and the spray
    ys = [restrict(L.space.variable(n + i, y[i]), low) for i in range(n)]
    dL_x = [deriv(L, q) for q in range(n)]
    g = [[0.5 * deriv(deriv(L, n + a), n + b) for b in range(n)] for a in range(n)]
    rhs = []
    for q in range(n):
        acc = -1.0 * restrict(dL_x[q], low)
        for k in range(n):
            acc = acc + ys[k] * deriv(dL_x[k], n + q)
        rhs.append(acc)
    spray = jet_solve(g, rhs)
    return [[0.25 * deriv(spray[a], n + b) for b in range(n)] for a in range(n)]


def family_walk(model):
    """L of a model document as a python callable ``f(xs, ys)`` over floats or
    jets: the family's own sum, root and power around ``evaluate`` walks of
    its parsed coefficient trees."""
    n, params = model.dimension, model.parameters

    def trees(rows):
        return [[parse(str(entry)) for entry in row] for row in rows]

    if model.family == "quadratic":
        metric = trees(params["metric"])
        terms = [
            (a, b, metric[a][b]) for a in range(n) for b in range(n)
            if metric[a][b] != parse("0")
        ]

        def quadratic(x, y):
            env = coordinate_env(n, x, y)
            total = 0.0
            for a, b, tree in terms:
                total = total + evaluate(tree, env) * y[a] * y[b]
            return total

        return quadratic
    if model.family == "randers":
        metric, (one_form,) = trees(params["metric"]), trees([params["one_form"]])
        exponent = int(params.get("exponent", 2))

        def randers(x, y):
            env = coordinate_env(n, x, y)
            quad = 0.0
            for a in range(n):
                for b in range(n):
                    quad = quad + evaluate(metric[a][b], env) * y[a] * y[b]
            lin = 0.0
            for a in range(n):
                lin = lin + evaluate(one_form[a], env) * y[a]
            return (jets.sqrt(quad) + lin) ** exponent

        return randers
    tree = parse(str(params["form" if model.family == "pth_root" else "expression"]))
    return lambda x, y: evaluate(tree, coordinate_env(n, x, y))


def walk_taylor(model, point, order, x_order=None):
    """L's jet at ``point`` from :func:`family_walk` over TaylorJets."""
    return eval_taylor(family_walk(model), point, order, x_order)
