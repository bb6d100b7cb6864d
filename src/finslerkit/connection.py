"""Nonlinear connections on TM: canonical construction, curvature, transport.

The canonical (metric-compatible, torsion-free) nonlinear connection of a
fiber Lagrangian L is

    N^a_b = (1/4) d/dy^b [ g^{aq} ( y^p d^2L/dx^p dy^q  -  dL/dx^q ) ],

with g the L-metric.  All derivatives come from the Taylor-jet engine, so a
single jet evaluation of L at (x, y) yields N together with as many exact
x/y-derivatives of N as the jet order affords: order 3 + k of L gives N to
k-th derivative depth.  The inverse-metric contraction is performed by
Gaussian elimination directly over jets (value-pivoted), so no symbolic
inverse is ever formed.

Derived objects follow the usual conventions:

    horizontal basis   delta_a   = d_a - N^b_a d/dy^b
    curvature          R^a_bc    = delta_c N^a_b - delta_b N^a_c
    fiber coefficients D^a_bc    = d/dy^b N^a_c
    linear coefficients G^a_bc   = (1/2) g^{aq} (delta_b g_qc + delta_c g_qb
                                                 - delta_q g_bc)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import DEGENERACY_CONDITION_LIMIT, TangentBundlePoint, bundle_point
from .errors import NearDegenerateMetric, NonFiniteField
from .jets import JetSpace, TaylorJet, eval_taylor, unit_index
from .lagrangian import FinslerLagrangian


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


def _spray(model: FinslerLagrangian, point: TangentBundlePoint, order: int):
    """L-metric jets g, their values g0 and the spray jets g^{-1} rhs.

    The spray is valid to ``order + 1`` (N is its fiber derivative, valid to
    ``order``).  L is built with x-degree <= k + 1 for k = max(min(order, 1),
    order - 1), which keeps g exact on x-degree <= k + 1 and the spray (hence
    N) exact on x-degree <= k: every x-slot the callers read.  (Evaluations
    read x-degree <= min(order, 1), a Taylor-mode flow x-degree <= order - 1.)
    """
    n = model.dimension
    point.require_nonzero_direction()
    L = model.taylor(point, order + 3, x_order=max(min(order, 1), order - 1) + 1)
    ys = [L.space.variable(n + i, point.y[i]) for i in range(n)]

    dL_x = [L.deriv(p) for p in range(n)]
    g = [[0.5 * L.deriv(n + a).deriv(n + b) for b in range(n)] for a in range(n)]

    g0 = np.array([[g[a][b].value for b in range(n)] for a in range(n)])
    if not np.isfinite(g0).all():
        raise NonFiniteField("L-metric is not finite at the requested point")
    if np.linalg.cond(g0) > DEGENERACY_CONDITION_LIMIT:
        raise NearDegenerateMetric(
            f"L-metric condition number {np.linalg.cond(g0):.3e} at the "
            "connection evaluation point"
        )

    rhs = []
    for q in range(n):
        acc = -1.0 * dL_x[q]
        for p in range(n):
            acc = acc + ys[p] * dL_x[p].deriv(n + q)
        rhs.append(acc)
    return g, g0, jet_solve(g, rhs)


@dataclass
class ConnectionEval:
    """Connection coefficients and first derivatives at one bundle point.

    Index layout: ``N[a, b]`` has upper index first; derivative tensors put
    the differentiation index last, e.g. ``dN_y[a, b, c]`` is
    d/dy^c of N^a_b and ``delta_N[a, b, c]`` is delta_c N^a_b.
    ``R[a, b, c]`` is the curvature R^a_bc, antisymmetric in (b, c).
    """

    point: TangentBundlePoint
    N: np.ndarray
    dN_x: np.ndarray
    dN_y: np.ndarray
    delta_N: np.ndarray
    R: np.ndarray


@dataclass
class DeepConnectionEval(ConnectionEval):
    """Adds exact second derivatives of N (needed by flow Jacobians).

    ``ddN_xy[a, b, c, d]`` is d/dx^d of (d/dy^c N^a_b); ``ddN_yy[a, b, c, d]``
    is d/dy^d d/dy^c N^a_b; ``delta_dN[a, b, c, d]`` is
    delta_d (d/dy^c N^a_b).
    """

    ddN_xy: np.ndarray = None
    ddN_yy: np.ndarray = None
    delta_dN: np.ndarray = None
    # taylor[a, b, k, i]: Taylor coefficients at slot i of JetSpace.get(2n,
    # order) of N^a_b (k = 0) and of d/dy^c N^a_b (k = 1 + c), exact on the
    # x-degrees _spray names
    taylor: np.ndarray = None


class GeneralConnection:
    """A nonlinear connection, canonical (from a Lagrangian) or user-supplied.

    Explicit connections carry *declared* homogeneity/symmetry flags; the
    declared values gate chart constructions and can be spot-checked with
    :meth:`validate_flags`.
    """

    def __init__(
        self,
        dimension: int,
        lagrangian: FinslerLagrangian | None = None,
        explicit_fn=None,
        homogeneous: bool = False,
        symmetric: bool = False,
        label: str = "",
    ):
        if (lagrangian is None) == (explicit_fn is None):
            raise ValueError("provide exactly one of lagrangian or explicit_fn")
        self.dimension = dimension
        self.lagrangian = lagrangian
        self._explicit_fn = explicit_fn
        self.homogeneous = homogeneous
        self.symmetric = symmetric
        self.label = label or ("canonical" if lagrangian is not None else "explicit")
        self._eval_cache: dict = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def cartan(cls, lagrangian: FinslerLagrangian) -> "GeneralConnection":
        """Canonical connection of a homogeneous Lagrangian.

        The construction makes N positively 1-homogeneous and fiber-symmetric
        (d/dy^b N^a_c = d/dy^c N^a_b), so both flags are set.
        """
        return cls(
            lagrangian.dimension,
            lagrangian=lagrangian,
            homogeneous=True,
            symmetric=True,
        )

    @classmethod
    def explicit(
        cls, fn, dimension: int, homogeneous: bool = False, symmetric: bool = False, label: str = ""
    ) -> "GeneralConnection":
        """Wrap a callable ``fn(x_vars, y_vars) -> n x n nested list`` of scalars."""
        return cls(
            dimension,
            explicit_fn=fn,
            homogeneous=homogeneous,
            symmetric=symmetric,
            label=label,
        )

    # -- jet-level core ------------------------------------------------------

    def n_jets(self, point: TangentBundlePoint, order: int):
        """N^a_b as an n x n nested list of jets valid to ``order``.

        For a canonical connection the jets are exact on the slots of
        x-degree the callers of that order read; their higher x-slots are
        truncated (see :func:`_spray`).
        """
        n = self.dimension
        if self._explicit_fn is not None:
            space = JetSpace.get(2 * n, order)
            xs = [space.variable(i, point.x[i]) for i in range(n)]
            ys = [space.variable(n + i, point.y[i]) for i in range(n)]
            rows = self._explicit_fn(xs, ys)
            out = []
            for a in range(n):
                row = []
                for b in range(n):
                    entry = rows[a][b]
                    if not isinstance(entry, TaylorJet):
                        entry = space.constant(float(entry))
                    if not np.isfinite(entry.c).all():
                        raise NonFiniteField(f"explicit connection entry ({a},{b}) not finite")
                    row.append(entry)
                out.append(row)
            return out

        _, _, spray = _spray(self.lagrangian, point, order)
        njets = [[0.25 * spray[a].deriv(n + b) for b in range(n)] for a in range(n)]
        for a in range(n):
            for b in range(n):
                if not np.isfinite(njets[a][b].c).all():
                    raise NonFiniteField("connection coefficients are not finite")
        return njets

    # -- extraction ----------------------------------------------------------

    def coefficients(self, point: TangentBundlePoint) -> np.ndarray:
        """Connection coefficient matrix N^a_b (upper index first)."""
        njets = self.n_jets(point, 0)
        n = self.dimension
        return np.array([[njets[a][b].value for b in range(n)] for a in range(n)])

    def evaluate(self, point: TangentBundlePoint) -> ConnectionEval:
        """N with exact first x/y-derivatives, horizontal derivative, curvature."""
        return self._cached(point, 1)

    def evaluate_deep(self, point: TangentBundlePoint, order: int = 2) -> DeepConnectionEval:
        """Like :meth:`evaluate` plus exact second derivatives of N; an
        ``order`` above 2 carries N's jet (``taylor``) further for flows."""
        return self._cached(point, order)

    def _cached(self, point, order):
        # flows probing a stationary bundle point hammer the same argument;
        # a small memo makes those re-evaluations free.  Its hits are one flow
        # apart at most, and a deep entry holds N's jet (29 KB on quartic4d),
        # so it keeps few entries.
        key = (point.x.tobytes(), point.y.tobytes(), order)
        hit = self._eval_cache.get(key)
        if hit is None:
            if len(self._eval_cache) > 64:
                self._eval_cache.clear()
            hit = self._assemble(point, order)
            self._eval_cache[key] = hit
        return hit

    def _assemble(self, point, order: int):
        n = self.dimension
        njets = self.n_jets(point, order)
        # the slots of degree <= order lead the space of every N jet
        space = JetSpace.get(2 * n, order)
        taylor = np.array([[jet.c[: space.size] for jet in row] for row in njets])
        if order >= 2:  # flows compose N together with its fiber derivatives
            fiber = [space.derivative(taylor, n + c) for c in range(n)]
            stack = np.stack([taylor] + fiber, axis=2)
            taylor = stack[:, :, 0]

        def partials(*slot_lists):
            idx = np.array([space.index_of[unit_index(2 * n, *sl)] for sl in slot_lists])
            return taylor[:, :, idx] * space.factorials[idx]

        N = taylor[:, :, 0]
        dN_x = partials(*((c,) for c in range(n)))
        dN_y = partials(*((n + c,) for c in range(n)))
        delta_N = dN_x - np.einsum("mc,abm->abc", N, dN_y)
        R = delta_N - np.transpose(delta_N, (0, 2, 1))

        if order < 2:
            return ConnectionEval(point, N, dN_x, dN_y, delta_N, R)

        cd = [(c, d) for c in range(n) for d in range(n)]
        ddN_xy = partials(*((n + c, d) for c, d in cd)).reshape(n, n, n, n)
        ddN_yy = partials(*((n + c, n + d) for c, d in cd)).reshape(n, n, n, n)
        delta_dN = ddN_xy - np.einsum("md,abcm->abcd", N, ddN_yy)
        return DeepConnectionEval(
            point, N, dN_x, dN_y, delta_N, R,
            ddN_xy=ddN_xy, ddN_yy=ddN_yy, delta_dN=delta_dN, taylor=stack,
        )

    def berwald(self, point: TangentBundlePoint) -> np.ndarray:
        """Fiber-derivative coefficients D^a_bc = d/dy^b N^a_c as [a, b, c]."""
        ev = self.evaluate(point)
        return np.transpose(ev.dN_y, (0, 2, 1))

    # -- declared-flag audit ---------------------------------------------------

    def validate_flags(self, points, tol: float = 1e-9) -> dict:
        """Spot-check declared homogeneity/symmetry on sample points."""
        results = {"homogeneous": True, "symmetric": True, "checked": 0}
        for p in points:
            ev = self.evaluate(p)
            scale = 1.0 + float(np.abs(ev.N).max())
            for lam in (0.5, 2.0):
                scaled = self.coefficients(bundle_point(p.x, lam * p.y))
                if np.abs(scaled - lam * ev.N).max() > tol * scale * max(1.0, lam):
                    results["homogeneous"] = False
            gap = np.abs(ev.dN_y - np.transpose(ev.dN_y, (0, 2, 1))).max()
            if gap > tol * (1.0 + np.abs(ev.dN_y).max()):
                results["symmetric"] = False
            results["checked"] += 1
        return results


def horizontal_derivative(conn: GeneralConnection, field, point: TangentBundlePoint) -> np.ndarray:
    """delta_a f = d_a f - N^b_a d/dy^b f for a scalar bundle field."""
    n = conn.dimension
    jet = eval_taylor(field, point, 1)
    idx = jet.space.index_of
    gx = np.array([jet.c[idx[unit_index(2 * n, a)]] for a in range(n)])
    gy = np.array([jet.c[idx[unit_index(2 * n, n + a)]] for a in range(n)])
    N = conn.coefficients(point)
    return gx - N.T @ gy


def cartan_linear_delta(model: FinslerLagrangian, point: TangentBundlePoint) -> np.ndarray:
    """Linear coefficients G^a_bc built from horizontal metric derivatives.

    Uses delta-derivatives of the L-metric, so the result is symmetric in
    (b, c) and contracts against y to reproduce the nonlinear coefficients.
    Returned layout is [a, b, c].
    """
    n = model.dimension
    # order 0 reads N at x-degree 0 and g at x-degree <= 1, both exact
    g, g0, spray = _spray(model, point, 0)
    N0 = np.array(
        [[0.25 * spray[a].deriv(n + b).value for b in range(n)] for a in range(n)]
    )

    idx = g[0][0].space.index_of
    dg_x = np.empty((n, n, n))  # [q, c, b] = d_b g_qc
    dg_y = np.empty((n, n, n))  # [q, c, m] = d/dy^m g_qc
    for q in range(n):
        for c in range(n):
            arr = g[q][c].c
            for b in range(n):
                dg_x[q, c, b] = arr[idx[unit_index(2 * n, b)]]
                dg_y[q, c, b] = arr[idx[unit_index(2 * n, n + b)]]

    # delta_g[q, c, b] = delta_b g_qc
    delta_g = dg_x - np.einsum("mb,qcm->qcb", N0, dg_y)
    ginv = np.linalg.inv(g0)
    term = np.empty((n, n, n))
    for q in range(n):
        for b in range(n):
            for c in range(n):
                term[q, b, c] = delta_g[q, c, b] + delta_g[q, b, c] - delta_g[b, c, q]
    return 0.5 * np.einsum("aq,qbc->abc", ginv, term)
