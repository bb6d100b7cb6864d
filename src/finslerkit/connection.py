"""Nonlinear connections on TM: canonical construction, curvature, transport.

The canonical (metric-compatible, torsion-free) nonlinear connection of a
fiber Lagrangian L is

    N^a_b = (1/4) d/dy^b [ g^{aq} ( y^p d^2L/dx^p dy^q  -  dL/dx^q ) ],

with g the L-metric.  All derivatives come from one Taylor jet of L at
(x, y): order 3 + k of L gives N together with its exact x/y-derivatives to
depth k.  Everything after L's jet is one array kernel on L's coefficient
vector: a precomputed gather yields the jets of g and of the bracket
y^p d^2L/dx^p dy^q - dL/dx^q, the jet of s = g^{-1}(bracket) follows degree
by degree from the inverse of g's constant term (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13), and N = (1/4) ds/dy
is one more gather.  No jet is inverted and no symbolic inverse is formed.
The kernel works only on the x-degrees the callers read (see :func:`_x_cap`):
N's higher x-slots are exact zeros.  An evaluation keeps N's jet and derives
the tensors below from it on first access.

Derived objects follow the usual conventions:

    horizontal basis   delta_a   = d_a - N^b_a d/dy^b
    curvature          R^a_bc    = delta_c N^a_b - delta_b N^a_c
    fiber coefficients D^a_bc    = d/dy^b N^a_c
    linear coefficients G^a_bc   = (1/2) g^{aq} (delta_b g_qc + delta_c g_qb
                                                 - delta_q g_bc)
"""

from __future__ import annotations

import functools

import numpy as np

from .bundle import DEGENERACY_CONDITION_LIMIT, TangentBundlePoint, bundle_point
from .errors import NearDegenerateMetric, NonFiniteField
from .jets import JetSpace, TaylorJet, eval_taylor, unit_index
from .lagrangian import FinslerLagrangian

# entries of GeneralConnection's evaluation memo
_MEMO_SIZE = 16
# relative tolerance of validate_flags' spot-checks
_FLAG_TOL = 1e-9


def _x_cap(order: int) -> int:
    """x-degree cap of the L jet behind N's jet of ``order``.

    L with x-degree <= k + 1 for k = max(min(order, 1), order - 1) keeps g
    and the spray s (hence N) exact on x-degree <= k: every x-slot the
    callers read.  (Evaluations read x-degree <= min(order, 1), a Taylor-mode
    flow x-degree <= order - 1.)  The kernel solves for s on x-degree <= k
    only, so N's slots of x-degree k + 1 are exact zeros.
    """
    return max(min(order, 1), order - 1) + 1


def _lagrangian_jet(model: FinslerLagrangian, point: TangentBundlePoint, order: int):
    """The jet of L that N's jet of ``order`` is built from."""
    point.require_nonzero_direction()
    return model.taylor(point, order + 3, x_order=_x_cap(order))


def _shift_maps(space: JetSpace):
    """Per variable v: ``up[v, i]``, the slot of slot i's multi-index plus
    e_v, ``rise[v, i]``, that index's exponent of v (the factor of d/dv), and
    ``down[v, i]``, the slot of i minus e_v.  Absent slots map to the pad
    slot ``space.size``, which maps to itself with factor 0."""
    pad = space.size
    up = np.full((space.nvars, pad + 1), pad, dtype=np.intp)
    down = np.full((space.nvars, pad + 1), pad, dtype=np.intp)
    rise = np.zeros((space.nvars, pad + 1))
    for v, (src, dst, fac) in enumerate(space._deriv):
        up[v, dst], rise[v, dst], down[v, src] = src, fac, dst
    return up, rise, down


@functools.lru_cache(maxsize=None)
def _spray_tables(lspace: JetSpace, order: int):
    """Index tables of the kernel, for L's jet in ``lspace`` and N's of ``order``.

    ``work`` holds the slots of degree <= order + 1, the only ones read after
    two derivatives, and x-degree below L's cap, the only ones on which the
    bracket (one x-derivative of L) is exact.  The x-degrees above a cap form
    an ideal, so g, the bracket and s are bit-identical on ``work``'s slots
    to the same solve in a larger space.  ``src``/``fac`` gather the rows
    0.5 d^2L/dy^a dy^b (n * n rows, g) and then the (2n + 1) x n bracket terms
    d^2L/dx^p dy^q, the same shifted up by y^p's slot, and dL/dx^q; a source
    that is not kept reads the pad slot ``lspace.size``.  The bracket is the
    weighted sum (weights y^p, 1, -1) of those terms, folded by ``rhs_bins``.
    ``nsrc``/``nfac`` take the spray s (n, work.size) to
    N^a_b = (1/4) ds^a/dy^b on the slots ``kept`` of JetSpace.get(2n, order),
    those ``work`` holds; N's other slots, of x-degree at L's cap, are zeros.
    """
    nvars = lspace.nvars
    n = nvars // 2
    work = JetSpace.get(nvars, order + 1, lspace.capped, lspace.cap - 1)
    out = JetSpace.get(nvars, order)
    up, rise, down = _shift_maps(lspace)

    def gather(start, *variables):
        # sources and factors of the derivative in ``variables`` at ``start``
        k, f = start, np.ones(start.size)
        for v in variables:
            k, f = up[v, k], f * rise[v, k]
        return k, f

    base = np.array([lspace.index_of[alpha] for alpha in work.indices])
    rows = [gather(base, n + b, n + a) for a in range(n) for b in range(n)]
    rows += [gather(base, n + q, p) for p in range(n) for q in range(n)]
    rows += [gather(down[n + p, base], n + q, p) for p in range(n) for q in range(n)]
    rows += [gather(base, q) for q in range(n)]
    src = np.array([k for k, _ in rows])
    fac = np.array([f for _, f in rows])
    fac[: n * n] *= 0.5  # g is half the y-Hessian of L
    rhs_bins = np.tile(np.arange(n * work.size), 2 * n + 1)

    up, rise, _ = _shift_maps(work)
    kept = np.array([i for i, alpha in enumerate(out.indices) if alpha in work.index_of])
    at = np.array([work.index_of[out.indices[i]] for i in kept])
    # C order, so that N's jet is laid out as the (n, n, size) array it reads as
    nsrc = np.ascontiguousarray(np.arange(n)[:, None, None] * work.size + up[n:, at])
    nfac = np.ascontiguousarray(0.25 * rise[n:, at])
    return work, src, fac, rhs_bins, (n, n, out.size), kept, nsrc, nfac


@functools.lru_cache(maxsize=None)
def _degree_blocks(space: JetSpace, n: int) -> list:
    """Per degree d >= 1 of ``space``: its slot range [lo, hi), the product
    pairs (i, j) of output degree d with deg i >= 1 as flat indices into the
    (n, (n + 1) * size) array [h | s] of :func:`_series_solve` (h[a, b, i] and
    s[b, j]), and the bins that fold their (n, n, pairs) products into the
    (n, hi - lo) block."""
    size = space.size
    ends = [prefix[0].size for prefix in space._mul_prefix]
    a = np.arange(n)[:, None, None]
    b = np.arange(n)[None, :, None]
    blocks = []
    for d in range(1, space.order + 1):
        lo, hi = np.searchsorted(space.degrees, [d, d + 1])
        sl = slice(ends[d - 1], ends[d])
        ia, ib, ic = space._mul_ia[sl], space._mul_ib[sl], space._mul_ic[sl]
        keep = space.degrees[ia] > 0
        ia, ib, ic = ia[keep], ib[keep], ic[keep]
        h_idx = a * (n + 1) * size + b * size + ia
        s_idx = (b * (n + 1) * size + n * size + ib)[0]
        bins = np.broadcast_to(a * (hi - lo) + (ic - lo), h_idx.shape).ravel()
        blocks.append((lo, hi, h_idx, s_idx, bins))
    return blocks


def _series_solve(space: JetSpace, g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve g s = rhs for an (n, n, size) stack g and an (n, size) stack rhs
    of coefficient arrays in ``space``; s is valid to the space order.

    With h = g0^{-1} g and r = g0^{-1} rhs (g0 = g's constant term), the
    degree-d slots of s are those of r minus the degree-d part of
    (h - 1) s, which reads s below degree d only.  g0 is checked as the
    L-metric at the evaluation point.
    """
    n = g.shape[0]
    g0 = g[:, :, 0]
    if not np.isfinite(g0).all():
        raise NonFiniteField("L-metric is not finite at the requested point")
    # one SVD gives the condition number and, once that passes, the inverse
    left, sv, right = np.linalg.svd(g0)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    if cond > DEGENERACY_CONDITION_LIMIT:
        raise NearDegenerateMetric(
            f"L-metric condition number {cond:.3e} at the connection evaluation point"
        )
    inv = (right.T / sv) @ left.T
    # [h | r]; explicit sums over q keep each slot's rounding independent of
    # the layout
    stack = np.concatenate([g.reshape(n, -1), rhs], axis=1)
    pre = inv[:, :1] * stack[0]
    for q in range(1, n):
        pre += inv[:, q : q + 1] * stack[q]
    flat = pre.ravel()
    s = pre[:, n * space.size :]  # r, overwritten degree by degree with s
    for lo, hi, h_idx, s_idx, bins in _degree_blocks(space, n):
        w = flat[h_idx] * flat[s_idx]
        s[:, lo:hi] -= np.bincount(bins, weights=w.ravel(), minlength=n * (hi - lo)).reshape(
            n, hi - lo
        )
    return s


def _spray(L: TaylorJet, y: np.ndarray, order: int):
    """The L-metric g and N's jet from L's jet at (x, y).

    Returns g as an (n, n, work.size) array on the slots of the kernel's
    working space, N as an (n, n, size) array on those of
    ``JetSpace.get(2n, order)``, and the working space.  The spray s is valid
    to ``order + 1`` and N, its fiber derivative, to ``order``, on the
    x-degrees :func:`_x_cap` names.
    """
    n = y.size
    work, src, fac, rhs_bins, shape, kept, nsrc, nfac = _spray_tables(L.space, order)
    d = np.append(L.c, 0.0)[src] * fac
    g = d[: n * n].reshape(n, n, work.size)
    weights = np.concatenate([y, np.ones(n), [-1.0]])
    terms = weights[:, None] * d[n * n :].reshape(2 * n + 1, n * work.size)
    rhs = np.bincount(rhs_bins, weights=terms.ravel(), minlength=n * work.size)
    s = _series_solve(work, g, rhs.reshape(n, work.size))
    njets = np.zeros(shape)
    njets[:, :, kept] = s.ravel()[nsrc] * nfac
    return g, njets, work


class ConnectionEval:
    """Connection coefficients and first derivatives at one bundle point.

    Holds N's jet of ``order`` (an (n, n, size) array on the slots of
    ``JetSpace.get(2n, order)``); each tensor below is derived from it on
    first access and then kept, so callers pay only for what they read.

    Index layout: ``N[a, b]`` has upper index first; derivative tensors put
    the differentiation index last, e.g. ``dN_y[a, b, c]`` is
    d/dy^c of N^a_b and ``delta_N[a, b, c]`` is delta_c N^a_b.
    ``R[a, b, c]`` is the curvature R^a_bc, antisymmetric in (b, c).
    """

    def __init__(self, point: TangentBundlePoint, jet: np.ndarray, order: int):
        self.point = point
        self.jet = jet
        self.order = order
        self.n = jet.shape[0]

    def _partials(self, kind):
        idx, factorials = _partial_slots(self.n, self.order)[kind]
        return self.jet[:, :, idx] * factorials

    @functools.cached_property
    def N(self) -> np.ndarray:
        return self.jet[:, :, 0]

    @functools.cached_property
    def dN_x(self) -> np.ndarray:
        return self._partials("x")

    @functools.cached_property
    def dN_y(self) -> np.ndarray:
        return self._partials("y")

    @functools.cached_property
    def delta_N(self) -> np.ndarray:
        return self.dN_x - np.einsum("mc,abm->abc", self.N, self.dN_y)

    @functools.cached_property
    def R(self) -> np.ndarray:
        return self.delta_N - np.transpose(self.delta_N, (0, 2, 1))


class DeepConnectionEval(ConnectionEval):
    """Adds exact second derivatives of N (needed by flow Jacobians).

    ``ddN_xy[a, b, c, d]`` is d/dx^d of (d/dy^c N^a_b); ``ddN_yy[a, b, c, d]``
    is d/dy^d d/dy^c N^a_b; ``delta_dN[a, b, c, d]`` is
    delta_d (d/dy^c N^a_b).  ``taylor[a, b, k, i]`` holds the Taylor
    coefficients at slot i of N^a_b (k = 0) and of d/dy^c N^a_b (k = 1 + c),
    exact on the x-degrees :func:`_x_cap` names; flows compose it.
    """

    @functools.cached_property
    def ddN_xy(self) -> np.ndarray:
        return self._partials("xy").reshape((self.n,) * 4)

    @functools.cached_property
    def ddN_yy(self) -> np.ndarray:
        return self._partials("yy").reshape((self.n,) * 4)

    @functools.cached_property
    def delta_dN(self) -> np.ndarray:
        return self.ddN_xy - np.einsum("md,abcm->abcd", self.N, self.ddN_yy)

    @functools.cached_property
    def taylor(self) -> np.ndarray:
        row, slot, src, fac = _partial_slots(self.n, self.order)["fiber"]
        stack = np.zeros((self.n, self.n, self.n + 1, self.jet.shape[2]))
        stack[:, :, 0] = self.jet
        stack[:, :, row, slot] = self.jet[:, :, src] * fac
        return stack


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
    ):
        if (lagrangian is None) == (explicit_fn is None):
            raise ValueError("provide exactly one of lagrangian or explicit_fn")
        self.dimension = dimension
        self.lagrangian = lagrangian
        self._explicit_fn = explicit_fn
        self.homogeneous = homogeneous
        self.symmetric = symmetric
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
        cls, fn, dimension: int, homogeneous: bool = False, symmetric: bool = False
    ) -> "GeneralConnection":
        """Wrap a callable ``fn(x_vars, y_vars) -> n x n nested list`` of scalars."""
        return cls(
            dimension,
            explicit_fn=fn,
            homogeneous=homogeneous,
            symmetric=symmetric,
        )

    # -- jet-level core ------------------------------------------------------

    def n_jets(self, point: TangentBundlePoint, order: int) -> np.ndarray:
        """N^a_b's Taylor coefficients valid to ``order``, as an (n, n, size)
        array on the slots of ``JetSpace.get(2n, order)``.

        For a canonical connection the coefficients are exact on the slots of
        x-degree the callers of that order read; higher x-slots are exact zeros
        (see :func:`_x_cap`).
        """
        n = self.dimension
        if self._explicit_fn is not None:
            point.require_nonzero_direction()
            space = JetSpace.get(2 * n, order)
            xs = [space.variable(i, point.x[i]) for i in range(n)]
            ys = [space.variable(n + i, point.y[i]) for i in range(n)]
            rows = self._explicit_fn(xs, ys)
            out = np.empty((n, n, space.size))
            for a in range(n):
                for b in range(n):
                    entry = rows[a][b]
                    if not isinstance(entry, TaylorJet):
                        entry = space.constant(float(entry))
                    if not np.isfinite(entry.c).all():
                        raise NonFiniteField(f"explicit connection entry ({a},{b}) not finite")
                    out[a, b] = entry.c
            return out

        _, njets, _ = _spray(_lagrangian_jet(self.lagrangian, point, order), point.y, order)
        if not np.isfinite(njets).all():
            raise NonFiniteField("connection coefficients are not finite")
        return njets

    # -- extraction ----------------------------------------------------------

    def coefficients(self, point: TangentBundlePoint) -> np.ndarray:
        """Connection coefficient matrix N^a_b (upper index first)."""
        return self.n_jets(point, 0)[:, :, 0].copy()

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
        # apart at most, and an entry holds N's jet and what its readers
        # derived from it (on quartic4d at order 2: a 5.8 KB jet, and the
        # 29 KB fiber stack once a flow reads it), so it keeps the _MEMO_SIZE
        # most recently used entries.
        key = (point.x.tobytes(), point.y.tobytes(), order)
        cache = self._eval_cache
        hit = cache.pop(key, None)
        if hit is None:
            kind = DeepConnectionEval if order >= 2 else ConnectionEval
            hit = kind(point, self.n_jets(point, order), order)
            if len(cache) >= _MEMO_SIZE:
                del cache[next(iter(cache))]  # the least recently used
        cache[key] = hit  # (re)inserted last: dicts keep insertion order
        return hit

    def berwald(self, point: TangentBundlePoint) -> np.ndarray:
        """Fiber-derivative coefficients D^a_bc = d/dy^b N^a_c as [a, b, c]."""
        ev = self.evaluate(point)
        return np.transpose(ev.dN_y, (0, 2, 1))

    # -- declared-flag audit ---------------------------------------------------

    def validate_flags(self, points) -> dict:
        """Spot-check declared homogeneity/symmetry on sample points."""
        results = {"homogeneous": True, "symmetric": True, "checked": 0}
        for p in points:
            ev = self.evaluate(p)
            scale = 1.0 + float(np.abs(ev.N).max())
            for lam in (0.5, 2.0):
                scaled = self.coefficients(bundle_point(p.x, lam * p.y))
                if np.abs(scaled - lam * ev.N).max() > _FLAG_TOL * scale * max(1.0, lam):
                    results["homogeneous"] = False
            gap = np.abs(ev.dN_y - np.transpose(ev.dN_y, (0, 2, 1))).max()
            if gap > _FLAG_TOL * (1.0 + np.abs(ev.dN_y).max()):
                results["symmetric"] = False
            results["checked"] += 1
        return results


@functools.lru_cache(maxsize=None)
def _partial_slots(n: int, order: int) -> dict:
    """Slot indices in ``JetSpace.get(2n, order)`` and their factorials for
    the partials of N that an evaluation of ``order`` reads; at order >= 2
    also the gather of ``DeepConnectionEval.taylor``'s fiber rows."""
    space = JetSpace.get(2 * n, order)

    def slots(*slot_lists):
        idx = np.array([space.index_of[unit_index(2 * n, *sl)] for sl in slot_lists])
        return idx, space.factorials[idx]

    out = {"x": slots(*((c,) for c in range(n))), "y": slots(*((n + c,) for c in range(n)))}
    if order >= 2:
        cd = [(c, d) for c in range(n) for d in range(n)]
        out["xy"] = slots(*((n + c, d) for c, d in cd))
        out["yy"] = slots(*((n + c, n + d) for c, d in cd))
        # row 1 + c holds d/dy^c of every slot: (rows, slots, sources, factors)
        deriv = [(np.full(s.size, 1 + c), d, s, f) for c, (s, d, f) in enumerate(space._deriv[n:])]
        out["fiber"] = tuple(np.concatenate(column) for column in zip(*deriv))
    return out


def horizontal_derivative(conn: GeneralConnection, field, point: TangentBundlePoint) -> np.ndarray:
    """delta_a f = d_a f - N^b_a d/dy^b f for a scalar bundle field."""
    n = conn.dimension
    jet = eval_taylor(field, point, 1)
    N = conn.coefficients(point)
    return jet.partials(range(n)) - N.T @ jet.partials(range(n, 2 * n))


def cartan_linear_delta(model: FinslerLagrangian, point: TangentBundlePoint) -> np.ndarray:
    """Linear coefficients G^a_bc built from horizontal metric derivatives.

    Uses delta-derivatives of the L-metric, so the result is symmetric in
    (b, c) and contracts against y to reproduce the nonlinear coefficients.
    Returned layout is [a, b, c].
    """
    n = model.dimension
    # order 0 reads N at x-degree 0, and L's jet is exact on x-degree <= 1
    L = _lagrangian_jet(model, point, 0)
    g, njets, _ = _spray(L, point.y, 0)

    # d/dv g_qc = (1/2) d^3L / dy^q dy^c dv for v = x^b and v = y^m
    fibers = range(n, 2 * n)
    dg_x = 0.5 * L.partials(fibers, fibers, range(n))  # [q, c, b] = d_b g_qc
    dg_y = 0.5 * L.partials(fibers, fibers, fibers)  # [q, c, m] = d/dy^m g_qc

    # delta_g[q, c, b] = delta_b g_qc
    delta_g = dg_x - np.einsum("mb,qcm->qcb", njets[:, :, 0], dg_y)
    # term[q, b, c] = delta_b g_qc + delta_c g_qb - delta_q g_bc
    term = np.transpose(delta_g, (0, 2, 1)) + delta_g - np.transpose(delta_g, (2, 0, 1))
    return 0.5 * np.einsum("aq,qbc->abc", np.linalg.inv(g[:, :, 0]), term)
