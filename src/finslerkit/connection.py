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
N's higher x-slots are exact zeros.  Each caller asks for N's jet at the
order it reads: 0 for the coefficients, 1 for :meth:`GeneralConnection.evaluate`
and the horizontal flow, and the order of its own state for a Taylor-mode flow.

An evaluation is little arithmetic, so its fixed cost per call is what a flow
pays.  :class:`ConnectionKernel` does all that depends on the order alone once
per (connection, order): it holds L's compiled tape, the spray's tables,
degree blocks and scratch (:class:`_Spray`) and the slot tables of dN/dy and
of the fiber stack.  A call runs only the tape, the gathers, the bincount
folds and the series solve on the caller's (x, y) array: flow stages call it
on slices of their state, and ``n_jets`` at a point.  An error names the
point, formatted only when raised.  :class:`ConnectionEval` holds an
evaluation and derives the tensors below from N's jet on first access.  The
index tables come from ``JetSpace``'s public lookups alone.

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

from .bundle import (
    DEGENERACY_CONDITION_LIMIT,
    TangentBundlePoint,
    bundle_point,
    check_state,
    state_text,
)
from .errors import NearDegenerateMetric, NonFiniteField
from .jets import JetSpace, TaylorJet
from .lagrangian import FinslerLagrangian

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


def _gather(space: JetSpace, start: np.ndarray, *variables: int):
    """Sources and factors in ``space`` of the derivative in ``variables``
    (one after another) of the monomials ``start`` (rows of exponents): the
    slot of each monomial plus those unit vectors, and the product of the
    powers the differentiations bring down.  A monomial with a negative
    exponent, or one whose source the space does not hold, reads the pad slot
    ``space.size`` with factor 0.

    One call per derivative keeps every temporary at (slots, nvars).  One
    above glibc's 128 KiB mmap threshold would, once freed, raise that
    threshold for the rest of the process, so building these tables would
    change how every later large array is allocated.
    """
    exponents = start.copy()
    fac = np.ones(len(start))
    for v in variables:
        exponents[:, v] += 1
        fac *= exponents[:, v]
    src = space.slots(exponents)
    absent = (src < 0) | (start < 0).any(axis=1)
    src[absent], fac[absent] = space.size, 0.0
    return src, fac


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
    base = work.exponents
    rows = [_gather(lspace, base, n + b, n + a) for a in range(n) for b in range(n)]
    rows += [_gather(lspace, base, n + q, p) for p in range(n) for q in range(n)]
    for p in range(n):
        # the term of y^p's slot: the monomial one power of y^p lower
        lower = base - np.eye(nvars, dtype=np.int64)[n + p]
        rows += [_gather(lspace, lower, n + q, p) for q in range(n)]
    rows += [_gather(lspace, base, q) for q in range(n)]
    src = np.array([k for k, _ in rows])
    fac = np.array([f for _, f in rows])
    fac[: n * n] *= 0.5  # g is half the y-Hessian of L
    rhs_bins = np.tile(np.arange(n * work.size), 2 * n + 1)

    kept = np.flatnonzero(work.slots(out.exponents) >= 0)
    # work holds every kept slot's monomial times y^b: same x-degree, degree
    # <= order + 1
    fibers = [_gather(work, out.exponents[kept], n + b) for b in range(n)]
    # C order, so that N's jet is laid out as the (n, n, size) array it reads as
    nsrc = np.ascontiguousarray(
        np.arange(n)[:, None, None] * work.size + np.array([k for k, _ in fibers])
    )
    nfac = 0.25 * np.array([f for _, f in fibers])
    return work, src, fac, rhs_bins, (n, n, out.size), kept, nsrc, nfac


class _Spray:
    """The array kernel from L's jet in ``lspace`` to N's jet of ``order``:
    the tables of :func:`_spray_tables` and :func:`_degree_blocks`, looked up
    once, and the fixed scratch every call writes (L's coefficients then the
    pad slot's 0, the bracket weights y^p, 1, -1, and the [g | bracket] stack
    of :func:`_series_solve`)."""

    def __init__(self, lspace: JetSpace, order: int):
        work, self.src, self.fac, self.rhs_bins, self.shape, kept, self.nsrc, self.nfac = (
            _spray_tables(lspace, order)
        )
        n = self.n = self.shape[0]
        self.size = work.size
        self.blocks = _degree_blocks(work, n)
        # None: N's jet keeps every slot (orders 0 and 1), so it is the gather
        self.kept = None if kept.size == self.shape[2] else kept
        self.padded = np.zeros(lspace.size + 1)
        self.weights = np.concatenate([np.zeros(n), np.ones(n), [-1.0]])
        self.stack = np.empty((n, (n + 1) * work.size))

    def __call__(self, c: np.ndarray, xy: np.ndarray) -> np.ndarray:
        """N's jet on the slots of ``JetSpace.get(2n, order)`` from L's
        coefficients ``c`` at the state ``xy``: the spray s is valid to
        ``order + 1`` and N to ``order``, on the x-degrees :func:`_x_cap` names."""
        n, size = self.n, self.size
        nw = n * size
        self.padded[:-1] = c
        self.weights[:n] = xy[n:]
        d = self.padded[self.src] * self.fac
        stack = self.stack
        stack[:, :nw] = d[: n * n].reshape(n, nw)
        terms = self.weights[:, None] * d[n * n :].reshape(2 * n + 1, nw)
        rhs = np.bincount(self.rhs_bins, weights=terms.ravel(), minlength=nw)
        stack[:, nw:] = rhs.reshape(n, size)
        s = _series_solve(self.blocks, stack, xy)
        values = s.ravel()[self.nsrc] * self.nfac
        if self.kept is None:
            return values
        njets = np.zeros(self.shape)
        njets[:, :, self.kept] = values
        return njets


@functools.lru_cache(maxsize=None)
def _degree_blocks(space: JetSpace, n: int) -> list:
    """Per degree d >= 1 of ``space``: its slot range [lo, hi), the product
    pairs (i, j) of output degree d with deg i >= 1 as flat indices into the
    (n, (n + 1) * size) array [h | s] of :func:`_series_solve` (h[a, b, i] and
    s[b, j]), and the bins that fold their products into the (n, hi - lo)
    block.  All three run over (a, b, pair) in C order, flattened, so a
    block's products are one 1-d gather each."""
    size = space.size
    full = space.full_support
    # the product table of full jets, sorted by output degree
    ia, ib, ic = space.pairs(full, full)
    ends = np.searchsorted(space.degrees[ic], np.arange(space.order + 2))
    a = np.arange(n)[:, None, None]
    b = np.arange(n)[None, :, None]
    blocks = []
    for d in range(1, space.order + 1):
        lo, hi = np.searchsorted(space.degrees, [d, d + 1])
        sl = slice(ends[d], ends[d + 1])
        keep = space.degrees[ia[sl]] > 0
        da, db, dc = ia[sl][keep], ib[sl][keep], ic[sl][keep]
        h_idx = a * (n + 1) * size + b * size + da
        s_idx = np.broadcast_to(b * (n + 1) * size + n * size + db, h_idx.shape).ravel()
        bins = np.broadcast_to(a * (hi - lo) + (dc - lo), h_idx.shape).ravel()
        blocks.append((lo, hi, h_idx.ravel(), s_idx, bins))
    return blocks


def _series_solve(blocks: list, stack: np.ndarray, xy) -> np.ndarray:
    """Solve g s = rhs for the (n, (n + 1) * size) array ``stack`` = [g | rhs]
    (row a: g[a, b, i] in (b, i) order, then rhs[a, i]) of coefficient arrays
    in the space whose :func:`_degree_blocks` are ``blocks``; s is valid to
    the space order.  An error names the bundle state ``xy`` (x, then y).

    With h = g0^{-1} g and r = g0^{-1} rhs (g0 = g's constant term), the
    degree-d slots of s are those of r minus the degree-d part of
    (h - 1) s, which reads s below degree d only.  g0 is checked as the
    L-metric at the evaluation point.
    """
    n = stack.shape[0]
    size = stack.shape[1] // (n + 1)
    g0 = stack[:, : n * size : size]
    if not np.isfinite(g0).all():
        raise NonFiniteField(f"L-metric is not finite at the requested point {state_text(xy)}")
    # one SVD gives the condition number and, once that passes, the inverse
    left, sv, right = np.linalg.svd(g0)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    if cond > DEGENERACY_CONDITION_LIMIT:
        raise NearDegenerateMetric(f"L-metric condition number {cond:.3e} at {state_text(xy)}")
    inv = (right.T / sv) @ left.T
    # [h | r]; explicit sums over q keep each slot's rounding independent of
    # the layout
    pre = inv[:, :1] * stack[0]
    for q in range(1, n):
        pre += inv[:, q : q + 1] * stack[q]
    flat = pre.ravel()
    s = pre[:, n * size :]  # r, overwritten degree by degree with s
    for lo, hi, h_idx, s_idx, bins in blocks:
        w = flat[h_idx] * flat[s_idx]
        s[:, lo:hi] -= np.bincount(bins, weights=w, minlength=n * (hi - lo)).reshape(n, hi - lo)
    return s


class ConnectionEval:
    """N's jet at one bundle point, and the tensors its readers take from it.

    Holds N's jet of ``order`` (an (n, n, size) array on the slots of
    ``JetSpace.get(2n, order)``) and the :class:`ConnectionKernel` that built
    it; each tensor below is derived from the jet on first access and then
    kept, so callers pay only for what they read.

    Index layout: ``N[a, b]`` has upper index first; derivative tensors put
    the differentiation index last, e.g. ``dN_y[a, b, c]`` is
    d/dy^c of N^a_b and ``delta_N[a, b, c]`` is delta_c N^a_b.
    ``R[a, b, c]`` is the curvature R^a_bc, antisymmetric in (b, c).
    Every tensor needs ``order >= 1``.
    """

    def __init__(self, point: TangentBundlePoint, jet: np.ndarray, kernel: ConnectionKernel):
        self.point = point
        self.jet = jet
        self.kernel = kernel
        self.order, self.n = kernel.order, kernel.n

    @functools.cached_property
    def N(self) -> np.ndarray:
        return self.jet[:, :, 0]

    @functools.cached_property
    def dN_x(self) -> np.ndarray:
        idx, factorials = self.kernel.space.partial_slots(range(self.n))
        return self.jet[:, :, idx] * factorials

    @functools.cached_property
    def dN_y(self) -> np.ndarray:
        return self.kernel.fiber_derivative(self.jet)

    @functools.cached_property
    def delta_N(self) -> np.ndarray:
        return self.dN_x - np.einsum("mc,abm->abc", self.N, self.dN_y)

    @functools.cached_property
    def R(self) -> np.ndarray:
        return self.delta_N - np.transpose(self.delta_N, (0, 2, 1))


class ConnectionKernel:
    """N's jet of one order as a function of the bundle state.

    :meth:`GeneralConnection.kernel` builds one per order and keeps it.  It
    holds L's jet function (``FinslerLagrangian.jet_function``) and its
    :class:`_Spray`, or an explicit connection's callable, and, once read,
    the slot tables of dN/dy and of the fiber stack (``order >= 1``).  A call
    checks the state ``xy`` (x, then y, in one array) with
    ``bundle.check_state`` and returns N's jet, checked finite, as an
    (n, n, size) array on the slots of ``space`` = ``JetSpace.get(2n, order)``.
    A canonical connection's jet is exact on the x-degrees the callers of the
    order read; higher x-slots are exact zeros (see :func:`_x_cap`).
    """

    def __init__(self, conn: "GeneralConnection", order: int):
        n = conn.dimension
        self.n, self.order = n, order
        self.space = JetSpace.get(2 * n, order)
        self._explicit = conn._explicit_fn
        if conn.lagrangian is not None:
            cap = _x_cap(order)
            self._lagrangian = conn.lagrangian.jet_function(order + 3, cap)
            self._spray = _Spray(JetSpace.get(2 * n, order + 3, n, cap), order)

    # the slot tables of dN/dy and of the fiber stack, found on first use
    @functools.cached_property
    def _dy(self) -> tuple:
        return self.space.partial_slots(range(self.n, 2 * self.n))

    @functools.cached_property
    def _fibers(self) -> tuple:
        return _fiber_rows(self.n, self.order)

    def __call__(self, xy: np.ndarray) -> np.ndarray:
        check_state(xy)
        if self._explicit is not None:
            return self._explicit_jets(xy)
        jet = self._spray(self._lagrangian(xy), xy)
        if not np.isfinite(jet).all():
            raise NonFiniteField(f"connection coefficients are not finite at {state_text(xy)}")
        return jet

    def _explicit_jets(self, xy: np.ndarray) -> np.ndarray:
        n, space = self.n, self.space
        xs = [space.variable(i, xy[i]) for i in range(n)]
        ys = [space.variable(n + i, xy[n + i]) for i in range(n)]
        rows = self._explicit(xs, ys)
        out = np.empty((n, n, space.size))
        for a in range(n):
            for b in range(n):
                entry = rows[a][b]
                if not isinstance(entry, TaylorJet):
                    entry = space.constant(float(entry))
                if not np.isfinite(entry.c).all():
                    raise NonFiniteField(
                        f"explicit connection entry ({a},{b}) not finite at {state_text(xy)}"
                    )
                out[a, b] = entry.c
        return out

    def fiber_derivative(self, jet: np.ndarray) -> np.ndarray:
        """dN/dy at the jet's point from N's jet: ``[a, b, c]`` is
        d/dy^c N^a_b."""
        idx, factorials = self._dy
        return jet[:, :, idx] * factorials

    def fiber_stack(self, jet: np.ndarray) -> np.ndarray:
        """The jets a Taylor-mode flow composes, from N's jet: ``[a, b, k, i]``
        is the coefficient at slot i of N^a_b (k = 0) and of d/dy^c N^a_b
        (k = 1 + c, valid to ``order - 1``)."""
        row, slot, src, fac = self._fibers
        stack = np.zeros((self.n, self.n, self.n + 1, jet.shape[2]))
        stack[:, :, 0] = jet
        stack[:, :, row, slot] = jet[:, :, src] * fac
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
        self._kernels: dict[int, ConnectionKernel] = {}

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

    def kernel(self, order: int) -> ConnectionKernel:
        """The evaluation of N's jet of ``order``, built on first use and then
        kept: flows take it once per field and call it at every stage."""
        kernel = self._kernels.get(order)
        if kernel is None:
            kernel = self._kernels[order] = ConnectionKernel(self, order)
        return kernel

    def n_jets(self, point: TangentBundlePoint, order: int) -> np.ndarray:
        """N^a_b's Taylor coefficients valid to ``order``, as an (n, n, size)
        array on the slots of ``JetSpace.get(2n, order)``: one call of the
        order's :class:`ConnectionKernel` at the point."""
        return self.kernel(order)(point.as_state())

    # -- extraction ----------------------------------------------------------

    def coefficients(self, point: TangentBundlePoint) -> np.ndarray:
        """Connection coefficient matrix N^a_b (upper index first)."""
        return self.n_jets(point, 0)[:, :, 0].copy()

    def evaluate(self, point: TangentBundlePoint) -> ConnectionEval:
        """N with exact first x/y-derivatives, horizontal derivative, curvature;
        each call builds a new evaluation from N's jet of order 1."""
        return ConnectionEval(point, self.n_jets(point, 1), self.kernel(1))

    def evaluate_deep(self, point: TangentBundlePoint, order: int = 2) -> ConnectionEval:
        """Like :meth:`evaluate` with N's jet carried to ``order``, for the
        readers of its higher derivatives."""
        return ConnectionEval(point, self.n_jets(point, order), self.kernel(order))

    def berwald(self, point: TangentBundlePoint) -> np.ndarray:
        """Fiber-derivative coefficients D^a_bc = d/dy^b N^a_c as [a, b, c]."""
        ev = self.evaluate(point)
        return np.transpose(ev.dN_y, (0, 2, 1))

    # -- declared-flag audit ---------------------------------------------------

    def validate_flags(self, points) -> dict:
        """Spot-check declared homogeneity/symmetry on sample points."""
        residuals = [self.flag_residuals(p, self.evaluate(p)) for p in points]
        return {
            "homogeneous": all(h <= _FLAG_TOL for h, _ in residuals),
            "symmetric": all(s <= _FLAG_TOL for _, s in residuals),
            "checked": len(residuals),
        }

    def flag_residuals(self, p: TangentBundlePoint, ev: ConnectionEval) -> tuple:
        """The relative residuals at ``p`` (``ev`` its evaluation) of fiber
        homogeneity, N(x, lam y) = lam N(x, y) for lam = 0.5 and 2, and of
        fiber symmetry, dN^a_c/dy^b = dN^a_b/dy^c."""
        homogeneity = max(
            np.abs(self.coefficients(bundle_point(p.x, lam * p.y)) - lam * ev.N).max()
            / ((1.0 + np.abs(ev.N).max()) * max(1.0, lam))
            for lam in (0.5, 2.0)
        )
        symmetry = np.abs(ev.dN_y - np.transpose(ev.dN_y, (0, 2, 1))).max()
        return float(homogeneity), float(symmetry / (1.0 + np.abs(ev.dN_y).max()))


@functools.lru_cache(maxsize=None)
def _fiber_rows(n: int, order: int) -> tuple:
    """The gather of :meth:`ConnectionKernel.fiber_stack`'s fiber rows in
    ``JetSpace.get(2n, order)``: row 1 + c holds d/dy^c of every slot below
    the order, as (rows, slots, sources, factors)."""
    space = JetSpace.get(2 * n, order)
    inner = np.flatnonzero(space.degrees < order)
    # the full space holds every inner monomial times y^c
    fibers = [_gather(space, space.exponents[inner], n + c) for c in range(n)]
    return (
        np.repeat(np.arange(1, n + 1), inner.size),
        np.tile(inner, n),
        np.concatenate([k for k, _ in fibers]),
        np.concatenate([f for _, f in fibers]),
    )


def cartan_linear_delta(model: FinslerLagrangian, point: TangentBundlePoint) -> np.ndarray:
    """Linear coefficients G^a_bc built from horizontal metric derivatives.

    Uses delta-derivatives of the L-metric, so the result is symmetric in
    (b, c) and contracts against y to reproduce the nonlinear coefficients.
    Returned layout is [a, b, c].
    """
    n = model.dimension
    # order 0 reads N at x-degree 0, and L's jet is exact on x-degree <= 1
    L = _lagrangian_jet(model, point, 0)
    njets = _Spray(L.space, 0)(L.c, point.as_state())

    # g_qc = (1/2) d^2L / dy^q dy^c, and d/dv g_qc = (1/2) d^3L / dy^q dy^c dv
    # for v = x^b and v = y^m
    fibers = range(n, 2 * n)
    g = 0.5 * L.partials(fibers, fibers)
    dg_x = 0.5 * L.partials(fibers, fibers, range(n))  # [q, c, b] = d_b g_qc
    dg_y = 0.5 * L.partials(fibers, fibers, fibers)  # [q, c, m] = d/dy^m g_qc

    # delta_g[q, c, b] = delta_b g_qc
    delta_g = dg_x - np.einsum("mb,qcm->qcb", njets[:, :, 0], dg_y)
    # term[q, b, c] = delta_b g_qc + delta_c g_qb - delta_q g_bc
    term = np.transpose(delta_g, (0, 2, 1)) + delta_g - np.transpose(delta_g, (2, 0, 1))
    return 0.5 * np.einsum("aq,qbc->abc", np.linalg.inv(g), term)
