"""Exact mixed partial derivatives via dense truncated Taylor arithmetic.

A field on the tangent bundle is any callable ``f(x_vars, y_vars) -> scalar``
that is generic over the scalar type.  Seeding the 2n coordinates with
first-order Taylor "variables" and propagating full truncated series through
the arithmetic yields every mixed partial up to the requested order in one
evaluation, exact to round-off (no finite-difference truncation error).

Storage is dense: a jet keeps one coefficient per multi-index of total degree
up to the space order.  A space may also cap the joint degree of its first
``capped`` variables (the manifold slots x of a bundle field) and then holds
only the multi-indices within both bounds.  The polynomials of x-degree above
the cap form an ideal, so a product in the capped space is bit-identical to
the full-space product on every kept slot; a quantity that needs only a few
x-derivatives skips the slots it never reads.

There is one product and one derivative, both on coefficient arrays:
:meth:`JetSpace.product` and :meth:`JetSpace.derivative`.  A
:class:`TaylorJet` is one such array with an order and a support, and its
``*`` and ``deriv`` call them; :func:`compose` and the Taylor-mode flows call
them on stacks of arrays.  The product folds a precomputed (i, j, k) pair
table with ``np.bincount``.  The table is sorted by output degree, so the
pairs a product of order-o jets needs (output degree <= o) are a prefix of it
(truncated Taylor arithmetic, Griewank & Walther, *Evaluating Derivatives*,
2nd ed., SIAM 2008).  Division goes through a Newton iteration for the
reciprocal; analytic functions (sin, exp, sqrt, ...) compose their univariate
Taylor series with the nilpotent part via Horner's rule; :func:`compose`
applies a multivariate jet to other jets (how Taylor-mode flows push N's jet
through their state).

Every jet also carries a ``support``: a bitmask of the variables its non-zero
coefficients may involve.  The invariant is that each slot whose multi-index
uses a variable outside the support holds exactly 0.  A constant has support
0, ``variable(v)`` has ``1 << v``, sums and products take the union, and the
other operations keep their operand's support; a jet built from a raw array
gets every variable.  A product runs only the prefix pairs whose left slot
lies in the left support and whose right slot lies in the right one (sparse
derivative propagation, ibid., ch. 13).  Every dropped pair has an exactly
zero factor, so its product is +0 or -0 when the other factor is finite; and
``np.bincount`` starts each bin from +0.0 and adds in array order, so no bin
is ever -0.0 and adding a signed zero never changes it.  The kept pairs run in
the prefix's order, so finite products are bit-identical to the full-table
product, sign bits included.

A reciprocal of a jet with zero constant term, a float power of zero with a
negative exponent, a square root or logarithm outside its domain, and an
exponential or real power that overflows (float or jet) raise
:class:`NonFiniteField`, the error of every other point where a field has no
finite Taylor expansion.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from itertools import product as cartesian

import numpy as np

from .bundle import TangentBundlePoint
from .errors import NonFiniteField, OrderUnsupported


def unit_index(nvars: int, *slots: int) -> tuple:
    """Exponent tuple over ``nvars`` variables with one count per listed slot.

    ``unit_index(4, 1)`` is (0, 1, 0, 0); repeats add up, so
    ``unit_index(4, 1, 3, 3)`` is (0, 1, 0, 2).
    """
    alpha = [0] * nvars
    for v in slots:
        alpha[v] += 1
    return tuple(alpha)


def _multi_indices(nvars: int, order: int, capped: int, cap: int):
    """Exponent tuples of total degree <= order and joint degree <= cap in the
    first ``capped`` variables, sorted by (degree, lex)."""
    out = []
    for deg in range(order + 1):
        block = {
            unit_index(nvars, *combo)
            for combo in combinations_with_replacement(range(nvars), deg)
        }
        out.extend(a for a in sorted(block) if sum(a[:capped]) <= cap)
    return out


class JetSpace:
    """Index layout and operation tables for jets in ``nvars`` variables.

    The space holds the multi-indices of total degree <= ``order`` whose joint
    degree in the first ``capped`` variables (the x-degree) is <= ``cap``, in
    (degree, lex) order.  ``cap >= order`` is the full space, and ``get``
    returns the same instance for every such cap.  Exactness in a capped space,
    slot by slot against the same arithmetic in the full space:

    - products and sums are bit-identical on every kept slot, since both
      factors of a kept slot's pairs are kept, and the pairs run in the same
      order (the table below drops only pairs whose output is not kept);
    - a derivative in an uncapped variable is exact on every slot;
    - a derivative in a capped variable reads zero at x-degree ``cap``,
      where its full-space source lies outside the space.  A value built with
      k nested x-derivatives is therefore exact on x-degree <= ``cap - k``.

    The space owns the jet arithmetic's two kernels, on coefficient arrays
    whose last axis runs over its slots: :meth:`product` and
    :meth:`derivative`.  A product of factors with partial supports (see
    :class:`TaylorJet`) runs the subsequence of ``_mul_prefix[order]`` that
    :meth:`pairs` filters by the supports, cached per (order, support_a,
    support_b); full against full is the prefix itself.

    Instances are cached per (nvars, order, capped, cap); construction cost is
    paid once per process.
    """

    _cache: dict[tuple[int, int, int, int], "JetSpace"] = {}

    def __init__(self, nvars: int, order: int, capped: int = 0, cap: int | None = None):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        if not 0 <= capped <= nvars or (cap is not None and cap < 0):
            raise ValueError("need 0 <= capped <= nvars and cap >= 0")
        self.nvars = nvars
        self.order = order
        self.capped = capped
        self.cap = order if cap is None else cap
        self.indices = _multi_indices(nvars, order, capped, self.cap)
        self.size = len(self.indices)
        self.index_of = {alpha: i for i, alpha in enumerate(self.indices)}
        self.degrees = np.array([sum(a) for a in self.indices], dtype=np.int64)
        # exponents[i, v]: the power of variable v in slot i's monomial
        self.exponents = np.array(self.indices, dtype=np.int64).reshape(self.size, nvars)
        self.slot_vars = self.exponents > 0
        self.full_support = (1 << nvars) - 1

        # factorial(alpha) per slot, for converting Taylor coefficients into
        # true mixed partials
        self.factorials = np.array(
            [float(np.prod([math.factorial(k) for k in a])) for a in self.indices]
        )

        # masks[o] zeroes every coefficient of degree > o
        self.masks = [
            (self.degrees <= o).astype(float) for o in range(order + 1)
        ]

        # multiplication table: c[k] += a[i] * b[j] over all pairs with
        # deg(i) + deg(j) <= order and k in the space, grouped by output
        # degree d = deg(k).
        # Within degree d the pairs run over i in index order, then over j of
        # degree d - deg(i).  Each output slot k thus receives its summands in
        # ascending i, the order of an i-major table, and since np.bincount
        # adds its weights in array order every product is bit-identical to a
        # full i-major product masked to the result order.
        by_degree: dict[int, list[int]] = {d: [] for d in range(order + 1)}
        for i, alpha in enumerate(self.indices):
            by_degree[sum(alpha)].append(i)
        ia, ib, ic = [], [], []
        ends = []  # ends[o]: number of pairs of output degree <= o
        for d in range(order + 1):
            for da in range(d + 1):
                for i in by_degree[da]:
                    alpha = self.indices[i]
                    for j in by_degree[d - da]:
                        beta = self.indices[j]
                        k = self.index_of.get(tuple(a + b for a, b in zip(alpha, beta)))
                        if k is None:  # x-degree above the cap
                            continue
                        ia.append(i)
                        ib.append(j)
                        ic.append(k)
            ends.append(len(ia))
        self._mul_ia = np.array(ia, dtype=np.intp)
        self._mul_ib = np.array(ib, dtype=np.intp)
        self._mul_ic = np.array(ic, dtype=np.intp)
        # _mul_prefix[o]: views of the pairs a product of order-o jets needs;
        # its slots above degree o get no summand and stay exactly zero
        self._mul_prefix = [
            (self._mul_ia[:e], self._mul_ib[:e], self._mul_ic[:e]) for e in ends
        ]
        self._pairs: dict[tuple[int, int, int], tuple] = {}

        # derivative tables: one (src, dst, factor) triple set per variable;
        # a source of degree > order or above the cap is not in the space,
        # and its target stays zero
        self._deriv = []
        for v in range(nvars):
            src, dst, fac = [], [], []
            for j, beta in enumerate(self.indices):
                shifted = list(beta)
                shifted[v] += 1
                k = self.index_of.get(tuple(shifted))
                if k is None:
                    continue
                src.append(k)
                dst.append(j)
                fac.append(beta[v] + 1.0)
            self._deriv.append(
                (
                    np.array(src, dtype=np.intp),
                    np.array(dst, dtype=np.intp),
                    np.array(fac),
                )
            )

        # monomial recursion for compose(): the slot of alpha (degree >= 1) is
        # the slot of alpha minus its first variable v, times variable v
        self._mono_var = np.zeros(self.size, dtype=np.intp)
        self._mono_parent = np.zeros(self.size, dtype=np.intp)
        for i, alpha in enumerate(self.indices[1:], start=1):
            v = next(k for k, a in enumerate(alpha) if a)
            self._mono_var[i] = v
            self._mono_parent[i] = self.index_of[
                tuple(a - (k == v) for k, a in enumerate(alpha))
            ]

    @classmethod
    def get(cls, nvars: int, order: int, capped: int = 0, cap: int | None = None) -> "JetSpace":
        if capped == 0 or cap is None or cap >= order:
            capped, cap = 0, order  # the full space
        key = (nvars, order, capped, cap)
        space = cls._cache.get(key)
        if space is None:
            space = cls(nvars, order, capped, cap)
            cls._cache[key] = space
        return space

    def pairs(self, order: int, support_a: int, support_b: int) -> tuple:
        """The pairs of ``_mul_prefix[order]``, in its order, whose left slot
        involves only variables in ``support_a`` and right slot only variables
        in ``support_b``."""
        key = (order, support_a, support_b)
        table = self._pairs.get(key)
        if table is None:
            table = self._mul_prefix[order]
            if support_a != self.full_support or support_b != self.full_support:
                ia, ib, ic = table
                keep = self._within(support_a)[ia] & self._within(support_b)[ib]
                table = (ia[keep], ib[keep], ic[keep])
            self._pairs[key] = table
        return table

    def _within(self, support: int) -> np.ndarray:
        """Per slot: its multi-index involves only variables in ``support``."""
        outside = [v for v in range(self.nvars) if not support >> v & 1]
        return ~self.slot_vars[:, outside].any(axis=1)

    # -- the kernels ---------------------------------------------------------

    def product(
        self,
        a: np.ndarray,
        b: np.ndarray,
        order: int,
        support_a: int | None = None,
        support_b: int | None = None,
    ) -> np.ndarray:
        """Slot-wise jet products of ``a`` and ``b`` (broadcast against each
        other), truncated at ``order``.  ``support_a`` and ``support_b`` bound
        the variables the factors' non-zero slots involve; ``None`` is every
        variable."""
        full = self.full_support
        ia, ib, ic = self.pairs(
            order,
            full if support_a is None else support_a,
            full if support_b is None else support_b,
        )
        if a.ndim == 1 and b.ndim == 1:  # one jet: plain indexing is faster
            return np.bincount(ic, weights=a[ia] * b[ib], minlength=self.size)
        w = a[..., ia] * b[..., ib]
        rows = math.prod(w.shape[:-1])
        # one bincount over all rows: row r's slots are bins r * size + slot
        flat = (np.arange(rows)[:, None] * self.size + ic).ravel()
        out = np.bincount(flat, weights=w.ravel(), minlength=rows * self.size)
        return out.reshape(w.shape[:-1] + (self.size,))

    def terms(self, c: np.ndarray, point: np.ndarray, degrees) -> np.ndarray:
        """Sum of the terms of the jets ``c`` (last axis over slots) whose
        degree is in ``degrees``, evaluated at ``point`` (one value per
        variable)."""
        monomials = np.prod(point**self.exponents, axis=1)
        keep = np.isin(self.degrees, degrees)
        return c[..., keep] @ monomials[keep]

    def derivative(self, c: np.ndarray, v: int) -> np.ndarray:
        """Partial derivative in variable ``v`` of every jet in the stack ``c``."""
        src, dst, fac = self._deriv[v]
        out = np.zeros(c.shape)
        out[..., dst] = c[..., src] * fac
        return out

    # -- constructors -------------------------------------------------------

    def constant(self, value: float) -> "TaylorJet":
        c = np.zeros(self.size)
        c[0] = float(value)
        return TaylorJet(self, self.order, c, 0)

    def variable(self, v: int, value: float) -> "TaylorJet":
        """The coordinate function of variable ``v`` expanded at ``value``."""
        c = np.zeros(self.size)
        c[0] = float(value)
        i = self.index_of.get(unit_index(self.nvars, v))
        if i is not None:  # absent at order 0 or cap 0
            c[i] = 1.0
        return TaylorJet(self, self.order, c, 1 << v)


class TaylorJet:
    """One truncated multivariate Taylor series, valid up to ``self.order``.

    Coefficients above the jet's own validity order are kept zeroed so that
    arithmetic never propagates stale high-degree terms.  ``support`` is a
    bitmask of the variables the non-zero coefficients may involve: every slot
    whose multi-index uses a variable outside it is exactly 0, so products skip
    those slots bit-identically (see the module docstring).  ``None`` means
    every variable, the right default for a jet built from a raw array.
    """

    __slots__ = ("space", "order", "c", "support")

    def __init__(self, space: JetSpace, order: int, c: np.ndarray, support: int | None = None):
        self.space = space
        self.order = order
        self.c = c
        self.support = space.full_support if support is None else support

    # -- inspection ---------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

    def partials(self, *axes) -> np.ndarray:
        """Tensor of the true mixed partials taking one variable from each of
        ``axes`` (sequences of variable numbers); one axis gives a gradient,
        two a Hessian block."""
        at, nv = self.space.index_of, self.space.nvars
        idx = np.array([at[unit_index(nv, *vs)] for vs in cartesian(*axes)], dtype=np.intp)
        values = self.c[idx] * self.space.factorials[idx]
        return values.reshape([len(axis) for axis in axes])

    def deriv(self, v: int) -> "TaylorJet":
        """Partial derivative with respect to variable ``v``; drops one order."""
        if self.order < 1:
            raise OrderUnsupported("cannot differentiate an order-0 jet")
        c = self.space.derivative(self.c, v)
        out = TaylorJet(self.space, self.order - 1, c, self.support)
        out._mask()
        return out

    def _mask(self):
        if self.order < self.space.order:
            self.c *= self.space.masks[self.order]
        return self

    def copy(self) -> "TaylorJet":
        return TaylorJet(self.space, self.order, self.c.copy(), self.support)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TaylorJet):
            c = self.c + other.c
            out = TaylorJet(
                self.space, min(self.order, other.order), c, self.support | other.support
            )
            return out._mask()
        c = self.c.copy()
        c[0] += float(other)
        return TaylorJet(self.space, self.order, c, self.support)

    __radd__ = __add__

    def __neg__(self):
        return TaylorJet(self.space, self.order, -self.c, self.support)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, TaylorJet) else -float(other))

    def __rsub__(self, other):
        return (-self).__add__(float(other))

    def __mul__(self, other):
        if not isinstance(other, TaylorJet):
            return TaylorJet(self.space, self.order, self.c * float(other), self.support)
        order = min(self.order, other.order)
        c = self.space.product(self.c, other.c, order, self.support, other.support)
        return TaylorJet(self.space, order, c, self.support | other.support)

    __rmul__ = __mul__

    def reciprocal(self) -> "TaylorJet":
        c0 = self.c[0]
        if c0 == 0.0:
            raise NonFiniteField("reciprocal of a jet with zero constant term")
        inv = self.space.constant(1.0 / c0)
        inv.order, inv.support = self.order, self.support
        # Newton doubles the number of correct orders each sweep
        sweeps = max(1, math.ceil(math.log2(self.order + 1))) if self.order else 0
        for _ in range(sweeps):
            inv = inv * (2.0 - self * inv)
        return inv

    def __truediv__(self, other):
        if isinstance(other, TaylorJet):
            return self * other.reciprocal()
        return TaylorJet(self.space, self.order, self.c / float(other), self.support)

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            k = int(p)
            if k < 0:
                return self.reciprocal() ** (-k)
            if k == 0:
                one = self.space.constant(1.0)
                one.order, one.support = self.order, self.support
                return one
            result, base = None, self
            while k:
                if k & 1:
                    result = base if result is None else result * base
                k >>= 1
                if k:
                    base = base * base
            return result.copy() if result is self else result
        return self._pow_real(float(p))

    # -- analytic functions -------------------------------------------------

    def _compose(self, series: np.ndarray) -> "TaylorJet":
        """Horner evaluation of sum_k series[k] * (self - value)^k."""
        w = self.copy()
        w.c[0] = 0.0
        if len(series) == 1:  # order 0: w is zero
            w.c[0] = series[0]
            return w
        r = w * series[-1]
        r.c[0] += series[-2]
        for k in range(len(series) - 3, -1, -1):
            r = r * w
            r.c[0] += series[k]
        return r

    def sin(self):
        u0, m = self.c[0], self.order
        series = np.array(
            [math.sin(u0 + k * math.pi / 2.0) / math.factorial(k) for k in range(m + 1)]
        )
        return self._compose(series)

    def cos(self):
        u0, m = self.c[0], self.order
        series = np.array(
            [math.cos(u0 + k * math.pi / 2.0) / math.factorial(k) for k in range(m + 1)]
        )
        return self._compose(series)

    def exp(self):
        u0, m = self.c[0], self.order
        e = _float_exp(u0)
        series = np.array([e / math.factorial(k) for k in range(m + 1)])
        return self._compose(series)

    def log(self):
        u0, m = self.c[0], self.order
        if u0 <= 0.0:
            raise NonFiniteField(f"log of jet with non-positive value {u0:.3e}")
        series = [math.log(u0)]
        for k in range(1, m + 1):
            series.append(((-1.0) ** (k + 1)) / (k * u0**k))
        return self._compose(np.array(series))

    def _pow_real(self, p: float):
        u0, m = self.c[0], self.order
        if u0 <= 0.0:
            raise NonFiniteField(
                f"non-integer power {p} of jet with non-positive value {u0:.3e}"
            )
        series, coeff = [], 1.0
        for k in range(m + 1):
            series.append(coeff * _float_pow(u0, p - k))
            coeff *= (p - k) / (k + 1.0)
        return self._compose(np.array(series))

    def sqrt(self):
        return self._pow_real(0.5)

    def absolute(self):
        u0 = self.c[0]
        if u0 == 0.0:
            raise NonFiniteField("abs of a jet centered exactly on its kink")
        return self if u0 > 0.0 else -self

    def __repr__(self):
        return f"TaylorJet(order={self.order}, value={self.value:.6g})"


# -- generic scalar shims ----------------------------------------------------
#
# Fields are written once and evaluated over floats or jets; these helpers
# dispatch by type so model code never branches.


def _shim(jet_method, float_fn):
    def fn(v):
        if isinstance(v, TaylorJet):
            return jet_method(v)
        return float_fn(v)

    return fn


def _float_exp(v):
    try:
        return math.exp(v)
    except OverflowError:
        raise NonFiniteField(f"exp of {v:.3e} overflows") from None


def _float_pow(base, exponent):
    try:
        return float(base) ** exponent
    except OverflowError:
        raise NonFiniteField(f"power {exponent} of {base:.3e} overflows") from None


def _float_log(v):
    if v <= 0.0:
        raise NonFiniteField(f"log of non-positive value {v:.3e}")
    return math.log(v)


def _float_sqrt(v):
    if v < 0.0:
        raise NonFiniteField(f"sqrt of negative value {v:.3e}")
    return math.sqrt(v)


sin = _shim(TaylorJet.sin, math.sin)
cos = _shim(TaylorJet.cos, math.cos)
exp = _shim(TaylorJet.exp, _float_exp)
log = _shim(TaylorJet.log, _float_log)
sqrt = _shim(TaylorJet.sqrt, _float_sqrt)
absolute = _shim(TaylorJet.absolute, abs)


def power(base, exponent):
    """Generic ``base ** exponent`` for float or jet base and numeric exponent."""
    if isinstance(base, TaylorJet):
        return base**exponent
    base, exponent = float(base), float(exponent)
    if base == 0.0 and exponent < 0.0:
        raise NonFiniteField(f"power {exponent} of zero")
    if base < 0.0 and not exponent.is_integer():
        raise NonFiniteField(f"non-integer power {exponent} of negative value {base:.3e}")
    return _float_pow(base, exponent)


def eval_taylor(
    field, point: TangentBundlePoint, order: int, x_order: int | None = None
) -> TaylorJet:
    """Jet of ``field(x_vars, y_vars)`` at ``point``: every mixed partial up to
    ``order``, read with :meth:`TaylorJet.partials`.

    Exact for polynomial fields of degree <= order; raises
    :class:`NonFiniteField` if any coefficient fails to be finite.
    ``x_order`` caps the joint degree in the n manifold variables (see
    :class:`JetSpace` for which slots stay exact); ``None`` keeps them all.
    """
    n = point.dim
    space = JetSpace.get(2 * n, order, n, x_order)
    xs = [space.variable(i, point.x[i]) for i in range(n)]
    ys = [space.variable(n + i, point.y[i]) for i in range(n)]
    out = field(xs, ys)
    if not isinstance(out, TaylorJet):
        out = space.constant(float(out))
    if not np.isfinite(out.c).all():
        raise NonFiniteField("field evaluation produced non-finite derivatives")
    return out


# -- composition -------------------------------------------------------------


def compose(coef: np.ndarray, space: JetSpace, inner: np.ndarray, out: JetSpace) -> np.ndarray:
    """Coefficients in ``out`` of f(w0 + inner), to the order of ``out``.

    ``coef[..., i]`` is the Taylor coefficient of f at ``space.indices[i]``
    around w0 (the slots of degree <= ``out.order`` are read), and ``inner``
    holds the ``space.nvars`` deviation jets as an (nvars, out.size) array with
    zero constant terms.  The result is the coefficient matrix times the
    monomials of the deviation jets, each monomial one product from a lower one.
    """
    order = out.order
    count = int(np.searchsorted(space.degrees, order, side="right"))
    mono = np.zeros((count, out.size))
    mono[0, 0] = 1.0
    for d in range(1, order + 1):
        lo, hi = np.searchsorted(space.degrees[:count], [d, d + 1])
        var = space._mono_var[lo:hi]
        if d == 1:
            mono[lo:hi] = inner[var]
        else:
            mono[lo:hi] = out.product(mono[space._mono_parent[lo:hi]], inner[var], order)
    return coef[..., :count] @ mono
