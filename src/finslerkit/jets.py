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

Each multi-index has one integer code (see :class:`JetSpace`).  Codes add
without carry, so a space builds its tables as array arithmetic on codes.
Its tables are private: other modules find a slot only through
:meth:`JetSpace.slots` and :meth:`JetSpace.partial_slots`, a product's pairs
through :meth:`JetSpace.pairs` and the slots within a support through
:meth:`JetSpace.within`.

There is one product and one derivative, both on coefficient arrays:
:meth:`JetSpace.product` and :meth:`JetSpace.derivative`.  A
:class:`TaylorJet` is one such array with a support, and its ``*`` calls the
product; :func:`compose` and the Taylor-mode flows call the kernels on stacks
of arrays.  The product folds a precomputed (i, j, k) pair table, sorted by
output degree, with ``np.bincount``.  A jet is valid to its space's order.
Since slots come in (degree, lex) order, the slots of the order-k space, and
its pairs in their order, are the first ones of the order-m space of the same
cap for any k <= m (truncated Taylor arithmetic, Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008): a quantity valid one order
lower, such as a derivative, lives in that space, restricted by slicing.
Division goes through a Newton iteration for the reciprocal; analytic
functions (sin, exp, sqrt, ...) compose their univariate Taylor series, one
helper per function in :data:`SERIES`, with the nilpotent part via Horner's
rule; :func:`compose` applies a multivariate jet to other jets (how
Taylor-mode flows push N's jet through their state).  A model's Lagrangian
runs the same operations from its compiled expression tape
(``expressions.Tape``): the products of each wave are one
:func:`wave_products` over a register file, their terms read from
:meth:`JetSpace.pairs`.

Every jet also carries a ``support``: a bitmask of the variables its non-zero
coefficients may involve.  The invariant is that each slot whose multi-index
uses a variable outside the support holds exactly 0.  A constant has support
0, ``variable(v)`` has ``1 << v``, sums and products take the union, and the
other operations keep their operand's support; a jet built from a raw array
gets every variable.  A product runs only the pairs whose left slot lies in
the left support and whose right slot lies in the right one (sparse
derivative propagation, ibid., ch. 13).  Every dropped pair has an exactly
zero factor, so its product is +0 or -0 when the other factor is finite; and
``np.bincount`` starts each bin from +0.0 and adds in array order, so no bin
is ever -0.0 and adding a signed zero never changes it.  The kept pairs run in
the table's order, so finite products are bit-identical to the full-table
product, sign bits included.

A reciprocal of a jet with zero constant term, a float power of zero with a
negative exponent, a square root or logarithm outside its domain, and an
exponential or real power that overflows (float or jet) raise
:class:`NonFiniteField`, the error of every other point where a field has no
finite Taylor expansion.
"""

from __future__ import annotations

import math
from functools import partialmethod

import numpy as np

from .bundle import TangentBundlePoint
from .errors import NonFiniteField, OrderUnsupported


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

    Each slot's multi-index alpha has one integer code, ``codes[slot]``: the
    digits (|alpha|, alpha_1, ..., alpha_nvars) in base ``order + 1`` (int64,
    or Python integers past its range).  No digit of a sum of two
    multi-indices within the order exceeds the order, so codes add without
    carry, code(alpha + beta) = code(alpha) + code(beta), and they increase
    with the slot.  Every table is built from them with
    array operations: a product pair's output slot, a derivative's source and
    a monomial's parent are binary searches of a sum or difference of codes.
    :meth:`slots` is the one lookup of a multi-index's slot, and
    :meth:`partial_slots` gives the slots and factorials of a tensor of mixed
    partials.

    The space owns the jet arithmetic's two kernels, on coefficient arrays
    whose last axis runs over its slots: :meth:`product` and
    :meth:`derivative`.  A product of factors with partial supports (see
    :class:`TaylorJet`) runs the subsequence of the pair table that
    :meth:`pairs` filters by the supports, cached per (support_a, support_b);
    full against full is the whole table.  For k <= ``order`` the order-k
    space of the same ``capped`` and ``cap`` is this space's prefix: its
    slots, and its pairs in their order, are the first ones of this space.

    Instances are cached per (nvars, order, capped, cap); construction cost is
    paid once per process.
    """

    _cache: dict[tuple[int, int, int, int], "JetSpace"] = {}

    def __init__(self, nvars: int, order: int, capped: int = 0, cap: int | None = None):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        if not 0 <= capped <= nvars or (cap is not None and cap < 0):
            raise ValueError("need 0 <= capped <= nvars and cap >= 0")
        base = order + 1
        self.nvars = nvars
        self.order = order
        self.capped = capped
        self.cap = order if cap is None else cap
        # place: the weights of the digits (degree, alpha_1, ..., alpha_nvars),
        # Python integers where a code can pass the int64 range
        wide = base ** (nvars + 1) > np.iinfo(np.int64).max
        self._place = base ** np.arange(nvars, -1, -1, dtype=object if wide else np.int64)
        unit = self._place[0] + self._place[1:]  # the code of each e_v

        # degree d's codes are the sums of degree d - 1's with each e_v, sorted
        # (hence lex within the degree); the x-degrees above a cap form an
        # ideal, so every kept multi-index has a kept parent
        blocks = [np.zeros(1, dtype=self._place.dtype)]
        for _ in range(order):
            block = np.sort((blocks[-1][:, None] + unit).ravel())
            block = block[np.diff(block, prepend=-1) > 0]  # each sum once
            x_degree = (block[:, None] // self._place[1 : capped + 1] % base).sum(axis=1)
            blocks.append(block[x_degree <= self.cap])
        self.codes = np.concatenate(blocks)
        self.size = self.codes.size
        self.degrees = (self.codes // self._place[0]).astype(np.int64, copy=False)
        # exponents[i, v]: the power of variable v in slot i's monomial
        self.exponents = (self.codes[:, None] // self._place[1:] % base).astype(np.int64, copy=False)
        self.slot_vars = self.exponents > 0
        self.full_support = (1 << nvars) - 1
        self._partial_tables: dict[tuple, tuple] = {}

        # factorial(alpha) per slot, for converting Taylor coefficients into
        # true mixed partials
        factorial = np.array([math.factorial(k) for k in range(base)])
        self.factorials = factorial[self.exponents].prod(axis=1).astype(float)

        # multiplication table: c[k] += a[i] * b[j] over all pairs with
        # deg(i) + deg(j) <= order and k in the space, grouped by output
        # degree d = deg(k).
        # Within degree d the pairs run over i in index order, then over j of
        # degree d - deg(i).  Each output slot k thus receives its summands in
        # ascending i, the order of an i-major table, and since np.bincount
        # adds its weights in array order every product is bit-identical to a
        # full i-major product.  The pairs of output degree <= k are the whole
        # table of the order-k space, on the same slots.
        lo = np.searchsorted(self.degrees, np.arange(order + 2))  # degree d: lo[d]:lo[d + 1]
        ia, ib, ic = [], [], []
        for d in range(order + 1):
            for da in range(d + 1):
                i = np.arange(lo[da], lo[da + 1])[:, None]
                j = np.arange(lo[d - da], lo[d - da + 1])
                k = self._find(self.codes[i] + self.codes[j])
                kept = k >= 0  # False: x-degree above the cap
                ia.append(np.broadcast_to(i, k.shape)[kept])
                ib.append(np.broadcast_to(j, k.shape)[kept])
                ic.append(k[kept])
        self._mul_ia = np.concatenate(ia)
        self._mul_ib = np.concatenate(ib)
        self._mul_ic = np.concatenate(ic)
        self._pairs: dict[tuple[int, int], tuple] = {}

        # derivative tables: one (src, dst, factor) triple set per variable;
        # a source of degree > order or above the cap is not in the space,
        # and its target stays zero (only slots below the order shift, so no
        # sum of codes carries)
        inner = np.flatnonzero(self.degrees < order)
        self._deriv = []
        for v in range(nvars):
            src = self._find(self.codes[inner] + unit[v])
            dst = inner[src >= 0]
            self._deriv.append((src[src >= 0], dst, self.exponents[dst, v] + 1.0))

        # monomial recursion for compose(): the slot of alpha (degree >= 1) is
        # the slot of alpha minus its first variable v, times variable v
        self._mono_var = np.argmax(self.slot_vars, axis=1)
        self._mono_parent = self._find(self.codes - unit[self._mono_var])
        self._mono_parent[0] = 0

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

    def slots(self, exponents) -> np.ndarray:
        """The slot of each multi-index in ``exponents`` (its last axis runs
        over the variables), or -1 where the space does not hold it: a
        negative exponent, a degree above the order or an x-degree above the
        cap."""
        exponents = np.asarray(exponents, dtype=np.int64)
        digits = np.concatenate([exponents.sum(axis=-1, keepdims=True), exponents], axis=-1)
        found = self._find(digits.astype(self._place.dtype, copy=False) @ self._place)
        # within the order no digit carries, so the code is alpha's own
        return np.where((digits[..., 0] <= self.order) & (exponents >= 0).all(axis=-1), found, -1)

    def partial_slots(self, *axes) -> tuple:
        """Slots and factorials of the mixed partials taking one variable from
        each of ``axes`` (sequences of variable numbers), as two arrays of
        shape ``[len(axis) for axis in axes]``; cached per axes."""
        key = tuple(map(tuple, axes))
        table = self._partial_tables.get(key)
        if table is None:
            unit = np.eye(self.nvars, dtype=np.int64)
            counts = sum((unit[g] for g in np.ix_(*key)), np.zeros(self.nvars, dtype=np.int64))
            idx = self.slots(counts)
            if (idx < 0).any():
                raise OrderUnsupported(f"partials {key} lie outside the jet space")
            table = self._partial_tables[key] = (idx, self.factorials[idx])
        return table

    def _find(self, codes: np.ndarray) -> np.ndarray:
        """The slot of each code, or -1 where no slot has it."""
        at = np.minimum(np.searchsorted(self.codes, codes), self.size - 1)
        return np.where(self.codes[at] == codes, at, -1)

    def pairs(self, support_a: int, support_b: int) -> tuple:
        """The product pairs (i, j, k), in table order, whose left slot
        involves only variables in ``support_a`` and right slot only variables
        in ``support_b``."""
        key = (support_a, support_b)
        table = self._pairs.get(key)
        if table is None:
            ia, ib, ic = self._mul_ia, self._mul_ib, self._mul_ic
            if support_a != self.full_support or support_b != self.full_support:
                keep = self.within(support_a)[ia] & self.within(support_b)[ib]
                ia, ib, ic = ia[keep], ib[keep], ic[keep]
            table = self._pairs[key] = (ia, ib, ic)
        return table

    def within(self, support: int) -> np.ndarray:
        """Per slot: its multi-index involves only variables in ``support``."""
        outside = [v for v in range(self.nvars) if not support >> v & 1]
        return ~self.slot_vars[:, outside].any(axis=1)

    # -- the kernels ---------------------------------------------------------

    def product(
        self,
        a: np.ndarray,
        b: np.ndarray,
        support_a: int | None = None,
        support_b: int | None = None,
    ) -> np.ndarray:
        """Slot-wise jet products of ``a`` and ``b`` (broadcast against each
        other), truncated at the space order.  ``support_a`` and ``support_b``
        bound the variables the factors' non-zero slots involve; ``None`` is
        every variable."""
        full = self.full_support
        ia, ib, ic = self.pairs(
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
        """Partial derivative in variable ``v`` of every jet in the stack ``c``,
        valid one order below the space (its top-degree slots read 0)."""
        src, dst, fac = self._deriv[v]
        out = np.zeros(c.shape)
        out[..., dst] = c[..., src] * fac
        return out

    # -- constructors -------------------------------------------------------

    def constant(self, value: float) -> "TaylorJet":
        c = np.zeros(self.size)
        c[0] = float(value)
        return TaylorJet(self, c, 0)

    def variable(self, v: int, value: float) -> "TaylorJet":
        """The coordinate function of variable ``v`` expanded at ``value``."""
        c = np.zeros(self.size)
        c[0] = float(value)
        i = self.slots(np.eye(self.nvars, dtype=np.int64)[v])
        if i >= 0:  # absent at order 0 or cap 0
            c[i] = 1.0
        return TaylorJet(self, c, 1 << v)


class TaylorJet:
    """One truncated multivariate Taylor series, valid to its space's order.

    ``support`` is a bitmask of the variables the non-zero coefficients may
    involve: every slot whose multi-index uses a variable outside it is
    exactly 0, so products skip those slots bit-identically (see the module
    docstring).  ``None`` means every variable, the right default for a jet
    built from a raw array.
    """

    __slots__ = ("space", "c", "support")

    def __init__(self, space: JetSpace, c: np.ndarray, support: int | None = None):
        self.space = space
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
        idx, factorials = self.space.partial_slots(*axes)
        return self.c[idx] * factorials

    def copy(self) -> "TaylorJet":
        return TaylorJet(self.space, self.c.copy(), self.support)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TaylorJet):
            return TaylorJet(self.space, self.c + other.c, self.support | other.support)
        c = self.c.copy()
        c[0] += float(other)
        return TaylorJet(self.space, c, self.support)

    __radd__ = __add__

    def __neg__(self):
        return TaylorJet(self.space, -self.c, self.support)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, TaylorJet) else -float(other))

    def __rsub__(self, other):
        return (-self).__add__(float(other))

    def __mul__(self, other):
        if not isinstance(other, TaylorJet):
            return TaylorJet(self.space, self.c * float(other), self.support)
        c = self.space.product(self.c, other.c, self.support, other.support)
        return TaylorJet(self.space, c, self.support | other.support)

    __rmul__ = __mul__

    def reciprocal(self) -> "TaylorJet":
        inv = self.space.constant(reciprocal_start(self.c[0]))
        inv.support = self.support
        for _ in range(newton_sweeps(self.space.order)):
            inv = inv * (2.0 - self * inv)
        return inv

    def __truediv__(self, other):
        if isinstance(other, TaylorJet):
            return self * other.reciprocal()
        return TaylorJet(self.space, self.c / float(other), self.support)

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            k = int(p)
            if k < 0:
                return self.reciprocal() ** (-k)
            if k == 0:
                return TaylorJet(self.space, self.space.constant(1.0).c, self.support)
            result, base = None, self
            while k:
                if k & 1:
                    result = base if result is None else result * base
                k >>= 1
                if k:
                    base = base * base
            return result.copy() if result is self else result
        return self._series("power", float(p))

    # -- analytic functions -------------------------------------------------

    def _compose(self, series) -> "TaylorJet":
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

    def _series(self, name: str, p) -> "TaylorJet":
        return self._compose(SERIES[name](self.c[0], self.space.order, p))

    sin = partialmethod(_series, "sin", None)
    cos = partialmethod(_series, "cos", None)
    exp = partialmethod(_series, "exp", None)
    log = partialmethod(_series, "log", None)
    sqrt = partialmethod(_series, "power", 0.5)

    def absolute(self):
        return self if abs_sign(self.c[0]) > 0.0 else -self

    def __repr__(self):
        return f"TaylorJet(order={self.space.order}, value={self.value:.6g})"


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


# -- one source per function --------------------------------------------------
#
# The Taylor coefficients of f(u0 + t) in t to degree m, and the scalar steps
# of abs and the reciprocal: TaylorJet's methods and the compiled expression
# tape (``expressions.Tape``) both call these, so the two agree bit for bit.


def _log_series(u0, m, p):
    if u0 <= 0.0:
        raise NonFiniteField(f"log of jet with non-positive value {u0:.3e}")
    series = [math.log(u0)]
    for k in range(1, m + 1):
        try:  # Python floats: an overflow raises instead of reading 0
            series.append(((-1.0) ** (k + 1)) / (k * float(u0) ** k))
        except OverflowError:  # u0^k is above the float range, so the term is below it
            series.append(((-1.0) ** (k + 1)) * (1.0 / u0) ** k / k)
        except ZeroDivisionError:
            raise NonFiniteField(f"log of {u0:.3e}: Taylor coefficient {k} overflows") from None
    return series


def _power_series(u0, m, p):
    if u0 <= 0.0:
        raise NonFiniteField(f"non-integer power {p} of jet with non-positive value {u0:.3e}")
    series, coeff = [], 1.0
    for k in range(m + 1):
        series.append(coeff * _float_pow(u0, p - k))
        coeff *= (p - k) / (k + 1.0)
    return series


def _exp_series(u0, m, p):
    e = _float_exp(u0)
    return [e / math.factorial(k) for k in range(m + 1)]


def _trig_series(fn):
    return lambda u0, m, p: [fn(u0 + k * math.pi / 2.0) / math.factorial(k) for k in range(m + 1)]


SERIES = {
    "sin": _trig_series(math.sin),
    "cos": _trig_series(math.cos),
    "exp": _exp_series,
    "log": _log_series,
    "power": _power_series,  # sqrt is the power 1/2
}


def abs_sign(u0) -> float:
    """The factor, 1 or -1, that abs multiplies a jet of value ``u0`` by."""
    if u0 == 0.0:
        raise NonFiniteField("abs of a jet centered exactly on its kink")
    return 1.0 if u0 > 0.0 else -1.0


def reciprocal_start(c0) -> float:
    """The reciprocal's Newton start 1/c0."""
    if c0 == 0.0:
        raise NonFiniteField("reciprocal of a jet with zero constant term")
    return 1.0 / c0


def newton_sweeps(order: int) -> int:
    """Newton sweeps a reciprocal of ``order`` needs: each doubles the number
    of correct orders."""
    return max(1, math.ceil(math.log2(order + 1))) if order else 0


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
    return finite_jet(field(xs, ys), space, point)


def finite_jet(out, space: JetSpace, point: TangentBundlePoint) -> TaylorJet:
    """``out`` as a jet in ``space`` (a float is a constant); raises
    :class:`NonFiniteField` naming ``point`` if a coefficient is not finite."""
    if not isinstance(out, TaylorJet):
        out = space.constant(float(out))
    if not np.isfinite(out.c).all():
        raise NonFiniteField(f"field evaluation produced non-finite derivatives at {point}")
    return out


def lane_bincount(bins: np.ndarray, weights: np.ndarray, width: int) -> np.ndarray:
    """``np.bincount(bins, weights, minlength=width)`` of each lane of a
    (len(bins), B) stack of weights, as a (width, B) array: the term of lane
    l in bin i folds into bin i * B + l, so one call sums every lane in its
    own order, bit-identical to its own call."""
    lanes = weights.shape[1]
    bins = (bins[:, None] * lanes + np.arange(lanes)).ravel()
    return np.bincount(bins, weights.ravel(), width * lanes).reshape(width, lanes)


def wave_products(flat: np.ndarray, out: slice, factors, bins) -> None:
    """One wave of jet products and sums on the register file ``flat``: with
    the first half of ``factors`` the left cells of the terms and the second
    half the right ones, cell ``out.start + i`` becomes the sum of the term
    products over the terms t with ``bins[t] == i``, added in term order from
    +0.0.  An (ncells, B) file of B lanes sums each lane in its own order
    (:func:`lane_bincount`), and gathers its rows with ``take``: the same
    copy as fancy indexing, which copies a short trailing axis element by
    element and so runs several times slower.  Every lane gather of the tape
    and of the connection kernel is a ``take`` for this reason.

    Each product's terms are its :meth:`JetSpace.pairs` table mapped to cells,
    its bins offset to its own output cells, so every output gets its summands in
    its own product's order and each product is bit-identical to
    :meth:`JetSpace.product`.
    """
    single = flat.ndim == 1
    values = flat[factors] if single else flat.take(factors, 0)
    fold = np.bincount if single else lane_bincount
    half = len(bins)
    flat[out] = fold(bins, values[:half] * values[half:], out.stop - out.start)


# -- composition -------------------------------------------------------------


def compose(coef: np.ndarray, space: JetSpace, inner: np.ndarray, out: JetSpace) -> np.ndarray:
    """Coefficients in ``out`` of f(w0 + inner), to the order of ``out``.

    ``coef[..., i]`` is the Taylor coefficient of f at ``space.exponents[i]``
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
            mono[lo:hi] = out.product(mono[space._mono_parent[lo:hi]], inner[var])
    return coef[..., :count] @ mono
