"""Homogeneous fiber Lagrangians: families, L-metric, and validation.

A Lagrangian here is a scalar field L(x, y) on the tangent bundle,
positively homogeneous of integer degree r >= 2 in y.  Four families are
supported, all driven by coefficient expressions so a model document fully
determines the geometry:

* ``quadratic``  — L = g_ab(x) y^a y^b (pseudo-Riemannian square)
* ``randers``    — L = (sqrt(a_ab(x) y^a y^b) + b_a(x) y^a)^exponent
* ``pth_root``   — L given directly as a degree-p form (r = p)
* ``custom``     — arbitrary expression with a declared degree

At load each family is lowered to one expression tree that keeps its
operations in their order (see ``FinslerLagrangian._lower``).  That tree is
the one source of L: floats walk it with ``expressions.evaluate``, and jets
run its compiled tape (``expressions.compiled``), one per jet space and kind
of input, shared by every model loaded from the same document.  A python
callable (:meth:`FinslerLagrangian.from_callable`) is the one other evaluator.

The fiber Hessian g^L_ab = (1/2) d/dy^a d/dy^b L (the "L-metric") is the
fundamental tensor everything downstream consumes.
"""

from __future__ import annotations

import numpy as np

from . import expressions as ex
from .bundle import (
    DEGENERACY_CONDITION_LIMIT,
    TangentBundlePoint,
    all_finite,
    bundle_point,
    state_text,
)
from .errors import ModelFormatError, NonFiniteField
from .jets import JetSpace, TaylorJet, eval_taylor, finite_jet

_FAMILIES = ("quadratic", "randers", "pth_root", "custom")

# validate_spacetime's fiber scalings and relative tolerance
_SCALINGS = (0.5, 2.0, 3.0)
_VALIDATION_TOL = 1e-9


def _whole_number(value, what) -> int:
    """``value`` as an int; only whole numbers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ModelFormatError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _parse_matrix(rows, n, what):
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise ModelFormatError(f"{what} must be an {n}x{n} nested list")
    return [[ex.parse(str(entry)) for entry in row] for row in rows]


def _parse_vector(entries, n, what):
    if not isinstance(entries, list) or len(entries) != n:
        raise ModelFormatError(f"{what} must be a list of length {n}")
    return [ex.parse(str(entry)) for entry in entries]


def _parse_box(domain, n):
    """The (x_min, x_max) box and the y_norm band (lo, hi) of a domain block;
    [-1, 1]^n and (0.5, 2) where it is silent."""
    domain = {} if domain is None else domain
    if not isinstance(domain, dict):
        raise ModelFormatError("domain must be a mapping")
    parsed = []
    for key, default, size in (
        ("x_min", [-1.0] * n, n), ("x_max", [1.0] * n, n), ("y_norm", [0.5, 2.0], 2)
    ):
        entries = domain.get(key, default)
        try:
            bound = np.asarray(entries, dtype=float)
        except (TypeError, ValueError):
            bound = None
        if bound is None or bound.shape != (size,):
            raise ModelFormatError(f"domain {key} must be a list of {size} numbers, got {entries!r}")
        parsed.append(bound)
    lo, hi, band = parsed
    if not (lo < hi).all():
        raise ModelFormatError(f"domain x_min {lo.tolist()} must lie below x_max {hi.tolist()}")
    if not (np.isfinite(band).all() and 0.0 < band[0] <= band[1]):
        raise ModelFormatError(
            f"domain y_norm {band.tolist()} must be two finite numbers with 0 < lo <= hi"
        )
    return lo, hi, tuple(band.tolist())


def _check_variables(trees, n, what):
    allowed = {f"x{i + 1}" for i in range(n)} | {f"y{i + 1}" for i in range(n)}
    for tree in trees:
        extra = ex.variables_of(tree) - allowed
        if extra:
            raise ModelFormatError(
                f"{what} references unknown variables {sorted(extra)} for dimension {n}"
            )


class FinslerLagrangian:
    """One fiber-homogeneous Lagrangian plus its derivative machinery."""

    def __init__(
        self,
        dimension: int,
        homogeneity_degree: int,
        family: str,
        parameters: dict | None = None,
        evaluator=None,
        domain: dict | None = None,
    ):
        if not isinstance(dimension, int) or dimension < 1:
            raise ModelFormatError(f"dimension must be a positive integer, got {dimension!r}")
        if not isinstance(homogeneity_degree, int) or homogeneity_degree < 2:
            raise ModelFormatError(
                f"homogeneity_degree must be an integer >= 2, got {homogeneity_degree!r}"
            )
        if family not in _FAMILIES and evaluator is None:
            raise ModelFormatError(f"unknown family {family!r}")
        if parameters is not None and not isinstance(parameters, dict):
            raise ModelFormatError(f"parameters must be a mapping, got {parameters!r}")
        self.dimension = dimension
        self.homogeneity_degree = homogeneity_degree
        self.family = family
        self.parameters = parameters or {}
        self.domain = domain
        lo, hi, self._y_norm = _parse_box(domain, dimension)
        self._box = (lo, hi)
        # L is one expression tree (floats walk it, jets run its compiled
        # tape), or a python callable from from_callable
        self._evaluator = evaluator
        self._tree = None if evaluator is not None else self._lower()
        self._key = repr(self._tree)

    # -- construction ------------------------------------------------------

    def _lower(self):
        """The family as one expression tree, in the order of its operations:
        quadratic 0 + g_ab y^a y^b over the non-zero entries, Randers
        (sqrt(0 + a_ab y^a y^b) + 0 + b_a y^a)^exponent over every entry."""
        n, params = self.dimension, self.parameters
        ys = [ex.Var(f"y{a + 1}") for a in range(n)]

        def form(matrix, skip_zero):
            total = ex.Num(0.0)
            for a in range(n):
                for b in range(n):
                    if not (skip_zero and matrix[a][b] == ex.Num(0.0)):
                        term = ex.BinOp("*", ex.BinOp("*", matrix[a][b], ys[a]), ys[b])
                        total = ex.BinOp("+", total, term)
            return total

        if self.family == "quadratic":
            metric = _parse_matrix(params.get("metric"), n, "quadratic metric")
            _check_variables([t for row in metric for t in row], n, "quadratic metric")
            return form(metric, True)
        if self.family == "randers":
            metric = _parse_matrix(params.get("metric"), n, "randers metric")
            one_form = _parse_vector(params.get("one_form"), n, "randers one_form")
            exponent = _whole_number(params.get("exponent", 2), "randers exponent")
            if exponent != self.homogeneity_degree:
                raise ModelFormatError("randers exponent must equal homogeneity_degree")
            _check_variables(
                [t for row in metric for t in row] + one_form, n, "randers data"
            )
            lin = ex.Num(0.0)
            for a in range(n):
                lin = ex.BinOp("+", lin, ex.BinOp("*", one_form[a], ys[a]))
            base = ex.BinOp("+", ex.Call("sqrt", form(metric, False)), lin)
            return ex.BinOp("^", base, ex.Num(float(exponent)))
        if self.family == "pth_root":
            tree = ex.parse(str(params.get("form", "")))
            p = _whole_number(params.get("p"), "pth_root degree p")
            if p != self.homogeneity_degree:
                raise ModelFormatError("pth_root degree p must equal homogeneity_degree")
            _check_variables([tree], n, "pth_root form")
            return tree
        tree = ex.parse(str(params.get("expression", "")))  # custom
        _check_variables([tree], n, "custom expression")
        return tree

    @classmethod
    def from_callable(cls, fn, dimension: int, homogeneity_degree: int):
        """Wrap a python callable ``fn(x_vars, y_vars)`` (generic over scalars)."""
        return cls(
            dimension,
            homogeneity_degree,
            family="custom",
            parameters={"callable": getattr(fn, "__name__", "callable")},
            evaluator=fn,
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "FinslerLagrangian":
        if not isinstance(doc, dict):
            raise ModelFormatError("model document must be a mapping")
        missing = {"dimension", "homogeneity_degree", "family", "parameters"} - set(doc)
        if missing:
            raise ModelFormatError(f"model document missing fields {sorted(missing)}")
        return cls(
            dimension=_whole_number(doc["dimension"], "dimension"),
            homogeneity_degree=_whole_number(doc["homogeneity_degree"], "homogeneity_degree"),
            family=str(doc["family"]),
            parameters=doc["parameters"],
            domain=doc.get("domain"),
        )

    def to_dict(self) -> dict:
        if "callable" in self.parameters:
            raise ModelFormatError("callable-backed Lagrangians cannot be serialized")
        doc = {
            "dimension": self.dimension,
            "homogeneity_degree": self.homogeneity_degree,
            "family": self.family,
            "parameters": self.parameters,
        }
        if self.domain is not None:
            doc["domain"] = self.domain
        return doc

    # -- sampling -------------------------------------------------------------
    #
    # validate and verify draw every bundle point from the declared domain:
    # base points from the box, fiber norms from the y_norm band.

    def center(self) -> np.ndarray:
        """Midpoint of the domain box, the default chart center."""
        lo, hi = self._box
        return 0.5 * (lo + hi)

    def draw_inner_x(self, rng: np.random.Generator) -> np.ndarray:
        """A base point from the middle half of the domain box on every axis."""
        lo, hi = self._box
        return lo + (0.25 + 0.5 * rng.random(self.dimension)) * (hi - lo)

    def draw_fiber(self, rng: np.random.Generator, band=None) -> np.ndarray:
        """A fiber vector of uniformly random direction whose norm is uniform
        in ``band`` (lo, hi), the model's y_norm band by default."""
        lo, hi = self._y_norm if band is None else band
        direction = rng.standard_normal(self.dimension)
        norm = np.linalg.norm(direction)
        while norm < 1e-8:
            direction = rng.standard_normal(self.dimension)
            norm = np.linalg.norm(direction)
        return direction / norm * (lo + (hi - lo) * rng.random())

    def draw_point(self, rng: np.random.Generator) -> TangentBundlePoint:
        """A bundle point: x uniform in the domain box, y from :meth:`draw_fiber`."""
        lo, hi = self._box
        x = lo + (hi - lo) * rng.random(self.dimension)
        return bundle_point(x, self.draw_fiber(rng))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x, y):
        """Raw evaluation, generic over floats and jets."""
        if self._tree is None:
            return self._evaluator(x, y)
        if isinstance(x[0], TaylorJet):
            inputs = list(x) + list(y)
            if any(jet.space is not inputs[0].space for jet in inputs):
                raise ValueError("L's input jets must lie in one jet space")
            key = tuple(jet.support for jet in inputs)
            tape = ex.compiled(self._tree, self._key, inputs[0].space, key)
            return tape.run(*[jet.c for jet in inputs])
        return ex.evaluate(self._tree, ex.coordinate_env(self.dimension, x, y))

    def evaluate(self, point: TangentBundlePoint) -> float:
        value = self(list(point.x), list(point.y))
        value = value.value if isinstance(value, TaylorJet) else float(value)
        if not np.isfinite(value):
            raise NonFiniteField(f"Lagrangian value is not finite at {point}")
        return value

    def taylor(
        self, point: TangentBundlePoint, order: int, x_order: int | None = None
    ) -> TaylorJet:
        """Jet of L at ``point`` (internal orders above 4 allowed).

        ``x_order`` caps the x-degree of the jet as in :func:`eval_taylor`.
        """
        if self.family != "quadratic":
            point.require_nonzero_direction()
        if self._tree is None:
            return eval_taylor(self._evaluator, point, order, x_order)
        n = self.dimension
        space = JetSpace.get(2 * n, order, n, x_order)
        jet = ex.compiled(self._tree, self._key, space, None).run(point.x, point.y)
        return finite_jet(jet, space, point)

    def jet_function(self, order: int, x_order: int):
        """:meth:`taylor`'s coefficients as a function of the state ``xy``
        (x, then y, checked by the caller with ``bundle.check_state``), or of
        a (2n, B) array of B states, one per column, giving a (size, B) array;
        and the most float cells one state of a call holds in a temporary, or
        None for a Lagrangian without a tree, whose function takes one state
        a call.  The space and the tape are looked up once, here; a call runs
        the tape, on all states at once."""
        n = self.dimension
        if self._tree is None:
            return (lambda xy: self.taylor(bundle_point(xy[:n], xy[n:]), order, x_order).c), None
        space = JetSpace.get(2 * n, order, n, x_order)
        tape = ex.compiled(self._tree, self._key, space, None)

        def run(xy):
            c = tape.coefficients(xy)
            if tape.root is not None:  # a constant L, in every lane
                c = np.multiply.outer(space.constant(c).c, np.ones(xy.shape[1:]))
            if not all_finite(c):
                lane = np.argmax(~np.isfinite(c).all(axis=0))
                raise NonFiniteField(
                    f"field evaluation produced non-finite derivatives at {state_text(xy.T, lane)}"
                )
            return c

        return run, max(space.size, tape.width)

    def l_metric(self, point: TangentBundlePoint) -> np.ndarray:
        """Fiber Hessian g^L_ab = (1/2) d_a d_b L over y."""
        fibers = range(point.dim, 2 * point.dim)
        g = 0.5 * self.taylor(point, 2).partials(fibers, fibers)
        if not np.isfinite(g).all():
            raise NonFiniteField(f"L-metric has non-finite entries at {point}")
        return g

    # -- validation ---------------------------------------------------------

    def validate_spacetime(self, count: int, seed: int) -> dict:
        """Check the defining conditions on a finite sample of bundle points.

        Conditions (sampled diagnostics, not proofs):
          (i)   smooth evaluation: L and its order-2 jets are finite;
          (ii)  positive y-homogeneity of degree r (scaling + Euler identity);
          (iii) reversibility of |L| under y -> -y;
          (iv)  nondegenerate L-metric away from the flagged degenerate set;
          (v)   on the |L| = 1 shell, the L-metric has Lorentzian-type
                signature (eps, -eps, ..., -eps) on a nonempty sample subset.

        ``count`` points come from :meth:`draw_point` with a generator seeded
        by ``seed``.  Returns the report dict that ``validate`` writes.
        """
        n, r = self.dimension, self.homogeneity_degree
        rng = np.random.default_rng(seed)
        points = [self.draw_point(rng) for _ in range(count)]

        witnesses = {name: [] for name in ("smooth", "homogeneous", "reversible", "nondegenerate")}
        checked = dict.fromkeys((*witnesses, "signature"), 0)
        failed = dict.fromkeys(witnesses, 0)
        signature_tally: dict[str, int] = {}
        qualifying = 0

        for p in points:
            # (i) smoothness proxy
            checked["smooth"] += 1
            try:
                value = self.evaluate(p)
                g = self.l_metric(p)
                jet = self.taylor(p, 1)
            except (NonFiniteField, ValueError) as err:
                failed["smooth"] += 1
                witnesses["smooth"].append(_witness(p, str(err)))
                continue

            scale = 1.0 + abs(value)

            # (ii) homogeneity: scaling plus the Euler identity y.dL/dy = r L
            checked["homogeneous"] += 1
            euler = sum(ya * d for ya, d in zip(p.y, jet.partials(range(n, 2 * n))))
            bad = abs(euler - r * value) > _VALIDATION_TOL * scale * r
            for lam in _SCALINGS:
                scaled = self.evaluate(bundle_point(p.x, lam * p.y))
                if abs(scaled - lam**r * value) > _VALIDATION_TOL * scale * max(1.0, lam**r):
                    bad = True
            if bad:
                failed["homogeneous"] += 1
                witnesses["homogeneous"].append(_witness(p, "homogeneity violated"))

            # (iii) reversibility of |L|
            checked["reversible"] += 1
            mirrored = self.evaluate(bundle_point(p.x, -p.y))
            if abs(abs(mirrored) - abs(value)) > _VALIDATION_TOL * scale:
                failed["reversible"] += 1
                witnesses["reversible"].append(
                    _witness(p, f"|L(-y)| - |L(y)| = {abs(mirrored) - abs(value):.3e}")
                )

            # (iv) metric nondegeneracy
            checked["nondegenerate"] += 1
            cond = float(np.linalg.cond(g))
            if not np.isfinite(cond) or cond > DEGENERACY_CONDITION_LIMIT:
                failed["nondegenerate"] += 1
                witnesses["nondegenerate"].append(
                    _witness(p, f"condition number {cond:.3e}")
                )

            # (v) signature on the unit-|L| shell
            if abs(value) > 1e-10 * float(np.linalg.norm(p.y)) ** r:
                checked["signature"] += 1
                shell = bundle_point(p.x, p.y / abs(value) ** (1.0 / r))
                try:
                    eig = np.linalg.eigvalsh(self.l_metric(shell))
                except (NonFiniteField, ValueError):
                    continue
                sig = "".join("+" if v > 0 else ("-" if v < 0 else "0") for v in sorted(eig)[::-1])
                signature_tally[sig] = signature_tally.get(sig, 0) + 1
                eps = 1.0 if self.evaluate(shell) > 0 else -1.0
                wanted = sorted([eps] + [-eps] * (n - 1), reverse=True)
                got = sorted([np.sign(v) for v in eig], reverse=True)
                if got == wanted:
                    qualifying += 1

        conditions = {}
        for name, found in witnesses.items():
            conditions[name] = {
                "passed": failed[name] == 0 and checked[name] > 0,
                "checked": checked[name],
                "failures": failed[name],
            }
            if found:
                conditions[name]["witnesses"] = found[:5]
        conditions["signature"] = {
            "passed": qualifying > 0,
            "checked": checked["signature"],
            "failures": checked["signature"] - qualifying,
            "detail": f"{qualifying} samples on the unit shell carry the required signature",
        }
        return {
            "dimension": n,
            "homogeneity_degree": r,
            "family": self.family,
            "samples": count,
            "seed": seed,
            "all_passed": all(c["passed"] for c in conditions.values()),
            "conditions": conditions,
            "signature_tally": dict(sorted(signature_tally.items())),
        }


def _witness(p: TangentBundlePoint, detail: str) -> dict:
    return {"x": [float(v) for v in p.x], "y": [float(v) for v in p.y], "detail": detail}
