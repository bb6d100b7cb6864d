"""Span tracing of finslerkit's layer boundaries, installed from outside ``src/``.

``Tracer.install()`` replaces each traced callable at the name its callers
resolve (a class attribute or a module global) with a wrapper that appends one
span record: name, start, end, parent span and op id.  Records live in flat
``array`` buffers (about 26 bytes per span) and are analysed and written out
when the run ends.  ``Tracer.uninstall()`` restores every original.

A span's self time is its duration minus the durations of its direct child
spans; calls are strictly nested because the benchmark runs single-threaded.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FLOWS = (
    "integrate_autoparallel",
    "integrate_horizontal_autoparallel",
    "exp_map",
    "exp_map_with_jacobian",
    "flow_with_jacobian",
)
CHART_METHODS = (
    "to_manifold",
    "from_manifold",
    "series_forward",
    "jacobian_series",
    "connection_in_chart",
    "lagrangian_in_chart",
    "curvature_in_chart",
    "record",
)
OP_SPAN = "bench.op"


def layer_of(name: str) -> str:
    """Span names are "<layer>.<callable>"; a flow function resolved through
    another module's namespace carries that module as a "[module]" suffix."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the patch table for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.mul_spaces: Counter = Counter()  # JetSpace -> jet x jet products
        self.solutions = {"calls": 0, "nfev": 0, "accepted": 0, "rejected": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def span(self, fn, name=None, namer=None, on_result=None):
        """Wrap ``fn``; ``namer(args, kwargs)`` picks the span name per call."""
        fixed = None if namer else self.name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(fixed if namer is None else self.name_id(namer(args, kwargs)))
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    @contextmanager
    def op_span(self, op_id: int):
        """The root span of one benchmark op; spans opened inside carry its id."""
        self.op_id = op_id
        i = self._open(self.name_id(OP_SPAN))
        try:
            yield
        finally:
            self._close(i)
            self.op_id = -1

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from finslerkit import charts, connection, dynamics, integrate, jets, lagrangian, verify

        TaylorJet = jets.TaylorJet
        mul = TaylorJet.__dict__["__mul__"]
        mul_id, scale_id = self.name_id("jets.mul"), self.name_id("jets.scale")
        open_, close, spaces = self._open, self._close, self.mul_spaces

        def traced_mul(a, b):
            if isinstance(b, TaylorJet):
                spaces[a.space] += 1
                i = open_(mul_id)
            else:
                i = open_(scale_id)
            try:
                return mul(a, b)
            finally:
                close(i)

        self._patch(TaylorJet, "__mul__", traced_mul)
        self._patch(TaylorJet, "__rmul__", traced_mul)
        self._patch(TaylorJet, "reciprocal", self.span(TaylorJet.reciprocal, "jets.reciprocal"))

        Lag = lagrangian.FinslerLagrangian
        for attr in ("taylor", "l_metric"):
            self._patch(Lag, attr, self.span(Lag.__dict__[attr], f"lagrangian.{attr}"))

        Conn = connection.GeneralConnection
        self._patch(
            Conn,
            "n_jets",
            self.span(
                Conn.n_jets,
                namer=lambda a, k: f"connection.n_jets.order{a[2] if len(a) > 2 else k['order']}",
            ),
        )
        for attr in ("coefficients", "evaluate", "evaluate_deep"):
            self._patch(Conn, attr, self.span(Conn.__dict__[attr], f"connection.{attr}"))

        def count_solution(sol):
            s = self.solutions
            s["calls"] += 1
            s["nfev"] += sol.nfev
            s["accepted"] += sol.naccepted
            s["rejected"] += sol.nrejected

        self._patch(
            dynamics,
            "solve_ode",
            self.span(dynamics.solve_ode, "integrate.solve_ode", on_result=count_solution),
        )
        Sol = integrate.OdeSolution
        self._patch(Sol, "__call__", self.span(Sol.__call__, "integrate.dense_call"))
        self._patch(Sol, "derivative", self.span(Sol.derivative, "integrate.dense_derivative"))

        # flow functions at every namespace that resolves them by name
        for module, tag in ((dynamics, ""), (charts, "[charts]"), (verify, "[verify]")):
            for attr in FLOWS:
                if attr not in module.__dict__:
                    continue
                fn = module.__dict__[attr]
                if attr == "exp_map_with_jacobian":
                    def namer(a, k, tag=tag):
                        wrt = a[4] if len(a) > 4 else k.get("wrt", "uv")
                        return f"dynamics.exp_map_with_jacobian.{wrt}{tag}"

                    self._patch(module, attr, self.span(fn, namer=namer))
                else:
                    self._patch(module, attr, self.span(fn, f"dynamics.{attr}{tag}"))

        Chart = charts.AutoparallelChart
        for attr in CHART_METHODS:
            self._patch(Chart, attr, self.span(Chart.__dict__[attr], f"charts.{attr}"))

        run_verification = self.span(verify.run_verification, "verify.run_verification")
        self._patch(verify, "run_verification", run_verification)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Dump every span record (plus the name table) as an ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class SpanSummary:
    """Per-name call counts, total and self times of a finished trace."""

    def __init__(self, names: list[str], spans: dict):
        self.names = names
        self.spans = spans
        k = len(names)
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self.dur = dur
        self.self_time = dur - child
        self._calls = np.bincount(name, minlength=k)
        self._total = np.bincount(name, weights=dur, minlength=k)
        self._self = np.bincount(name, weights=self.self_time, minlength=k)

    def _select(self, match) -> list[int]:
        return [i for i, n in enumerate(self.names) if match(n)]

    def calls(self, match) -> int:
        return int(sum(self._calls[i] for i in self._select(match)))

    def total(self, match) -> float:
        return float(sum(self._total[i] for i in self._select(match)))

    def self_s(self, match) -> float:
        return float(sum(self._self[i] for i in self._select(match)))

    def mean(self, match) -> float:
        calls = self.calls(match)
        return self.total(match) / calls if calls else 0.0

    def top_self(self, k: int) -> list[tuple[str, float]]:
        """The ``k`` span names with the largest summed self time."""
        order = np.argsort(-self._self)[:k]
        return [(self.names[i], float(self._self[i])) for i in order if self._self[i] > 0]

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, n in enumerate(self.names):
            out[layer_of(n)] = out.get(layer_of(n), 0.0) + float(self._self[i])
        return out

    def span_name(self, i: int) -> str:
        return self.names[self.spans["name"][i]]

    def child_spans(self, parent_match, child_match):
        """Pairs (parent index, child index) whose names match."""
        name, parent = self.spans["name"], self.spans["parent"]
        parents = {i for i, n in enumerate(self.names) if parent_match(n)}
        children = {i for i, n in enumerate(self.names) if child_match(n)}
        idx = np.flatnonzero(np.isin(name, list(children)) & (parent >= 0))
        keep = np.isin(name[parent[idx]], list(parents))
        return parent[idx[keep]], idx[keep]
