"""The benchmark's workloads: seeded inputs, one op each, and oracles.

flow-4d, trajectory-2d and verify-1d are the gated workloads of
BENCHMARK.json.  verify-2d (one quick verification report on sphere2d per op)
is run by hand: a run holds one or two 15-36 s reports, and at some report
seeds the quick report on sphere2d fails a series-order row, so a gated run
at such a seed would read incorrect.  verify-1d runs the same verify, chart,
flow and connection code on a one-dimensional model, whose quick report takes
about 3 s and passes at every report seed tried.

Every op draws a fresh input from ``numpy.random.default_rng([seed, i])``, so
the same workload seed always yields the same op stream and no two ops of a
stream share a point (``GeneralConnection`` memoizes evaluations per point).

Oracle verdicts:
  ``ok``     the op returned and its output passed the oracle;
  ``failed`` the op raised a ``FinslerKitError`` or reported a failure of its
             own (a verify report with a failing row);
  ``wrong``  the output contradicts an independent oracle.
Both ``failed`` and ``wrong`` count against ``error_rate`` and make a run
incorrect; the self-test's forced zero-fiber op is the one expected failure.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from finslerkit import dynamics, verify
from finslerkit.bundle import bundle_point
from finslerkit.connection import GeneralConnection
from finslerkit.models import load_model

# flow-4d: the scaled tolerance test_c05 pins for derivative blocks against
# Richardson central differences of exp_map, with the same step pair
JACOBIAN_TOL = 1e-5
FD_STEPS = (1e-2, 1e-3)
# flow-4d: exp_map and the augmented Jacobian flow pick different step
# sequences, so their endpoints agree to integrator accuracy only
ENDPOINT_TOL = 1e-8
# trajectory-2d: drift of g(u,u), g(y,y), g(u,y) over the whole run, and the
# horizontality residual the flow reports, at the default rtol 1e-10
INVARIANT_TOL = 1e-7
HORIZONTALITY_TOL = 1e-7
# verify-1d: a quadratic model on a line, g(x) = exp(x/2), with a non-zero
# connection coefficient everywhere
LINE_MODEL = Path(__file__).resolve().parent / "line1d.json"


class Workload:
    name = ""
    model_source = ""
    deep = False
    trace_ops = 1  # fixed op count of a traced run, so its counters repeat
    # one point outside every op stream, used for set-up and the CLI probe
    probe_x: tuple = ()
    probe_y: tuple = ()

    def prepare(self) -> GeneralConnection:
        """Load the model, build the connection, evaluate it once off-stream."""
        conn = GeneralConnection.cartan(load_model(self.model_source))
        p = bundle_point(self.probe_x, self.probe_y)
        (conn.evaluate_deep if self.deep else conn.evaluate)(p)
        return conn

    def draw(self, seed: int, i: int):
        raise NotImplementedError

    def run(self, conn: GeneralConnection, inp):
        raise NotImplementedError

    def check(self, inp, out, oracle: GeneralConnection) -> tuple[str, str]:
        """Verdict and detail; ``oracle`` is a connection the ops never used."""
        raise NotImplementedError

    def zero_fiber(self, inp):
        """The same input moved onto the zero section (an excluded point)."""
        raise NotImplementedError


def _report_hash(report: dict) -> str:
    return hashlib.sha256(verify.report_to_json(report).encode()).hexdigest()


class Verify2d(Workload):
    name = "verify-2d"
    model_source = "builtin:sphere2d"
    deep = True
    probe_x = (1.55, 0.05)
    probe_y = (0.7, -0.4)

    def draw(self, seed, i):
        return {"report_seed": int(np.random.default_rng([seed, i]).integers(2**31 - 1))}

    def run(self, conn, inp):
        report = verify.run_verification(
            self.model_source, seed=inp["report_seed"], budget="quick"
        )
        checks = report["checks"]
        return {
            "hash": _report_hash(report),
            "all_passed": report["all_passed"],
            "rows": len(checks),
            "rows_passed": sum(1 for row in checks if row["passed"]),
            "failing": [row["id"] for row in checks if not row["passed"]],
        }

    def check(self, inp, out, oracle):
        if out["rows"] == 0:
            return "wrong", "report has no rows"
        if not out["all_passed"]:
            return "failed", "failing rows: " + ", ".join(out["failing"])
        return "ok", ""


class Verify1d(Verify2d):
    name = "verify-1d"
    model_source = str(LINE_MODEL)
    trace_ops = 2
    probe_x = (0.9,)
    probe_y = (0.7,)


def _unit(rng, n):
    w = rng.standard_normal(n)
    return w / np.linalg.norm(w)


class Flow4d(Workload):
    name = "flow-4d"
    model_source = "builtin:quartic4d"
    deep = True
    trace_ops = 3
    probe_x = (0.9, -0.9, 0.9, -0.9)
    probe_y = (0.5, 0.5, -0.5, 0.5)

    def draw(self, seed, i):
        rng = np.random.default_rng([seed, i])
        base = -0.5 + rng.random(4)  # inner half of the domain box [-1, 1]^4
        return {
            "base": base,
            "u": 0.1 * _unit(rng, 4),
            "v": _unit(rng, 4),
            "w": _unit(rng, 8),  # oracle direction in (u, v) space
        }

    def run(self, conn, inp):
        end, dxdu, dydu, dxdv, dydv = dynamics.exp_map_with_jacobian(
            conn, inp["base"], inp["u"], inp["v"], wrt="uv"
        )
        return {"x": end.x, "y": end.y, "J": np.block([[dxdu, dxdv], [dydu, dydv]])}

    def check(self, inp, out, oracle):
        base, u, v, w = inp["base"], inp["u"], inp["v"], inp["w"]

        def flow(h):
            p = dynamics.exp_map(oracle, base, u + h * w[:4], v + h * w[4:])
            return np.concatenate([p.x, p.y])

        ref = flow(0.0)
        got = np.concatenate([out["x"], out["y"]])
        end_gap = np.abs(got - ref).max() / (1.0 + np.abs(ref).max())
        if not end_gap <= ENDPOINT_TOL:
            return "wrong", f"endpoint differs from exp_map by {end_gap:.3e}"

        h1, h2 = FD_STEPS
        r = (h1 / h2) ** 2
        d1 = (flow(h1) - flow(-h1)) / (2 * h1)
        d2 = (flow(h2) - flow(-h2)) / (2 * h2)
        fd = (r * d2 - d1) / (r - 1.0)
        J = out["J"]
        gap = np.abs(J @ w - fd).max() / (1.0 + np.abs(J).max())
        if not gap <= JACOBIAN_TOL:
            return "wrong", f"Jacobian differs from Richardson FD by {gap:.3e}"
        return "ok", ""

    def zero_fiber(self, inp):
        return dict(inp, v=np.zeros(4))


def _invariant_drifts(samples) -> dict[str, float]:
    """Largest relative change of g_x(u,u), g_x(y,y) and g_x(u,y) over sampled
    states (x, y, u) of sphere2d, whose metric is diag(1, sin(x1)^2)."""
    x1, y, u = samples[:, 0], samples[:, 2:4], samples[:, 4:6]
    g22 = np.sin(x1) ** 2

    def g(a, b):
        return a[:, 0] * b[:, 0] + g22 * a[:, 1] * b[:, 1]

    drifts = {}
    for label, q in (("g(u,u)", g(u, u)), ("g(y,y)", g(y, y)), ("g(u,y)", g(u, y))):
        drifts[label] = float(np.abs(q - q[0]).max() / (1.0 + abs(q[0])))
    return drifts


class Trajectory2d(Workload):
    name = "trajectory-2d"
    model_source = "builtin:sphere2d"
    deep = False
    trace_ops = 2
    probe_x = (1.55, 0.05)
    probe_y = (0.7, -0.4)
    t_end = 10.0
    queries_per_step = 10
    # every op follows a great circle of the same inclination, so ops differ
    # in their points but not in the work their step control asks for
    min_colatitude = 1.0

    def draw(self, seed, i):
        rng = np.random.default_rng([seed, i])
        lo = self.min_colatitude + 0.05
        theta = lo + (math.pi - 2.0 * lo) * rng.random()
        phi = -2.5 + 5.0 * rng.random()
        # a unit-speed great circle through (theta, phi) with heading alpha
        # from the meridian reaches colatitude asin(sin(theta) |sin(alpha)|)
        alpha = math.asin(math.sin(self.min_colatitude) / math.sin(theta))
        alpha = [alpha, -alpha, math.pi - alpha, alpha - math.pi][rng.integers(4)]
        beta = 2.0 * math.pi * rng.random()  # unit fiber anchor at angle beta
        s = math.sin(theta)
        return {
            "x": np.array([theta, phi]),
            "u": np.array([math.cos(alpha), math.sin(alpha) / s]),
            "v": np.array([math.cos(beta), math.sin(beta) / s]),
        }

    def run(self, conn, inp):
        traj = dynamics.integrate_horizontal_autoparallel(
            conn, inp["x"], inp["u"], inp["v"], self.t_end
        )
        count = self.queries_per_step * traj.diagnostics.accepted
        times = np.linspace(0.0, self.t_end, count)
        samples = np.array([traj.solution(t) for t in times])
        # Keep the invariants' drifts, not the ~2,500 sampled states: held
        # until the oracle runs, those would add 0.12 MB per op, so a faster
        # program would read as a peak_rss_mb regression.  The reduction is
        # plain numpy and takes well under 0.1% of an op.
        return {
            "drifts": _invariant_drifts(samples),
            "accepted": traj.diagnostics.accepted,
            "residual": traj.diagnostics.max_horizontality_residual,
        }

    def check(self, inp, out, oracle):
        for label, drift in out["drifts"].items():
            if not drift <= INVARIANT_TOL:
                return "wrong", f"{label} drifts by {drift:.3e}"
        if not out["residual"] <= HORIZONTALITY_TOL:
            return "wrong", f"horizontality residual {out['residual']:.3e}"
        return "ok", ""

    def zero_fiber(self, inp):
        return dict(inp, v=np.zeros(2))


WORKLOADS = {w.name: w for w in (Verify2d(), Verify1d(), Flow4d(), Trajectory2d())}
