"""finslerkit benchmark: one workload per run, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow-4d --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload of BENCHMARK.json in turn.

``--trace 0`` times ops back to back for about ``--seconds`` seconds with no
instrumentation and prints the end-to-end metrics.  Its times are stated at a
nominal host speed: a fixed finslerkit-free kernel (``SpeedReference``) is
timed before and after every op, and each time is scaled by ``REF_NOMINAL_S``
over the kernel's time around it.  On a shared 2-vCPU cloud VM the same code
runs 1.3 to 1.7 times slower for seconds to minutes at a time; the scaling
cancels most of that, and the raw times are in the run record.  ``--trace 1`` runs a fixed number of ops twice, untraced and then
traced with a span at every layer boundary, and prints the per-layer metrics.
Every op's output is checked against an oracle after the timed phase.  The
last line of standard output is the result object; the line before it is the
run record (environment, sample counts, layer shares).

The benchmark imports finslerkit from ``src/`` of the checkout and exits with
status 2 when that tree is missing.
"""

from __future__ import annotations

import os

PINNED_ENV = {
    "FINSLERKIT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)  # before numpy loads its BLAS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 8
# the speed reference's time at the nominal host speed.  Any fixed value would
# do; 8 ms is about its time on a 2-vCPU cloud VM, so normalized times read
# close to that host's seconds.
REF_NOMINAL_S = 0.008
CLI_REPEATS = 3
ORACLE_WORKERS = 2

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (unit, the end-to-end figure it should move).  "tput"
# is throughput_ops_s.  verify-1d stands in for the hand-run verify-2d.
# A time reads 0 on a workload that never enters its layer.
PER_LAYER_DOC = {
    "jets.mul_calls": ("count", "tput on verify-1d, trajectory-2d (per call); flat on flow-4d"),
    "jets.mul_us": ("us", "tput on verify-1d, trajectory-2d; flat on flow-4d"),
    "jets.mul_pairs": ("pairs_computed", "tput on flow-4d; flat on the 2-d workloads"),
    "jets.mul_bytes": ("B_computed", "tput on flow-4d; flat on the 2-d workloads"),
    "jets.mul_self_s": ("s", "tput on flow-4d; flat on the 2-d workloads"),
    "jets.reciprocal_calls": ("count", "recorded alongside (jet_solve pivots)"),
    "jets.max_slots": ("count", "recorded alongside (largest jet space multiplied in)"),
    "lagrangian.taylor_calls": ("count", "tput on trajectory-2d"),
    "lagrangian.taylor_self_s": ("s", "tput on trajectory-2d (expression interpreter)"),
    "lagrangian.l_metric_calls": ("count", "tput on trajectory-2d (step guard per accepted step)"),
    "connection.n_jets.order0": ("count", "tput on trajectory-2d (residual pass)"),
    "connection.n_jets.order1": ("count", "tput on trajectory-2d (shallow evaluations)"),
    "connection.n_jets.order2": ("count", "tput on flow-4d and verify-1d (deep evaluations)"),
    "connection.coefficients_ms": ("ms", "tput on trajectory-2d"),
    "connection.evaluate_ms": ("ms", "tput on trajectory-2d"),
    "connection.evaluate_deep_ms": ("ms", "tput on flow-4d and verify-1d"),
    "connection.self_s": ("s", "tput on every workload (jet_solve and assembly)"),
    "connection.cache_hit_ratio": ("ratio", "removing the memo leaves tput flat everywhere"),
    "integrate.solve_calls": ("count", "recorded alongside"),
    "integrate.rhs_evals": ("count", "tput on every workload"),
    "integrate.steps_accepted": ("count", "tput on every workload"),
    "integrate.steps_rejected": ("count", "tput on every workload"),
    "integrate.accept_ratio": ("ratio", "tput on every workload"),
    "integrate.self_s": ("s", "tput on trajectory-2d"),
    "integrate.dense_queries": ("count", "tput on trajectory-2d; flat on flow-4d"),
    "integrate.dense_query_us": ("us", "tput on trajectory-2d; flat on flow-4d"),
    "dynamics.exp_map_calls": ("count", "tput on verify-1d"),
    "dynamics.exp_map_with_jacobian_calls": ("count", "tput on flow-4d and verify-1d"),
    "dynamics.horizontal_calls": ("count", "tput on verify-1d"),
    "dynamics.geodesic_calls": ("count", "tput on verify-1d"),
    "dynamics.residual_pass_s": ("s", "tput on trajectory-2d; no share in flow-4d"),
    "dynamics.self_s": ("s", "recorded alongside"),
    "charts.from_manifold_s": ("s", "latency_p50_s and tput on the verify workloads only"),
    "charts.newton_iterations": ("count", "latency_p50_s and tput on the verify workloads only"),
    "charts.line_search_trials": ("count", "latency_p50_s and tput on the verify workloads only"),
    "charts.connection_in_chart_s": ("s", "latency_p50_s and tput on the verify workloads only"),
    "charts.lagrangian_in_chart_s": ("s", "latency_p50_s and tput on the verify workloads only"),
    "charts.curvature_in_chart_s": ("s", "latency_p50_s and tput on the verify workloads only"),
    "charts.flows_per_chart_call": ("flows/call", "latency_p50_s and tput on the verify workloads only"),
    "charts.self_s": ("s", "latency_p50_s and tput on the verify workloads only"),
    "charts.op_share": ("ratio", "share of op time inside public chart calls"),
    "verify.report_s": ("s", "latency_p50_s on verify-1d"),
    "verify.rows": ("count", "recorded alongside"),
    "verify.rows_passed": ("count", "recorded alongside"),
    "verify.self_s": ("s", "latency_p50_s on verify-1d"),
    "cli.import_s": ("s", "setup_s on every workload"),
    "cli.cold_start_s": ("s", "setup_s on every workload"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced wall time of the same ops"),
    "trace.unattributed_s": ("s", "none: op time outside every traced span"),
    "process.minor_faults_per_op": (
        "faults/op",
        "tput on flow-4d: glibc trims the heap between jet products and the next "
        "product faults the pages back in",
    ),
}
PER_LAYER = {name: unit for name, (unit, _) in PER_LAYER_DOC.items()}
NOTES = [
    "closed loop, one client, single process; thread and BLAS pools pinned to 1",
    "the 1.7-2.1x slowdown of verify with FINSLERKIT_THREADS=2 is out of scope: "
    "the benchmark pins one thread",
    "jets.mul_pairs and jets.mul_bytes are computed from the jet spaces' pair "
    "tables, not measured",
    f"end-to-end times are scaled to the host speed at which the speed reference "
    f"takes {REF_NOMINAL_S} s; raw times are under raw_s",
]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_subprocess(args: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run(
        args, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
    )
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        fail(f"{' '.join(args[1:3])} exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return wall, done.stdout


def probe(*args: str) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "probe.py"), *args]


def measure_setup(name: str, count: int) -> list[float]:
    """Fresh-interpreter set-up times."""
    return [timed_subprocess(probe("setup", name))[0] for _ in range(count)]


def nominal(wall: float, ref: float) -> float:
    """``wall`` scaled to the host speed at which the reference takes
    ``REF_NOMINAL_S``."""
    return wall * REF_NOMINAL_S / ref


class SpeedReference:
    """Times a fixed kernel that calls nothing in finslerkit.

    Its mix follows the program's: products shaped like jet products in the
    8-variable order-5 space (gather, multiply, bincount over 20,349 pairs) and
    in a 2-variable order-3 space, where call overhead dominates, plus plain
    interpreter arithmetic.  Its time moves with the host's speed and never
    with the program's, so the ratio of an op's time to it cancels host drift.
    A call returns the median of three passes, which drops a pass hit by an
    interrupt.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.bincount = np.bincount
        self.spaces = []
        for slots, pairs, reps in ((1287, 20349, 20), (10, 35, 400)):
            index = tuple(rng.integers(0, slots, pairs) for _ in range(3))
            values = rng.standard_normal((2, slots))
            self.spaces.append((slots, index, values, reps))

    def one_pass(self) -> float:
        bincount = self.bincount
        t0 = time.perf_counter()
        for slots, (ia, ib, ic), (a, b), reps in self.spaces:
            for _ in range(reps):
                bincount(ic, weights=a[ia] * b[ib], minlength=slots)
        total = 0
        for k in range(10000):
            total += k * k % 7
        return time.perf_counter() - t0

    def __call__(self) -> float:
        return statistics.median(self.one_pass() for _ in range(3))


def measure_cli(wl) -> tuple[list[float], list[float]]:
    imports = [float(timed_subprocess(probe("import"))[1]) for _ in range(CLI_REPEATS)]
    point = ",".join(repr(v) for v in wl.probe_x)
    direction = ",".join(repr(v) for v in wl.probe_y)
    args = [
        sys.executable, "-m", "finslerkit.cli", "connection",
        "--model", wl.model_source, f"--point={point}", f"--direction={direction}",
    ]
    colds = []
    for _ in range(CLI_REPEATS):
        wall, out = timed_subprocess(args)
        if "N" not in json.loads(out):
            fail("cli connection printed no connection coefficients")
        colds.append(wall)
    return imports, colds


def environment(seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "finslerkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "pinned_env": PINNED_ENV,
        "notes": NOTES,
    }


# -- running ops ---------------------------------------------------------------


def run_op(wl, conn, inp, errors):
    from finslerkit.errors import FinslerKitError

    try:
        return wl.run(conn, inp)
    except FinslerKitError as err:
        errors.append(f"{type(err).__name__}: {err}")
        return None


def judge(wl, inputs, outputs) -> list[tuple[str, str]]:
    """Oracle verdicts, one per op, from worker processes with connections of
    their own.  The checks run after the timed phase, so they may use every
    core; flow-4d's take longer than its ops."""
    OUT_DIR.mkdir(exist_ok=True)
    ops = list(zip(inputs, outputs))
    batches, workers = [], []
    try:
        for k in range(ORACLE_WORKERS):
            batch = OUT_DIR / f"oracle-{wl.name}-{k}.pkl"
            batch.write_bytes(pickle.dumps(ops[k::ORACLE_WORKERS]))
            batches.append(batch)
            workers.append(subprocess.Popen(
                probe("oracle", wl.name, str(batch)), cwd=ROOT, env=child_env()
            ))
    finally:
        codes = [w.wait() for w in workers]
    if codes != [0] * ORACLE_WORKERS:
        fail(f"oracle workers exited {codes}")
    verdicts: list = [None] * len(ops)
    for k, batch in enumerate(batches):
        verdicts[k::ORACLE_WORKERS] = pickle.loads(batch.read_bytes())
    return verdicts


def timed_loop(wl, conn, seed, seconds, max_ops, zero_fiber_op, speed):
    """Closed loop: the next op starts when the previous one returns, after
    one pass of the speed reference (``refs`` has one more entry than ops).

    Stops when the next op, at the median latency so far, would end past
    ``seconds``; at least one op always runs.
    """
    inputs, outputs, latencies, errors = [], [], [], []
    t_start = time.perf_counter()
    refs = [speed()]
    while True:
        i = len(inputs)
        inp = wl.draw(seed, i)
        if i == zero_fiber_op:
            inp = wl.zero_fiber(inp)
        t0 = time.perf_counter()
        out = run_op(wl, conn, inp, errors)
        latencies.append(time.perf_counter() - t0)
        refs.append(speed())
        inputs.append(inp)
        outputs.append(out)
        elapsed = time.perf_counter() - t_start
        if len(inputs) >= max_ops or elapsed + statistics.median(latencies) > seconds:
            return inputs, outputs, latencies, refs, errors


def tail_latency(latencies: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it, if the run has one."""
    n = len(latencies)
    if n < 11:
        return None
    return {
        "value": sorted(latencies)[n - 11],
        "percentile": 100.0 * (n - 10) / n,
        "samples": n,
    }


def end_to_end(wl, seed, seconds, max_ops, zero_fiber_op):
    speed = SpeedReference()
    timed_subprocess(probe("setup", wl.name))  # unmeasured: fills the file cache
    # half the set-up probes run before the timed phase and half after the
    # oracle checks, so that their median spans the run
    setup = measure_setup(wl.name, SETUP_REPEATS // 2)
    conn = wl.prepare()
    before = resource.getrusage(resource.RUSAGE_SELF)
    inputs, outputs, latencies, refs, errors = timed_loop(
        wl, conn, seed, seconds, max_ops, zero_fiber_op, speed
    )
    after = resource.getrusage(resource.RUSAGE_SELF)
    verdicts = judge(wl, inputs, outputs)
    setup += measure_setup(wl.name, SETUP_REPEATS - SETUP_REPEATS // 2)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # an op is scaled by the reference's mean time just before and after it;
    # a set-up probe, a fresh process whose time the reference tracks less
    # closely, by the reference's median over the run
    op_refs = [0.5 * (a + b) for a, b in zip(refs, refs[1:])]
    ops = [nominal(t, r) for t, r in zip(latencies, op_refs)]
    run_ref = statistics.median(refs)
    metrics = {
        # the speed reference's passes between ops are not op time
        "throughput_ops_s": len(ops) / sum(ops),
        "latency_p50_s": statistics.median(ops),
        "setup_s": nominal(statistics.median(setup), run_ref),
        "peak_rss_mb": rss_mb,
    }
    tail = tail_latency(ops)
    record = {
        "samples": {"ops": len(ops), "setup": len(setup)},
        # the timed phase's CPU split: page faults from large numpy
        # temporaries show up as system time
        "timed_cpu": {
            "user_s": after.ru_utime - before.ru_utime,
            "system_s": after.ru_stime - before.ru_stime,
            "minor_faults_per_op": (after.ru_minflt - before.ru_minflt) / len(ops),
        },
        # reported here rather than in BENCHMARK.json: a verify-1d run holds
        # fewer than 11 ops, so it has no such percentile
        "latency_tail_s": dict(tail, unit="s") if tail else "omitted: fewer than 11 ops in the run",
        "raw_s": {
            "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "setup_s": statistics.median(setup),
            "speed_reference_median": run_ref,
        },
        "speed_reference_s": refs,
        "latencies_s": ops,
        "setup_runs_s": [nominal(t, run_ref) for t in setup],
        "trace.overhead_ratio": "measured by --trace 1 runs only",
    }
    return metrics, verdicts, errors, record


def traced(wl, seed, max_ops, zero_fiber_op):
    import spans

    count = min(wl.trace_ops, max_ops)
    inputs = [wl.draw(seed, i) for i in range(count)]
    if 0 <= zero_fiber_op < count:
        inputs[zero_fiber_op] = wl.zero_fiber(inputs[zero_fiber_op])

    # untraced pass, then the same ops traced on a fresh connection (no memo
    # entries carried over)
    errors: list[str] = []
    conn = wl.prepare()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    plain = [run_op(wl, conn, inp, errors) for inp in inputs]
    wall_plain = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    conn = wl.prepare()
    tracer = spans.Tracer()
    tracer.install()
    errors_traced: list[str] = []
    outs = []
    t0 = time.perf_counter()
    try:
        for i, inp in enumerate(inputs):
            with tracer.op_span(i):
                outs.append(run_op(wl, conn, inp, errors_traced))
    finally:
        tracer.uninstall()
    wall_traced = time.perf_counter() - t0
    tracer.write(OUT_DIR / f"spans-{wl.name}.npz")

    verdicts = judge(wl, inputs, outs)
    for k, (a, b) in enumerate(zip(plain, outs)):
        same = (a is None) == (b is None)
        if same and a is not None and "hash" in a:
            same = a["hash"] == b["hash"]
        if not same:
            verdicts[k] = ("wrong", "untraced and traced runs of one seed disagree")

    imports, colds = measure_cli(wl)
    s = tracer.summary()
    metrics = layer_metrics(s, tracer, outs)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.cold_start_s"] = statistics.median(colds)
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    metrics["process.minor_faults_per_op"] = faults / count

    op_total = s.total(lambda n: n == spans.OP_SPAN)
    shares = sorted(s.layer_self().items(), key=lambda kv: -kv[1])
    record = {
        "samples": {"ops": count, "spans": len(s.dur), "cli": len(colds)},
        "wall_s": {"untraced": wall_plain, "traced": wall_traced},
        "layer_share": {
            "op_total_s": op_total,
            "layers": [
                {"layer": "unattributed" if k == "bench" else k, "self_s": v,
                 "share": v / op_total if op_total else 0.0}
                for k, v in shares
            ],
            "top_spans_self_s": dict(s.top_self(8)),
        },
        "span_file": str((OUT_DIR / f"spans-{wl.name}.npz").relative_to(ROOT)),
    }
    return metrics, verdicts, errors_traced, record


def layer_metrics(s, tracer, outs) -> dict:
    import numpy as np
    import spans

    def prefix(p):
        return lambda n: n.startswith(p)

    def exact(name):
        return lambda n: n == name

    products = sum(tracer.mul_spaces.values())
    pairs = sum(c * sp._mul_ia.size for sp, c in tracer.mul_spaces.items())
    # per product: three index reads, two operand gathers, the product array
    # written then read by bincount, and the output array written
    moved = sum(c * (sp._mul_ia.size * 8 * 7 + sp.size * 8) for sp, c in tracer.mul_spaces.items())
    evals = s.calls(exact("connection.evaluate")) + s.calls(exact("connection.evaluate_deep"))
    built = s.calls(exact("connection.n_jets.order1")) + s.calls(exact("connection.n_jets.order2"))
    sol = tracer.solutions
    steps = sol["accepted"] + sol["rejected"]

    # residual pass: horizontal-flow time after its solve_ode returned
    hp, hc = s.child_spans(prefix("dynamics.integrate_horizontal_autoparallel"),
                           exact("integrate.solve_ode"))
    residual = float((s.spans["end"][hp] - s.spans["end"][hc]).sum())

    # from_manifold children: Newton updates use the (u, v) Jacobian flow,
    # line-search trials the forward map
    fp, fc = s.child_spans(exact("charts.from_manifold"), lambda n: n.endswith("[charts]"))
    newton = sum(1 for i in fc if s.span_name(i).startswith("dynamics.exp_map_with_jacobian.uv"))
    chart_flows = s.calls(lambda n: n.endswith("[charts]"))
    # public chart calls not made from inside another chart call
    name_of, parent = s.spans["name"], s.spans["parent"]
    chart_ids = [i for i, n in enumerate(s.names) if n.startswith("charts.")]
    in_chart = np.isin(name_of, chart_ids)
    top_chart = in_chart & ~((parent >= 0) & in_chart[np.maximum(parent, 0)])
    op_total = s.total(exact(spans.OP_SPAN))
    layer_self = s.layer_self()
    reports = [o for o in outs if o is not None and "rows" in o]

    return {
        "jets.mul_calls": products,
        "jets.mul_us": 1e6 * s.mean(exact("jets.mul")),
        "jets.mul_pairs": pairs,
        "jets.mul_bytes": moved,
        "jets.mul_self_s": s.self_s(exact("jets.mul")),
        "jets.reciprocal_calls": s.calls(exact("jets.reciprocal")),
        "jets.max_slots": max((sp.size for sp in tracer.mul_spaces), default=0),
        "lagrangian.taylor_calls": s.calls(exact("lagrangian.taylor")),
        "lagrangian.taylor_self_s": s.self_s(exact("lagrangian.taylor")),
        "lagrangian.l_metric_calls": s.calls(exact("lagrangian.l_metric")),
        "connection.n_jets.order0": s.calls(exact("connection.n_jets.order0")),
        "connection.n_jets.order1": s.calls(exact("connection.n_jets.order1")),
        "connection.n_jets.order2": s.calls(exact("connection.n_jets.order2")),
        "connection.coefficients_ms": 1e3 * s.mean(exact("connection.coefficients")),
        "connection.evaluate_ms": 1e3 * s.mean(exact("connection.evaluate")),
        "connection.evaluate_deep_ms": 1e3 * s.mean(exact("connection.evaluate_deep")),
        "connection.self_s": layer_self.get("connection", 0.0),
        "connection.cache_hit_ratio": (evals - built) / evals if evals else 0.0,
        "integrate.solve_calls": sol["calls"],
        "integrate.rhs_evals": sol["nfev"],
        "integrate.steps_accepted": sol["accepted"],
        "integrate.steps_rejected": sol["rejected"],
        "integrate.accept_ratio": sol["accepted"] / steps if steps else 0.0,
        "integrate.self_s": layer_self.get("integrate", 0.0),
        "integrate.dense_queries": s.calls(prefix("integrate.dense_")),
        "integrate.dense_query_us": 1e6 * s.mean(prefix("integrate.dense_")),
        "dynamics.exp_map_calls": s.calls(lambda n: n.split("[")[0] == "dynamics.exp_map"),
        "dynamics.exp_map_with_jacobian_calls": s.calls(prefix("dynamics.exp_map_with_jacobian")),
        "dynamics.horizontal_calls": s.calls(prefix("dynamics.integrate_horizontal_autoparallel")),
        "dynamics.geodesic_calls": s.calls(
            lambda n: n.split("[")[0] == "dynamics.integrate_autoparallel"
        ),
        "dynamics.residual_pass_s": residual,
        "dynamics.self_s": layer_self.get("dynamics", 0.0),
        "charts.from_manifold_s": s.total(exact("charts.from_manifold")),
        "charts.newton_iterations": newton,
        "charts.line_search_trials": len(fc) - newton,
        "charts.connection_in_chart_s": s.total(exact("charts.connection_in_chart")),
        "charts.lagrangian_in_chart_s": s.total(exact("charts.lagrangian_in_chart")),
        "charts.curvature_in_chart_s": s.total(exact("charts.curvature_in_chart")),
        "charts.flows_per_chart_call": chart_flows / top_chart.sum() if top_chart.any() else 0.0,
        "charts.self_s": layer_self.get("charts", 0.0),
        "charts.op_share": float(s.dur[top_chart].sum()) / op_total if op_total else 0.0,
        "verify.report_s": s.total(exact("verify.run_verification")),
        "verify.rows": sum(o["rows"] for o in reports),
        "verify.rows_passed": sum(o["rows_passed"] for o in reports),
        "verify.self_s": layer_self.get("verify", 0.0),
        "trace.unattributed_s": layer_self.get("bench", 0.0),
    }


def run_all(args) -> int:
    """``--workload all``: each workload of BENCHMARK.json in a process of its
    own; prints every result line tagged with its workload and exits 1 unless
    every run is correct."""
    ok = True
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", entry["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(json.dumps({"workload": entry["name"], "exit": done.returncode}))
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(json.dumps({"workload": entry["name"], **result}), flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test knobs: cap the op count, force one op onto the zero fiber
    parser.add_argument("--max-ops", type=int, default=10**9, help=argparse.SUPPRESS)
    parser.add_argument("--zero-fiber-op", type=int, default=-1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "finslerkit" / "__init__.py").is_file():
        fail(f"no finslerkit source tree at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import finslerkit

    if not Path(finslerkit.__file__).resolve().is_relative_to(SRC):
        fail(f"imported finslerkit from {finslerkit.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    if args.trace:
        metrics, verdicts, errors, record = traced(
            wl, args.seed, args.max_ops, args.zero_fiber_op
        )
        units = PER_LAYER
    else:
        metrics, verdicts, errors, record = end_to_end(
            wl, args.seed, args.seconds, args.max_ops, args.zero_fiber_op
        )
        units = END_TO_END

    failed = sum(v != "ok" for v, _ in verdicts)
    # every op must pass its oracle, except an op the self-test drives onto
    # the zero fiber, which must be refused
    correct = all(
        v == ("failed" if i == args.zero_fiber_op else "ok") for i, (v, _) in enumerate(verdicts)
    )
    record.update(
        workload=wl.name,
        trace=args.trace,
        environment=environment(args.seed),
        errors=errors,
        verdicts=[
            {"op": i, "verdict": v, "detail": d}
            for i, (v, d) in enumerate(verdicts)
            if v != "ok"
        ],
    )
    if not args.trace:
        record["samples"]["latency_p50_s"] = len(verdicts)
    # error_rate reads 0 on every healthy run, and any failed op already makes
    # the run incorrect, so it is recorded rather than gated
    record["error_rate"] = {"value": failed / len(verdicts), "unit": "ratio"}
    result = {
        "correct": correct,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"record": record}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
