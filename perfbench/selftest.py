"""Self-test of the benchmark at tiny op counts.

    python3 perfbench/selftest.py [--workloads flow-4d,trajectory-2d,verify-1d,verify-2d]

Run from the root of a checkout.  For each workload it checks that
  * a ``--trace 0`` run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a ``--trace 1`` run every per-layer metric;
  * two traced runs with the same seed give identical work counters and a
    correct result (for the verify workloads that includes identical report
    hashes);
  * a different seed changes the op inputs and the same seed repeats them;
  * an op driven onto the zero fiber is counted in ``failed`` and
    ``error_rate`` without crashing the run (flow-4d and trajectory-2d).
By default it runs the workloads of BENCHMARK.json; exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "pairs_computed", "B_computed", "flows/call"}
COUNT_RATIOS = {"connection.cache_hit_ratio", "integrate.accept_ratio"}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def bench(workload: str, trace: int, *extra: str) -> dict:
    args = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    expect(done.returncode == 0, f"{workload} trace {trace} {' '.join(extra)} exits 0")
    if done.returncode != 0:
        print(done.stderr[-2000:])
        return {"metrics": {}, "correct": False, "attempted": 0, "failed": 0, "record": {}}
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    return dict(json.loads(result_line), record=json.loads(record_line)["record"])


def check_units(workload: str, result: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{workload}: every {section} metric printed with its unit")
    expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
           f"{workload}: every {section} value is a number")


def counters(result: dict) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v["value"] for k, v in result["metrics"].items()
            if units.get(k) in COUNT_UNITS or k in COUNT_RATIOS}


def same_input(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    names = parser.parse_args().workloads.split(",")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    for name in names:
        wl = WORKLOADS[name]
        expect(same_input(wl.draw(1, 0), wl.draw(1, 0)), f"{name}: a seed repeats its inputs")
        expect(not same_input(wl.draw(1, 0), wl.draw(2, 0)),
               f"{name}: another seed changes the inputs")
        expect(not same_input(wl.draw(1, 0), wl.draw(1, 1)), f"{name}: each op draws a fresh input")

        # a verify op takes a report seed, not a fiber, so it has no zero-fiber variant
        zero = [] if name.startswith("verify-") else ["--zero-fiber-op", "0"]
        plain = bench(name, 0, "--max-ops", "2", *zero)
        check_units(name, plain, "end_to_end")
        expect(plain["correct"], f"{name}: untraced outputs pass their oracles")

        first = bench(name, 1, "--max-ops", "2", *zero)
        second = bench(name, 1, "--max-ops", "2", *zero)
        check_units(name, first, "per_layer")
        expect(first["correct"] and second["correct"], f"{name}: traced outputs pass their oracles")
        a, b = counters(first), counters(second)
        diff = sorted(k for k in a if a[k] != b.get(k))
        expect(not diff, f"{name}: work counters repeat exactly across runs ({len(a)} checked)"
               + (f"; differ: {diff}" if diff else ""))
        if zero:
            expect(plain["attempted"] == 2 and plain["failed"] == 1,
                   f"{name}: zero-fiber op counted as failed in the untraced run")
            rate = first["record"].get("error_rate", {}).get("value")
            expect(rate == 0.5, f"{name}: zero-fiber op counted in error_rate (got {rate})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
