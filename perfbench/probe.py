"""Fresh-interpreter helpers that run.py starts.

    probe.py setup WORKLOAD   import finslerkit, load the workload's model, build
                              GeneralConnection.cartan and evaluate it once at
                              the workload's deepest depth, off the op stream
    probe.py import           print the seconds ``import finslerkit.cli`` took
    probe.py oracle WORKLOAD BATCH
                              check the pickled (input, output) pairs in BATCH
                              against the workload's oracle and replace them
                              with the pickled verdicts

All expect ``src/`` of the checkout on PYTHONPATH.
"""

import sys
import time


def main() -> int:
    if sys.argv[1:2] == ["import"]:
        t0 = time.perf_counter()
        import finslerkit.cli  # noqa: F401

        print(repr(time.perf_counter() - t0))
        return 0
    if sys.argv[1:2] == ["oracle"] and len(sys.argv) == 4:
        import pickle
        from pathlib import Path

        from workloads import WORKLOADS

        wl, batch = WORKLOADS[sys.argv[2]], Path(sys.argv[3])
        oracle = wl.prepare()
        verdicts = [
            ("failed", "raised") if out is None else wl.check(inp, out, oracle)
            for inp, out in pickle.loads(batch.read_bytes())
        ]
        batch.write_bytes(pickle.dumps(verdicts))
        return 0
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        from workloads import WORKLOADS

        WORKLOADS[sys.argv[2]].prepare()
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
