#!/usr/bin/env python3
"""Print the sha256 of the reports a refactor should leave byte-identical.

Covers, one line each (the hash, then the command's arguments):

- the quick verify report (``verify --format json``) at seeds 0 and 7 for
  every builtin model and for ``perfbench/line1d.json``;
- the full-budget quartic4d verify report at seed 7;
- the ``connection`` and ``chart`` commands of the CI workflow;
- the README's ``expmap`` and ``geodesic`` examples (the trajectory written
  to standard output rather than to a file) and one ``autoparallel`` run,
  the flows no report above reads;
- the ``validate`` report of every builtin model;
- the ``connection`` and ``validate`` commands of the CI workflow's 3-d custom
  model, whose Lagrangian divides by a jet, run from a temporary directory
  that holds its document as ``custom3d.json``.

Each command runs through ``finslerkit.cli.main`` in this process, from the
repository root unless said otherwise (a report names its model as given, so
the line model is named by its relative path), its standard output captured.  Two checkouts
print the same lines exactly when none of these reports moved by a byte.
Run from the repository root:

    PYTHONPATH=src python scripts/report_hashes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from finslerkit import cli
from finslerkit.models import builtin_names

ROOT = Path(__file__).resolve().parent.parent
LINE_MODEL = "perfbench/line1d.json"

CI_COMMANDS = [
    "chart --model builtin:sphere2d --kind standard --x-tilde 0.1,-0.05 --y-tilde 0.8,-0.5 "
    "--series-order 3",
    "chart --model builtin:sphere2d --kind extended --x-tilde 0.1,-0.05 --y-tilde 0.8,-0.5 "
    "--series-order 3",
    "connection --model builtin:quartic4d --point 0.1,0.2,-0.1,0.3 --direction 0.5,0.5,-0.5,0.5",
    "connection --model builtin:sphere2d --point 1.1,0.3 --direction 0.4,-0.2",
]

FLOW_COMMANDS = [
    "expmap --model builtin:randers2d --point 0.2,-0.3 --velocity 0.3,0.1 --fiber 1,0.4",
    "geodesic --model builtin:sphere2d --point 1.1,0.3 --direction 0.4,-0.2 --t-end 2",
    "autoparallel --model builtin:sphere2d --point 1.1,0.3 --velocity 0.4,-0.2 --fiber 0.5,0.3 "
    "--t-end 2",
]


# the CI workflow's custom model: exp, log, sqrt, abs, sin, cos and a jet division
CUSTOM3D = {
    "dimension": 3, "homogeneity_degree": 2, "family": "custom",
    "parameters": {"expression": (
        "exp(0.2 * x1) * y1^2 - (1 + 0.1 * sin(x2) * cos(x3)) * (y2^2 + y3^2) "
        "+ 0.05 * log(2 + x2) * y1 * y2 + 0.02 * abs(x1 - 2) * (y1^4 + y2^4) "
        "/ (y1^2 + y2^2 + y3^2) - 0.02 * sqrt(y2^4 + y3^4)"
    )},
}

CUSTOM_COMMANDS = [
    "connection --model custom3d.json --point 0.1,0.2,-0.3 --direction 1,0.3,-0.2",
    "validate --model custom3d.json --samples 20",
]


def commands() -> list[list[str]]:
    models = [f"builtin:{name}" for name in builtin_names()] + [LINE_MODEL]
    runs = [
        ["verify", "--model", model, "--seed", str(seed), "--format", "json"]
        for seed in (0, 7)
        for model in models
    ]
    runs.append(["verify", "--model", "builtin:quartic4d", "--seed", "7", "--budget", "full",
                 "--format", "json"])
    return runs + [line.split() for line in CI_COMMANDS + FLOW_COMMANDS]


def report_hash(argv: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(digest, " ".join(argv), flush=True)


def main() -> int:
    os.chdir(ROOT)
    for argv in commands():
        report_hash(argv)
    for name in builtin_names():
        report_hash(["validate", "--model", f"builtin:{name}"])
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("custom3d.json").write_text(json.dumps(CUSTOM3D))
        for line in CUSTOM_COMMANDS:
            report_hash(line.split())
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
