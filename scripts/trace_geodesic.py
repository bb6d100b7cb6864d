#!/usr/bin/env python3
"""Trace a geodesic alongside its standard-chart image.

Emits CSV rows (t, x, y, xt) where xt is the chart coordinate of the state
when the standard chart at the start point can invert it.  On quadratic
models the xt columns are straight rays through the origin, so integrator or
inversion drift is easy to eyeball; on non-quadratic models they bend.
"""

import argparse
import csv
import sys

import numpy as np

from finslerkit.charts import AutoparallelChart
from finslerkit.connection import GeneralConnection
from finslerkit.dynamics import TIGHT, integrate_autoparallel
from finslerkit.errors import FinslerKitError
from finslerkit.models import load_model


def vector(text):
    return np.array([float(part) for part in text.split(",")])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="builtin:sphere2d")
    ap.add_argument("--point", type=vector, required=True)
    ap.add_argument("--direction", type=vector, required=True)
    ap.add_argument("--t-end", type=float, default=0.75)
    ap.add_argument("--steps", type=int, default=60)
    ap.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    model = load_model(args.model)
    conn = GeneralConnection.cartan(model)
    traj = integrate_autoparallel(conn, args.point, args.direction, args.t_end, TIGHT)

    chart = None
    if conn.homogeneous and conn.symmetric:
        chart = AutoparallelChart(conn, args.point, kind="standard", radius_hint=1.5)

    n = model.dimension
    header = (["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
              + [f"xt{i+1}" for i in range(n)])
    fh = open(args.output, "w", newline="") if args.output else sys.stdout
    writer = csv.writer(fh)
    writer.writerow(header)
    for t in np.linspace(0.0, args.t_end, args.steps):
        p = traj.state(float(t))
        row = [repr(float(t))] + [repr(float(v)) for v in np.concatenate([p.x, p.y])]
        if chart is not None and t > 0:
            try:
                xt, _ = chart.from_manifold(p)
                row += [repr(float(v)) for v in xt]
            except FinslerKitError:
                chart = None  # left the invertible neighbourhood; stop trying
        if len(row) < len(header):
            row += [""] * (len(header) - len(row))
        writer.writerow(row)
    if args.output:
        fh.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
