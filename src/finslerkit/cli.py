"""Command-line interface: load a model, run one computation, emit a report.

Exit codes: 0 when the requested computation (and any checks it includes)
succeeds, 1 when a verification or validation run reports failures, 2 on
configuration or parse problems.  All numeric output is full round-trip
precision; reports with the same model, seed and budget are byte-identical.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bundle import bundle_point
from .charts import AutoparallelChart, export_grid_csv
from .connection import GeneralConnection, cartan_linear_delta
from .dynamics import (
    IntegrationControls,
    exp_map_with_jacobian,
    integrate_autoparallel,
    integrate_horizontal_autoparallel,
)
from .errors import FinslerKitError, ModelFormatError
from .integrate import DEFAULT_ATOL, DEFAULT_RTOL
from .models import load_model
from .verify import SCHEMA_VERSION, format_table, report_to_json, run_verification


def _check(args: argparse.Namespace) -> None:
    """The option values argparse's types admit that no command can use."""
    given = vars(args)
    if "rtol" in given and min(args.rtol, args.atol) <= 0:
        raise ValueError("integration tolerances must be positive")
    if "radius" in given and args.radius <= 0:
        raise ValueError("chart radius must be positive")
    if "t_end" in given and args.t_end == 0:
        raise ValueError("t-end must be nonzero")
    if "samples" in given and args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")


def _controls(args: argparse.Namespace) -> IntegrationControls:
    return IntegrationControls(rtol=args.rtol, atol=args.atol)


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated decimals, got {text!r}"
        ) from err


def _matrix_list(arr: np.ndarray) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_document(args: argparse.Namespace, body: dict) -> None:
    """Write ``body`` as JSON under the schema_version/command/model header."""
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "model": args.model}
    doc.update(body)
    _emit(report_to_json(doc), args.output)


def _require_dim(model, name, vec) -> np.ndarray:
    if vec is None:
        raise ValueError(f"--{name} is required for this command")
    if len(vec) != model.dimension:
        raise ValueError(
            f"--{name} has {len(vec)} components, model has dimension {model.dimension}"
        )
    return vec


# -- subcommand bodies ----------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    report = load_model(args.model).validate_spacetime(args.samples, args.seed)
    _write_document(args, report)
    return 0 if report["all_passed"] else 1


def _cmd_connection(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    x = _require_dim(model, "point", args.point)
    y = _require_dim(model, "direction", args.direction)
    conn = GeneralConnection.cartan(model)
    p = bundle_point(x, y)
    ev = conn.evaluate(p)
    _write_document(args, {
        "point": _matrix_list(x),
        "direction": _matrix_list(y),
        "N": _matrix_list(ev.N),
        "berwald": _matrix_list(conn.berwald(p)),
        "delta_christoffel": _matrix_list(cartan_linear_delta(model, p)),
        "curvature": _matrix_list(ev.R),
    })
    return 0


def _cmd_geodesic(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    x = _require_dim(model, "point", args.point)
    u = _require_dim(model, "direction", args.direction)
    conn = GeneralConnection.cartan(model)
    traj = integrate_autoparallel(conn, x, u, args.t_end, _controls(args))
    traj.to_csv(args.output or sys.stdout)
    return 0


def _cmd_autoparallel(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    x = _require_dim(model, "point", args.point)
    u = _require_dim(model, "velocity", args.velocity)
    v = _require_dim(model, "fiber", args.fiber)
    conn = GeneralConnection.cartan(model)
    traj = integrate_horizontal_autoparallel(conn, x, u, v, args.t_end, _controls(args))
    traj.to_csv(args.output or sys.stdout)
    return 0


def _cmd_expmap(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    x = _require_dim(model, "point", args.point)
    u = _require_dim(model, "velocity", args.velocity)
    v = _require_dim(model, "fiber", args.fiber)
    conn = GeneralConnection.cartan(model)
    end, dxdu, dydu, dxdv, dydv = exp_map_with_jacobian(
        conn, x, u, v, wrt="uv", controls=_controls(args)
    )
    _write_document(args, {
        "point": _matrix_list(x),
        "velocity": _matrix_list(u),
        "fiber": _matrix_list(v),
        "x": _matrix_list(end.x),
        "y": _matrix_list(end.y),
        "jacobian": {
            "dx_du": _matrix_list(dxdu),
            "dy_du": _matrix_list(dydu),
            "dx_dv": _matrix_list(dxdv),
            "dy_dv": _matrix_list(dydv),
        },
    })
    return 0


def _cmd_chart(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    base = _require_dim(model, "base", model.center() if args.base is None else args.base)
    xt = _require_dim(model, "x-tilde", args.x_tilde)
    yt = _require_dim(model, "y-tilde", args.y_tilde)
    conn = GeneralConnection.cartan(model)
    chart = AutoparallelChart(conn, base, kind=args.kind, radius_hint=args.radius)
    if args.format == "csv":
        if not args.output:
            raise ValueError("csv format requires --output")
        export_grid_csv(chart, [xt], yt, args.output)
        return 0
    body = chart.record(xt, yt)
    order = args.series_order
    if order:
        approx = chart.series_forward(xt, yt, order)
        body["series"] = {
            "order": order,
            "x": _matrix_list(approx.x),
            "y": _matrix_list(approx.y),
        }
    _write_document(args, body)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(args.model, seed=args.seed, budget=args.budget)
    table = format_table(report) + "\n"
    if args.output:
        _emit(report_to_json(report), args.output)
        sys.stdout.write(table)
    else:
        sys.stdout.write(report_to_json(report) if args.format == "json" else table)
    return 0 if report["all_passed"] else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "connection": _cmd_connection,
    "geodesic": _cmd_geodesic,
    "autoparallel": _cmd_autoparallel,
    "expmap": _cmd_expmap,
    "chart": _cmd_chart,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finslerkit",
        description="Connections, autoparallel dynamics and adapted charts for "
        "homogeneous Lagrangian models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--model", required=True, help="builtin:NAME or a model JSON path")
        p.add_argument("--output", help="write the report here instead of stdout")
        return p

    def tolerances(p):
        p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
        p.add_argument("--atol", type=float, default=DEFAULT_ATOL)

    p = command("validate", "sample-based Lagrangian admissibility report")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = command("connection", "connection tensors at one bundle point")
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--direction", type=_vector, required=True)

    p = command("geodesic", "canonical-lift autoparallel, CSV trajectory")
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--direction", type=_vector, required=True)
    p.add_argument("--t-end", type=float, default=1.0)
    tolerances(p)

    p = command("autoparallel", "horizontal autoparallel with independent seeds, CSV")
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--velocity", type=_vector, required=True)
    p.add_argument("--fiber", type=_vector, required=True)
    p.add_argument("--t-end", type=float, default=1.0)
    tolerances(p)

    p = command("expmap", "exponential map value and Jacobian blocks")
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--velocity", type=_vector, required=True)
    p.add_argument("--fiber", type=_vector, required=True)
    tolerances(p)

    p = command("chart", "adapted-chart evaluation with round-trip audit")
    p.add_argument("--base", type=_vector, help="chart center (default: domain midpoint)")
    p.add_argument("--kind", choices=["extended", "standard"], default="extended")
    p.add_argument("--x-tilde", type=_vector, required=True)
    p.add_argument("--y-tilde", type=_vector, required=True)
    p.add_argument("--radius", type=float, default=0.5, help="trust-region radius")
    p.add_argument("--series-order", type=int, choices=[1, 2, 3])
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = command("verify", "run the property-verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", choices=["quick", "full"], default="quick")
    p.add_argument("--format", choices=["table", "json"], default="table")

    return parser


def main(argv=None) -> int:
    """Parse ``argv``, run its command and return the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        _check(args)
        return _COMMANDS[args.command](args)
    except (ModelFormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FinslerKitError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
