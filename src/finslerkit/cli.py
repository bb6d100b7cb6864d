"""Command-line interface: load a model, run one computation, emit a report.

Exit codes: 0 when the requested computation (and any checks it includes)
succeeds, 1 when a verification or validation run reports failures, 2 on
configuration or parse problems.  All numeric output is full round-trip
precision; reports with the same model, seed and budget are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

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
from .lagrangian import SampleSpec
from .models import load_model
from .verify import SCHEMA_VERSION, format_table, report_to_json, run_verification


@dataclass
class RunConfig:
    """One CLI invocation, fully determined (with the seed) before any work.

    The field defaults are the CLI's: the parser passes only the flags given.
    """

    command: str
    model: str
    point: np.ndarray | None = None
    direction: np.ndarray | None = None
    velocity: np.ndarray | None = None
    fiber: np.ndarray | None = None
    base: np.ndarray | None = None
    x_tilde: np.ndarray | None = None
    y_tilde: np.ndarray | None = None
    kind: str = "extended"
    t_end: float = 1.0
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    radius: float = 0.5
    samples: int = 200
    budget: str = "quick"
    seed: int = 0
    output: str | None = None
    format: str = "json"
    series_order: int | None = None

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("integration tolerances must be positive")
        if self.radius <= 0:
            raise ValueError("chart radius must be positive")
        if self.t_end == 0:
            raise ValueError("t-end must be nonzero")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")

    def controls(self) -> IntegrationControls:
        return IntegrationControls(rtol=self.rtol, atol=self.atol)


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


def _require_dim(model, name, vec) -> np.ndarray:
    if vec is None:
        raise ValueError(f"--{name} is required for this command")
    if len(vec) != model.dimension:
        raise ValueError(
            f"--{name} has {len(vec)} components, model has dimension {model.dimension}"
        )
    return vec


# -- subcommand bodies ----------------------------------------------------------


def _cmd_validate(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    spec = SampleSpec.for_model(model, count=cfg.samples, seed=cfg.seed)
    report = model.validate_spacetime(spec)
    doc = {"schema_version": SCHEMA_VERSION, "command": "validate", "model": cfg.model}
    doc.update(report.as_dict())
    _emit(report_to_json(doc), cfg.output)
    return 0 if report.all_passed else 1


def _cmd_connection(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    x = _require_dim(model, "point", cfg.point)
    y = _require_dim(model, "direction", cfg.direction)
    conn = GeneralConnection.cartan(model)
    p = bundle_point(x, y)
    ev = conn.evaluate(p)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "connection",
        "model": cfg.model,
        "point": _matrix_list(x),
        "direction": _matrix_list(y),
        "N": _matrix_list(ev.N),
        "berwald": _matrix_list(conn.berwald(p)),
        "delta_christoffel": _matrix_list(cartan_linear_delta(model, p)),
        "curvature": _matrix_list(ev.R),
    }
    _emit(report_to_json(doc), cfg.output)
    return 0


def _cmd_geodesic(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    x = _require_dim(model, "point", cfg.point)
    u = _require_dim(model, "direction", cfg.direction)
    conn = GeneralConnection.cartan(model)
    traj = integrate_autoparallel(conn, x, u, cfg.t_end, cfg.controls())
    traj.to_csv(cfg.output or sys.stdout)
    return 0


def _cmd_autoparallel(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    x = _require_dim(model, "point", cfg.point)
    u = _require_dim(model, "velocity", cfg.velocity)
    v = _require_dim(model, "fiber", cfg.fiber)
    conn = GeneralConnection.cartan(model)
    traj = integrate_horizontal_autoparallel(conn, x, u, v, cfg.t_end, cfg.controls())
    traj.to_csv(cfg.output or sys.stdout)
    return 0


def _cmd_expmap(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    x = _require_dim(model, "point", cfg.point)
    u = _require_dim(model, "velocity", cfg.velocity)
    v = _require_dim(model, "fiber", cfg.fiber)
    conn = GeneralConnection.cartan(model)
    end, dxdu, dydu, dxdv, dydv = exp_map_with_jacobian(
        conn, x, u, v, wrt="uv", controls=cfg.controls()
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "expmap",
        "model": cfg.model,
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
    }
    _emit(report_to_json(doc), cfg.output)
    return 0


def _cmd_chart(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    lo, hi = model.domain_box()
    base = _require_dim(model, "base", 0.5 * (lo + hi) if cfg.base is None else cfg.base)
    xt = _require_dim(model, "x-tilde", cfg.x_tilde)
    yt = _require_dim(model, "y-tilde", cfg.y_tilde)
    conn = GeneralConnection.cartan(model)
    chart = AutoparallelChart(conn, base, kind=cfg.kind, radius_hint=cfg.radius)
    if cfg.format == "csv":
        if not cfg.output:
            raise ValueError("csv format requires --output")
        export_grid_csv(chart, [xt], yt, cfg.output)
        return 0
    doc = {"schema_version": SCHEMA_VERSION, "command": "chart", "model": cfg.model}
    doc.update(chart.record(xt, yt))
    order = cfg.series_order
    if order:
        approx = chart.series_forward(xt, yt, order)
        doc["series"] = {
            "order": order,
            "x": _matrix_list(approx.x),
            "y": _matrix_list(approx.y),
        }
    _emit(report_to_json(doc), cfg.output)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    report = run_verification(cfg.model, seed=cfg.seed, budget=cfg.budget)
    table = format_table(report) + "\n"
    if cfg.output:
        _emit(report_to_json(report), cfg.output)
        sys.stdout.write(table)
    else:
        sys.stdout.write(report_to_json(report) if cfg.format == "json" else table)
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


def run(cfg: RunConfig) -> int:
    """Dispatch one parsed invocation; returns the process exit status."""
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ModelFormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FinslerKitError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finslerkit",
        description="Connections, autoparallel dynamics and adapted charts for "
        "homogeneous Lagrangian models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        # a flag not given stays out of the namespace, so RunConfig's default holds
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--model", required=True, help="builtin:NAME or a model JSON path")
        p.add_argument("--output", help="write the report here instead of stdout")
        return p

    def tolerances(p):
        p.add_argument("--rtol", type=float)
        p.add_argument("--atol", type=float)

    p = command("validate", "sample-based Lagrangian admissibility report")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = command("connection", "connection tensors at one bundle point")
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--direction", type=_vector, required=True)

    p = command("geodesic", "canonical-lift autoparallel, CSV trajectory")
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--direction", type=_vector, required=True)
    p.add_argument("--t-end", type=float)
    tolerances(p)

    p = command("autoparallel", "horizontal autoparallel with independent seeds, CSV")
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--velocity", type=_vector, required=True)
    p.add_argument("--fiber", type=_vector, required=True)
    p.add_argument("--t-end", type=float)
    tolerances(p)

    p = command("expmap", "exponential map value and Jacobian blocks")
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--velocity", type=_vector, required=True)
    p.add_argument("--fiber", type=_vector, required=True)
    tolerances(p)

    p = command("chart", "adapted-chart evaluation with round-trip audit")
    p.add_argument("--base", type=_vector, help="chart center (default: domain midpoint)")
    p.add_argument("--kind", choices=["extended", "standard"])
    p.add_argument("--x-tilde", type=_vector, required=True)
    p.add_argument("--y-tilde", type=_vector, required=True)
    p.add_argument("--radius", type=float, help="trust-region radius")
    p.add_argument("--series-order", type=int, choices=[1, 2, 3])
    p.add_argument("--format", choices=["json", "csv"])

    p = command("verify", "run the property-verification suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", choices=["quick", "full"])
    p.add_argument("--format", choices=["table", "json"])
    p.set_defaults(format="table")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
