"""CLI behavior: subcommand outputs, exit codes, report shapes."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from finslerkit.cli import RunConfig, build_parser, config_from_args, main
from finslerkit.connection import GeneralConnection
from finslerkit.dynamics import IntegrationControls, exp_map_with_jacobian
from finslerkit.errors import ModelFormatError
from finslerkit.models import load_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_connection_polar_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "connection", "--model", "builtin:polar2d", "--point", "2,0",
        "--direction", "1,1",
    )
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["N"], [[0.0, -2.0], [0.5, 0.5]], atol=1e-12)
    assert np.abs(np.asarray(doc["curvature"])).max() < 1e-11
    assert doc["schema_version"] == 1


def test_unknown_model_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "connection", "--model", "builtin:nope", "--point", "1,0",
        "--direction", "1,1",
    )
    assert code == 2
    assert "unknown builtin" in err


def test_dimension_mismatch_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "connection", "--model", "builtin:polar2d", "--point", "1,0,0",
        "--direction", "1,1",
    )
    assert code == 2
    assert "dimension" in err


def test_malformed_domain_exits_two_naming_the_domain(tmp_path, capsys):
    doc = {
        "dimension": 2, "homogeneity_degree": 2, "family": "quadratic",
        "parameters": {"metric": [["1", "0"], ["0", "1"]]},
        "domain": {"x_min": [0.0], "x_max": [1.0, 2.0, 3.0]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--model", str(path))
    assert code == 2
    assert "domain x_min" in err


def test_a_pole_at_the_point_exits_two(tmp_path, capsys):
    doc = {
        "dimension": 2, "homogeneity_degree": 2, "family": "custom",
        "parameters": {"expression": "(y1^2+y2^2)*(2 + 1/x1)"},
    }
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "connection", "--model", str(path), "--point", "0,0.5", "--direction", "1,0",
    )
    assert code == 2
    assert "NonFiniteField" in err


def test_a_real_power_of_a_negative_coordinate_fails_smoothness(tmp_path, capsys):
    doc = {
        "dimension": 2, "homogeneity_degree": 2, "family": "custom",
        "parameters": {"expression": "(y1^2+y2^2)*(2 + x1^0.5)"},
    }
    path = tmp_path / "root.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--model", str(path), "--samples", "5")
    assert code == 1
    smooth = json.loads(out)["conditions"]["smooth"]
    assert smooth["passed"] is False
    # x1 is drawn from [-1, 1], so some samples take a root of a negative value
    assert 0 < smooth["failures"] == len(smooth["witnesses"]) < smooth["checked"]
    assert all("negative" in w["detail"] for w in smooth["witnesses"])


def test_a_root_of_a_negative_coordinate_names_the_value(tmp_path, capsys):
    doc = {
        "dimension": 2, "homogeneity_degree": 2, "family": "custom",
        "parameters": {"expression": "(y1^2+y2^2)*(2 + sqrt(x1))"},
    }
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--model", str(path), "--samples", "5")
    assert code == 1
    smooth = json.loads(out)["conditions"]["smooth"]
    assert 0 < smooth["failures"] == len(smooth["witnesses"]) < smooth["checked"]
    for witness in smooth["witnesses"]:
        assert witness["detail"] == f"sqrt of negative value {witness['x'][0]:.3e}"


@pytest.mark.parametrize("band", ["ab", 5, [0, 0]])
def test_bad_y_norm_band_exits_two(tmp_path, capsys, band):
    doc = {
        "dimension": 2, "homogeneity_degree": 2, "family": "quadratic",
        "parameters": {"metric": [["1", "0"], ["0", "1"]]},
        "domain": {"y_norm": band},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--model", str(path))
    assert code == 2
    assert "domain y_norm" in err


UNIT_METRIC = {"metric": [["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"dimension": 2.7}, "dimension must be a whole number"),
        ({"dimension": True}, "dimension must be a whole number"),
        ({"homogeneity_degree": 2.9}, "homogeneity_degree must be a whole number"),
        ({"homogeneity_degree": "2"}, "homogeneity_degree must be a whole number"),
        ({"parameters": "oops"}, "parameters must be a mapping"),
        (
            {"family": "pth_root", "homogeneity_degree": 4,
             "parameters": {"form": "y1^4 + y2^4"}},
            "pth_root degree p must be a whole number, got None",
        ),
        (
            {"family": "pth_root", "homogeneity_degree": 4,
             "parameters": {"form": "y1^4 + y2^4", "p": 4.5}},
            "pth_root degree p must be a whole number",
        ),
        (
            {"family": "randers",
             "parameters": dict(UNIT_METRIC, one_form=["0.1", "0"], exponent=2.5)},
            "randers exponent must be a whole number",
        ),
    ],
    ids=["dimension", "bool-dimension", "degree", "string-degree", "parameters",
         "pth-root-without-p", "pth-root-p", "randers-exponent"],
)
def test_a_malformed_model_document_is_a_format_error(tmp_path, capsys, fields, message):
    doc = {"dimension": 2, "homogeneity_degree": 2, "family": "quadratic",
           "parameters": UNIT_METRIC}
    doc.update(fields)
    with pytest.raises(ModelFormatError, match=message):
        load_model(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "connection", "--model", str(path), "--point", "0.1,0.2", "--direction", "1,0",
    )
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_a_sample_count_below_one_exits_two(capsys, count):
    code, out, err = run_cli(capsys, "validate", "--model", "builtin:flat4d", "--samples", count)
    assert (code, out) == (2, "")
    assert "samples must be at least 1" in err


def test_unparsable_vector_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["connection", "--model", "builtin:polar2d", "--point", "abc",
              "--direction", "1,1"])
    assert exc.value.code == 2


def test_nonpositive_tolerance_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--model", "builtin:polar2d", "--point", "1,0",
        "--direction", "0,1", "--rtol", "-1",
    )
    assert code == 2
    assert "positive" in err


# each subcommand with only its required flags
BARE = [
    ["validate"],
    ["connection", "--point", "1,0", "--direction", "0,1"],
    ["geodesic", "--point", "1,0", "--direction", "0,1"],
    ["autoparallel", "--point", "1,0", "--velocity", "0,1", "--fiber", "1,0"],
    ["expmap", "--point", "1,0", "--velocity", "0,1", "--fiber", "1,0"],
    ["chart", "--x-tilde", "0,0", "--y-tilde", "1,0"],
    ["verify"],
]


def bare_args(argv):
    return build_parser().parse_args(argv[:1] + ["--model", "builtin:polar2d"] + argv[1:])


@pytest.mark.parametrize("argv", BARE, ids=lambda argv: argv[0])
def test_default_tolerances_are_the_integrator_defaults(argv):
    assert config_from_args(bare_args(argv)).controls() == IntegrationControls()


def test_seed_is_an_option_of_validate_and_verify_only(capsys):
    for argv in BARE:
        with_seed = argv[:1] + ["--model", "builtin:polar2d", "--seed", "3"] + argv[1:]
        if argv[0] in ("validate", "verify"):
            assert config_from_args(build_parser().parse_args(with_seed)).seed == 3
            continue
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(with_seed)
        assert exc.value.code == 2, argv[0]
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", BARE, ids=lambda argv: argv[0])
def test_a_bare_subcommand_takes_the_run_config_defaults(argv):
    args = bare_args(argv)
    given = {"command", "model"} | {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
    # verify's one default of its own: it prints a table unless asked for json
    defaults = {"format": "table"} if argv[0] == "verify" else {}
    assert set(vars(args)) == given | set(defaults)
    cfg = config_from_args(args)
    for field in dataclasses.fields(RunConfig):
        if field.name not in given:
            assert getattr(cfg, field.name) == defaults.get(field.name, field.default), field.name


def test_negative_components_via_equals_syntax(capsys):
    code, out, _ = run_cli(
        capsys, "connection", "--model", "builtin:randers2d", "--point=-0.4,0.2",
        "--direction=1,-0.3",
    )
    assert code == 0
    assert json.loads(out)["point"] == [-0.4, 0.2]


def test_geodesic_csv_on_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--model", "builtin:polar2d", "--point", "1,0",
        "--direction", "0,1", "--t-end", "0.5",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "x1", "x2", "y1", "y2"]
    assert float(rows[-1][0]) == pytest.approx(0.5, abs=1e-12)
    # straight line through the origin in polar coordinates: r(t)^2 = 1 + t^2
    t, r = (float(rows[-1][0]), float(rows[-1][1]))
    assert r == pytest.approx(np.hypot(1.0, t), abs=1e-8)


def test_autoparallel_csv_to_file(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "autoparallel", "--model", "builtin:randers2d", "--point", "0.2,-0.3",
        "--velocity", "0.4,0.1", "--fiber", "1,0.4", "--t-end", "1", "--output",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    rows = list(csv.reader(out_path.open()))
    assert rows[0][0] == "t" and len(rows) > 3


def test_expmap_blocks_match_library(capsys):
    code, out, _ = run_cli(
        capsys, "expmap", "--model", "builtin:randers2d", "--point", "0.2,-0.3",
        "--velocity", "0.3,0.1", "--fiber", "1,0.4",
    )
    assert code == 0
    doc = json.loads(out)
    conn = GeneralConnection.cartan(load_model("builtin:randers2d"))
    end, dxdu, dydu, dxdv, dydv = exp_map_with_jacobian(
        conn, [0.2, -0.3], [0.3, 0.1], [1.0, 0.4], wrt="uv",
        controls=IntegrationControls(rtol=1e-10, atol=1e-12),
    )
    assert doc["x"] == [float(v) for v in end.x]
    assert doc["jacobian"]["dx_du"] == dxdu.tolist()
    assert doc["jacobian"]["dy_dv"] == dydv.tolist()


def test_chart_record_with_series(capsys):
    code, out, _ = run_cli(
        capsys, "chart", "--model", "builtin:sphere2d", "--kind", "standard",
        "--x-tilde", "0.1,-0.05", "--y-tilde", "0.8,-0.5", "--series-order", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "standard"
    assert doc["residuals"]["round_trip_x_tilde"] < 1e-8
    assert doc["residuals"]["round_trip_y_tilde"] < 1e-8
    # order-2 series against the integrated map, both emitted above
    assert np.abs(np.asarray(doc["series"]["x"]) - np.asarray(doc["x"])).max() < 5e-4


def test_chart_csv_requires_output(capsys):
    code, _, err = run_cli(
        capsys, "chart", "--model", "builtin:sphere2d", "--x-tilde", "0.1,0",
        "--y-tilde", "1,0", "--format", "csv",
    )
    assert code == 2
    assert "--output" in err


def test_chart_csv_to_file(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "chart", "--model", "builtin:sphere2d", "--x-tilde", "0.1,-0.05",
        "--y-tilde", "0.8,-0.5", "--format", "csv", "--output", str(out_path),
    )
    assert code == 0
    rows = list(csv.reader(out_path.open()))
    assert rows[0] == ["xt1", "xt2", "x1", "x2", "y1", "y2"]
    assert len(rows) == 2


def test_validate_minkowski_passes(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--model", "builtin:flat4d", "--samples", "60",
        "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert "+---" in doc["signature_tally"]


def test_validate_riemannian_surface_fails_signature(capsys):
    # positive definite metrics are admissible geometry but not spacetimes;
    # the report says exactly which condition rules them out
    code, out, _ = run_cli(
        capsys, "validate", "--model", "builtin:sphere2d", "--samples", "60",
        "--seed", "2",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert doc["conditions"]["signature"]["passed"] is False
    assert doc["conditions"]["nondegenerate"]["passed"] is True


HEADER = ["schema_version", "command", "model"]


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "builtin:polar2d", "--samples", "3"],
    ["connection", "--model", "builtin:polar2d", "--point", "2,0", "--direction", "1,1"],
    ["expmap", "--model", "builtin:polar2d", "--point", "2,0", "--velocity", "0.1,0",
     "--fiber", "1,1"],
    ["chart", "--model", "builtin:sphere2d", "--x-tilde", "0.1,-0.05", "--y-tilde", "0.8,-0.5",
     "--series-order", "2"],
])
def test_documents_open_with_the_schema_command_model_header(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1)
    doc = json.loads(out)
    assert list(doc)[:3] == HEADER
    assert doc["command"] == argv[0] and doc["model"] == argv[2]


def test_validate_document_key_order(capsys):
    # randers2d is irreversible, so the reversible condition carries witnesses
    code, out, _ = run_cli(
        capsys, "validate", "--model", "builtin:randers2d", "--samples", "20", "--seed", "3",
    )
    assert code == 1
    doc = json.loads(out)
    assert list(doc) == HEADER + [
        "dimension", "homogeneity_degree", "family", "samples", "seed", "all_passed",
        "conditions", "signature_tally",
    ]
    conditions = doc["conditions"]
    assert list(conditions) == ["smooth", "homogeneous", "reversible", "nondegenerate", "signature"]
    counts = ["passed", "checked", "failures"]
    for name in ("smooth", "homogeneous", "nondegenerate"):
        assert list(conditions[name]) == counts
    assert list(conditions["reversible"]) == counts + ["witnesses"]
    assert all(list(w) == ["x", "y", "detail"] for w in conditions["reversible"]["witnesses"])
    assert list(conditions["signature"]) == counts + ["detail"]


def test_verify_flat_model_all_pass(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--model", "builtin:flat4d", "--seed", "1", "--output",
        str(report_path),
    )
    assert code == 0
    # human table on stdout, machine report in the file
    assert "all checks passed" in out
    assert "FAIL" not in out
    doc = json.loads(report_path.read_text())
    assert doc["all_passed"] is True
    assert doc["schema_version"] == 1
    assert {"flat-connection-tensors", "chart-round-trip-standard"} <= {
        row["id"] for row in doc["checks"]
    }
    worst = max(row["max_residual"] for row in doc["checks"])
    assert worst <= 1e-10
    for row in doc["checks"]:
        assert set(row) == {
            "id", "claim", "model", "seed", "samples", "max_residual",
            "tolerance", "passed",
        }


def test_verify_exit_code_tracks_failures(monkeypatch, capsys):
    import finslerkit.cli as cli_mod

    fake = {
        "schema_version": 1,
        "command": "verify",
        "model": "builtin:flat4d",
        "seed": 0,
        "budget": "quick",
        "all_passed": False,
        "checks": [
            {"id": "euler-degree", "claim": "c", "model": "m", "seed": 0,
             "samples": 1, "max_residual": 1.0, "tolerance": 1e-12,
             "passed": False},
        ],
    }
    monkeypatch.setattr(cli_mod, "run_verification", lambda *a, **k: fake)
    code, out, _ = run_cli(capsys, "verify", "--model", "builtin:flat4d")
    assert code == 1
    assert "FAIL" in out
