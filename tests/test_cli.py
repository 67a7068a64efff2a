"""CLI: configuration handling, output schemas, exit codes."""

import json

import numpy as np
import pytest

from levelcross import cli
from levelcross.cli import (
    RunConfig,
    config_from_mapping,
    emit_flat_config,
    main,
    parse_flat_config,
)
from levelcross.errors import ConfigurationError
from levelcross.quadrature import QuadratureResult, integrate_density


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlatConfig:
    def test_round_trip_identity(self):
        config = RunConfig(
            basis="weighted-monomial",
            weights=(1.0, 0.5, 2.0),
            mu_a=(0.1, -0.2, 0.3),
            var_a=(1.0,),
            k1=0.25,
            nx=5,
            theorem="2",
            abs_tol=3.5e-7,
        )
        text = emit_flat_config(config)
        assert config_from_mapping(parse_flat_config(text)) == config

    def test_parse_comments_and_lists(self):
        mapping = parse_flat_config(
            """
            # full line comment
            degree = 3            # trailing comment
            var_a = [1.0, 2.0, 0.5, 4]
            basis = "monomial"
            k1 = -0.5
            """
        )
        config = config_from_mapping(mapping)
        assert config.degree == 3
        assert config.var_a == (1.0, 2.0, 0.5, 4.0)
        assert config.k1 == -0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            config_from_mapping({"degre": 3})

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError, match="expected"):
            parse_flat_config("degree 3")

    def test_profile_length_mismatch(self):
        config = config_from_mapping({"degree": 2, "var_a": [1.0, 2.0]})
        with pytest.raises(ConfigurationError, match="entries"):
            config.build()

    def test_theorem_auto_selection(self):
        cases = [
            ({"degree": 2}, "3"),
            ({"degree": 2, "var_a": [1.0, 2.0, 1.0]}, "2"),
            ({"degree": 2, "mu_a": 0.5}, "4"),
            ({"basis": "brownian-prefix", "time_grid": [1.0, 2.0, 3.0]}, "5"),
        ]
        for mapping, expected in cases:
            config = config_from_mapping(mapping)
            profile, _, _, _ = config.build()
            assert config.select_theorem(profile) == expected


class TestDensityCommand:
    def test_grid_csv(self, capsys):
        code, out, err = run_cli(
            ["density", "--degree", "2", "--nx", "3", "--ny", "3"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,h"
        assert len(lines) == 3 * 3 + 1
        # row-major: y varies by row, x within a row;  center cell is 1/a-pi.
        cx, cy, ch = lines[5].split(",")
        assert (float(cx), float(cy)) == (0.0, 0.0)
        assert abs(float(ch) - 1.0 / np.pi) < 1e-15

    def test_conjugation_symmetry_in_grid(self, capsys):
        code, out, _ = run_cli(
            ["density", "--degree", "3", "--var-a", "1.5,0.5,2.0,1.0",
             "--var-b", "0.5,1.0,1.5,2.0", "--k1", "0.8", "--k2", "0",
             "--nx", "7", "--ny", "5"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        table = {(float(x), float(y)): float(h) for x, y, h in rows}
        for (x, y), h in table.items():
            assert abs(h - table[(x, -y)]) <= 1e-10 * (1 + abs(h))

    def test_degenerate_cells_become_nan(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _, err = run_cli(
            ["density", "--basis", "weighted-monomial", "--weights", "0,1,1",
             "--nx", "3", "--ny", "3", "--out", str(out_file)], capsys
        )
        assert code == 4
        assert "degenerate" in err
        rows = out_file.read_text().strip().split("\n")[1:]
        values = [float(r.split(",")[2]) for r in rows]
        assert sum(np.isnan(v) for v in values) == 1
        assert all(v >= 0 for v in values if not np.isnan(v))

    def test_file_output_has_lf_endings(self, tmp_path, capsys):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            ["density", "--degree", "2", "--nx", "2", "--ny", "2", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        raw = out_file.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestScalarCommands:
    def test_expect_schema(self, capsys):
        code, out, _ = run_cli(
            ["expect", "--degree", "2", "--abs-tol", "1e-8", "--rel-tol", "1e-8"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"value", "error_estimate", "converged"}
        assert payload["converged"] is True
        assert abs(payload["value"] - 1.142127071) < 1e-6

    def test_mc_schema(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--degree", "2", "--trials", "400", "--seed", "7"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"trials", "mean", "std_error", "ci_low", "ci_high", "discarded"}
        assert payload["trials"] == 400
        assert payload["ci_low"] <= payload["mean"] <= payload["ci_high"]

    def test_compare_agrees(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--degree", "2", "--trials", "4000", "--seed", "3"], capsys
        )
        payload = json.loads(out)
        assert set(payload) == {"quadrature", "mc", "z_score", "agree"}
        assert payload["agree"] is True
        assert code == 0

    def test_compare_needs_converged_quadrature(self, capsys):
        # One cell at tolerance 1e-12 cannot converge; the Monte Carlo mean
        # alone would pass the 3-sigma rule here.
        code, out, _ = run_cli(
            ["compare", "--degree", "2", "--trials", "4000", "--seed", "3", "--max-cells", "1",
             "--abs-tol", "1e-12", "--rel-tol", "1e-12"], capsys
        )
        payload = json.loads(out)
        assert payload["quadrature"]["converged"] is False
        assert payload["agree"] is False
        assert code == 2

    def test_expect_unconverged_exit_code(self, capsys):
        code, out, _ = run_cli(
            ["expect", "--degree", "2", "--max-cells", "1", "--abs-tol", "1e-12",
             "--rel-tol", "1e-12"], capsys
        )
        payload = json.loads(out)
        assert set(payload) == {"value", "error_estimate", "converged"}
        assert payload["converged"] is False
        assert code == 6

    def test_expect_at_degree_80_satisfies_count_law(self, capsys):
        # Theorem 3 (iid unit variances) stays in range over [-20, 20]^2.
        code, out, _ = run_cli(
            ["expect", "--degree", "80", "--x-min=-20", "--x-max", "20",
             "--y-min=-20", "--y-max", "20"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert abs(payload["value"] - 80.0) < 1e-2

    def test_non_finite_numbers_are_written_as_null(self, capsys, monkeypatch):
        # Strict JSON (RFC 8259) has no NaN or Infinity literal.
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        nan = float("nan")
        monkeypatch.setattr(cli, "integrate_density",
                            lambda *a, **k: QuadratureResult(nan, nan, 1, False))
        code, out, _ = run_cli(["expect", "--degree", "2"], capsys)
        assert code == 6
        payload = json.loads(out, parse_constant=reject)
        assert payload == {"value": None, "error_estimate": None, "converged": False}

        code, out, _ = run_cli(["compare", "--degree", "2", "--trials", "400"], capsys)
        assert code == 2
        payload = json.loads(out, parse_constant=reject)
        assert payload["quadrature"]["value"] is None
        assert payload["z_score"] is None
        assert payload["agree"] is False
        assert payload["mc"]["trials"] == 400

    def test_reduce_check_passes(self, capsys):
        code, out, _ = run_cli(["reduce-check", "--seed", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "general_mean_matches_conditioning" in names
        for check in payload["checks"]:
            assert check["passed"] and check["max_rel_dev"] <= check["tol"]

    def test_brownian_theorem5_path(self, capsys):
        code, out, _ = run_cli(
            ["expect", "--basis", "brownian-prefix", "--time-grid", "0.5,1.5,3.0",
             "--abs-tol", "1e-8", "--rel-tol", "1e-8"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] > 0


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def folded_and_full(argv, monkeypatch):
    """(``expect``'s result, points it evaluated, unfolded result over the region)."""
    config = cli.resolve_config(cli.build_parser().parse_args(argv))
    points = []
    inner = cli.integrate_density

    def counting(evaluator, *args, **kwargs):
        def counted(z):
            points.append(np.size(z))
            return evaluator(z)
        return inner(counted, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate_density", counting)
    folded = cli._integrate_region(config)
    field, _ = config.density_field()
    _, _, _, region = config.build()
    full = integrate_density(field, region, abs_tol=config.abs_tol,
                             rel_tol=config.rel_tol, max_cells=config.max_cells)
    return folded, sum(points), full


class TestSymmetryFold:
    SQUARE20 = ["--x-min=-20", "--x-max=20", "--y-min=-20", "--y-max=20"]
    SQUARE2 = ["--x-min=-2", "--x-max=2", "--y-min=-2", "--y-max=2"]
    TOL = ["--abs-tol=1e-9", "--rel-tol=1e-9"]

    @pytest.mark.parametrize("region, tol", [
        (SQUARE20, ["--abs-tol=1e-8", "--rel-tol=1e-8"]),
        (["--x-min=-20", "--x-max=20", "--y-min=-6", "--y-max=6"],
         ["--abs-tol=1e-8", "--rel-tol=1e-13"]),
        (["--x-min=-3", "--x-max=3", "--y-min=-8", "--y-max=8"],
         ["--abs-tol=1e-8", "--rel-tol=1e-13"]),
    ], ids=["square", "wide-absolute-tolerance", "tall-absolute-tolerance"])
    def test_point_fold_reproduces_the_full_region(self, region, tol, monkeypatch, capsys):
        # Quad-n40-style problem at N = 10: zero means, per-index variances.
        rng = np.random.default_rng(13)
        argv = ["expect", "--degree", "10", f"--var-a={_floats(rng.uniform(0.5, 2.0, 11))}",
                f"--var-b={_floats(rng.uniform(0.5, 2.0, 11))}", "--k1=1.0", "--k2=0.5",
                *region, *tol]
        folded, points, full = folded_and_full(argv, monkeypatch)
        assert full.converged and folded.converged
        assert abs(folded.value - full.value) <= 1e-15 * abs(full.value)
        assert folded.cells_used == full.cells_used
        assert points == folded.evaluations <= full.evaluations / 2 + 225
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["value"] == folded.value

    @pytest.mark.parametrize("extra", [
        ["--degree", "4", "--mu-a", "0,0.5,0,0,0", *SQUARE2],
        ["--basis", "brownian-prefix", "--time-grid", "0.5,1.5,3.0", *SQUARE2],
        ["--degree", "4", "--var-a", "1,2,1,0.5,1", "--x-min=-2", "--x-max=1.5",
         "--y-min=-2", "--y-max=2"],
    ], ids=["odd-index-means", "brownian-prefix", "off-centre"])
    def test_no_fold_evaluates_the_full_region(self, extra, monkeypatch):
        folded, points, full = folded_and_full(
            ["expect", "--k1=1.0", "--k2=0.5", *extra], monkeypatch)
        assert folded == full
        assert points == full.evaluations

    @pytest.mark.parametrize("argv, weight", [
        (["expect", "--degree", "5", "--mu-a", "0.3,-0.2,0.5,0.1,-0.4,0.2",
          "--var-a", "1,2,0.5,1,1.5,1", "--k1", "0.7", "--x-min=-2", "--x-max=2",
          "--y-min=-1.5", "--y-max=1.5", *TOL], 2),
        (["expect", "--basis", "brownian-prefix", "--time-grid", "0.5,1.5,3.0,3.5",
          "--k1", "0.4", *SQUARE2, *TOL], 2),
        (["expect", "--abs-tol=1e-10", "--rel-tol=1e-10"], 4),
    ], ids=["theorem-4-conjugate", "theorem-5-conjugate", "quarter"])
    def test_conjugate_and_quarter_folds(self, argv, weight, monkeypatch):
        folded, points, full = folded_and_full(argv, monkeypatch)
        config = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert cli._fundamental_region(*config.build())[1] == weight
        assert full.converged and folded.converged
        tolerance = max(config.abs_tol, config.rel_tol * abs(full.value))
        assert abs(folded.value - full.value) <= tolerance
        assert folded.error_estimate <= tolerance
        assert points == folded.evaluations < full.evaluations / weight + 225

    def test_single_cell_budget_integrates_the_whole_region(self, monkeypatch):
        folded, points, full = folded_and_full(["expect", "--max-cells", "1"], monkeypatch)
        assert folded == full
        assert (folded.cells_used, points, folded.converged) == (1, 225, False)

    def test_cell_budget_is_shared_by_the_fold(self, monkeypatch):
        folded, _, full = folded_and_full(
            ["expect", "--max-cells", "8", "--abs-tol=1e-12", "--rel-tol=1e-12"], monkeypatch)
        assert not (folded.converged or full.converged)
        assert folded.cells_used == full.cells_used == 8
        assert folded.value == pytest.approx(full.value, rel=1e-15)


class TestFlagsAndConfigFiles:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("degree = 2\nnx = 3\nny = 3\nk1 = 0.0\n")
        code, out, _ = run_cli(
            ["density", "--config", str(cfg), "--nx", "5"], capsys
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 5 * 3 + 1

    def test_echo_config_round_trips(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("degree = 3\nvar_a = [1, 2, 0.5, 1.5]\ntrials = 600\n")
        echoed = tmp_path / "echo.cfg"
        code, _, _ = run_cli(
            ["mc", "--config", str(cfg), "--seed", "9", "--echo-config", str(echoed)],
            capsys,
        )
        assert code == 0
        first = config_from_mapping(parse_flat_config(echoed.read_text()))
        assert first.degree == 3 and first.seed == 9 and first.trials == 600
        # Echo of the echo parses to the identical RunConfig.
        assert config_from_mapping(parse_flat_config(emit_flat_config(first))) == first

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("basis = hexagonal\n")
        code, _, err = run_cli(["expect", "--config", str(cfg)], capsys)
        assert code == 2
        assert "error" in err

    def test_theorem_contract_violation_reported(self, capsys):
        # Forcing the equal-variance form on an unequal profile is a config error.
        code, _, err = run_cli(
            ["expect", "--degree", "2", "--var-a", "1,2,1", "--theorem", "3"], capsys
        )
        assert code == 2
        assert "common variance" in err

    def test_unknown_or_missing_command_is_a_usage_error(self, capsys):
        for argv in (["integrate", "--degree", "3"], ["--degree", "3"]):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2
        assert "command" in capsys.readouterr().err
