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
from levelcross.quadrature import QuadratureResult


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
