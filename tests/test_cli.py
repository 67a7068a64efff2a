"""CLI: configuration handling, output schemas, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from levelcross import cli
from levelcross.cli import (
    RunConfig,
    config_from_mapping,
    density_field,
    emit_flat_config,
    expected_count,
    main,
    parse_flat_config,
)
from levelcross.density import zero_mean_density
from levelcross.errors import ConfigurationError
from levelcross.model import (
    CoefficientProfile,
    ComplexLevel,
    MonomialBasis,
    Rectangle,
    TabulatedBasis,
    TimeGrid,
    build_brownian_basis,
    validate_basis,
)
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
            profile, basis, level, _ = config.build()
            assert density_field(profile, basis, level)[1] == expected


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

    def test_overflowed_cells_exit_4(self, capsys):
        # At degree 80 out to |z| = 20 the forms pass the double range in 18
        # of the 20 cells; they count with the degenerate ones.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(
                ["density", "--degree", "80", "--theorem", "2", "--k1=1", "--k2=0.5",
                 "--x-min=-20", "--x-max=20", "--y-min=-20", "--y-max=20", "--nx", "5", "--ny", "4"],
                capsys)
        values = [float(row.split(",")[2]) for row in out.strip().split("\n")[1:]]
        undefined = sum(not np.isfinite(v) for v in values)
        assert (code, len(values), undefined) == (4, 20, 18)
        assert "degenerate" in err and f" {undefined} " in err

    def test_degenerate_cell_is_found_by_halving(self, monkeypatch, capsys):
        # A block that raises is halved: the one degenerate cell (z = 0) of a
        # 41 x 41 grid costs two calls per halving, not one call per cell.
        calls = []
        original = cli.density_field

        def counted_field(*args, **kwargs):
            field, theorem = original(*args, **kwargs)

            def counted(z):
                calls.append(np.size(z))
                return field(z)

            return counted, theorem

        monkeypatch.setattr(cli, "density_field", counted_field)
        code, out, err = run_cli(["density", "--basis", "weighted-monomial", "--weights", "0,1,1",
                                  "--nx", "41", "--ny", "41"], capsys)
        rows = [row.split(",") for row in out.strip().split("\n")[1:]]
        undefined = [(float(x), float(y)) for x, y, h in rows if np.isnan(float(h))]
        assert (code, undefined) == (4, [(0.0, 0.0)])
        assert calls[0] == 41 * 41 and len(calls) <= 2 * 11 + 1

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
        assert set(payload) == {"value", "error_estimate", "converged", "diagnostics"}
        assert payload["converged"] is True
        assert abs(payload["value"] - 1.142127071) < 1e-6
        diagnostics = payload["diagnostics"]
        assert set(diagnostics) == {"cells_used", "passes", "evaluations", "fold_weight",
                                    "theorem", "nonfinite_cells", "fallback_cells"}
        assert diagnostics["evaluations"] % 225 == 0 and diagnostics["evaluations"] > 0
        assert diagnostics["fold_weight"] == 4 and diagnostics["nonfinite_cells"] == 0

    def test_mc_schema(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--degree", "2", "--trials", "400", "--seed", "7"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"trials", "mean", "std_error", "ci_low", "ci_high", "discarded",
                                "diagnostics"}
        assert payload["diagnostics"] == {"method": "roots", "fallback_trials": 0}
        assert payload["trials"] == 400
        assert payload["ci_low"] <= payload["mean"] <= payload["ci_high"]

    def test_compare_agrees(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--degree", "2", "--trials", "4000", "--seed", "3"], capsys
        )
        payload = json.loads(out)
        assert set(payload) == {"quadrature", "mc", "z_score", "agree"}
        assert set(payload["quadrature"]) == {"value", "error_estimate", "converged", "diagnostics"}
        assert set(payload["mc"]) == {"trials", "mean", "std_error", "ci_low", "ci_high",
                                      "discarded", "diagnostics"}
        assert set(payload["mc"]["diagnostics"]) == {"method", "fallback_trials"}
        assert payload["mc"]["diagnostics"]["method"] == "roots"
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
        assert set(payload) == {"value", "error_estimate", "converged", "diagnostics"}
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

    def test_overflow_is_reported_in_diagnostics(self, capsys):
        # Theorem 2 overflows over [-20, 20]^2 at degree 80: the kept quadrant's
        # one cell is not finite, and so are its three mirror images.
        with np.errstate(all="ignore"):
            code, out, _ = run_cli(
                ["expect", "--degree", "80", "--theorem", "2", "--x-min=-20", "--x-max=20",
                 "--y-min=-20", "--y-max=20"], capsys
            )
        assert code == 6
        payload = json.loads(out)
        assert payload["converged"] is False and payload["value"] is None
        diagnostics = payload["diagnostics"]
        assert diagnostics["fold_weight"] == 4
        assert 0 < diagnostics["nonfinite_cells"] <= diagnostics["cells_used"]

    def test_reported_overflow_stays_off_stderr(self, capsys):
        # The overflow is reported as non-finite cells, so numpy's warnings
        # about it are not repeated on stderr.
        argv = ["expect", "--degree", "80", "--theorem", "2", "--k1", "1", "--k2", "0.5",
                "--x-min=-20", "--x-max=20", "--y-min=-20", "--y-max=20"]
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv, capsys)
        assert (code, err, shown) == (6, "", [])
        assert json.loads(out)["diagnostics"]["nonfinite_cells"] == 4

    def test_warnings_of_a_finite_result_are_shown(self, capsys, monkeypatch):
        def warn_and_integrate(*args, **kwargs):
            warnings.warn("evaluator warning", RuntimeWarning)
            return integrate_density(*args, **kwargs)

        monkeypatch.setattr(cli, "integrate_density", warn_and_integrate)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            code, _, _ = run_cli(["expect", "--degree", "2"], capsys)
        assert code == 0
        assert [str(w.message) for w in shown] == ["evaluator warning"]

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
        # The stub's one cell, scaled by the quadrant fold's weight 4.
        assert payload == {"value": None, "error_estimate": None, "converged": False,
                           "diagnostics": {"cells_used": 4, "passes": 0, "evaluations": 0,
                                           "fold_weight": 4, "theorem": "3",
                                           "nonfinite_cells": 0, "fallback_cells": 0}}

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
        # The CLI's theorem-5 field is theorem 2 on the prefix basis, bit for bit.
        times = (0.5, 1.5, 3.0)
        field, theorem = RunConfig(
            basis="brownian-prefix", time_grid=times, k1=0.3, k2=-0.2).density_field()
        grid = np.linspace(-1.5, 1.5, 6)[None, :] + 1j * np.linspace(-1.0, 1.0, 4)[:, None]
        basis, profile = build_brownian_basis(MonomialBasis(2), TimeGrid(times))
        expected = zero_mean_density(profile, basis, ComplexLevel(0.3, -0.2), grid).h
        assert theorem == "5"
        assert np.array_equal(field(grid), expected)

    @pytest.mark.parametrize("command", ["density", "expect", "mc", "compare"])
    def test_each_command_builds_the_model_once(self, command, monkeypatch, capsys):
        calls = []
        build = RunConfig.build
        monkeypatch.setattr(RunConfig, "build", lambda self: calls.append(1) or build(self))
        code, _, _ = run_cli(
            [command, "--nx", "3", "--ny", "3", "--trials", "4000", "--seed", "3"], capsys)
        assert code == 0
        assert len(calls) == 1


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def folded_and_full(argv, monkeypatch):
    """(``expected_count``'s result, points it evaluated, unfolded result over the region).

    The result is the library's ``expected_count`` on the model of ``argv``,
    checked against what ``expect`` writes for ``argv``.
    """
    config = cli.resolve_config(cli.build_parser().parse_args(argv))
    written = io.StringIO()
    with contextlib.redirect_stdout(written):
        main(argv)
    points = []
    inner = cli.integrate_density

    def counting(evaluator, *args, **kwargs):
        def counted(z):
            points.append(np.size(z))
            return evaluator(z)
        return inner(counted, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate_density", counting)
    model = config.build()
    folded, _, _ = expected_count(*model, theorem=config.theorem, abs_tol=config.abs_tol,
                                  rel_tol=config.rel_tol, max_cells=config.max_cells)
    record = json.loads(written.getvalue())
    assert (record["value"], record["error_estimate"], record["diagnostics"]["cells_used"],
            record["diagnostics"]["evaluations"]) == (
        folded.value, folded.error_estimate, folded.cells_used, folded.evaluations)
    field, _ = density_field(*model[:3], config.theorem)
    full = integrate_density(field, model[3], abs_tol=config.abs_tol,
                             rel_tol=config.rel_tol, max_cells=config.max_cells)
    return folded, sum(points), full


class TestSymmetryFold:
    SQUARE20 = ["--x-min=-20", "--x-max=20", "--y-min=-20", "--y-max=20"]
    SQUARE2 = ["--x-min=-2", "--x-max=2", "--y-min=-2", "--y-max=2"]
    TOL = ["--abs-tol=1e-9", "--rel-tol=1e-9"]
    # Regions symmetric about the real axis where the point fold does not
    # apply (an odd-index mean, the prefix basis, an off-centre x range):
    # the conjugate fold alone keeps y >= 0 and pairs h there.
    PAIRED_HALVES = {
        "odd-index-means": ["--degree", "4", "--mu-a", "0,0.5,0,0,0", *SQUARE2],
        "brownian-prefix": ["--basis", "brownian-prefix", "--time-grid", "0.5,1.5,3.0", *SQUARE2],
        "off-centre": ["--degree", "4", "--var-a", "1,2,1,0.5,1", "--x-min=-2", "--x-max=1.5",
                       "--y-min=-2", "--y-max=2"],
    }

    @staticmethod
    def quad_argv(k2, region, tol):
        # Quad-n40-style problem at N = 10: zero means, per-index variances.
        rng = np.random.default_rng(13)
        return ["expect", "--degree", "10", f"--var-a={_floats(rng.uniform(0.5, 2.0, 11))}",
                f"--var-b={_floats(rng.uniform(0.5, 2.0, 11))}", "--k1=1.0", f"--k2={k2}",
                *region, *tol]

    @pytest.mark.parametrize("region, tol", [
        (SQUARE20, ["--abs-tol=1e-8", "--rel-tol=1e-8"]),
        (["--x-min=-20", "--x-max=20", "--y-min=-6", "--y-max=6"],
         ["--abs-tol=1e-8", "--rel-tol=1e-13"]),
        (["--x-min=-3", "--x-max=3", "--y-min=-8", "--y-max=8"],
         ["--abs-tol=1e-8", "--rel-tol=1e-13"]),
    ], ids=["square", "wide-absolute-tolerance", "tall-absolute-tolerance"])
    def test_point_fold_reproduces_the_full_region(self, region, tol, monkeypatch, capsys):
        # K = 1 + 0.5i is not real, so h itself is not symmetric about the
        # real axis: the quadrant integrates the conjugate-pair mean.
        argv = self.quad_argv(0.5, region, tol)
        folded, points, full = folded_and_full(argv, monkeypatch)
        config = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert cli._fundamental_region(*config.build())[1] == 4
        assert full.converged and folded.converged
        tolerance = max(config.abs_tol, config.rel_tol * abs(full.value))
        assert abs(folded.value - full.value) <= tolerance
        assert folded.error_estimate <= tolerance
        # The half-plane point fold evaluated half the unfolded run's cells
        # (0.50); the paired quadrant reads 0.19, 0.26 and 0.25 here.
        assert points == folded.evaluations <= 0.3 * full.evaluations
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["value"] == folded.value

    @pytest.mark.parametrize("region", [
        SQUARE20,
        ["--x-min=-20", "--x-max=20", "--y-min=-6", "--y-max=6"],
        ["--x-min=-3", "--x-max=3", "--y-min=-8", "--y-max=8"],
    ], ids=["square", "wide", "tall"])
    def test_quadrant_of_a_conjugate_invariant_law_mirrors_the_full_tree(self, region, monkeypatch):
        # K real and zero means: the pair mean is h itself, and the quadrant
        # of a centred region is a cell of the unfolded tree (a cell centred
        # on an axis is cut on it, x first, and only bisected), so the
        # folded run refines it exactly as the unfolded run does: the
        # unfolded run evaluates its root, its two halves and four quadrants
        # that each mirror the folded run.
        argv = self.quad_argv(0.0, region, ["--abs-tol=1e-8", "--rel-tol=1e-8"])
        folded, points, full = folded_and_full(argv, monkeypatch)
        assert full.converged and folded.converged
        assert abs(folded.value - full.value) <= 1e-15 * abs(full.value)
        assert folded.cells_used == full.cells_used
        assert points == folded.evaluations == (full.evaluations - 3 * 225) / 4

    @pytest.mark.parametrize("extra", [
        ["--degree", "4", "--mu-a", "0,0.5,0,0,0", "--x-min=-2", "--x-max=2",
         "--y-min=-1.5", "--y-max=2"],
        ["--basis", "brownian-prefix", "--time-grid", "0.5,1.5,3.0", "--x-min=-2", "--x-max=2",
         "--y-min=-2", "--y-max=1.5"],
        ["--degree", "4", "--var-a", "1,2,1,0.5,1", "--x-min=-2", "--x-max=1.5",
         "--y-min=-2", "--y-max=1.5"],
    ], ids=["odd-index-means", "brownian-prefix", "off-centre"])
    def test_no_fold_evaluates_the_full_region(self, extra, monkeypatch):
        # y_min != -y_max: no fold applies, and the integrand is h itself.
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
        *((["expect", "--k1=1.0", "--k2=0.5", *extra], 2) for extra in PAIRED_HALVES.values()),
        (["expect", "--mu-a=0.3,-0.6,0.5", "--mu-b=-0.4,0.2,0.7", "--var-a=1.2,0.7,1.6",
          "--var-b=0.9,1.8,0.6", "--k1=1.0", "--k2=0.5", *SQUARE20,
          "--abs-tol=1e-8", "--rel-tol=1e-8"], 2),
    ], ids=["theorem-4-conjugate", "theorem-5-conjugate", "quarter",
            *(f"{name}-paired" for name in PAIRED_HALVES), "theorem-4-paired"])
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


def monomial_callbacks(degree):
    """``TabulatedBasis`` callback pairs for z^j, j = 0..degree."""
    return [(lambda z, j=j: z**j, lambda z, j=j: j * z ** max(j - 1, 0))
            for j in range(degree + 1)]


class TestLibraryEntryPoints:
    LEVEL = ComplexLevel(1.0, 0.5)
    REGION = Rectangle(-1.5, 1.5, -1.5, 1.5)

    @pytest.mark.parametrize("mu_a, theorem", [(0.0, "2"), ([0.3, 0.0, -0.5, 0.0, 0.2], "4")],
                             ids=["zero-means", "even-index-means"])
    def test_tabulated_basis_takes_the_conjugate_fold_only(self, mu_a, theorem):
        # No CLI command reaches a TabulatedBasis, whose quadratic forms come
        # from the value and derivative tables.  It folds about the real axis
        # only (the BasisFamily real-on-real contract), where the monomial
        # family of the same sums also folds z -> -z.
        profile = CoefficientProfile(mu_a, [1.0, 2.0, 0.5, 1.5, 1.0], 0.0,
                                     [0.5, 1.0, 2.0, 1.0, 1.5])
        tabulated = TabulatedBasis(monomial_callbacks(4))
        validate_basis(tabulated)
        tol = 1e-9
        runs = [expected_count(profile, basis, self.LEVEL, self.REGION,
                               abs_tol=tol, rel_tol=tol)
                for basis in (tabulated, MonomialBasis(4))]
        (table, table_theorem, table_weight), (power, power_theorem, power_weight) = runs
        assert (table_theorem, table_weight) == (theorem, 2)
        assert (power_theorem, power_weight) == (theorem, 4)
        assert table.converged and power.converged
        assert abs(table.value - power.value) <= max(tol, tol * abs(power.value))

    def test_prefix_basis_with_means_selects_theorem_4(self):
        basis, increments = build_brownian_basis(MonomialBasis(2), TimeGrid((0.5, 1.5, 3.0)))
        with_means = CoefficientProfile(0.3, increments.var_a, -0.2, increments.var_b)
        assert density_field(increments, basis, self.LEVEL)[1] == "5"
        assert density_field(with_means, basis, self.LEVEL)[1] == "4"
        with pytest.raises(ConfigurationError, match="^theorem 5 requires zero means$"):
            density_field(with_means, basis, self.LEVEL, "5")

    @pytest.mark.parametrize("theorem, message", [
        ("2", "theorem 2 requires zero means"),
        ("3", "theorem 3 requires zero means"),
        ("5", "theorem 5 needs the brownian-prefix basis"),
    ])
    def test_forced_theorem_with_means_names_the_theorem(self, theorem, message, capsys):
        code, out, err = run_cli(["expect", "--degree", "2", "--mu-a", "0.5",
                                  "--theorem", theorem], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_module_entry_point_runs_without_warnings():
    # ``python -m levelcross.cli`` must not find the module already imported:
    # runpy warns then, which the package avoids by not re-exporting cli.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "levelcross.cli", "expect",
         "--degree", "2"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["diagnostics"]["theorem"] == "3"


def resolve(argv):
    return cli.resolve_config(cli.build_parser().parse_args(["density", *argv]))


class TestFlagsAndConfigFiles:
    def test_every_config_key_has_a_flag(self):
        parser = cli.build_parser()
        text = parser.format_help()
        for f in fields(RunConfig):
            flag = f"--{f.name.replace('_', '-')}"
            assert flag in text
            assert getattr(parser.parse_args(["mc", flag, "7"]), f.name) == "7"

    @pytest.mark.parametrize("key, value, valid", [
        ("var_a", "[1, 2.5, 0.5]", True),
        ("x_min", "-1", True),
        ("theorem", "2", True),
        ("nx", "3.0", True),
        ("nx", "2.5", False),
        ("nx", "inf", False),
        ("seed", "nan", False),
        ("basis", "hexagonal", False),
        ("theorem", "6", False),
        ("k1", "abc", False),
        pytest.param("k1", "1" + "0" * 400, False, id="k1-400-digits-False"),
    ])
    def test_flag_and_file_line_validate_alike(self, key, value, valid, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        flag = f"--{key.replace('_', '-')}={value.strip('[]').replace(' ', '')}"
        forms = ([flag], ["--config", str(cfg)])
        if valid:
            assert resolve(forms[0]) == resolve(forms[1])
            return
        for argv in forms:
            with pytest.raises(ConfigurationError):
                resolve(argv)
            code, out, err = run_cli(["density", "--ny", "2", *argv], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error:")

    @pytest.mark.parametrize("argv, limit", [
        (["expect", "--degree", "100000000"], 2000),
        (["expect", "--degree", "2001"], 2000),
        (["expect", "--basis", "weighted-monomial", "--weights", ",".join(["1"] * 2002)], 2000),
        (["mc", "--trials", "10000001"], 10**7),
        (["density", "--nx", "1001", "--ny", "1000"], 10**6),
    ])
    def test_sizes_above_their_limits_exit_2_at_once(self, argv, limit, monkeypatch, capsys):
        def built(config):
            raise AssertionError("the model was built")

        monkeypatch.setattr(RunConfig, "build", built)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert f"limit of {limit}" in err
        assert f"at most {limit}" in cli.build_parser().format_help()

    def test_sizes_at_their_limits_are_accepted(self, capsys):
        assert resolve(["--degree", "2000", "--trials", "10000000", "--nx", "1000",
                        "--ny", "1000"]).degree == 2000
        code, out, _ = run_cli(["density", "--degree", "500", "--nx", "2", "--ny", "2"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 5

    @pytest.mark.parametrize("argv", [
        ["density", "--nx", "-2"],
        ["density", "--nx", "0"],
        ["density", "--ny", "0"],
        ["expect", "--abs-tol", "nan"],
        ["compare", "--rel-tol", "nan", "--trials", "400"],
    ])
    def test_bad_grid_size_or_tolerance_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", [["density", "--nx", "2", "--ny", "2"], ["expect"],
                                         ["mc", "--trials", "100"]])
    def test_all_zero_weights_exit_2(self, command, capsys):
        code, out, err = run_cli([*command, "--basis", "weighted-monomial", "--weights", "0,0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "all be zero" in err

    @pytest.mark.parametrize("argv, key", [
        (["--weights", "1,2"], "weights"),
        (["--time-grid", "1,2,3"], "time_grid"),
        (["--basis", "brownian-prefix", "--time-grid", "1,2,3", "--mu-a", "5", "--var-b", "9"],
         "mu_a, var_b"),
        (["--basis", "weighted-monomial", "--weights", "1,1,1", "--degree", "7"], "degree"),
        # Given at their default values, the keys are still ignored.
        (["--basis", "weighted-monomial", "--weights", "1,1,1,1,1", "--degree", "2"], "degree"),
        (["--basis", "brownian-prefix", "--time-grid", "0.5,1.5,3", "--var-a", "1"], "var_a"),
        (["--config", 'basis = "brownian-prefix"\ntime_grid = [0.5, 1.5, 3]\ndegree = 2\n'],
         "degree"),
    ])
    def test_key_the_basis_ignores_exits_2(self, argv, key, tmp_path, capsys):
        if argv[0] == "--config":  # the case gives the file's text
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv[1])
            argv = ["--config", str(cfg)]
        code, out, err = run_cli(["expect", *argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and f"does not use {key}" in err

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

    @pytest.mark.parametrize("argv", [
        ["--basis", "weighted-monomial", "--weights", "1,0.5,2", "--var-a", "1,2,0.5",
         "--k1", "0.5"],
        ["--basis", "brownian-prefix", "--time-grid", "0.5,1.5,3", "--k1", "0.4"],
    ], ids=["weighted-monomial", "brownian-prefix"])
    def test_echo_config_reads_back_for_every_basis(self, argv, tmp_path, capsys):
        echoed = tmp_path / "echo.cfg"
        code, direct, _ = run_cli(["expect", *argv, "--echo-config", str(echoed)], capsys)
        assert code == 0
        assert "degree" not in echoed.read_text()
        assert run_cli(["expect", "--config", str(echoed)], capsys) == (0, direct, "")

    @pytest.mark.parametrize("basis", ["weighted-monomial", "brownian-prefix"])
    def test_basis_without_its_input_exits_2(self, basis, capsys):
        code, out, err = run_cli(["expect", "--basis", basis], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_every_basis_key_is_a_config_key(self):
        names = {f.name for f in fields(RunConfig)}
        assert all(set(keys) <= names for keys in cli._BASIS_KEYS.values())

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
