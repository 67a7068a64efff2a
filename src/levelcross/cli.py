"""Command-line frontend: bind a run configuration to evaluations.

Subcommands
-----------
density       evaluate the selected density on a grid, write CSV ``x,y,h``
expect        integrate the density over the region, write JSON
mc            Monte Carlo zero-count estimate, write JSON
compare       quadrature vs Monte Carlo with agreement verdict, write JSON
reduce-check  run the reduction-chain and oracle-agreement checks, write JSON

Configuration is a flat ``key = value`` text file (numbers, booleans,
``[a, b, c]`` lists, strings; ``#`` comments); every key is also exposed as a
command-line flag, and flags win over the file.  Scalar profile entries
broadcast across coefficient indices.  JSON outputs are strict JSON in UTF-8
with LF line endings, with null for any non-finite number; CSV grids carry
17-significant-digit floats.

``--theorem`` selects the closed form: 2 = zero means with per-index
variances, 3 = one common variance, 4 = arbitrary means, 5 = Brownian
prefix basis; ``auto`` picks by profile shape.  ``expect`` and ``compare``
integrate h over the part of the region that the exact symmetries of the
configured law (z -> -z, z -> conj z) map onto the rest, and scale the
result back (``_fundamental_region``).

Exit codes: 0 success; 2 configuration error, contract violation or (for
``compare``) no agreement; 3 degenerate evaluation; 4 degenerate grid cells
in ``density``; 5 too many Monte Carlo trials hit the region boundary; 6
``expect`` wrote its result but the quadrature did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .density import (
    brownian_density,
    brownian_density_direct,
    conditioned_jacobian_density,
    equal_variance_density,
    general_mean_density,
    moments_path_density,
    zero_level_density,
    zero_mean_density,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateCovarianceError,
    DegeneratePointError,
    DiscardRateError,
)
from .model import (
    BasisFamily,
    CoefficientProfile,
    ComplexLevel,
    MonomialBasis,
    Rectangle,
    TimeGrid,
    WeightedMonomialBasis,
    build_brownian_basis,
)
from .quadrature import QuadratureResult, integrate_density
from .zerocount import MCEstimate, estimate_expected_count

__all__ = ["RunConfig", "main", "parse_flat_config", "emit_flat_config"]

_BASIS_KINDS = ("monomial", "weighted-monomial", "brownian-prefix")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one CLI invocation."""

    basis: str = "monomial"
    degree: int = 2
    weights: tuple[float, ...] | None = None
    time_grid: tuple[float, ...] | None = None
    mu_a: tuple[float, ...] = (0.0,)
    var_a: tuple[float, ...] = (1.0,)
    mu_b: tuple[float, ...] = (0.0,)
    var_b: tuple[float, ...] = (1.0,)
    k1: float = 0.0
    k2: float = 0.0
    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0
    nx: int = 21
    ny: int = 21
    trials: int = 10000
    seed: int = 0
    abs_tol: float = 1e-6
    rel_tol: float = 1e-6
    max_cells: int = 20000
    theorem: str = "auto"

    def __post_init__(self):
        if self.basis not in _BASIS_KINDS:
            raise ConfigurationError(f"basis must be one of {_BASIS_KINDS}, got {self.basis!r}")
        if self.theorem not in ("2", "3", "4", "5", "auto"):
            raise ConfigurationError(f"theorem must be 2, 3, 4, 5 or auto, got {self.theorem!r}")

    # -- construction of model objects ------------------------------------

    def coefficient_count(self) -> int:
        if self.basis == "weighted-monomial":
            if self.weights is None:
                raise ConfigurationError("weighted-monomial basis needs weights")
            return len(self.weights)
        if self.basis == "brownian-prefix":
            if self.time_grid is None:
                raise ConfigurationError("brownian-prefix basis needs time_grid")
            return len(self.time_grid)
        return self.degree + 1

    def _broadcast(self, values: tuple[float, ...], name: str, n: int) -> np.ndarray:
        if len(values) == 1:
            return np.full(n, values[0])
        if len(values) != n:
            raise ConfigurationError(
                f"{name} has {len(values)} entries but the basis has {n} members"
            )
        return np.asarray(values, dtype=np.float64)

    def build(self) -> tuple[CoefficientProfile, BasisFamily, ComplexLevel, Rectangle]:
        n = self.coefficient_count()
        level = ComplexLevel(self.k1, self.k2)
        region = Rectangle(self.x_min, self.x_max, self.y_min, self.y_max)
        if self.basis == "brownian-prefix":
            basis, profile = build_brownian_basis(
                MonomialBasis(n - 1), TimeGrid(self.time_grid)
            )
            return profile, basis, level, region
        if self.basis == "weighted-monomial":
            basis: BasisFamily = WeightedMonomialBasis(self.weights)
        else:
            basis = MonomialBasis(self.degree)
        profile = CoefficientProfile(
            self._broadcast(self.mu_a, "mu_a", n),
            self._broadcast(self.var_a, "var_a", n),
            self._broadcast(self.mu_b, "mu_b", n),
            self._broadcast(self.var_b, "var_b", n),
        )
        return profile, basis, level, region

    def select_theorem(self, profile: CoefficientProfile) -> str:
        if self.theorem != "auto":
            return self.theorem
        if self.basis == "brownian-prefix":
            return "5"
        if not profile.has_zero_means:
            return "4"
        if profile.equal_variance() is not None:
            return "3"
        return "2"

    def density_field(self):
        """Return (callable z -> h, selected theorem label)."""
        profile, basis, level, _ = self.build()
        which = self.select_theorem(profile)
        if which == "5":
            if self.basis != "brownian-prefix":
                raise ConfigurationError("theorem 5 needs the brownian-prefix basis")
            inner = MonomialBasis(len(self.time_grid) - 1)
            grid = TimeGrid(self.time_grid)
            return (lambda z: brownian_density(inner, grid, level, z).h), which
        if which == "4":
            return (lambda z: general_mean_density(profile, basis, level, z).h), which
        if which == "3":
            sigma2 = profile.equal_variance()
            if sigma2 is None:
                raise ConfigurationError("theorem 3 requires one common variance")
            if not profile.has_zero_means:
                raise ConfigurationError("theorem 3 requires zero means")
            return (lambda z: equal_variance_density(sigma2, basis, level, z).h), which
        return (lambda z: zero_mean_density(profile, basis, level, z).h), which


# ---------------------------------------------------------------------------
# Flat key = value configuration format
# ---------------------------------------------------------------------------

_LIST_FIELDS = {"weights", "time_grid", "mu_a", "var_a", "mu_b", "var_b"}
_INT_FIELDS = {"degree", "nx", "ny", "trials", "seed", "max_cells"}
_STR_FIELDS = {"basis", "theorem"}


def _parse_scalar(token: str):
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_flat_config(text: str) -> dict:
    """Parse the flat ``key = value`` configuration format."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigurationError(f"config line {lineno}: empty key")
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            items = [t for t in (s.strip() for s in inner.split(",")) if t]
            out[key] = [_parse_scalar(t) for t in items]
        else:
            out[key] = _parse_scalar(value)
    return out


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.17g}"


def emit_flat_config(config: "RunConfig") -> str:
    """Serialize a RunConfig so that parsing the text reproduces it exactly."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            lines.append(f"{f.name} = [{', '.join(_format_scalar(v) for v in value)}]")
        else:
            lines.append(f"{f.name} = {_format_scalar(value)}")
    return "\n".join(lines) + "\n"


def _as_float_tuple(value, key: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    if isinstance(value, list):
        try:
            return tuple(float(v) for v in value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{key} must be a number or a list of numbers")


def config_from_mapping(mapping: dict) -> RunConfig:
    """Validate a parsed mapping and normalize it into a RunConfig."""
    known = {f.name for f in fields(RunConfig)}
    unknown = set(mapping) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in mapping.items():
        if key in _LIST_FIELDS:
            kwargs[key] = _as_float_tuple(value, key)
        elif key in _INT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
                raise ConfigurationError(f"{key} must be an integer")
            kwargs[key] = int(value)
        elif key in _STR_FIELDS:
            kwargs[key] = str(value)
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(f"{key} must be a number")
            kwargs[key] = float(value)
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value


def _json_dump(payload: dict, out_path: str | None) -> None:
    """Write strict JSON (RFC 8259): NaN and infinities become null."""
    text = json.dumps(_finite_or_null(payload), indent=2, allow_nan=False)
    _write_output(text + "\n", out_path)


def cmd_density(config: RunConfig, out_path: str | None) -> int:
    """Evaluate h on an nx-by-ny grid; CSV rows sweep x within each y row."""
    field, _ = config.density_field()
    xs = np.linspace(config.x_min, config.x_max, config.nx)
    ys = np.linspace(config.y_min, config.y_max, config.ny)
    grid = xs[None, :] + 1j * ys[:, None]
    degenerate = 0
    try:
        values = np.asarray(field(grid), dtype=np.float64)
    except (DegenerateCovarianceError, DegeneratePointError):
        values = np.empty(grid.shape)
        for iy in range(config.ny):
            for ix in range(config.nx):
                try:
                    values[iy, ix] = field(grid[iy, ix])
                except (DegenerateCovarianceError, DegeneratePointError):
                    values[iy, ix] = np.nan
                    degenerate += 1
    lines = ["x,y,h"]
    for iy in range(config.ny):
        for ix in range(config.nx):
            lines.append(f"{xs[ix]:.17g},{ys[iy]:.17g},{values[iy, ix]:.17g}")
    _write_output("\n".join(lines) + "\n", out_path)
    if degenerate:
        print(f"warning: {degenerate} degenerate grid cells written as nan", file=sys.stderr)
        return 4
    return 0


def _quadrature_record(result: QuadratureResult) -> dict:
    """JSON fields of a quadrature result, as ``expect`` and ``compare`` write them."""
    return {
        "value": result.value,
        "error_estimate": result.error_estimate,
        "converged": result.converged,
    }


def _mc_record(estimate: MCEstimate) -> dict:
    """JSON fields of a Monte Carlo estimate, as ``mc`` and ``compare`` write them."""
    return {
        "trials": estimate.trials,
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "discarded": estimate.discarded_trials,
    }


def _fundamental_region(profile, basis, level, region: Rectangle) -> tuple[Rectangle, int]:
    """The part of ``region`` that the exact symmetries of h map onto all of it.

    Returns (fundamental region, weight): the integral of h over ``region``
    is ``weight`` times its integral over the fundamental region.

    - Point fold, h(-z) = h(z): a monomial or weighted-monomial basis has
      f_j(-z) = (-1)^j f_j(z), so the law of S - K is invariant under
      z -> -z when every odd-index mean is zero.  The region must be
      symmetric about 0.  The kept half is the one the quadrature's first
      split makes, x >= 0 when the width is at least the height and y >= 0
      otherwise, so its refinement tree mirrors the other half's.
    - Conjugate fold, h(conj z) = h(z): every CLI basis is real on the real
      axis, so conj S(conj z) = sum (a_j - i b_j) f_j(z), which has the law
      of S when every mu_b is zero; at a real K it equals K exactly where
      S(conj z) does.  The region must be symmetric about the real axis; the
      kept half is y >= 0.
    - Both folds keep the quadrant x >= 0, y >= 0, with weight 4.
    """
    x0, x1, y0, y1 = region.x_min, region.x_max, region.y_min, region.y_max
    point = (
        isinstance(basis, (MonomialBasis, WeightedMonomialBasis))
        and not np.any(profile.mu_a[1::2])
        and not np.any(profile.mu_b[1::2])
        and x0 == -x1
        and y0 == -y1
    )
    conjugate = not np.any(profile.mu_b) and level.k2 == 0.0 and y0 == -y1
    if point and conjugate:
        return Rectangle(0.0, x1, 0.0, y1), 4
    if point and x1 - x0 >= y1 - y0:
        return Rectangle(0.0, x1, y0, y1), 2
    if point or conjugate:
        return Rectangle(x0, x1, 0.0, y1), 2
    return region, 1


def _integrate_region(config: RunConfig) -> QuadratureResult:
    """Integrate h over the region, as ``expect`` and ``compare`` report it.

    h is integrated over the fundamental region of its exact symmetries
    (``_fundamental_region``) with ``abs_tol / weight``, the same
    ``rel_tol`` and ``max_cells // weight``, so every refinement test of the
    driver reads as it would over the whole region; the value, error
    estimate and cell count are scaled back by the weight, while
    ``evaluations`` and ``passes`` are those actually run.  A cell budget
    below the weight integrates the whole region.
    """
    field, _ = config.density_field()
    profile, basis, level, region = config.build()
    part, weight = _fundamental_region(profile, basis, level, region)
    if config.max_cells < weight:
        part, weight = region, 1
    result = integrate_density(
        field, part,
        abs_tol=config.abs_tol / weight, rel_tol=config.rel_tol,
        max_cells=config.max_cells // weight,
    )
    return replace(
        result,
        value=weight * result.value,
        error_estimate=weight * result.error_estimate,
        cells_used=weight * result.cells_used,
    )


def cmd_expect(config: RunConfig, out_path: str | None) -> int:
    """Integrate h over the region; exit 6 when the quadrature did not converge."""
    result = _integrate_region(config)
    _json_dump(_quadrature_record(result), out_path)
    return 0 if result.converged else 6


def cmd_mc(config: RunConfig, out_path: str | None) -> int:
    profile, basis, level, region = config.build()
    estimate = estimate_expected_count(
        profile, basis, level, region, trials=config.trials, seed=config.seed
    )
    _json_dump(_mc_record(estimate), out_path)
    return 0


def cmd_compare(config: RunConfig, out_path: str | None) -> int:
    """Quadrature against Monte Carlo; exit 0 only on agreement.

    Agreement needs a converged quadrature with a finite value, and the
    difference within 3 Monte Carlo standard errors plus the quadrature
    error estimate.
    """
    quad = _integrate_region(config)
    profile, basis, level, region = config.build()
    mc = estimate_expected_count(
        profile, basis, level, region, trials=config.trials, seed=config.seed
    )
    diff = quad.value - mc.mean
    # Degenerate CI (all counts identical) has no finite z-score; report null.
    z_score = diff / mc.std_error if mc.std_error > 0 else None
    agree = (
        quad.converged
        and math.isfinite(quad.value)
        and abs(diff) <= 3.0 * mc.std_error + quad.error_estimate
    )
    _json_dump(
        {
            "quadrature": _quadrature_record(quad),
            "mc": _mc_record(mc),
            "z_score": None if z_score is None else float(z_score),
            "agree": bool(agree),
        },
        out_path,
    )
    return 0 if agree else 2


def cmd_reduce_check(config: RunConfig, out_path: str | None) -> int:
    """Reduction-chain and oracle-agreement report over random configurations."""
    rng = np.random.default_rng(config.seed)
    checks = {
        "general_mean_reduces_to_zero_mean": (0.0, 1e-12),
        "zero_mean_reduces_to_equal_variance": (0.0, 1e-12),
        "zero_level_matches_zero_mean_at_origin_level": (0.0, 1e-12),
        "brownian_direct_matches_composition": (0.0, 1e-12),
        "zero_mean_matches_moments_path": (0.0, 1e-9),
        "general_mean_matches_conditioning": (0.0, 1e-9),
    }

    def bump(name: str, dev: float) -> None:
        current, tol = checks[name]
        checks[name] = (max(current, dev), tol)

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    for _ in range(40):
        n = int(rng.integers(2, 9))
        var_a = rng.uniform(0.25, 4.0, n)
        var_b = rng.uniform(0.25, 4.0, n)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        level = ComplexLevel(rng.uniform(-2, 2), rng.uniform(-2, 2))
        basis = MonomialBasis(n - 1)
        zero_prof = CoefficientProfile(np.zeros(n), var_a, np.zeros(n), var_b)
        h2 = float(zero_mean_density(zero_prof, basis, level, z).h)
        bump("general_mean_reduces_to_zero_mean",
             rel(h2, float(general_mean_density(zero_prof, basis, level, z).h)))
        bump("zero_mean_matches_moments_path",
             rel(h2, moments_path_density(zero_prof, basis, level, z)))
        bump("zero_level_matches_zero_mean_at_origin_level",
             rel(float(zero_mean_density(zero_prof, basis, ComplexLevel(0, 0), z).h),
                 float(zero_level_density(zero_prof, basis, z))))
        sigma2 = float(rng.uniform(0.25, 4.0))
        eq_prof = CoefficientProfile.iid(n, var_a=sigma2, var_b=sigma2)
        bump("zero_mean_reduces_to_equal_variance",
             rel(float(zero_mean_density(eq_prof, basis, level, z).h),
                 float(equal_variance_density(sigma2, basis, level, z).h)))
        mean_prof = CoefficientProfile(
            rng.uniform(-1, 1, n), var_a, rng.uniform(-1, 1, n), var_b
        )
        bump("general_mean_matches_conditioning",
             rel(float(general_mean_density(mean_prof, basis, level, z).h),
                 conditioned_jacobian_density(mean_prof, basis, level, z)))
        times = np.cumsum(rng.uniform(0.2, 1.0, n))
        grid = TimeGrid(times)
        inner = MonomialBasis(n - 1)
        bump("brownian_direct_matches_composition",
             rel(float(brownian_density(inner, grid, level, z).h),
                 float(brownian_density_direct(inner, grid, level, z).h)))

    report = {
        "checks": [
            {"name": name, "max_rel_dev": dev, "tol": tol, "passed": bool(dev <= tol)}
            for name, (dev, tol) in checks.items()
        ],
    }
    report["all_passed"] = bool(all(c["passed"] for c in report["checks"]))
    _json_dump(report, out_path)
    return 0 if report["all_passed"] else 2


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--echo-config", metavar="PATH",
                        help="write the resolved configuration to PATH")
    parser.add_argument("--basis", choices=_BASIS_KINDS)
    parser.add_argument("--degree", type=int)
    parser.add_argument("--weights", help="comma-separated weights")
    parser.add_argument("--time-grid", dest="time_grid", help="comma-separated times")
    for name in ("mu-a", "var-a", "mu-b", "var-b"):
        parser.add_argument(f"--{name}", dest=name.replace("-", "_"),
                            help="single value (broadcast) or comma-separated per-index values")
    for name in ("k1", "k2", "x-min", "x-max", "y-min", "y-max", "abs-tol", "rel-tol"):
        parser.add_argument(f"--{name}", dest=name.replace("-", "_"), type=float)
    for name in ("nx", "ny", "trials", "seed", "max-cells"):
        parser.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int)
    parser.add_argument("--theorem", choices=("2", "3", "4", "5", "auto"),
                        help="density formula: 2 zero-mean, 3 equal variance, "
                             "4 general means, 5 brownian prefix (default: auto)")


def _parse_list_flag(raw: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigurationError(f"could not parse {key} value {raw!r}") from exc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig."""
    mapping: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            mapping.update(parse_flat_config(fh.read()))
    config = config_from_mapping(mapping)
    overrides: dict = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name in _LIST_FIELDS and isinstance(value, str):
            overrides[f.name] = _parse_list_flag(value, f.name)
        else:
            overrides[f.name] = value
    if overrides:
        config = replace(config, **overrides)
    return config


_COMMANDS = (
    ("density", "evaluate the density on a grid (CSV)"),
    ("expect", "integrate the density over the region (JSON)"),
    ("mc", "Monte Carlo zero-count estimate (JSON)"),
    ("compare", "quadrature vs Monte Carlo agreement (JSON)"),
    ("reduce-check", "reduction-chain and oracle-agreement report (JSON)"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelcross",
        description="Expected density of complex level crossings of random sums.",
    )
    # One parser with the command as a positional choice: every command takes
    # the same options, and every ``main`` call builds the parser anew.
    parser.add_argument("command", choices=[name for name, _ in _COMMANDS],
                        help="; ".join(f"{name}: {text}" for name, text in _COMMANDS))
    _add_common_options(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.echo_config:
            _write_output(emit_flat_config(config), args.echo_config)
        dispatch = {
            "density": cmd_density,
            "expect": cmd_expect,
            "mc": cmd_mc,
            "compare": cmd_compare,
            "reduce-check": cmd_reduce_check,
        }
        return dispatch[args.command](config, args.out)
    except (ConfigurationError, ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateCovarianceError, DegeneratePointError) as exc:
        print(f"error: degenerate evaluation: {exc}", file=sys.stderr)
        return 3
    except DiscardRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
