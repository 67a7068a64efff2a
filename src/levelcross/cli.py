"""Command-line frontend: bind a run configuration to evaluations.

The subcommands (``density`` writes a CSV grid ``x,y,h``, the others JSON)
are listed once, with their implementations, in ``_COMMANDS``.

Configuration is a flat ``key = value`` text file (numbers, booleans,
``[a, b, c]`` lists, strings; ``#`` comments).  There is one key set, the
fields of ``RunConfig``, each typed by its default, and one validator,
``config_from_mapping``: each key is also the flag ``--key`` with ``_``
written ``-``, whose text is read as the same value on a file line (list keys
split on commas); flags win over the file, and the merged mapping is
validated once.  So ``--nx 3.0`` is accepted as ``nx = 3.0`` is; ``nx`` and
``ny`` must be at least 1, integer keys reject non-finite values, and NaN
tolerances are rejected, as is any given key that the chosen basis does not
read (``_BASIS_KEYS``), whatever its value.  Scalar profile entries broadcast
across coefficient indices.  JSON outputs are strict JSON in UTF-8 with LF
line endings, with null for any non-finite number; CSV grids carry
17-significant-digit floats.

``--theorem`` selects the closed form: 2 = zero means with per-index
variances, 3 = one common variance, 4 = arbitrary means, 5 = Brownian
prefix basis; ``auto`` picks by the model (``density_field``).  ``expect``
and ``compare`` report ``expected_count``, which integrates h over the part
of the region that the exact symmetries map onto the rest and scales the
result back (``_fundamental_region``).  Both take model objects, so a library
caller gets the same choice and folds (``from levelcross.cli import ...``).

Exit codes: 0 success; 2 configuration error, contract violation or (for
``compare``) no agreement; 3 degenerate evaluation; 4 degenerate or non-finite
grid cells in ``density``; 5 too many Monte Carlo trials hit the region
boundary; 6 ``expect`` wrote its result but the quadrature did not converge.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .density import (
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
    PrefixSumBasis,
    Rectangle,
    TimeGrid,
    WeightedMonomialBasis,
    build_brownian_basis,
)
from .quadrature import QuadratureResult, integrate_density
from .zerocount import MCEstimate, estimate_expected_count

__all__ = ["RunConfig", "main", "parse_flat_config", "emit_flat_config"]

_THEOREMS = ("2", "3", "4", "5", "auto")
# Upper bounds on the sizes a run may ask for, stated in ``--help``.  A
# Monte Carlo block holds at least one companion matrix of (degree + 1)^2
# complex entries per thread (64 MB at the degree bound), the estimate keeps
# one count per trial, and ``density`` holds its nx*ny grid and CSV text.
MAX_DEGREE = 2000
MAX_TRIALS = 10**7
MAX_GRID_POINTS = 10**6
# The keys each basis kind reads; a given key that only other kinds read is rejected.
_BASIS_KEYS = {
    "monomial": ("degree", "mu_a", "var_a", "mu_b", "var_b"),
    "weighted-monomial": ("weights", "mu_a", "var_a", "mu_b", "var_b"),
    "brownian-prefix": ("time_grid",),
}


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one CLI invocation; each default fixes its key's type."""

    basis: str = "monomial"
    degree: int = 2
    weights: tuple[float, ...] = ()
    time_grid: tuple[float, ...] = ()
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
        if self.basis not in _BASIS_KEYS:
            raise ConfigurationError(
                f"basis must be one of {tuple(_BASIS_KEYS)}, got {self.basis!r}")
        if self.theorem not in _THEOREMS:
            raise ConfigurationError(f"theorem must be one of {_THEOREMS}, got {self.theorem!r}")
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError(f"nx and ny must be at least 1, got {self.nx} and {self.ny}")
        degree = max(self.degree, len(self.weights) - 1, len(self.time_grid) - 1)
        if degree > MAX_DEGREE:
            raise ConfigurationError(f"degree {degree} exceeds the limit of {MAX_DEGREE}")
        if self.trials > MAX_TRIALS:
            raise ConfigurationError(f"trials {self.trials} exceeds the limit of {MAX_TRIALS}")
        if self.nx * self.ny > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"nx*ny = {self.nx * self.ny} exceeds the limit of {MAX_GRID_POINTS} grid points")

    # -- construction of model objects ------------------------------------

    def _broadcast(self, values: tuple[float, ...], name: str, n: int) -> np.ndarray:
        if len(values) == 1:
            return np.full(n, values[0])
        if len(values) != n:
            raise ConfigurationError(
                f"{name} has {len(values)} entries but the basis has {n} members"
            )
        return np.asarray(values, dtype=np.float64)

    def build(self) -> tuple[CoefficientProfile, BasisFamily, ComplexLevel, Rectangle]:
        level = ComplexLevel(self.k1, self.k2)
        region = Rectangle(self.x_min, self.x_max, self.y_min, self.y_max)
        if self.basis == "brownian-prefix":
            grid = TimeGrid(self.time_grid)
            basis, profile = build_brownian_basis(MonomialBasis(len(grid) - 1), grid)
            return profile, basis, level, region
        if self.basis == "weighted-monomial":
            basis: BasisFamily = WeightedMonomialBasis(self.weights)
        else:
            basis = MonomialBasis(self.degree)
        n = basis.count
        profile = CoefficientProfile(
            self._broadcast(self.mu_a, "mu_a", n),
            self._broadcast(self.var_a, "var_a", n),
            self._broadcast(self.mu_b, "mu_b", n),
            self._broadcast(self.var_b, "var_b", n),
        )
        return profile, basis, level, region

    def density_field(self):
        """Return (callable z -> h, theorem label) for the built model; see ``density_field``."""
        return density_field(*self.build()[:3], self.theorem)


# ---------------------------------------------------------------------------
# Closed form and expected count of a model
# ---------------------------------------------------------------------------


def density_field(profile, basis, level, theorem: str = "auto", mirror: bool = False):
    """Return (callable z -> h, theorem label) for the closed form ``theorem``.

    ``auto`` picks "4" for a profile with means, else "5" on a
    ``PrefixSumBasis``, else "3" for one common variance, else "2".
    Theorem 5 is theorem 2 on the prefix basis and increment profile.
    With ``mirror`` the callable returns the conjugate-pair mean
    (h(z) + h(conj z)) / 2; theorem 3's h is already symmetric under
    z -> conj z, since it reads K only through |K|^2, and stays plain.
    The evaluators here and ``integrate_density`` in ``expected_count`` are
    looked up as module globals at each call: the benchmark's tracer patches
    them by these names.
    """
    sigma2 = profile.equal_variance()
    if theorem == "auto":
        if not profile.has_zero_means:
            theorem = "4"
        elif isinstance(basis, PrefixSumBasis):
            theorem = "5"
        else:
            theorem = "2" if sigma2 is None else "3"
    if theorem == "5" and not isinstance(basis, PrefixSumBasis):
        raise ConfigurationError("theorem 5 needs the brownian-prefix basis")
    if theorem == "4":
        return (lambda z: general_mean_density(profile, basis, level, z, mirror=mirror).h), theorem
    if theorem == "3" and sigma2 is None:
        raise ConfigurationError("theorem 3 requires one common variance")
    if not profile.has_zero_means:
        raise ConfigurationError(f"theorem {theorem} requires zero means")
    if theorem == "3":
        return (lambda z: equal_variance_density(sigma2, basis, level, z).h), theorem
    return (lambda z: zero_mean_density(profile, basis, level, z, mirror=mirror).h), theorem


def _fundamental_region(profile, basis, level, region: Rectangle) -> tuple[Rectangle, int]:
    """The part of ``region`` that the exact symmetries of h map onto all of it.

    Returns (fundamental region, weight): the integral of h over ``region``
    is ``weight`` times the integral over the fundamental region of h itself
    (weight 1) or of the conjugate-pair mean (h(z) + h(conj z)) / 2
    (weight 2 or 4).

    - Conjugate fold: every basis family is real on the real axis, so
      conj S(conj z) = sum conj(eta_j) f_j(z), and h for the law mu at K
      satisfies h(conj z) = h for conj mu at conj K, at z.  Over a region
      symmetric about the real axis the integral of h is twice that of the
      pair mean over y >= 0, whatever the means and the level.
    - Point fold, h(-z) = h(z): a monomial family (``MonomialBasis`` and
      its subclass ``WeightedMonomialBasis``) has f_j(-z) = (-1)^j f_j(z),
      so the law of S - K is invariant under z -> -z when every odd-index
      mean is zero; the conjugate law then is too.  The region must be
      symmetric about 0, hence also about the real axis, and the pair mean
      keeps the point symmetry: the quadrant x >= 0, y >= 0 carries a
      quarter of the integral.

    The kept quadrant is a cell of the quadrature's tree over ``region``,
    whatever the region's shape: a cell centred on an axis is cut on it, x
    first, and only bisected.  So is the kept half y >= 0 when
    ``x_min != -x_max``.  Where the pair mean is h itself, the folded run
    then refines its part exactly as the unfolded run refines each copy.
    """
    x0, x1, y0, y1 = region.x_min, region.x_max, region.y_min, region.y_max
    conjugate = y0 == -y1
    if conjugate and x0 == -x1 and isinstance(basis, MonomialBasis) and not (
            np.any(profile.mu_a[1::2]) or np.any(profile.mu_b[1::2])):
        return Rectangle(0.0, x1, 0.0, y1), 4
    if conjugate:
        return Rectangle(x0, x1, 0.0, y1), 2
    return region, 1


def expected_count(
    profile, basis, level, region: Rectangle, *, theorem: str = "auto",
    abs_tol: float = 1e-9, rel_tol: float = 1e-9, max_cells: int = 20000,
) -> tuple[QuadratureResult, str, int]:
    """Integrate h over ``region``: the expected number of zeros of S - K there.

    The run covers the fundamental region of ``_fundamental_region``, where it
    integrates the conjugate-pair mean of h (``density_field(mirror=True)``):
    its two terms share one table of basis values and one set of quadratic
    forms per point, and where the law is its own conjugate (every mu_b zero
    and K real, or theorem 3) it is h, bit for bit.  It uses ``abs_tol /
    weight``, the same ``rel_tol`` and ``max_cells // weight``, so a cell's
    share of the tolerance reads as over the whole region, and scales the
    value, error estimate and cell counts back by the weight; ``evaluations``
    and ``passes`` are those that ran.  A cell budget below the weight
    integrates h over the whole region.  numpy's warnings from the evaluator
    are held back, and shown only if no cell is non-finite: otherwise
    ``nonfinite_cells`` reports the overflow.  Returns the result, the
    theorem that ran and the weight.
    """
    part, weight = _fundamental_region(profile, basis, level, region)
    if max_cells < weight:
        part, weight = region, 1
    field, theorem = density_field(profile, basis, level, theorem, mirror=weight > 1)
    with warnings.catch_warnings(record=True) as caught:
        result = integrate_density(field, part, abs_tol=abs_tol / weight, rel_tol=rel_tol,
                                   max_cells=max_cells // weight)
    if not result.nonfinite_cells:
        for caught_warning in caught:
            warnings.showwarning(caught_warning.message, caught_warning.category,
                                 caught_warning.filename, caught_warning.lineno)
    return replace(
        result,
        value=weight * result.value,
        error_estimate=weight * result.error_estimate,
        cells_used=weight * result.cells_used,
        nonfinite_cells=weight * result.nonfinite_cells,
        fallback_cells=weight * result.fallback_cells,
    ), theorem, weight


# ---------------------------------------------------------------------------
# Flat key = value configuration format
# ---------------------------------------------------------------------------

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
    """Serialize the keys that differ from their defaults; parsing reproduces the config."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value == f.default:
            continue
        if isinstance(value, tuple):
            lines.append(f"{f.name} = [{', '.join(_format_scalar(v) for v in value)}]")
        else:
            lines.append(f"{f.name} = {_format_scalar(value)}")
    return "\n".join(lines) + "\n"


def _as_number(value, key: str, integer: bool = False):
    """``value`` as a float, or as an int when ``integer``; anything else is an error."""
    if integer and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigurationError(f"{key} must be {'an integer' if integer else 'a number'}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise ConfigurationError(f"{key} is out of range") from None


def config_from_mapping(mapping: dict) -> RunConfig:
    """Validate a parsed mapping and normalize it into a RunConfig.

    Each value is read as the type of its key's default.  A given key that
    the chosen basis kind does not read is rejected, whatever its value.
    """
    defaults = {f.name: f.default for f in fields(RunConfig)}
    unknown = set(mapping) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in mapping.items():
        kind = type(defaults[key])
        if kind is tuple:
            items = value if isinstance(value, list) else [value]
            kwargs[key] = tuple(_as_number(item, key) for item in items)
        elif kind is str:
            kwargs[key] = str(value)
        else:
            kwargs[key] = _as_number(value, key, integer=kind is int)
    config = RunConfig(**kwargs)
    read = _BASIS_KEYS[config.basis]
    ignored = [key for key in defaults if key in mapping and key not in read
               and any(key in keys for keys in _BASIS_KEYS.values())]
    if ignored:
        raise ConfigurationError(f"basis {config.basis!r} does not use {', '.join(ignored)}")
    return config


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


def _cells_or_nan(field, cells: np.ndarray) -> np.ndarray:
    """h at the 1-D ``cells``, nan where it is undefined.

    A block that raises is halved, down to single cells, so one degenerate
    cell costs about 2 log2(cells) calls instead of one call per cell.
    """
    try:
        return np.asarray(field(cells), dtype=np.float64)
    except (DegenerateCovarianceError, DegeneratePointError):
        if cells.size == 1:
            return np.full(1, np.nan)
        half = cells.size // 2
        return np.concatenate([_cells_or_nan(field, part) for part in (cells[:half], cells[half:])])


def cmd_density(config: RunConfig, out_path: str | None) -> int:
    """Evaluate h on an nx-by-ny grid; CSV rows sweep x within each y row."""
    field, _ = config.density_field()
    xs = np.linspace(config.x_min, config.x_max, config.nx)
    ys = np.linspace(config.y_min, config.y_max, config.ny)
    values = _cells_or_nan(field, (xs[None, :] + 1j * ys[:, None]).reshape(-1))
    rows = zip(np.repeat(ys, config.nx), np.tile(xs, config.ny), values)
    text = "".join(f"{x:.17g},{y:.17g},{h:.17g}\n" for y, x, h in rows)
    _write_output("x,y,h\n" + text, out_path)
    undefined = np.count_nonzero(~np.isfinite(values))
    if undefined:
        print(f"warning: {undefined} grid cells degenerate or not finite", file=sys.stderr)
        return 4
    return 0


def _quadrature_record(result: QuadratureResult, theorem: str, fold_weight: int) -> dict:
    """JSON fields of a quadrature result, as ``expect`` and ``compare`` write them.

    ``diagnostics`` says how the result was obtained: the cells over the
    whole region, how many of them are not finite and how many carry the
    Gauss error because their coefficients failed the decay test (see
    ``quadrature``), the refinement passes and integrand evaluations
    that actually ran, the fold weight, the number of copies of the kept
    part, and the closed form that ran (see ``expected_count``).
    """
    return {
        "value": result.value,
        "error_estimate": result.error_estimate,
        "converged": result.converged,
        "diagnostics": {
            "cells_used": result.cells_used,
            "passes": result.passes,
            "evaluations": result.evaluations,
            "fold_weight": fold_weight,
            "theorem": theorem,
            "nonfinite_cells": result.nonfinite_cells,
            "fallback_cells": result.fallback_cells,
        },
    }


def _mc_record(estimate: MCEstimate) -> dict:
    """JSON fields of a Monte Carlo estimate, as ``mc`` and ``compare`` write them.

    ``diagnostics`` names the counter that ran and the trials that the roots
    counter left to companion eigenvalues.
    """
    return {
        "trials": estimate.trials,
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "discarded": estimate.discarded_trials,
        "diagnostics": {
            "method": estimate.method,
            "fallback_trials": estimate.fallback_trials,
        },
    }


def cmd_expect(config: RunConfig, out_path: str | None) -> int:
    """Integrate h over the region; exit 6 when the quadrature did not converge."""
    result, theorem, weight = expected_count(
        *config.build(), theorem=config.theorem, abs_tol=config.abs_tol,
        rel_tol=config.rel_tol, max_cells=config.max_cells)
    _json_dump(_quadrature_record(result, theorem, weight), out_path)
    return 0 if result.converged else 6


def cmd_mc(config: RunConfig, out_path: str | None) -> int:
    estimate = estimate_expected_count(*config.build(), trials=config.trials, seed=config.seed)
    _json_dump(_mc_record(estimate), out_path)
    return 0


def cmd_compare(config: RunConfig, out_path: str | None) -> int:
    """Quadrature against Monte Carlo; exit 0 only on agreement.

    Agreement needs a converged quadrature with a finite value, and the
    difference within 3 Monte Carlo standard errors plus the quadrature
    error estimate.
    """
    model = config.build()
    quad, theorem, weight = expected_count(
        *model, theorem=config.theorem, abs_tol=config.abs_tol,
        rel_tol=config.rel_tol, max_cells=config.max_cells)
    mc = estimate_expected_count(*model, trials=config.trials, seed=config.seed)
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
            "quadrature": _quadrature_record(quad, theorem, weight),
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
        prefix_basis, increments = build_brownian_basis(inner, grid)
        bump("brownian_direct_matches_composition",
             rel(float(zero_mean_density(increments, prefix_basis, level, z).h),
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


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flags (flags win) into one mapping and validate it."""
    mapping: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            mapping.update(parse_flat_config(fh.read()))
    for f in fields(RunConfig):
        raw = getattr(args, f.name)
        if raw is None:
            continue
        if isinstance(f.default, tuple):
            mapping[f.name] = [_parse_scalar(tok) for tok in raw.split(",") if tok.strip()]
        else:
            mapping[f.name] = _parse_scalar(raw)
    return config_from_mapping(mapping)


_COMMANDS = {
    "density": (cmd_density, "evaluate the density on a grid (CSV)"),
    "expect": (cmd_expect, "integrate the density over the region (JSON)"),
    "mc": (cmd_mc, "Monte Carlo zero-count estimate (JSON)"),
    "compare": (cmd_compare, "quadrature vs Monte Carlo agreement (JSON)"),
    "reduce-check": (cmd_reduce_check, "reduction-chain and oracle-agreement report (JSON)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelcross",
        description="Expected density of complex level crossings of random sums.",
        epilog="theorem: 2 zero means, 3 one common variance, 4 arbitrary means, "
               "5 Brownian prefix basis, auto by profile shape",
    )
    # One parser with the command as a positional choice: every command takes
    # the same options.  It is built once and shared by every ``main`` call;
    # ``parse_args`` does not change it.
    parser.add_argument("command", choices=list(_COMMANDS),
                        help="; ".join(f"{name}: {text}" for name, (_, text) in _COMMANDS.items()))
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--echo-config", metavar="PATH",
                        help="write the resolved configuration to PATH")
    # One text flag per RunConfig field; resolve_config validates it as a file key.
    choices = {"basis": tuple(_BASIS_KEYS), "theorem": _THEOREMS}
    limits = {
        "degree": f"at most {MAX_DEGREE}; weights and time_grid at most {MAX_DEGREE + 1} entries",
        "trials": f"at most {MAX_TRIALS}",
        "nx": f"nx*ny at most {MAX_GRID_POINTS}",
        "ny": f"nx*ny at most {MAX_GRID_POINTS}",
    }
    for f in fields(RunConfig):
        parser.add_argument(
            f"--{f.name.replace('_', '-')}",
            metavar="{" + ",".join(choices[f.name]) + "}" if f.name in choices else None,
            help="comma-separated values; one profile value broadcasts"
            if isinstance(f.default, tuple) else limits.get(f.name),
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.echo_config:
            _write_output(emit_flat_config(config), args.echo_config)
        return _COMMANDS[args.command][0](config, args.out)
    except (ConfigurationError, ContractViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateCovarianceError, DegeneratePointError) as exc:
        print(f"error: degenerate evaluation: {exc}", file=sys.stderr)
        return 3
    except DiscardRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
