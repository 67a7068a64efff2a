"""Workloads of the levelcross benchmark: operation generation, execution, checks.

Every operation is a pure function of ``(workload seed, operation index)``,
so a run is reproducible whatever its length.  ``execute`` is the timed part;
``check`` runs afterwards, outside the timed section, and returns the
verdict, the reason for a failure and the result record kept next to the
timing.  README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import levelcross.cli as cli
import levelcross.quadrature as quadrature
import levelcross.zerocount as zerocount
from levelcross import (
    CoefficientProfile,
    ComplexLevel,
    MonomialBasis,
    Rectangle,
    TabulatedBasis,
    conditioned_jacobian_density,
    moments_path_density,
)

# Level K = 1 + 0.5i for every workload.
K1, K2 = 1.0, 0.5

# Total-count law: the integral of h over [-20, 20]^2 is within this of N.
COUNT_LAW_TOL = 1e-2
# Closed-form h against its independent oracle, relative.
ORACLE_RTOL = 1e-9
# Points per quadrature operation at which h is compared with the oracle.
ORACLE_POINTS = 4
# Radii of those points: log-uniform over the band that carries the zero
# mass (width about 1/N around |z| = 1) and the start of the 1/|z|^4 tail.
# Beyond |z| of about 20 at N = 40 the closed form and the oracle differ by
# up to 1.2e-9 relative through rounding in both; see README.md.
ORACLE_RADII = (0.25, 8.0)
# Monte Carlo compare rule |mean - reference| <= Z * std_error + quad error.
# Z = 5 rather than the single-verdict 3 of ``levelcross compare``: the
# benchmark applies the rule to every one of hundreds of operations, and at
# Z = 3 one honest operation in 370 would be counted as failed.
COMPARE_Z = 5.0


class Op:
    """One generated operation: its index, inputs and client-side arguments."""

    def __init__(self, index: int, argv: list[str] | None = None, **params):
        self.index = index
        self.argv = argv
        self.params = params


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _prepare_cli(argv: list[str]):
    """Parse arguments, resolve the config and build the model objects."""
    config = cli.resolve_config(cli.build_parser().parse_args(argv))
    config.build()
    return config


def _parse_json(code: int, text: str) -> dict:
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


class QuadratureTap:
    """Keeps the last ``QuadratureResult`` the CLI computed, for its cell count.

    The CLI prints value, error and convergence only; the tap is one extra
    Python call per operation.
    """

    def __init__(self):
        self.last = None
        self._inner = None

    def install(self):
        self._inner = cli.integrate_density

        def tapped(*args, **kwargs):
            self.last = self._inner(*args, **kwargs)
            return self.last

        cli.integrate_density = tapped

    def uninstall(self):
        cli.integrate_density = self._inner


class QuadWorkload:
    """``levelcross expect`` over [-20, 20]^2 at tolerance 1e-8."""

    region = (-20.0, 20.0, -20.0, 20.0)
    tol = 1e-8

    def __init__(self, name: str, degree: int, with_means: bool, theorem: str, why: str):
        self.name = name
        self.degree = degree
        self.with_means = with_means
        self.theorem = theorem
        self.why = why
        self.tap = QuadratureTap()

    def _argv(self, var_a, var_b, mu_a=None, mu_b=None, region=None, tol=None):
        x0, x1, y0, y1 = region or self.region
        tol = tol or self.tol
        argv = [
            "expect", "--degree", str(self.degree),
            f"--var-a={_floats(var_a)}", f"--var-b={_floats(var_b)}",
            f"--k1={K1!r}", f"--k2={K2!r}",
            f"--x-min={x0!r}", f"--x-max={x1!r}", f"--y-min={y0!r}", f"--y-max={y1!r}",
            f"--abs-tol={tol!r}", f"--rel-tol={tol!r}",
        ]
        if mu_a is not None:
            argv += [f"--mu-a={_floats(mu_a)}", f"--mu-b={_floats(mu_b)}"]
        return argv

    def make_op(self, seed: int, index: int) -> Op:
        rng = np.random.default_rng([seed, index])
        n = self.degree + 1
        var_a = rng.uniform(0.5, 2.0, n)
        var_b = rng.uniform(0.5, 2.0, n)
        mu_a = mu_b = None
        if self.with_means:
            mu_a = rng.uniform(-1.0, 1.0, n)
            mu_b = rng.uniform(-1.0, 1.0, n)
        radius = np.exp(rng.uniform(*np.log(ORACLE_RADII), ORACLE_POINTS))
        points = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, ORACLE_POINTS))
        return Op(index, self._argv(var_a, var_b, mu_a, mu_b), points=points)

    def prepare(self, op: Op):
        _prepare_cli(op.argv).density_field()

    def start(self):
        self.tap.install()

    def stop(self):
        self.tap.uninstall()

    def warmup(self):
        n = self.degree + 1
        mu = [0.5] * n if self.with_means else None
        _run_cli(self._argv([1.0] * n, [1.5] * n, mu, mu, region=(-1.0, 1.0, -1.0, 1.0), tol=1e-3))

    def execute(self, op: Op):
        self.tap.last = None
        code, text = _run_cli(op.argv)
        return code, text, self.tap.last

    def check(self, op: Op, out) -> tuple[bool, str, dict]:
        code, text, result = out
        payload = _parse_json(code, text)
        value, err = payload["value"], payload["error_estimate"]
        record = {
            "value": value, "error_estimate": err, "converged": payload["converged"],
            "cells": None if result is None else result.cells_used,
        }
        if not (math.isfinite(value) and math.isfinite(err)):
            return False, "non-finite integral or error estimate", record
        if not payload["converged"]:
            return False, "quadrature did not converge", record
        if abs(value - self.degree) > COUNT_LAW_TOL:
            return False, f"total-count law: |value - N| = {abs(value - self.degree):.3e}", record
        config = _prepare_cli(op.argv)
        field, theorem = config.density_field()
        record["theorem"] = theorem
        if theorem != self.theorem:
            return False, f"auto selected theorem {theorem}, expected {self.theorem}", record
        profile, basis, level, _ = config.build()
        oracle = moments_path_density if theorem == "2" else conditioned_jacobian_density
        worst = 0.0
        for z in op.params["points"]:
            h = float(field(z))
            ref = oracle(profile, basis, level, z)
            dev = abs(h - ref) / max(abs(h), abs(ref), 1e-300)
            worst = max(worst, dev) if math.isfinite(dev) else math.inf
        record["h_oracle_rel_dev"] = worst
        if not worst <= ORACLE_RTOL:
            return False, f"h vs oracle: relative deviation {worst:.3e} > {ORACLE_RTOL:g}", record
        return True, "", record


def _mc_seed(seed: int, index: int) -> int:
    return int(np.random.default_rng([seed, index]).integers(2**31))


class CompanionWorkload:
    """``levelcross mc`` at degree 10, iid unit variances, on [-1, 1]^2."""

    degree = 10
    trials = 20000

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why
        self._reference = None

    def _argv(self, trials: int, op_seed: int) -> list[str]:
        return [
            "mc", "--degree", str(self.degree), f"--k1={K1!r}", f"--k2={K2!r}",
            "--x-min=-1", "--x-max=1", "--y-min=-1", "--y-max=1",
            "--trials", str(trials), "--seed", str(op_seed),
        ]

    def make_op(self, seed: int, index: int) -> Op:
        op_seed = _mc_seed(seed, index)
        return Op(index, self._argv(self.trials, op_seed), seed=op_seed)

    def prepare(self, op: Op):
        _prepare_cli(op.argv)

    def start(self):
        pass

    def stop(self):
        pass

    def warmup(self):
        _run_cli(self._argv(100, 0))

    def execute(self, op: Op):
        return _run_cli(op.argv)

    def reference(self, op: Op):
        """Quadrature of the CLI's own h over the region, computed once per run."""
        if self._reference is None:
            config = _prepare_cli(op.argv)
            field, _ = config.density_field()
            _, _, _, region = config.build()
            self._reference = quadrature.integrate_density(field, region, 1e-10, 1e-10)
        return self._reference

    def check(self, op: Op, out) -> tuple[bool, str, dict]:
        payload = _parse_json(*out)
        mean, se = payload["mean"], payload["std_error"]
        ref = self.reference(op)
        record = {
            "mean": mean, "std_error": se, "discarded": payload["discarded"],
            "trials": payload["trials"], "reference": ref.value,
        }
        if not (math.isfinite(mean) and math.isfinite(se) and se > 0.0):
            return False, "non-finite mean or standard error", record
        record["z_score"] = (mean - ref.value) / se
        if abs(mean - ref.value) > COMPARE_Z * se + ref.error_estimate:
            return False, f"compare rule: z = {record['z_score']:.2f}", record
        return True, "", record


def _monomial_pair(j: int):
    if j == 0:
        return (lambda z: np.ones_like(z)), (lambda z: np.zeros_like(z))
    return (lambda z: z**j), (lambda z: j * z ** (j - 1))


class WindingWorkload:
    """``estimate_expected_count`` on a ``TabulatedBasis`` of monomial callbacks.

    Same profile, level, region and per-operation seeds as the companion
    workload; the check is exact agreement with the companion counter.
    """

    degree = 10
    trials = 2000

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why
        self.model = None

    def make_op(self, seed: int, index: int) -> Op:
        return Op(index, seed=_mc_seed(seed, index))

    def prepare(self, op: Op):
        n = self.degree + 1
        self.model = (
            CoefficientProfile.iid(n),
            TabulatedBasis([_monomial_pair(j) for j in range(n)]),
            ComplexLevel(K1, K2),
            Rectangle(-1.0, 1.0, -1.0, 1.0),
        )

    def start(self):
        self.prepare(None)

    def stop(self):
        pass

    def warmup(self):
        zerocount.estimate_expected_count(*self.model, trials=100, seed=0)

    def execute(self, op: Op):
        return zerocount.estimate_expected_count(
            *self.model, trials=self.trials, seed=op.params["seed"]
        )

    def check(self, op: Op, out) -> tuple[bool, str, dict]:
        profile, _, level, region = self.model
        companion = zerocount.estimate_expected_count(
            profile, MonomialBasis(self.degree), level, region,
            trials=self.trials, seed=op.params["seed"], method="companion",
        )
        record = {
            "mean": out.mean, "std_error": out.std_error, "discarded": out.discarded_trials,
            "companion_mean": companion.mean, "companion_discarded": companion.discarded_trials,
        }
        if not (math.isfinite(out.mean) and math.isfinite(out.std_error)):
            return False, "non-finite mean or standard error", record
        if (out.mean, out.discarded_trials) != (companion.mean, companion.discarded_trials):
            return False, (
                f"winding/companion mismatch: mean {out.mean!r} vs {companion.mean!r}, "
                f"discarded {out.discarded_trials} vs {companion.discarded_trials}"
            ), record
        return True, "", record


WORKLOADS = {
    w.name: w
    for w in (
        QuadWorkload(
            "quad-n40", 40, False, "2",
            "per-term work: the quadratic-form sums and basis powers dominate",
        ),
        QuadWorkload(
            "quad-n2-mean", 2, True, "4",
            "per-call work of the density and the quadrature driver; general-mean assembly",
        ),
        CompanionWorkload(
            "mc-companion-n10",
            "batched companion eigenvalues and keyed RNG; bypasses density and quadrature",
        ),
        WindingWorkload(
            "mc-winding-n10",
            "per-trial winding counter over user callbacks; same problem as mc-companion-n10",
        ),
    )
}
