"""Per-layer tracing of levelcross from outside the package.

``Tracer.install`` replaces the public functions of each package module, at
the name its caller looks up, with wrappers that record a span (name, start,
end, parent span, operation id) and a few work counts.  Nothing in the
package changes; ``uninstall`` puts every original back.  Spans stay in
memory while the run lasts and are written out once at the end.

A span's self time is its duration minus the time its child spans cover.
The root span of each operation is ``bench.op``; its self time is the
benchmark's own time inside the operation.  Self times of all spans of an
operation therefore add up to the traced operation time.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

import levelcross.cli as cli
import levelcross.density as density
import levelcross.model as model
import levelcross.zerocount as zerocount

# Span name -> per-layer metric holding its summed self time.
SELF_TIME_METRICS = {
    "bench.op": "bench.self_s",
    "cli": "cli.self_s",
    "cli.config": "cli.config_s",
    "cli.output": "cli.output_s",
    "quadrature": "quadrature.self_s",
    "density": "density.self_s",
    "numerics.sum": "numerics.sum_s",
    "numerics.dop": "numerics.dop_s",
    "model.basis": "model.basis_s",
    "rng": "rng.s",
    "zerocount": "zerocount.self_s",
    "zerocount.winding": "zerocount.winding_s",
    "zerocount.eig": "zerocount.eig_s",
}

# Per-operation means of counts, and ratios of counts.
COUNT_METRICS = (
    "model.basis_calls", "model.basis_points",
    "numerics.sum_calls",
    "density.calls", "density.points", "density.terms", "density.nonfinite",
    "quadrature.evals", "quadrature.cells",
    "rng.draws",
    "zerocount.trials", "zerocount.discarded", "zerocount.winding_calls",
)
RATIO_METRICS = (
    "quadrature.kept_ratio", "zerocount.kept_ratio",
    "zerocount.boundary_points", "zerocount.passes_per_trial",
)


class _ModuleProxy:
    """Module stand-in that overrides some attributes and delegates the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self.active = False
        self.op_id = None
        self._stack: list[tuple[int, str]] = []
        self._patches: list = []
        self._last_basis_points = 0

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, on_exit=None):
        """Wrap ``fn`` in a span; ``on_exit(args, result)`` records counts.

        ``result`` is None when ``fn`` raised; the exception propagates.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
                if on_exit is not None:
                    on_exit(args, result)

        return traced

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as one traced operation under a ``bench.op`` root span."""
        self.op_id = op_id
        self.active = True
        try:
            return self.wrap("bench.op", fn)()
        finally:
            self.active = False

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, on_exit=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_exit))

    def install(self):
        counts = self.counts

        def basis_exit(args, result):
            points = np.size(args[1])
            counts["model.basis_calls"] += 1
            counts["model.basis_points"] += points
            self._last_basis_points = points
            if self._stack and self._stack[-1][1] == "zerocount.winding":
                counts["zerocount.winding_basis_calls"] += 1

        def density_exit(args, result):
            points = np.size(args[3])
            counts["density.calls"] += 1
            counts["density.points"] += points
            counts["density.terms"] += points * args[1].count
            if result is not None:
                counts["density.nonfinite"] += int(np.count_nonzero(~np.isfinite(result.h)))

        def integrate_exit(args, result):
            if result is not None:
                counts["quadrature.cells"] += result.cells_used

        def count_evals(fn):
            def evaluator(z):
                counts["quadrature.evals"] += 1
                return fn(z)
            return evaluator

        def estimate_exit(args, result):
            if result is not None:
                counts["zerocount.trials"] += result.trials
                counts["zerocount.discarded"] += result.discarded_trials

        def winding_exit(args, result):
            counts["zerocount.winding_calls"] += 1
            counts["zerocount.winding_points"] += self._last_basis_points

        def sum_exit(args, result):
            counts["numerics.sum_calls"] += 1

        def rng_exit(args, result):
            counts["rng.draws"] += int(args[1]) * int(args[2])

        self._patch(cli, "main", "cli")
        self._patch(cli, "resolve_config", "cli.config")
        self._patch(cli.RunConfig, "build", "cli.config")
        self._patch(cli, "_json_dump", "cli.output")
        for fn_name in ("zero_mean_density", "equal_variance_density", "general_mean_density"):
            self._patch(cli, fn_name, "density", density_exit)
        self._patch(density, "neumaier_sum", "numerics.sum", sum_exit)
        self._patch(density, "diff_of_products", "numerics.dop")
        self._patch(model.MonomialBasis, "values_and_derivatives", "model.basis", basis_exit)
        self._patch(model.TabulatedBasis, "values_and_derivatives", "model.basis", basis_exit)

        integrate = cli.integrate_density
        traced_integrate = self.wrap("quadrature", integrate, integrate_exit)
        self._patches.append((cli, "integrate_density", integrate))
        cli.integrate_density = (
            lambda evaluator, *a, **k: traced_integrate(count_evals(evaluator), *a, **k)
        )

        self._patch(cli, "estimate_expected_count", "zerocount", estimate_exit)
        self._patch(zerocount, "estimate_expected_count", "zerocount", estimate_exit)
        self._patch(zerocount, "count_zeros_winding", "zerocount.winding", winding_exit)
        self._patch(zerocount, "standard_normal_block", "rng", rng_exit)
        eigvals = self.wrap("zerocount.eig", np.linalg.eigvals)
        self._patches.append((zerocount, "np", zerocount.np))
        zerocount.np = _ModuleProxy(np, linalg=_ModuleProxy(np.linalg, eigvals=eigvals))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += (end - start) - covered
        return totals

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation means of self times and counts, plus work ratios."""
        c = self.counts
        out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        for name, total in self.self_times().items():
            out[SELF_TIME_METRICS[name]] = total / ops
        for metric in COUNT_METRICS:
            out[metric] = c[metric] / ops

        def ratio(num, den):
            return num / den if den else 0.0

        out["quadrature.kept_ratio"] = ratio(c["quadrature.cells"], c["quadrature.evals"])
        out["zerocount.kept_ratio"] = ratio(
            c["zerocount.trials"] - c["zerocount.discarded"], c["zerocount.trials"])
        out["zerocount.boundary_points"] = ratio(
            c["zerocount.winding_points"], c["zerocount.winding_calls"])
        out["zerocount.passes_per_trial"] = ratio(
            c["zerocount.winding_basis_calls"], c["zerocount.winding_calls"])
        return out

    def traced_metrics(self, untraced: list[float], traced: list[float]):
        """Per-layer metrics with the traced median and the tracing overhead.

        Also returns the share of the mean traced operation time that the
        self times account for; spans that nest properly make it 1 up to
        the wrapper calls outside the root span.
        """
        values = self.layer_metrics(len(traced))
        values["trace.op_s.p50"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.op_s.p50"] - statistics.median(untraced)
        accounted = sum(values[m] for m in SELF_TIME_METRICS.values())
        return values, accounted / statistics.mean(traced)

    def write_spans(self, path) -> None:
        """One JSON line per span, start and end relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op,
                }) + "\n")
