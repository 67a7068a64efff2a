"""Self-test of the benchmark's checks and of its trace accounting.

Run from the repository root (about half a minute):

    python3 bench/selftest.py

Fault injection: each stub below is patched over one levelcross function
for one short run, and every operation of that run must be counted as
failed, exactly as ``run.py`` counts ``failed`` and ``failed_frac``.  The
package itself is never edited; the stubs live here.  An unpatched control
run must fail nothing.

Trace sanity: a traced run must report every per-layer metric that
BENCHMARK.json names, must account for the traced operation time with the
layer self times plus the benchmark's own time, and must name the layer
with the largest self time on two workloads.  ``DOMINANT`` records that
profile as measured on the commit that introduced the benchmark; a change
that moves the dominant layer on purpose says so when it updates it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import threads

threads.pin()
sys.path.insert(0, str(Path.cwd() / "src"))

import harness  # noqa: E402
import levelcross.cli as cli  # noqa: E402
import levelcross.zerocount as zerocount  # noqa: E402
from levelcross import QuadratureResult  # noqa: E402
from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import COMPARE_Z, WORKLOADS  # noqa: E402

SEED = 1
SHORT_RUN_S = 0.5
DOMINANT = {"quad-n40": "numerics.sum_s", "mc-companion-n10": "zerocount.eig_s"}


@contextlib.contextmanager
def patched(owner, attr: str, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _nan_converged(*args, **kwargs):
    """The unbounded-degree defect: a NaN integral that claims convergence."""
    return QuadratureResult(math.nan, math.nan, 1, True)


def _raising(*args, **kwargs):
    raise ZeroDivisionError("injected evaluator fault")


def _shifted_mean(real):
    def estimate(*args, **kwargs):
        est = real(*args, **kwargs)
        return dataclasses.replace(est, mean=est.mean + 2.0 * COMPARE_Z * est.std_error)
    return estimate


def _off_by_one(real):
    def count(*args, **kwargs):
        return real(*args, **kwargs) + 1
    return count


def fault_cases():
    return [
        ("NaN integral reported as converged", "quad-n2-mean",
         cli, "integrate_density", _nan_converged),
        ("quadrature raises", "quad-n2-mean", cli, "integrate_density", _raising),
        ("MC mean outside the compare rule", "mc-companion-n10",
         cli, "estimate_expected_count", _shifted_mean(cli.estimate_expected_count)),
        ("winding/companion mismatch", "mc-winding-n10",
         zerocount, "count_zeros_winding", _off_by_one(zerocount.count_zeros_winding)),
    ]


def tally(runs) -> tuple[int, int]:
    return len(runs), sum(not r.ok for r in runs)


def main() -> int:
    problems = []

    runs, _ = harness.run_workload(WORKLOADS["quad-n2-mean"], SEED, SHORT_RUN_S)
    attempted, failed = tally(runs)
    print(f"control quad-n2-mean: failed {failed}/{attempted}")
    if failed:
        problems.append(f"control run failed {failed} operations: {runs[0].reason}")

    for label, workload, owner, attr, stub in fault_cases():
        with patched(owner, attr, stub):
            runs, _ = harness.run_workload(WORKLOADS[workload], SEED, SHORT_RUN_S)
        attempted, failed = tally(runs)
        print(f"{label} on {workload}: failed {failed}/{attempted}; {runs[0].reason}")
        if attempted == 0 or failed != attempted:
            problems.append(f"{label}: only {failed} of {attempted} operations counted as failed")

    per_layer = {m["name"] for m in json.loads(Path("BENCHMARK.json").read_text())["per_layer"]}
    for workload, expected in DOMINANT.items():
        tracer = Tracer()
        runs, _ = harness.run_workload(WORKLOADS[workload], SEED, SHORT_RUN_S, tracer)
        values, accounted = tracer.traced_metrics(
            [r.seconds for r in runs], [r.traced_seconds for r in runs])
        self_times = {m: values[m] for m in SELF_TIME_METRICS.values()}
        largest = max(self_times, key=self_times.get)
        print(f"trace {workload}: largest self time {largest} "
              f"({self_times[largest]:.4g} s of {values['trace.op_s.p50']:.4g} s), "
              f"accounted {accounted:.4f}")
        if set(values) != per_layer:
            problems.append(f"trace {workload}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(values) ^ per_layer)}")
        if largest != expected:
            problems.append(f"trace {workload}: largest self time is {largest}, expected {expected}")
        if abs(accounted - 1.0) >= 0.01:
            problems.append(f"trace {workload}: self times account for {accounted:.4f} of op time")
        if not all(r.ok for r in runs):
            problems.append(f"trace {workload}: traced operations failed their checks")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
