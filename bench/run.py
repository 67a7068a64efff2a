"""Benchmark of levelcross: quadrature at low and high degree, and Monte Carlo.

Run from the repository root:

    python3 bench/run.py --workload quad-n2-mean --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, with times scaled to a
reference machine speed by a calibration kernel timed around every
operation (see ``harness.py``); with ``--trace 1`` it runs each operation
untraced and then traced, and reports the per-layer metrics, in raw wall
seconds, and the tracing overhead.  It prints every metric by name with its
unit, then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (machine,
per-operation timings next to their results and verdicts) goes to
``bench/out/``; a traced run also writes its spans there.  README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import threads

threads.pin()

E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s") or metric.startswith("trace."):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "levelcross" / "__init__.py").is_file():
        print("error: no levelcross package under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import levelcross

    if not Path(levelcross.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: levelcross imported from {levelcross.__file__}, not ./src",
              file=sys.stderr)
        return 2
    import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup: list[tuple[float, float]] = []
    tracer = Tracer() if args.trace else None
    probe = None if tracer else lambda: setup.extend(
        harness.measure_setup(root, args.workload, args.seed))
    runs, elapsed = harness.run_workload(workload, args.seed, args.seconds, tracer, probe)

    attempted = len(runs)
    failed = sum(not r.ok for r in runs)
    raw = [r.seconds for r in runs]
    scaled = [r.scaled_seconds for r in runs]
    summary = {
        "ops": attempted,
        "failed_frac": failed / attempted,
        "elapsed_s": elapsed,
        "raw_op_s.p50": statistics.median(raw),
        "raw_ops_per_s": attempted / sum(raw),
    }
    if setup:
        summary["raw_setup_s"] = statistics.median(t for t, _ in setup)
        summary["setup_probes"] = [{"raw_s": t, "scaled_s": s} for t, s in setup]
    high = harness.high_percentile(scaled)
    if high is not None:
        summary[f"op_s.p{high[0]}"] = high[1]
    correct = failed == 0
    if tracer is None:
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "op_s.p50": statistics.median(scaled),
            "ops_per_s": attempted / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        values, summary["trace_accounted_frac"] = tracer.traced_metrics(
            raw, [r.traced_seconds for r in runs])
        correct = correct and abs(summary["trace_accounted_frac"] - 1.0) < 0.01
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}

    out_dir = harness.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}-spans.jsonl")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": harness.machine_record(root, args.seed),
        "summary": summary, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "operations": [r.as_record() for r in runs],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} ops in {elapsed:.3f} s, failed_frac {failed}/{attempted}")
    for run in runs:
        if not run.ok:
            print(f"  op {run.op.index} failed: {run.reason}")
    for name, value in summary.items():
        if isinstance(value, float) and name != "failed_frac":
            print(f"  {name:28s} {value:.6g}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
