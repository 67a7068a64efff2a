"""Summarize benchmark run records: medians, quartiles and spreads per workload.

Run from the repository root after a set of runs:

    python3 bench/summarize.py                       # print the summary
    python3 bench/summarize.py --write FILE.json     # also store it

It reads every ``bench/out/*-trace*.json`` record (or the files given with
``--records``).  For each workload and metric it reports the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``, together with the seeds, the operation counts, the
failed operations and the machine record of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def summarize(paths: list[Path]) -> dict:
    groups = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    summary = {}
    for (workload, trace), records in sorted(groups.items()):
        records.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, first in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            entry = {"unit": first["unit"], "median": statistics.median(values),
                     "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3)
                if entry["median"]:
                    entry["spread"] = (q3 - q1) / abs(entry["median"])
            metrics[name] = entry
        summary[f"{workload} trace{trace}"] = {
            "seeds": [r["seed"] for r in records],
            "seconds": records[0]["seconds"],
            "operations": [r["attempted"] for r in records],
            "failed": [r["failed"] for r in records],
            "correct": all(r["correct"] for r in records),
            "machine": records[0]["machine"],
            "metrics": metrics,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", nargs="*", type=Path)
    parser.add_argument("--write", type=Path, help="also write the summary to this file")
    args = parser.parse_args(argv)
    paths = args.records or sorted(OUT_DIR.glob("*-trace[01].json"))
    if not paths:
        print("no run records found", file=sys.stderr)
        return 1
    summary = summarize(paths)
    for key, group in summary.items():
        print(f"{key}: seeds {group['seeds']}, ops {group['operations']}, "
              f"failed {sum(group['failed'])}, correct {group['correct']}")
        for name, m in group["metrics"].items():
            spread = m.get("spread")
            print(f"  {name:28s} median {m['median']:.6g} {m['unit']}"
                  + ("" if spread is None else f"  spread {spread:.4f}"))
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
