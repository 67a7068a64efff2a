"""Set-up probe: one fresh interpreter made ready for its first operation.

Started by ``harness.measure_setup`` from the repository root as

    python3 bench/setup_probe.py WORKLOAD SEED

It imports levelcross from ./src, generates the run's first operation,
resolves its configuration and builds its model objects, then prints
``ready``.  The parent times the span from spawning to that line.
"""

import sys
from pathlib import Path


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.prepare(workload.make_op(seed, 0))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
