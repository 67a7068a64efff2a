"""Thread pinning shared by the benchmark's entry points.

numpy's OpenBLAS is built for up to 64 threads; one thread per process keeps
timings independent of how many cores the machine lends the run.  The
variables only take effect if set before numpy is first imported.
"""

import os

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin() -> None:
    """Pin this process and every process it starts afterwards."""
    os.environ.update(PINNED)
