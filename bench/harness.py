"""Closed-loop runner, set-up probes, checks and machine record of the benchmark.

One client runs operations back to back: the next starts only after the
previous one returns.  A run stops before the operation predicted to end
past its time budget, and always runs at least one.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from threads import PINNED
from workloads import Op

BENCH_DIR = Path(__file__).resolve().parent

# Machine-speed calibration.  On a shared machine the CPU speed drifts, by up
# to 1.5x over seconds and over minutes on a shared 2-CPU Xeon VM, because
# other tenants compete for the cores.  A fixed numpy-only kernel (interpreter loop,
# ufuncs, batched real and complex eigenvalues: the kinds of work the
# operations do) is timed every CAL_PERIOD_S during the timed loop and
# around every set-up probe.  Reported times are scaled to the speed at which
# the kernel takes CAL_REF_S; raw wall times stay in the record.
CAL_REF_S = 0.01
CAL_PERIOD_S = 0.25
_CAL_RNG = np.random.default_rng(0)
_CAL_VEC = _CAL_RNG.standard_normal(500)
_CAL_REAL = _CAL_RNG.standard_normal((100, 10, 10))
_CAL_COMPLEX = _CAL_RNG.standard_normal((100, 10, 10)) + 1j * _CAL_RNG.standard_normal((100, 10, 10))
# Fresh interpreters started to time set-up, before and again after the
# timed loop, so that the reported median spans two moments of the run.
SETUP_PROBES = 6


@dataclass
class OpRun:
    """One operation: its timing next to its output, verdict and result record."""

    op: Op
    start: float
    end: float
    output: object = None
    error: str | None = None
    seconds: float = 0.0
    scaled_seconds: float = 0.0
    traced_seconds: float | None = None
    traced_output: object = None
    traced_error: str | None = None
    ok: bool = False
    reason: str = ""
    record: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        out = {"index": self.op.index, "seconds": self.seconds,
               "scaled_seconds": self.scaled_seconds, "ok": self.ok, "reason": self.reason,
               **self.record}
        if self.traced_seconds is not None:
            out["traced_seconds"] = self.traced_seconds
        return out


def _call(fn):
    try:
        return fn(), None
    except Exception as exc:  # an operation that raises is a failed operation
        return None, f"raised {type(exc).__name__}: {exc}"


def measure_setup(root: Path, workload: str, seed: int) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh interpreter to its first operation being ready.

    Returns (raw, scaled to reference speed) per probe.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    times = []
    cal = calibrate()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        after = calibrate()
        times.append((elapsed, elapsed * 2.0 * CAL_REF_S / (cal + after)))
        cal = after
    return times


def calibrate() -> float:
    """Seconds for one run of the fixed calibration kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i
    vec = _CAL_VEC
    for _ in range(150):
        vec = np.sqrt(np.abs(vec) + 1.0)
    np.linalg.eigvals(_CAL_REAL)
    np.linalg.eigvals(_CAL_COMPLEX)
    return time.perf_counter() - start


class SpeedSampler:
    """Times the calibration kernel every ``CAL_PERIOD_S`` of wall time.

    A timer signal runs the kernel in the main thread between two Python
    bytecodes, so long operations are sampled while they run; a long native
    call is sampled when it returns.  ``busy_seconds`` removes the samples'
    own time from an interval and scales each piece between two samples by
    the mean speed the two measured.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _sample(self, *_):
        start = time.perf_counter()
        self.samples.append((start, calibrate()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @contextlib.contextmanager
    def paused(self):
        """Hold samples back (a pending one runs on leaving) while tracing."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def busy_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of [start, end] without the samples inside it."""
        before = [s for s in self.samples if s[0] < start][-1]
        inside = [s for s in self.samples if start <= s[0] < end]
        after = next(s for s in self.samples if s[0] >= end)
        raw = scaled = 0.0
        cursor, left = start, before[1]
        for s_start, s_cal in inside + [(end, after[1])]:
            piece = s_start - cursor
            raw += piece
            scaled += piece * 2.0 * CAL_REF_S / (left + s_cal)
            cursor, left = s_start + s_cal, s_cal
        return raw, scaled


def run_loop(workload, seed: int, seconds: float, tracer=None) -> tuple[list[OpRun], float]:
    """Run operations for ``seconds``; with a tracer, each runs untraced then traced."""
    runs: list[OpRun] = []
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            op = workload.make_op(seed, len(runs))
            op_start = time.perf_counter()
            output, error = _call(lambda: workload.execute(op))
            run = OpRun(op, op_start, time.perf_counter(), output, error)
            if tracer is not None:
                with sampler.paused():
                    traced_start = time.perf_counter()
                    run.traced_output, run.traced_error = _call(
                        lambda: tracer.run_op(op.index, lambda: workload.execute(op)))
                    run.traced_seconds = time.perf_counter() - traced_start
            runs.append(run)
            elapsed = time.perf_counter() - start
            if elapsed + (run.end - run.start) + (run.traced_seconds or 0.0) > seconds:
                break
    for run in runs:
        run.seconds, run.scaled_seconds = sampler.busy_seconds(run.start, run.end)
    return runs, elapsed


def run_workload(workload, seed: int, seconds: float, tracer=None, on_idle=None):
    """Warm up, run the closed loop (traced if a tracer is given), then check.

    ``on_idle()`` runs untimed before and after the loop.  Returns the
    operations and the loop's wall time.
    """
    workload.start()
    try:
        _call(workload.warmup)  # a faulty program shows in the operations, not here
        if on_idle is not None:
            on_idle()
        if tracer is not None:
            tracer.install()
        try:
            runs, elapsed = run_loop(workload, seed, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if on_idle is not None:
            on_idle()
    finally:
        workload.stop()
    check_runs(workload, runs)
    return runs, elapsed


def check_runs(workload, runs: list[OpRun]) -> None:
    """Give every operation its verdict; runs outside the timed section."""
    for run in runs:
        if run.error is not None:
            run.ok, run.reason = False, run.error
            continue
        try:
            run.ok, run.reason, run.record = workload.check(run.op, run.output)
        except Exception as exc:  # malformed output counts against the operation
            run.ok, run.reason = False, f"check raised {type(exc).__name__}: {exc}"
        if run.ok and run.traced_seconds is not None and (
                run.traced_error is not None or run.traced_output != run.output):
            run.ok, run.reason = False, "traced result differs from untraced result"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with ten samples beyond it, from p90 up."""
    q = math.floor(100.0 * (len(values) - 10) / len(values))
    if q < 90:
        return None
    return q, percentile(values, q)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of a checkout's own .git, read without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def machine_record(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "workload_seed": seed,
    }
