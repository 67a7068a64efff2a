"""Monte Carlo zero counting: the stochastic side of the verification.

Each trial draws the coefficients, counts the zeros of S_N(z) - K inside the
region with an argument-principle (winding number) counter, and aggregates a
confidence interval for the expected count.  For polynomial bases a
companion-matrix eigenvalue counter provides both a faster default and an
independent second oracle.

Both counters work through one driver, in blocks of at most
``_BLOCK_ENTRIES`` companion matrix entries (trials x degree^2).  Each block
draws its own rows of the keyed random grid and counts them with the chosen
counter: the companion counter maps them to polynomial coefficients and
counts the eigenvalues of their matrices, the winding counter traverses the
boundary once per row.  Memory therefore stays bounded at any trial count and
degree.  The blocks run on a thread pool of one thread per CPU the process
may use; ``np.linalg.eigvals`` and the large ufuncs release the GIL, while
the winding counter runs mostly in Python under it.  Block results are
concatenated in trial order before the one reduction, so an estimate is
bit-for-bit the same whatever the block size or the number of threads.

Trials whose zero set touches the region boundary cannot be counted reliably;
they are discarded and reported (the zero set of a fixed draw meets the
boundary curve with probability zero, so the discard event is a ~1e-9-rare
numerical guard, and the discard counter keeps the approximation auditable).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryHitError,
    ConfigurationError,
    ContractViolationError,
    DiscardRateError,
)
from .model import BasisFamily, CoefficientProfile, Rectangle, as_level
from .rng import standard_normal_block

__all__ = [
    "MCEstimate",
    "companion_matrix",
    "count_zeros_companion",
    "count_zeros_winding",
    "estimate_expected_count",
]

# Two-sided 95% normal quantile.
_Z95 = 1.959963984540054

# Relative floor on |S - K| along the sampled boundary below which a trial is
# treated as a boundary hit.
_BOUNDARY_FLOOR = 1e-9

# Boundary samples of the winding counter: the first pass, and the most that
# refinement may reach before the trial is given up as a boundary hit.
_INITIAL_POINTS = 64
_MAX_POINTS = 262144

# Absolute distance from an eigenvalue to the boundary that flags a hit.
_EIGEN_BOUNDARY_TOL = 1e-9

# Companion-matrix entries (trials x degree^2) per block of Monte Carlo trials.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate of the expected zero count in a region.

    ``mean`` and the 95% normal CI are computed over kept trials;
    ``discarded_trials`` counts boundary-hit trials excluded from them.
    """

    trials: int
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    discarded_trials: int


# ---------------------------------------------------------------------------
# Winding-number counter
# ---------------------------------------------------------------------------


def _boundary_points(region: Rectangle, s: np.ndarray) -> np.ndarray:
    """Map parameters s in [0, 4) to boundary points, counterclockwise.

    Edges in order: bottom (left to right), right (up), top (right to left),
    left (down); each edge spans one parameter unit.
    """
    edge = np.floor(s).astype(np.int64)
    t = s - edge
    x0, x1, y0, y1 = region.x_min, region.x_max, region.y_min, region.y_max
    x = np.choose(edge, [x0 + t * (x1 - x0), np.full_like(t, x1),
                         x1 - t * (x1 - x0), np.full_like(t, x0)])
    y = np.choose(edge, [np.full_like(t, y0), y0 + t * (y1 - y0),
                         np.full_like(t, y1), y1 - t * (y1 - y0)])
    return x + 1j * y


def count_zeros_winding(eta: np.ndarray, basis: BasisFamily, level, region: Rectangle) -> int:
    """Zeros (with multiplicity) of sum_j eta_j f_j(z) - K inside the region.

    Traverses the boundary counterclockwise and accumulates principal-value
    argument increments of w(z) = S(z) - K, adaptively bisecting every step
    whose increment reaches pi/2; under that guard the running branch cannot
    alias, so the accumulated total is 2*pi times the winding number, which by
    the argument principle is the zero count.

    Raises ``BoundaryHitError`` when the sampled boundary comes within a
    relative factor 1e-9 of a zero (min |w| < 1e-9 max |w|), or when the
    refinement budget is exhausted without resolving the argument.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    if eta.shape != (basis.count,):
        raise ConfigurationError(
            f"coefficient vector has shape {eta.shape}, expected ({basis.count},)"
        )
    level = as_level(level)
    s = np.linspace(0.0, 4.0, _INITIAL_POINTS, endpoint=False)
    while True:
        z = _boundary_points(region, s)
        vals, _ = basis.values_and_derivatives(z, derivatives=False)
        w = np.einsum("j,j...->...", eta, vals) - level.value
        w_abs = np.abs(w)
        if w_abs.min() < _BOUNDARY_FLOOR * w_abs.max():
            raise BoundaryHitError("a zero lies on or numerically near the region boundary")
        steps = np.angle(np.roll(w, -1) * np.conj(w))
        unresolved = np.abs(steps) >= 0.5 * np.pi
        if not np.any(unresolved):
            turns = steps.sum() / (2.0 * np.pi)
            count = int(np.rint(turns))
            if abs(turns - count) > 1e-6 * max(1.0, abs(turns)) + 1e-9:
                raise BoundaryHitError(
                    f"winding number did not resolve to an integer (got {turns!r})"
                )
            return count
        if s.size * 2 > _MAX_POINTS:
            raise BoundaryHitError("boundary refinement budget exhausted")
        s_next = np.roll(s, -1)
        s_next[-1] += 4.0
        midpoints = 0.5 * (s[unresolved] + s_next[unresolved])
        s = np.sort(np.concatenate([s, midpoints]))


def _winding_counts_batch(eta_rows: np.ndarray, basis: BasisFamily, level, region: Rectangle):
    """Winding counts for one coefficient row per trial.

    Returns (counts, discard_mask); rows that raise ``BoundaryHitError`` are
    flagged for discard.
    """
    counts = np.zeros(len(eta_rows), dtype=np.int64)
    discard = np.zeros(len(eta_rows), dtype=bool)
    for t, eta in enumerate(eta_rows):
        try:
            counts[t] = count_zeros_winding(eta, basis, level, region)
        except BoundaryHitError:
            discard[t] = True
    return counts, discard


# ---------------------------------------------------------------------------
# Companion-matrix counter
# ---------------------------------------------------------------------------


def _coefficient_vector(coeffs) -> np.ndarray:
    """Complex coefficients of a polynomial of degree >= 1 with c_n != 0."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size < 2:
        raise ConfigurationError("need a 1-D coefficient vector of degree >= 1")
    if c[-1] == 0:
        raise ContractViolationError("leading coefficient must be nonzero")
    return c


def _companion_matrices(c: np.ndarray) -> np.ndarray:
    """Monic companion matrices of the coefficient rows ``c``, shape (rows, n + 1).

    Row t holds c_0 ... c_n of one polynomial with c_n != 0; matrix t has its
    roots as eigenvalues.  A row of degree 0 gives a 0 x 0 matrix.
    """
    rows, degree = c.shape[0], c.shape[1] - 1
    monic = c[:, :-1] / c[:, -1:]
    mats = np.zeros((rows, degree, degree), dtype=np.complex128)
    mats[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    mats[:, :, -1:] = -monic[:, :, None]
    return mats


def companion_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Monic companion matrix of c_0 + c_1 z + ... + c_n z^n.

    Eigenvalues are the polynomial's roots.  Requires c_n != 0.
    """
    return _companion_matrices(_coefficient_vector(coeffs)[None, :])[0]


def count_zeros_companion(coeffs: np.ndarray, level, region: Rectangle) -> int:
    """Zeros of the polynomial minus K strictly inside the region.

    Counts companion-matrix eigenvalues of sum_j c_j z^j - K in the open
    rectangle, as a batch of one for ``_companion_counts_batch``; an
    eigenvalue within 1e-9 of the boundary raises ``BoundaryHitError``.
    """
    c = _coefficient_vector(coeffs)
    counts, discard = _companion_counts_batch(c[None, :], level, region)
    if discard[0]:
        raise BoundaryHitError("a root lies on or numerically near the region boundary")
    return int(counts[0])


def _companion_counts_batch(coeff_rows: np.ndarray, level, region: Rectangle):
    """Vectorized companion counting for one coefficient row per trial.

    Returns (counts, discard_mask); rows with vanishing leading coefficient
    or a root near the boundary are flagged for discard.  Rows of degree 0
    count no zeros.
    """
    level = as_level(level)
    c = np.array(coeff_rows, dtype=np.complex128)
    c[:, 0] -= level.value
    bad_leading = c[:, -1] == 0
    c[bad_leading, -1] = 1.0
    roots = np.linalg.eigvals(_companion_matrices(c))
    near_boundary = region.boundary_distance(roots) < _EIGEN_BOUNDARY_TOL
    discard = bad_leading | np.any(near_boundary, axis=1)
    counts = np.count_nonzero(region.contains(roots), axis=1)
    return counts, discard


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------


def _sample_coefficients(
    profile: CoefficientProfile, trials: int, seed: int, first_trial: int = 0
) -> np.ndarray:
    """Draw eta = a + i b for trials ``first_trial, ..., first_trial + trials - 1``.

    Slot 2j is a_j, slot 2j+1 is b_j.
    """
    n = profile.size
    block = standard_normal_block(seed, trials, 2 * n, first_trial=first_trial)
    a = profile.mu_a[None, :] + np.sqrt(profile.var_a)[None, :] * block[:, 0::2]
    b = profile.mu_b[None, :] + np.sqrt(profile.var_b)[None, :] * block[:, 1::2]
    return a + 1j * b


def _worker_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_blocks(task, items) -> list:
    """``[task(item) for item in items]``, computed on up to ``_worker_count()`` threads.

    A single item or a single worker starts no thread.  The first exception
    a task raises cancels the tasks not yet started and is re-raised here.
    """
    workers = min(len(items), _worker_count())
    if workers <= 1:
        return [task(item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        try:
            return list(pool.map(task, items))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def estimate_expected_count(
    profile: CoefficientProfile,
    basis: BasisFamily,
    level,
    region: Rectangle,
    trials: int,
    seed: int = 0,
    *,
    method: str = "auto",
) -> MCEstimate:
    """Monte Carlo estimate of the expected zero count of S - K in the region.

    Draws every a_j, b_j independently from the profile, counts zeros per
    trial, and returns the mean with a 95% normal confidence interval over
    kept trials.  ``method``: "companion" (polynomial bases only), "winding",
    or "auto" (companion whenever the basis exposes polynomial coefficients).

    Each trial's randomness is a pure function of (seed, trial index), so the
    estimate is reproducible regardless of scheduling; either counter counts
    blocks of trials on several threads, and the one reduction runs in trial
    order.  Aborts with ``DiscardRateError`` when at least 1% of trials
    hit the boundary, which signals that the region boundary passes through a
    high-density zone.
    """
    if trials < 100:
        raise ConfigurationError(f"need at least 100 trials, got {trials}")
    if method not in ("auto", "companion", "winding"):
        raise ConfigurationError(f"unknown method {method!r}")
    probe = np.zeros(profile.size, dtype=np.complex128)
    polynomial = basis.polynomial_coefficients(probe) is not None
    if method == "companion" and not polynomial:
        raise ConfigurationError("companion counting needs a polynomial basis")

    if polynomial and method != "winding":
        def count(eta):
            return _companion_counts_batch(basis.polynomial_coefficients(eta), level, region)
    else:
        def count(eta):
            return _winding_counts_batch(eta, basis, level, region)
    size = max(1, _BLOCK_ENTRIES // max(1, profile.size - 1) ** 2)

    def block(first):
        return count(_sample_coefficients(profile, min(size, trials - first), seed, first))

    parts = _map_blocks(block, range(0, trials, size))
    counts = np.concatenate([c for c, _ in parts])
    discard = np.concatenate([d for _, d in parts])
    discarded = int(np.count_nonzero(discard))

    if discarded / trials >= 0.01:
        raise DiscardRateError(
            f"{discarded} of {trials} trials hit the region boundary; "
            "the boundary likely passes through a high-density zone"
        )
    kept = counts[~discard].astype(np.float64)
    mean = float(kept.mean())
    std_error = float(kept.std(ddof=1) / np.sqrt(kept.size)) if kept.size > 1 else 0.0
    return MCEstimate(
        trials=trials,
        mean=mean,
        std_error=std_error,
        ci_low=mean - _Z95 * std_error,
        ci_high=mean + _Z95 * std_error,
        discarded_trials=discarded,
    )
