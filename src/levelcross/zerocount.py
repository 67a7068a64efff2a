"""Monte Carlo zero counting: the stochastic side of the verification.

Each trial draws the coefficients, counts the zeros of S_N(z) - K inside the
region, and the trials aggregate to a confidence interval for the expected
count.  Three counters exist.  The winding counter applies the argument
principle along the boundary and works for every basis.  For polynomial
bases the companion counter counts the eigenvalues of companion matrices;
it is the independent second oracle.  The default for polynomial bases is
the certified roots counter: Aberth-Ehrlich iteration finds every root of a
block of polynomials at once, and Smith's inclusion disks prove that each
disk holds exactly one root and lies more than 2e-9 from the boundary, so
the count of centres inside the region is exact.  Trials that the
certificate leaves (clusters, multiple roots, roots near the boundary,
non-finite values) go to the companion counter, so an estimate equals the
companion counter's unless an eigenvalue is off by more than 1e-9.

All counters work through one driver.  Each block draws its own rows of
the keyed random grid and counts them: the roots counter takes blocks of at
most ``_BLOCK_ROOTS`` roots (trials x degree), and builds the companion
matrices of the rows it leaves in chunks of at most ``_BLOCK_ENTRIES``
entries; the companion and winding counters take blocks of at most
``_BLOCK_ENTRIES`` companion matrix entries (trials x degree^2).  Memory
therefore stays bounded at any trial count and degree.  The blocks run on a
thread pool of one thread per CPU the process may use; ``np.linalg.eigvals``
and the large ufuncs release the GIL, while the winding counter runs mostly
in Python under it.  Block results are concatenated in trial order before
the one reduction, so an estimate is bit-for-bit the same whatever the block
size or the number of threads.

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

# Root entries (trials x degree) per block of trials on the certified roots route.
_BLOCK_ROOTS = 2**13

# Aberth sweeps after which a row's roots go to the certificate as they stand.
_ABERTH_SWEEPS = 60

# Unit roundoff of float64.
_U = 2.0**-53


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate of the expected zero count in a region.

    ``mean`` and the 95% normal CI are computed over kept trials;
    ``discarded_trials`` counts boundary-hit trials excluded from them.
    ``method`` names the counter that ran ("roots", "companion" or
    "winding"), and ``fallback_trials`` counts the trials the roots counter
    left to companion eigenvalues.
    """

    trials: int
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    discarded_trials: int
    method: str = "companion"
    fallback_trials: int = 0


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
# Certified roots counter
# ---------------------------------------------------------------------------


def _aberth_roots(c: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich approximations of all roots of each row of ``c``.

    ``c`` has shape (rows, n + 1), n >= 2 and c_n != 0; the result has shape
    (n, rows), one root per line, so that per-row values broadcast along
    contiguous lines.  Each row starts from n points on the circle whose
    radius |c_0 / c_n|^(1/n) is the geometric mean of its root moduli, and
    all its roots are corrected at once.  A row stops after
    ``_ABERTH_SWEEPS`` sweeps, or once every correction is within sixteen
    units of roundoff of its root or a root is no longer finite.
    """
    degree = c.shape[1] - 1
    a = np.ascontiguousarray((c[:, :-1] / c[:, -1:]).T)
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.7
    z = np.exp(1j * angles)[:, None] * np.abs(a[0]) ** (1.0 / degree)
    roots = np.empty_like(z)
    active = np.arange(len(c))
    for _ in range(_ABERTH_SWEEPS):
        if active.size == 0:
            break
        p, dp = np.ones_like(z), np.zeros_like(z)
        for k in range(degree - 1, -1, -1):
            dp *= z
            dp += p
            p *= z
            p += a[k]
        newton = np.divide(p, dp, out=p)
        # pull_i = sum over j != i of 1/(z_i - z_j), each pair formed once.
        pull = np.zeros_like(z)
        for j in range(degree - 1):
            inverse = np.subtract(z[j + 1:], z[j], out=dp[j + 1:])
            np.reciprocal(inverse, out=inverse)
            pull[j + 1:] += inverse
            pull[j] -= inverse.sum(axis=0)
        # The Aberth correction newton / (1 - newton * pull), in place.
        np.multiply(newton, pull, out=pull)
        np.subtract(1.0, pull, out=pull)
        step = np.divide(newton, pull, out=newton)
        z -= step
        done = np.all(np.abs(step) <= 16.0 * _U * np.abs(z), axis=0)
        done |= ~np.all(np.isfinite(z), axis=0)
        if done.any():
            roots[:, active[done]] = z[:, done]
            active, z, a = active[~done], z[:, ~done], a[:, ~done]
    roots[:, active] = z
    return roots


def _certified_counts(c: np.ndarray, z: np.ndarray, region: Rectangle):
    """Certify approximate roots ``z`` (n, rows) of the rows of ``c`` and count them.

    Returns (certified, counts) per row.  Root i gets the inclusion disk of
    radius n (|p(z_i)| + 8(n+1) u sum_k |c_k||z_i|^k) / (|c_n| prod_{j != i}
    |z_i - z_j| (1 - 4nu)), the Horner value with its rounding bound; the
    union of these disks holds every root, and a disk disjoint from the
    others holds exactly one (B. T. Smith, J. ACM 17, 1970).  A row is
    certified when its disks are pairwise disjoint and each lies more than
    ``2 * _EIGEN_BOUNDARY_TOL`` from the region boundary; its count is then
    the number of centres inside.  A NaN, an inf or a zero product leaves
    its row uncertified.
    """
    degree = len(z)
    c = np.ascontiguousarray(c.T)
    abs_c, abs_z = np.abs(c), np.abs(z)
    p = np.repeat(c[-1:], degree, axis=0)
    bound = np.repeat(abs_c[-1:], degree, axis=0)
    for k in range(degree - 1, -1, -1):
        p *= z
        p += c[k]
        bound *= abs_z
        bound += abs_c[k]
    product, nearest = np.ones_like(abs_z), np.full_like(abs_z, np.inf)
    for j in range(degree - 1):
        dist = np.abs(z[j + 1:] - z[j])
        product[j + 1:] *= dist
        product[j] *= dist.prod(axis=0)
        np.minimum(nearest[j + 1:], dist, out=nearest[j + 1:])
        nearest[j] = np.minimum(nearest[j], dist.min(axis=0))
    radius = degree * (np.abs(p) + 8 * (degree + 1) * _U * bound) / (
        abs_c[-1] * product * (1.0 - 4 * degree * _U))
    sound = np.isfinite(radius) & np.isfinite(product) & (product > 0)
    # Disk i misses every other disk when its nearest centre lies beyond both
    # its own radius and the row's largest one.
    disjoint = nearest > radius + radius.max(axis=0)
    clear = region.boundary_distance(z) > radius + 2 * _EIGEN_BOUNDARY_TOL
    certified = np.all(sound & disjoint & clear, axis=0)
    return certified, np.count_nonzero(region.contains(z), axis=0)


def _root_counts_batch(coeff_rows: np.ndarray, level, region: Rectangle):
    """Certified root counting for one coefficient row per trial.

    Returns (counts, discard_mask, fallback), ``fallback`` being the number
    of rows left to companion eigenvalues.  The roots of each
    polynomial sum_j c_j z^j - K come from ``_aberth_roots`` and are counted
    where ``_certified_counts`` certifies them; every other row, and every
    row of degree 0 or 1 or with vanishing leading coefficient, goes through
    ``_companion_counts_batch`` unchanged, in chunks of at most
    ``_BLOCK_ENTRIES`` companion entries.  A certified root lies more than
    1e-9 from the boundary, so the companion counter would keep its trial and
    count it alike unless an eigenvalue is off by more than 1e-9.
    """
    level = as_level(level)
    rows = np.asarray(coeff_rows, dtype=np.complex128)
    degree = rows.shape[1] - 1
    counts = np.zeros(len(rows), dtype=np.int64)
    discard = np.zeros(len(rows), dtype=bool)
    certified = np.zeros(len(rows), dtype=bool)
    if degree >= 2:
        c = rows.copy()
        c[:, 0] -= level.value
        tried = np.flatnonzero(c[:, -1] != 0)
        with np.errstate(all="ignore"):
            ok, found = _certified_counts(c[tried], _aberth_roots(c[tried]), region)
        certified[tried[ok]] = True
        counts[tried[ok]] = found[ok]
    fallback = np.flatnonzero(~certified)
    chunk = max(1, _BLOCK_ENTRIES // max(1, degree) ** 2)
    for start in range(0, fallback.size, chunk):
        part = fallback[start:start + chunk]
        counts[part], discard[part] = _companion_counts_batch(rows[part], level, region)
    return counts, discard, int(fallback.size)


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
    or "auto".  Under "auto" a basis that exposes polynomial coefficients is
    counted by the certified roots counter (``_root_counts_batch``), in
    blocks of ``_BLOCK_ROOTS // degree`` trials; a trial whose Aberth roots
    the inclusion-disk certificate does not cover is counted by companion
    eigenvalues, under the same discard rules, and ``fallback_trials``
    reports how many.  The estimate then equals the "companion" one unless
    an eigenvalue is off by more than 1e-9.  Any other basis is counted by
    the winding counter.  ``method`` on the result names the counter used.

    Each trial's randomness is a pure function of (seed, trial index), so the
    estimate is reproducible regardless of scheduling; every counter counts
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

    degree = max(1, profile.size - 1)
    if not polynomial or method == "winding":
        counter, size = "winding", _BLOCK_ENTRIES // degree**2

        def count(eta):
            return (*_winding_counts_batch(eta, basis, level, region), 0)
    elif method == "companion":
        counter, size = "companion", _BLOCK_ENTRIES // degree**2

        def count(eta):
            return (*_companion_counts_batch(basis.polynomial_coefficients(eta), level, region), 0)
    else:
        counter, size = "roots", _BLOCK_ROOTS // degree

        def count(eta):
            return _root_counts_batch(basis.polynomial_coefficients(eta), level, region)
    size = max(1, size)

    def block(first):
        return count(_sample_coefficients(profile, min(size, trials - first), seed, first))

    parts = _map_blocks(block, range(0, trials, size))
    counts = np.concatenate([c for c, _, _ in parts])
    discard = np.concatenate([d for _, d, _ in parts])
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
        method=counter,
        fallback_trials=sum(f for _, _, f in parts),
    )
