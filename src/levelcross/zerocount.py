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

All counters work through one driver with one block rule.  Each block
draws its own rows of the keyed random grid and counts them.  A block holds
at most ``_BLOCK_ROOTS`` roots (trials x degree), and when there is more
than one block their number is rounded up to a multiple of the threads.
Companion matrices, for the companion counter and for the rows the roots
counter leaves, are built in ``_companion_counts_batch`` alone, in chunks
of at most ``_BLOCK_ENTRIES`` entries (trials x degree^2).  Memory
therefore stays bounded at any trial count and degree.  The blocks run on a
thread pool of one thread per CPU the process may use.  ``np.linalg.eigvals``
and the ufuncs release the GIL while they compute, but each call takes it
to start, so threads that make many small calls wait on each other.  The
roots counter therefore makes few, large calls: its blocks hold up to 2**14
roots, and each block's Aberth sweeps and certificate reuse one scratch
array of four entries per root.  A row stops once its corrections are
small enough for the certificate, not at roundoff (``_STOP_STEP``).  At
N = 10, 20 000 trials took 162 ms on one thread and 140 ms on two, where
rows that ran to sixteen units of roundoff took 189 and 158 ms (medians of
15 interleaved in-process runs on a shared 2-CPU VM).
The winding counter runs mostly in Python under the GIL.  Block results
are concatenated in trial order before the one reduction, so an estimate
is bit-for-bit the same whatever the block size or the number of threads.

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
from .model import BasisFamily, CoefficientProfile, Rectangle, _check_sizes, as_level
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
_BLOCK_ROOTS = 2**14

# Aberth sweeps after which a row's roots go to the certificate as they stand.
_ABERTH_SWEEPS = 60

# A row stops once every correction is at most this factor times the modulus
# of its root.  Aberth converges cubically, so the next relative error would
# be about its cube, near 1e-11, far inside the certificate's 2e-9 margin.
# A larger factor lets more rows stop while two iterates still crowd each
# other far from any root, and the certificate sends those rows to companion.
_STOP_STEP = 2.0**-12

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
    method: str
    fallback_trials: int


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
    count no zeros.  The companion matrices are built and solved in chunks
    of at most ``_BLOCK_ENTRIES`` entries (rows x degree^2), so their memory
    stays bounded whatever the number of rows.
    """
    level = as_level(level)
    trials, degree = len(coeff_rows), np.shape(coeff_rows)[1] - 1
    counts = np.zeros(trials, dtype=np.int64)
    discard = np.zeros(trials, dtype=bool)
    chunk = max(1, _BLOCK_ENTRIES // max(1, degree) ** 2)
    for start in range(0, trials, chunk):
        part = slice(start, start + chunk)
        c = np.array(coeff_rows[part], dtype=np.complex128)
        c[:, 0] -= level.value
        bad_leading = c[:, -1] == 0
        c[bad_leading, -1] = 1.0
        roots = np.linalg.eigvals(_companion_matrices(c))
        near_boundary = region.boundary_distance(roots) < _EIGEN_BOUNDARY_TOL
        discard[part] = bad_leading | np.any(near_boundary, axis=1)
        counts[part] = np.count_nonzero(region.contains(roots), axis=1)
    return counts, discard


# ---------------------------------------------------------------------------
# Certified roots counter
# ---------------------------------------------------------------------------


def _aberth_roots(c, scratch: np.ndarray):
    """Aberth-Ehrlich approximations of all roots of each column of ``c``.

    ``c`` holds the n + 1 lines c_0 ... c_n of length rows, one polynomial
    per column, n >= 2 and c_n != 0.  Each column starts from n points on
    the circle whose radius |c_0 / c_n|^(1/n) is the geometric mean of its
    root moduli, and all its roots are corrected at once, root i by
    p / (p' - p pull_i) with pull_i the sum over j != i of 1 / (z_i - z_j):
    Aberth's correction with one division.  Horner runs on ``c`` as it
    stands, since the correction does not depend on the scale of the
    polynomial.  A column stops after ``_ABERTH_SWEEPS`` sweeps, or once a
    root is no longer finite, or once every correction is at most
    ``_STOP_STEP`` = 2^-12 times the modulus of its root: the iteration
    converges cubically, so the roots then lie about 1e-11 (relative) from
    the true ones, and the certificate, not this rule, decides whether they
    are counted.

    All work happens in the four lines of ``scratch`` (shape (4, n * rows)),
    reused by every sweep.  Two lines take turns holding the iterates of the
    active columns, packed at the front, and p, which is the scratch of the
    inverse differences before Horner fills it; one holds p'.  The fourth
    collects the roots of stopped columns, one column per n entries in the
    order they stop, and its free tail holds the pull and then the
    denominator p' - p pull.  Returns (roots, work): the roots with shape
    (n, rows), one root per line, so that per-column values broadcast along
    contiguous lines, and the three other lines, free for the certificate.
    """
    degree, total = len(c) - 1, len(c[0])
    z_line, p_line, dp_line, stopped_line = scratch
    stopped = stopped_line.reshape(total, degree)
    order = np.empty(total, dtype=np.intp)  # the column of c behind each stopped row
    active = np.arange(total)
    count = 0

    def view(line, start=0):
        return line[start:start + degree * active.size].reshape(degree, active.size)

    def coefficient(k):
        return c[k] if active.size == total else c[k][active]

    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.7
    z = view(z_line)
    np.multiply(np.exp(1j * angles)[:, None], np.abs(c[0] / c[-1]) ** (1.0 / degree), out=z)
    for _ in range(_ABERTH_SWEEPS):
        if active.size == 0:
            break
        p, dp, pull = view(p_line), view(dp_line), view(stopped_line, degree * count)
        # pull_i = sum over j != i of 1/(z_i - z_j), each pair formed once in
        # the p line before Horner fills it.
        for j in range(degree - 1):
            inverse = np.subtract(z[j + 1:], z[j], out=p[j + 1:])
            np.reciprocal(inverse, out=inverse)
            if j == 0:
                pull[1:] = inverse
                np.negative(inverse.sum(axis=0), out=pull[0])
            else:
                pull[j + 1:] += inverse
                pull[j] -= inverse.sum(axis=0)
        np.copyto(dp, coefficient(degree))
        np.multiply(z, dp, out=p)
        p += coefficient(degree - 1)
        for k in range(degree - 2, -1, -1):
            dp *= z
            dp += p
            p *= z
            p += coefficient(k)
        # The Aberth correction p / (p' - p * pull), in place.
        np.multiply(p, pull, out=pull)
        np.subtract(dp, pull, out=pull)
        step = np.divide(p, pull, out=p)
        z -= step
        # |step| and _STOP_STEP |z| in the two real halves of the spent p' line.
        halves = dp_line.view(np.float64)[:2 * z.size].reshape(2, *z.shape)
        np.abs(step, out=halves[0])
        np.abs(z, out=halves[1])
        halves[1] *= _STOP_STEP
        done = np.all(halves[0] <= halves[1], axis=0)
        done |= ~np.all(np.isfinite(z), axis=0)
        if done.any():
            finished = count + int(np.count_nonzero(done))
            stopped[count:finished] = z[:, done].T
            order[count:finished] = active[done]
            count, active = finished, active[~done]
            z = np.take(z, np.flatnonzero(~done), axis=1, out=view(p_line), mode="clip")
            z_line, p_line = p_line, z_line
    stopped[count:] = z.T
    order[count:] = active
    roots = z_line.reshape(degree, total)
    roots[:, order] = stopped.T
    return roots, [p_line, dp_line, stopped_line]


def _edge_distance(z: np.ndarray, region: Rectangle, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Distance from each point of ``z`` to the nearest line through an edge of the region.

    Written to ``out``; ``work`` is scratch of the same shape.  Inside the
    region this is the distance to the boundary, and outside it is a lower
    bound on it.
    """
    np.abs(np.subtract(z.real, region.x_min, out=out), out=out)
    for coordinate, edge in ((z.real, region.x_max), (z.imag, region.y_min), (z.imag, region.y_max)):
        np.abs(np.subtract(coordinate, edge, out=work), out=work)
        np.minimum(out, work, out=out)
    return out


def _certified_counts(c, z: np.ndarray, region: Rectangle, work):
    """Certify approximate roots ``z`` (n, rows) of the columns of lines ``c`` and count them.

    Returns (certified, counts) per column.  Root i gets the inclusion disk
    of radius n (|p(z_i)| + 8(n+1) u sum_k |c_k||z_i|^k) / (|c_n| prod_{j != i}
    |z_i - z_j| (1 - 4nu)), the Horner value with its rounding bound; the
    union of these disks holds every root, and a disk disjoint from the
    others holds exactly one (B. T. Smith, J. ACM 17, 1970).  A column is
    certified when its disks are pairwise disjoint and each lies more than
    ``2 * _EIGEN_BOUNDARY_TOL`` from every line through an edge of the
    region, a lower bound on its distance to the boundary; its count is then
    the number of centres inside.  A NaN, an inf or a zero product leaves
    its column uncertified.  The work arrays are views of the three complex
    lines of n * rows entries in ``work``.
    """
    degree, rows = z.shape
    p = work[0].reshape(degree, rows)
    bound, abs_z = work[1].view(np.float64).reshape(2, degree, rows)
    product, nearest = work[2].view(np.float64).reshape(2, degree, rows)
    np.abs(z, out=abs_z)
    p[...] = c[-1]
    np.abs(c[-1], out=bound[0])
    bound[1:] = bound[0]
    for k in range(degree - 1, -1, -1):
        p *= z
        p += c[k]
        bound *= abs_z
        bound += np.abs(c[k])
    bound *= 8 * (degree + 1) * _U
    bound += np.abs(p, out=abs_z)
    bound *= degree
    # p and abs_z are free from here: they hold z_j - z_i and its modulus.
    product.fill(1.0)
    nearest.fill(np.inf)
    for j in range(degree - 1):
        dist = np.abs(np.subtract(z[j + 1:], z[j], out=p[j + 1:]), out=abs_z[j + 1:])
        product[j + 1:] *= dist
        product[j] *= dist.prod(axis=0)
        np.minimum(nearest[j + 1:], dist, out=nearest[j + 1:])
        nearest[j] = np.minimum(nearest[j], dist.min(axis=0))
    sound = np.isfinite(product) & (product > 0)
    product *= np.abs(c[-1])
    product *= 1.0 - 4 * degree * _U
    radius = np.divide(bound, product, out=bound)
    sound &= np.isfinite(radius)
    # Disk i misses every other disk when its nearest centre lies beyond both
    # its own radius and the row's largest one.
    disjoint = nearest > np.add(radius, radius.max(axis=0), out=product)
    radius += 2 * _EIGEN_BOUNDARY_TOL
    clear = _edge_distance(z, region, product, abs_z) > radius
    certified = np.all(sound & disjoint & clear, axis=0)
    return certified, np.count_nonzero(region.contains(z), axis=0)


def _root_counts_batch(coeff_rows: np.ndarray, level, region: Rectangle):
    """Certified root counting for one coefficient row per trial.

    Returns (counts, discard_mask, fallback), ``fallback`` being the number
    of rows left to companion eigenvalues.  The coefficients of each
    polynomial sum_j c_j z^j - K are transposed once into columns, with K
    taken from c_0.  Their roots come from ``_aberth_roots`` and are counted
    where ``_certified_counts`` certifies them; both share one scratch
    array.  Every other row, and every row of degree 0 or 1 or with
    vanishing leading coefficient, goes to ``_companion_counts_batch`` in
    one call, at the same level.  A certified root lies more than 1e-9 from
    the boundary, so the companion counter would keep its trial and count it
    alike unless an eigenvalue is off by more than 1e-9.
    """
    level = as_level(level)
    coeff_rows = np.asarray(coeff_rows, dtype=np.complex128)
    columns = coeff_rows.T
    degree, trials = columns.shape[0] - 1, columns.shape[1]
    # One line per power, over all trials: c_0 - K, c_1, ..., c_n.
    c = [columns[0] - level.value, *np.ascontiguousarray(columns[1:])]
    counts = np.zeros(trials, dtype=np.int64)
    discard = np.zeros(trials, dtype=bool)
    certified = np.zeros(trials, dtype=bool)
    if degree >= 2:
        tried = np.flatnonzero(c[-1] != 0)
        lines = c if tried.size == trials else [line[tried] for line in c]
        scratch = np.empty((4, degree * tried.size), dtype=np.complex128)
        with np.errstate(all="ignore"):
            roots, work = _aberth_roots(lines, scratch)
            ok, found = _certified_counts(lines, roots, region, work)
        certified[tried[ok]] = True
        counts[tried[ok]] = found[ok]
        del lines, roots, work, scratch  # before the companion matrices
    fallback = np.flatnonzero(~certified)
    counts[fallback], discard[fallback] = _companion_counts_batch(coeff_rows[fallback], level, region)
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
    # Stored one line per coefficient, so that the roots counter reads the
    # transpose without a copy.
    eta = np.empty((n, trials), dtype=np.complex128).T
    for part, mu, var, draws in ((eta.real, profile.mu_a, profile.var_a, block[:, 0::2]),
                                 (eta.imag, profile.mu_b, profile.var_b, block[:, 1::2])):
        np.multiply(np.sqrt(var), draws, out=part)
        part += mu
    return eta


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
    counted by the certified roots counter (``_root_counts_batch``); a trial
    whose Aberth roots the inclusion-disk certificate does not cover is
    counted by companion eigenvalues, under the same discard rules, and
    ``fallback_trials`` reports how many.  The estimate then equals the
    "companion" one unless an eigenvalue is off by more than 1e-9.  Any
    other basis is counted by the winding counter.  ``method`` on the result
    names the counter used.  A profile whose size is not ``basis.count``
    raises ``ConfigurationError``.

    Each trial's randomness is a pure function of (seed, trial index), so the
    estimate is reproducible regardless of scheduling; every counter counts
    blocks of at most ``_BLOCK_ROOTS // degree`` trials on several threads,
    and the one reduction runs in trial order.  Aborts with
    ``DiscardRateError`` when at least 1% of trials hit the boundary, which
    signals that the region boundary passes through a high-density zone.
    """
    _check_sizes(profile, basis)
    if trials < 100:
        raise ConfigurationError(f"need at least 100 trials, got {trials}")
    if method not in ("auto", "companion", "winding"):
        raise ConfigurationError(f"unknown method {method!r}")
    probe = np.zeros(basis.count, dtype=np.complex128)
    polynomial = basis.polynomial_coefficients(probe) is not None
    if method == "companion" and not polynomial:
        raise ConfigurationError("companion counting needs a polynomial basis")

    size = max(1, _BLOCK_ROOTS // max(1, basis.count - 1))
    blocks = -(-trials // size)
    if blocks > 1:
        # As many blocks as a multiple of the workers, so that each worker
        # counts an equal share.
        workers = _worker_count()
        size = -(-trials // (-(-blocks // workers) * workers))
    if not polynomial or method == "winding":
        counter = "winding"

        def count(eta):
            return (*_winding_counts_batch(eta, basis, level, region), 0)
    elif method == "companion":
        counter = "companion"

        def count(eta):
            return (*_companion_counts_batch(basis.polynomial_coefficients(eta), level, region), 0)
    else:
        counter = "roots"

        def count(eta):
            return _root_counts_batch(basis.polynomial_coefficients(eta), level, region)

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
