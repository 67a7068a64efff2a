"""Adaptive 2-D integration of the density over rectangles.

Tensor-product Gauss-Kronrod cells: each cell returns the 15-point Kronrod
value K of its 15x15 node values, and the same values estimate its error.
Refinement stops once the summed error of all cells is within the tolerance
(the global rule of QUADPACK and DCUHRE).  Until then, each pass splits the
worst cells first, as those codes refine their worst region: the fewest,
in order of error, whose splitting leaves the errors of the other cells
summing to at most the tolerance.

The error is read from how fast the Legendre coefficients of the node values
decay, a ratio test after the null rules of Berntsen, Espelid & Genz (ACM
TOMS 17, 1991; see also Gonnet, ACM Comput. Surv. 44, 2012).  The same
contraction that applies the rules gives the orthonormal-Legendre
coefficients of degrees 9 to 14 in x, integrated over y by the Kronrod
rule, and in y, integrated over x.  The largest in each shell of degrees
(9, 10), (11, 12) and (13, 14) are s1, s2 and s3, and
q = max(s2 / s1, s3 / s2).  The Kronrod rule integrates every degree below
24 exactly, so the error of its tensor rule comes from these coefficients
beyond degree 23 (and from smaller terms above degree 23 in both axes),
which fall like q per two degrees where the decay holds.  The error is
then ``s3 * q**3``, an extrapolation to about degree 20 only, at least
50 eps |K| for rounding and at most the Gauss error below.  It is taken where
q < 1/2 and the cell is resolved to four digits, s1 <= 1e-4 |K|.  The
second test matters: on a coarse cell the coefficients of degrees 9 to 14
can fall while later ones rise again, as when the ring |z| = 1 runs between
the nodes or a near-singularity hides behind a smooth part.  Without it a
seeded sweep found converged runs that reported a fifth of their error.
Every other cell carries the Gauss error, the largest of |K - G| (G the
7-point Gauss rule embedded in the Kronrod nodes), |K - Gx| + |K - Gy|
(Gauss applied in x only, in y only) and s3.  The errors of the two axes can cancel
in |K - G|, and s3 covers an under-sampled cell whose Gauss errors are small
by chance; with |K - G| alone the sweep found runs that reported 1/190 of
their error.  Over that sweep (2400 runs: degree 2 to 80, regions crossing
the ring, variance ratios up to 1e3, means up to 1, tolerances 1e-4 to
1e-10; ``tests/test_quadrature.py`` runs 600 of them) every converged run
reported at least 13 times its true error, with a median 0.67 times the
cells of |K - G| alone at tolerance 1e-8.  No rule on the nodes sees a
feature that falls wholly between them, such as a peak narrower than their
spacing.

The cut goes across the axis with the larger one-axis error |K - Gx| or
|K - Gy|, as in DCUHRE; a tie goes to the longer axis.  The density varies
on a scale of 1/N across the ring |z| = 1 and smoothly along it, so cutting
the smooth direction wastes cells.  A cell whose error exceeds
``DOUBLE_SPLIT_FACTOR = 2**15`` times its share of the tolerance,
``tolerance / cells``, is split twice in the same pass: after that first
cut, each half is bisected across its longer axis, and the halves are
never evaluated.  Once a cell is resolved, halving one side cuts its Gauss
error (7 points, degree 13, so O(h^14)) by about 2^14, and its decay
estimate by more (s3 like h^14 and q like h^2), and halving the area gives
another 2, so neither half would fall within its share.  Before that, one
half can hold nearly all of the error and the other meet its share; the
four quarters then cost no more evaluations than the two halves and the
two quarters of the worse half, only one cell more.  Re-measured under the
ranked cut over 2^10 to 2^25, 2^15 evaluates the fewest points at degree
40 over [-20, 20]^2 (tolerance 1e-8), within 0.1% of the fewest at degree
2 with means there, and within 1.8% over the sweep above (0.3% at
tolerances 1e-4, 1e-8 and 1e-10), so the asymptotic choice stands.  The
start cells are the region cut on each coordinate axis it is centred on, so
each half or quadrant that the CLI's folds keep refines as a run over it
alone would.  The integrand is smooth away from degenerate points, so
per-cell convergence is spectral and the deterministic result is
independent of the stochastic verification path.

The driver works one refinement pass at a time.  The cells are the rows of
one table, each holding a cell's corners, value, error, split axis and
fallback flag.  A pass updates it with one assignment and one
concatenation: a split cell's first child takes its row, and the others
are appended.  The totals are ``math.fsum`` sums, which are correctly
rounded, so the row order cannot change the value or the error estimate.
A pass ranks the cells by a stable sort on descending error and cuts the
ranking where the errors below the cut sum to at most the tolerance.  A
cut that falls inside a run of equal errors takes the whole run, so equal
cells, such as the mirror images of a symmetric integrand, are split
together, and the row order decides only which of them a pass takes when
the cell budget truncates it.  A pass evaluates all its new cells
together, ``CELLS_PER_CALL`` cells per evaluator call, their 15x15 node
grids stacked along axis 0.  The evaluator contract is therefore:
pointwise, any 2-D complex grid in, real values of the same shape out.  A
pass of one cell hands it one (15, 15) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .model import Rectangle

__all__ = ["QuadratureResult", "integrate_density"]

# 15-point Kronrod abscissae (positive half, descending) and weights, with the
# embedded 7-point Gauss weights; classical double-precision constants.
_XGK_POS = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK_POS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_POS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_CENTER = 0.417959183673469387755102040816327

# Ascending node order; the Gauss subset sits at the odd indices 1, 3, ..., 13.
KRONROD_NODES = np.concatenate([-_XGK_POS, [0.0], _XGK_POS[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK_POS, [_WGK_CENTER], _WGK_POS[::-1]])
GAUSS_INDEX = np.arange(1, 15, 2)
GAUSS_WEIGHTS = np.concatenate([_WG_POS, [_WG_CENTER], _WG_POS[::-1]])
_NODES = len(KRONROD_NODES)


def _legendre_rows(degrees: range) -> np.ndarray:
    """Orthonormal Legendre polynomials of ``degrees`` at the nodes, times the Kronrod weights.

    Each row applied to a function's node values gives its Legendre
    coefficient of that degree, by the Kronrod rule.  The polynomials come
    from the three-term recurrence.
    """
    rows, previous, current = [], np.zeros(_NODES), np.ones(_NODES)
    for k in range(degrees.stop):
        if k in degrees:
            rows.append(math.sqrt(k + 0.5) * KRONROD_WEIGHTS * current)
        following = ((2 * k + 1) * KRONROD_NODES * current - k * previous) / (k + 1)
        previous, current = current, following
    return np.array(rows)


# The 1-D rules and coefficient rows over the 15 nodes: Kronrod, the Legendre
# coefficients of degrees 9 to 14, and Gauss with zeros off its subset.
# Applied to a (15, 15) cell in y and then in x, they give an (8, 8) result
# whose entry (a, b) is row a in x and row b in y: the four tensor rules sit
# at its corners, [[Kronrod, Kronrod in x and Gauss in y], [Gauss in x and
# Kronrod in y, Gauss]], and row 0 and column 0 hold the coefficients of
# degree 9 to 14 in y and in x, integrated over the other axis by Kronrod.
_RULES = np.concatenate([
    KRONROD_WEIGHTS[None],
    _legendre_rows(range(9, 15)),
    np.zeros((1, _NODES)),
])
_RULES[-1, GAUSS_INDEX] = GAUSS_WEIGHTS
_GAUSS = len(_RULES) - 1
_EPS = float(np.finfo(np.float64).eps)

# Cells per evaluator call: their node grids are stacked into one
# (15 * CELLS_PER_CALL, 15) grid, so the per-call cost of the evaluator is
# paid once per block of cells rather than once per cell.
CELLS_PER_CALL = 32

# A cell whose error exceeds this many times its share of the tolerance is
# split into four in one pass: at least 2^14 from a halved side and 2 from
# the halved area once the cell is resolved (see the module docstring).
DOUBLE_SPLIT_FACTOR = 2**15

# The columns of the cell table after the corners (x0, x1, y0, y1): the
# Kronrod value, the error, 1 where the cut goes across x, and 1 where the
# error is the Gauss error (see ``_evaluate_cells``).
_VALUE, _ERROR, _ACROSS_X, _FALLBACK = 4, 5, 6, 7
_COLUMNS = 8


@dataclass(frozen=True)
class QuadratureResult:
    """Deterministic estimate of the integral of h over a rectangle.

    ``error_estimate`` is the sum of the cells' error estimates (see the
    module docstring); when ``converged`` it is at most
    ``max(abs_tol, rel_tol * |value|)``.  ``passes`` counts the refinement
    passes after the start cells, ``evaluations`` the integrand points
    evaluated (225 per cell evaluated), ``nonfinite_cells`` the final cells
    whose value or error is not finite, and ``fallback_cells`` the final
    cells whose coefficients did not pass the decay test, so that their
    error is the Gauss error.
    """

    value: float
    error_estimate: float
    cells_used: int
    converged: bool
    passes: int = 0
    evaluations: int = 0
    nonfinite_cells: int = 0
    fallback_cells: int = 0


def _evaluate_cells(evaluator: Callable, boxes: np.ndarray) -> np.ndarray:
    """The cell table of ``boxes``: corners, Kronrod value, error, split axis, fallback flag.

    ``boxes`` holds one ``(x0, x1, y0, y1)`` row per cell, and so do the
    first four columns of the table; the others are named by ``_VALUE``,
    ``_ERROR``, ``_ACROSS_X`` and ``_FALLBACK``.  The node grids of all the
    cells are built in one broadcast and go to the evaluator
    ``CELLS_PER_CALL`` cells at a time; when one call covers them all, its
    output is used in place.  A cell's error is the decay estimate of the
    module docstring where its coefficients pass the decay test, else the
    Gauss error, and its fallback flag is 1 where it is the latter.  Its
    split axis is 1 where it is to be cut across x, the axis with the larger
    one-axis error (Kronrod minus Gauss applied in that axis only), or its
    longer axis on a tie, else 0.
    """
    low, high = boxes[:, ::2], boxes[:, 1::2]  # (x0, y0) and (x1, y1)
    half = 0.5 * (high - low)
    axes = (0.5 * (low + high))[:, :, None] + half[:, :, None] * KRONROD_NODES
    grid = np.empty((len(boxes), _NODES, _NODES), dtype=np.complex128)
    grid.real = axes[:, 0, :, None]
    grid.imag = axes[:, 1, None, :]
    grid = grid.reshape(-1, _NODES)
    blocks = []
    for start in range(0, len(grid), _NODES * CELLS_PER_CALL):
        block = grid[start:start + _NODES * CELLS_PER_CALL]
        # Contiguous, so that the products below sum it as they sum a copy.
        values = np.ascontiguousarray(evaluator(block), dtype=np.float64)
        if values.shape != block.shape:
            raise ConfigurationError("evaluator must return one real value per grid point")
        blocks.append(values)
    nodes = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    # All the cells' rows over y in one product, then the rows over x.
    full = _RULES @ (nodes @ _RULES.T).reshape(len(boxes), _NODES, len(_RULES))
    full *= (half[:, 0] * half[:, 1])[:, None, None]
    # |Kronrod - rule|: [[0, Gauss in y only], [Gauss in x only, Gauss]].
    rules = full[:, ::_GAUSS, ::_GAUSS]
    errors = np.abs(rules - rules[:, :1, :1])
    kronrod, x_errors, y_errors = rules[:, 0, 0], errors[:, 1, 0], errors[:, 0, 1]
    # s1, s2 and s3: the largest coefficient in x or in y of degrees (9, 10),
    # (11, 12) and (13, 14).
    tails = np.maximum(np.abs(full[:, 1:_GAUSS, 0]), np.abs(full[:, 0, 1:_GAUSS]))
    first, middle, last = np.maximum(tails[:, ::2], tails[:, 1::2]).T
    # The one-axis errors can cancel in |K - G|; their sum cannot.
    gauss = np.maximum(errors[:, 1, 1], x_errors + y_errors)
    # The decay ratio max(middle / first, last / middle), divided only where
    # it is below 0.5 and so its denominator positive.
    ratio, base = np.maximum(last * first, middle * middle), middle * first
    scale = np.abs(kronrod)
    decays = (ratio < 0.5 * base) & (first <= 1e-4 * scale)
    ratio /= np.where(decays, base, 1.0)
    estimate = np.minimum(np.maximum(last * ratio**3, 50.0 * _EPS * scale), gauss)
    table = np.empty((len(boxes), _COLUMNS))
    table[:, :4] = boxes
    table[:, _VALUE] = kronrod
    table[:, _ERROR] = np.where(decays, estimate, np.maximum(gauss, last))
    table[:, _ACROSS_X] = (x_errors > y_errors) | (
        (x_errors == y_errors) & (half[:, 0] >= half[:, 1]))
    table[:, _FALLBACK] = ~decays
    return table


# _CUTS[across_x][half] marks the bound a bisection moves to the midpoint:
# the cut axis's upper bound in the low half, its lower bound in the high half.
_CUTS = np.array([[[0, 0, 0, 1], [0, 0, 1, 0]], [[0, 1, 0, 0], [1, 0, 0, 0]]], dtype=bool)


def _halves(boxes: np.ndarray, across_x: np.ndarray) -> np.ndarray:
    """``(cells, 2, 4)``: the low and high half of each cell, cut across x where ``across_x``."""
    mids = (0.5 * (boxes[:, ::2] + boxes[:, 1::2])).repeat(2, axis=1)
    return np.where(_CUTS[across_x.astype(np.intp)], mids[:, None], boxes[:, None])


def _split(boxes: np.ndarray, across_x: np.ndarray, double: np.ndarray) -> np.ndarray:
    """The children of ``boxes``: first the first child of each cell, then the others.

    Each cell is bisected across x where ``across_x`` holds, else across y.
    The cells at the indices ``double`` have each half bisected again across
    its longer axis, and their four quarters as children.  A cell's children
    come in spatial order.
    """
    halves = _halves(boxes, across_x)
    if not len(double):
        return halves.transpose(1, 0, 2).reshape(-1, 4)
    pairs = halves[double].reshape(-1, 4)
    quarters = _halves(pairs, (pairs[:, 1] - pairs[:, 0]) >= (pairs[:, 3] - pairs[:, 2]))
    quarters = quarters.reshape(-1, 4, 4)
    halves[double, 0] = quarters[:, 0]
    bisected = np.ones(len(boxes), dtype=bool)
    bisected[double] = False
    return np.concatenate((halves[:, 0], halves[bisected, 1], quarters[:, 1:].reshape(-1, 4)))


def _worst_cells(errors: np.ndarray, tolerance: float, room: int) -> np.ndarray:
    """The rows of the cells a pass splits, worst first: at most ``room`` of them.

    The cells are ranked by a stable sort on descending error, so equal errors
    keep their row order.  The cut takes the shortest prefix of that ranking
    that leaves the errors after it summing to at most ``tolerance``, and
    the rest of the run of equal errors it ends in, so that mirror cells go
    together.  The errors must sum to more than ``tolerance``, so the worst
    cell is always taken.
    """
    order = np.argsort(-errors, kind="stable")
    ranked = errors[order]
    # The errors left after splitting the first 1, 2, ..., n - 1 cells.
    unsplit = np.cumsum(ranked[:0:-1])[::-1]
    cut = 1 + np.count_nonzero(unsplit > tolerance)
    need = np.count_nonzero(ranked >= ranked[cut - 1])
    return order[:min(need, room)]


def integrate_density(
    evaluator: Callable[[np.ndarray], np.ndarray],
    region: Rectangle,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-9,
    max_cells: int = 20000,
) -> QuadratureResult:
    """Integrate ``evaluator`` (complex grid -> real values) over ``region``.

    The evaluator must act pointwise: it receives a 2-D complex grid of any
    shape and returns real values of the same shape.

    The start cells, evaluated together, are the region cut on each
    coordinate axis it is centred on (``x_min == -x_max`` or
    ``y_min == -y_max``), in spatial order (x outer), or the region as one
    cell when those 2 or 4 cells exceed ``max_cells``.
    Refinement stops, with ``converged=True``, once the summed cell error
    is within ``tolerance = max(abs_tol, rel_tol * |current total|)``, so
    the returned ``error_estimate`` is within that tolerance.  Until then,
    each pass ranks the cells by a stable sort on descending error, ties in
    row order, and bisects the shortest prefix of the ranking that leaves
    the errors of the other cells summing to at most the tolerance, with
    the rest of the run of equal errors that the prefix ends in (see
    ``_worst_cells`` and the module docstring), or the first
    ``max_cells - cells`` of them; it evaluates all the new cells together.
    Of the split cells, those whose error exceeds
    ``DOUBLE_SPLIT_FACTOR * tolerance / cells`` are split into their four
    quarters instead, worst first, as long as the two extra cells of each
    fit within ``max_cells``.  The first cut of a cell goes across the axis
    that ``_evaluate_cells`` chose, the second cut of a double split across
    the longer axis of each half.
    Reaching ``max_cells`` returns the best estimate with
    ``converged=False`` rather than raising, and so does a non-finite cell
    value or error (the evaluator overflowed somewhere in the region):
    refining cannot repair it, and ``nonfinite_cells`` counts such cells.
    Evaluator exceptions (e.g. degenerate points inside the region)
    propagate to the caller.  The totals are ``math.fsum`` sums, so the
    row order cannot change the value or the error estimate.
    """
    if not (abs_tol > 0.0 and rel_tol > 0.0):  # NaN fails this test too
        raise ConfigurationError("tolerances must be positive")
    if max_cells < 1:
        raise ConfigurationError("max_cells must be at least 1")
    x0, x1, y0, y1 = region.x_min, region.x_max, region.y_min, region.y_max
    xs = [x0, 0.0, x1] if x0 == -x1 else [x0, x1]
    ys = [y0, 0.0, y1] if y0 == -y1 else [y0, y1]
    boxes = np.array([(*x, *y) for x in pairwise(xs) for y in pairwise(ys)], dtype=np.float64)
    if len(boxes) > max_cells:
        boxes = np.array([[x0, x1, y0, y1]], dtype=np.float64)
    cells = _evaluate_cells(evaluator, boxes)
    passes, evaluated, nonfinite = 0, len(cells), 0
    while True:
        values, errors = cells[:, _VALUE], cells[:, _ERROR]
        # math.fsum returns a non-finite total, or raises, exactly when a cell
        # is not finite or a partial sum overflows.
        try:
            total, error = math.fsum(values.tolist()), math.fsum(errors.tolist())
        except (OverflowError, ValueError):  # a total past the range, or inf - inf
            total = error = math.inf
        if not (math.isfinite(total) and math.isfinite(error)):
            total, error = sum(values.tolist()), sum(errors.tolist())
            nonfinite = int(np.count_nonzero(~(np.isfinite(values) & np.isfinite(errors))))
            converged = False
            break
        tolerance = max(abs_tol, rel_tol * abs(total))
        converged = error <= tolerance
        room = max_cells - len(cells)
        if converged or room <= 0:
            break
        offenders = _worst_cells(errors, tolerance, room)
        # A double split adds two cells more than a bisection; the worst
        # cells far over their share get one while the budget has room.  The
        # split cells come worst first, so those cells are a prefix of them.
        parents, worst = cells[offenders], errors[offenders]
        spare = (room - len(offenders)) // 2
        far = np.arange(min(spare, np.count_nonzero(
            worst > DOUBLE_SPLIT_FACTOR * tolerance / len(cells))))
        # Each split cell's first child takes its row; the others are appended.
        children = _evaluate_cells(evaluator, _split(parents[:, :4], parents[:, _ACROSS_X], far))
        cells[offenders] = children[:len(offenders)]
        cells = np.concatenate((cells, children[len(offenders):]))
        passes += 1
        evaluated += len(children)
    return QuadratureResult(
        total, error, len(cells), converged, passes=passes,
        evaluations=_NODES * _NODES * evaluated, nonfinite_cells=nonfinite,
        fallback_cells=int(np.count_nonzero(cells[:, _FALLBACK])),
    )
