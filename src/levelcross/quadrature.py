"""Adaptive 2-D integration of the density over rectangles.

Tensor-product Gauss-Kronrod cells: the 7-point Gauss rule embedded in the
15-point Kronrod extension supplies the error reference at no extra function
evaluations.  Refinement stops once the summed error of all cells is within
the tolerance (the global rule of QUADPACK and DCUHRE); until then, every
cell whose error exceeds an equal share of the tolerance is bisected.  The
cut goes across the axis with the larger one-axis error, as in DCUHRE
(Berntsen, Espelid & Genz, 1991): the same 225 node values give the Kronrod
result minus Gauss applied in x only, and minus Gauss applied in y only.  A
tie goes to the longer axis.  The density varies on a scale of 1/N across
the ring |z| = 1 and smoothly along it, so cutting the smooth direction
wastes cells.  A cell whose error exceeds ``DOUBLE_SPLIT_FACTOR = 2**15``
times its share is split twice in the same pass: after that first cut, each
half is bisected across its longer axis, and the halves are never evaluated.
The factor is an asymptotic heuristic: once a cell is resolved, halving one
side cuts the 7-point Gauss error (degree 13, so O(h^14)) by about 2^14 and
halving the area by another 2, so neither half would fall within its share.
Before that, one half can hold nearly all of the error and the other meet
its share; the four quarters then cost no more evaluations than the two
halves and the two quarters of the worse half, only one cell more.  A cell
that straddles a coordinate axis is only bisected, and a cell centred on an
axis (``x0 == -x1`` or ``y0 == -y1``) is cut on it, x first.  So a region
centred on the origin has its halves x <= 0 and x >= 0 and its four
quadrants as cells of the tree, whatever its shape, and within each the
refinement is what a run over that part alone makes of it (the CLI's point
fold integrates one quadrant).  The integrand is smooth away from degenerate
points, so per-cell convergence is spectral and the deterministic result is
independent of the stochastic verification path.

The driver works one refinement pass at a time.  The cells are rows of
arrays (corners, values, errors, split axes): a split cell's first child
takes its row, and the others are appended.  The totals are ``math.fsum``
sums, which are correctly rounded, so the row order cannot change the value
or the error estimate; it only breaks ties when the cell budget truncates a
pass.  A pass evaluates all its new cells together, ``CELLS_PER_CALL`` cells
per evaluator call, their 15x15 node grids stacked along axis 0.  The
evaluator contract is therefore: pointwise, any 2-D complex grid in, real
values of the same shape out.  A pass of one cell hands it one (15, 15) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

# Both 1-D rules as rows over the 15 nodes, Gauss with zeros off its subset:
# _RULES @ cell @ _RULES.T holds the four tensor rules of a (15, 15) cell,
# [[Kronrod, Kronrod in x and Gauss in y], [Gauss in x and Kronrod in y,
# Gauss]], in two contractions.
_RULES = np.zeros((2, _NODES))
_RULES[0] = KRONROD_WEIGHTS
_RULES[1, GAUSS_INDEX] = GAUSS_WEIGHTS

# Cells per evaluator call: their node grids are stacked into one
# (15 * CELLS_PER_CALL, 15) grid, so the per-call cost of the evaluator is
# paid once per block of cells rather than once per cell.
CELLS_PER_CALL = 32

# A cell whose error exceeds this many times its share of the tolerance is
# split into four in one pass: asymptotically, 2^14 from a halved side and 2
# from the halved area (see the module docstring).
DOUBLE_SPLIT_FACTOR = 2**15


@dataclass(frozen=True)
class QuadratureResult:
    """Deterministic estimate of the integral of h over a rectangle.

    ``error_estimate`` is the sum of the cells' ``|Kronrod - Gauss|``
    errors; when ``converged`` it is at most
    ``max(abs_tol, rel_tol * |value|)``.  ``passes`` counts the refinement
    passes after the first cell, ``evaluations`` the integrand points
    evaluated (225 per cell evaluated), and ``nonfinite_cells`` the final
    cells whose value or error is not finite.
    """

    value: float
    error_estimate: float
    cells_used: int
    converged: bool
    passes: int = 0
    evaluations: int = 0
    nonfinite_cells: int = 0


def _evaluate_cells(
    evaluator: Callable, boxes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod values, |Kronrod - Gauss| errors and split axes of ``boxes``.

    ``boxes`` holds one ``(x0, x1, y0, y1)`` row per cell.  The node grids
    of all the cells are built in one broadcast and go to the evaluator
    ``CELLS_PER_CALL`` cells at a time.  The third array is True where a
    cell is to be cut across x: a cell centred on an axis (``x0 == -x1``,
    else ``y0 == -y1``) is cut on that axis, any other across the axis with
    the larger one-axis error (Kronrod minus Gauss applied in that axis
    only), and across its longer axis on a tie.
    """
    low, high = boxes[:, ::2], boxes[:, 1::2]  # (x0, y0) and (x1, y1)
    sums, half = low + high, 0.5 * (high - low)
    axes = (0.5 * sums)[:, :, None] + half[:, :, None] * KRONROD_NODES
    grid = np.empty((len(boxes), _NODES, _NODES), dtype=np.complex128)
    grid.real = axes[:, 0, :, None]
    grid.imag = axes[:, 1, None, :]
    grid = grid.reshape(-1, _NODES)
    nodes = np.empty(grid.shape)
    for start in range(0, len(grid), _NODES * CELLS_PER_CALL):
        block = grid[start:start + _NODES * CELLS_PER_CALL]
        values = np.asarray(evaluator(block), dtype=np.float64)
        if values.shape != block.shape:
            raise ConfigurationError("evaluator must return one real value per grid point")
        nodes[start:start + len(block)] = values
    nodes = nodes.reshape(-1, _NODES, _NODES)
    rules = (half[:, 0] * half[:, 1])[:, None, None] * ((_RULES @ nodes) @ _RULES.T)
    # |Kronrod - rule|: [[0, Gauss in y only], [Gauss in x only, Gauss]].
    errors = np.abs(rules - rules[:, :1, :1])
    x_errors, y_errors = errors[:, 1, 0], errors[:, 0, 1]
    by_error = (x_errors > y_errors) | ((x_errors == y_errors) & (half[:, 0] >= half[:, 1]))
    centred = sums == 0.0
    return rules[:, 0, 0], errors[:, 1, 1], centred[:, 0] | (~centred[:, 1] & by_error)


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

    Refinement stops, with ``converged=True``, once the summed cell error
    is within ``tolerance = max(abs_tol, rel_tol * |current total|)``, so
    the returned ``error_estimate`` is within that tolerance.  Until then,
    each pass bisects every cell whose error exceeds ``tolerance / cells``,
    or the worst ``max_cells - cells`` of them, and evaluates all the new
    cells together; should rounding leave no cell over its share, the
    worst cell is split.  Of the split cells, those whose error exceeds
    ``DOUBLE_SPLIT_FACTOR * tolerance / cells`` are split into their four
    quarters instead, worst first, as long as the two extra cells of each
    fit within ``max_cells``; a cell that straddles the real or the
    imaginary axis is only bisected, so that the halves of a region
    symmetric about the origin refine as they would alone.  "Worst" is a
    stable sort on descending error, ties in row order (see the module
    docstring).  The first cut of a cell goes across the axis that
    ``_evaluate_cells`` chose, the second cut of a double split across the
    longer axis of each half.
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
    boxes = np.array([[region.x_min, region.x_max, region.y_min, region.y_max]], dtype=np.float64)
    values, errors, across_x = _evaluate_cells(evaluator, boxes)
    passes, evaluated = 0, 1
    while True:
        cells = len(boxes)
        stats = dict(passes=passes, evaluations=_NODES * _NODES * evaluated)
        # math.fsum returns a non-finite total, or raises, exactly when a cell
        # is not finite or a partial sum overflows.
        try:
            total, error = math.fsum(values.tolist()), math.fsum(errors.tolist())
        except (OverflowError, ValueError):  # a total past the range, or inf - inf
            total = error = math.inf
        if not (math.isfinite(total) and math.isfinite(error)):
            nonfinite = int(np.count_nonzero(~(np.isfinite(values) & np.isfinite(errors))))
            return QuadratureResult(sum(values.tolist()), sum(errors.tolist()), cells, False,
                                    nonfinite_cells=nonfinite, **stats)
        tolerance = max(abs_tol, rel_tol * abs(total))
        if error <= tolerance:
            return QuadratureResult(total, error, cells, True, **stats)
        room = max_cells - cells
        if room <= 0:
            return QuadratureResult(total, error, cells, False, **stats)
        share = tolerance / cells
        offenders = (errors > share).nonzero()[0]
        if not len(offenders):
            # Rounding can put every cell at its share while the sum is over.
            offenders = np.argmax(errors, keepdims=True)
        if len(offenders) > room:
            offenders = offenders[np.argsort(-errors[offenders], kind="stable")[:room]]
        # A double split adds two cells more than a bisection; the worst
        # cells far over their share get one while the budget has room.
        # Cells across an axis are only bisected, so that a region symmetric
        # about the origin is cut on the axis and its halves are tree cells.
        parents, worst = boxes[offenders], errors[offenders]
        spare = (room - len(offenders)) // 2
        far = (worst > DOUBLE_SPLIT_FACTOR * share).nonzero()[0] if spare else ()
        if len(far):
            corners = parents[far]
            far = far[~((corners[:, ::2] < 0.0) & (corners[:, 1::2] > 0.0)).any(axis=1)]
            far = far[np.argsort(-worst[far], kind="stable")[:spare]]
        # Each split cell's first child takes its row; the others are appended.
        children = _split(parents, across_x[offenders], far)
        rows = (boxes, values, errors, across_x)
        new_rows = (children, *_evaluate_cells(evaluator, children))
        for old, new in zip(rows, new_rows):
            old[offenders] = new[:len(offenders)]
        boxes, values, errors, across_x = (
            np.concatenate((old, new[len(offenders):])) for old, new in zip(rows, new_rows)
        )
        passes += 1
        evaluated += len(children)
