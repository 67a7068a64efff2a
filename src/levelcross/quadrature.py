"""Adaptive 2-D integration of the density over rectangles.

Tensor-product Gauss-Kronrod cells: the 7-point Gauss rule embedded in the
15-point Kronrod extension supplies the error reference at no extra function
evaluations.  Cells whose error exceeds their area share of the tolerance are
split along their longer axis.  The integrand is smooth away from degenerate
points, so per-cell convergence is spectral and the deterministic result is
independent of the stochastic verification path.
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


@dataclass(frozen=True)
class QuadratureResult:
    """Deterministic estimate of the integral of h over a rectangle."""

    value: float
    error_estimate: float
    cells_used: int
    converged: bool


@dataclass(frozen=True)
class _Cell:
    x0: float
    x1: float
    y0: float
    y1: float
    value: float
    error: float

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


def _evaluate_cell(evaluator: Callable, x0, x1, y0, y1) -> _Cell:
    hx = 0.5 * (x1 - x0)
    hy = 0.5 * (y1 - y0)
    xs = 0.5 * (x0 + x1) + hx * KRONROD_NODES
    ys = 0.5 * (y0 + y1) + hy * KRONROD_NODES
    grid = xs[:, None] + 1j * ys[None, :]
    values = np.asarray(evaluator(grid), dtype=np.float64)
    if values.shape != grid.shape:
        raise ConfigurationError("evaluator must return one real value per grid point")
    scale = hx * hy
    kronrod = scale * (KRONROD_WEIGHTS @ values @ KRONROD_WEIGHTS)
    gauss_vals = values[np.ix_(GAUSS_INDEX, GAUSS_INDEX)]
    gauss = scale * (GAUSS_WEIGHTS @ gauss_vals @ GAUSS_WEIGHTS)
    return _Cell(x0, x1, y0, y1, float(kronrod), abs(float(kronrod - gauss)))


def _split(cell: _Cell, evaluator: Callable) -> tuple[_Cell, _Cell]:
    """Bisect along the longer axis."""
    if cell.x1 - cell.x0 >= cell.y1 - cell.y0:
        xm = 0.5 * (cell.x0 + cell.x1)
        return (
            _evaluate_cell(evaluator, cell.x0, xm, cell.y0, cell.y1),
            _evaluate_cell(evaluator, xm, cell.x1, cell.y0, cell.y1),
        )
    ym = 0.5 * (cell.y0 + cell.y1)
    return (
        _evaluate_cell(evaluator, cell.x0, cell.x1, cell.y0, ym),
        _evaluate_cell(evaluator, cell.x0, cell.x1, ym, cell.y1),
    )


def integrate_density(
    evaluator: Callable[[np.ndarray], np.ndarray],
    region: Rectangle,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-9,
    max_cells: int = 20000,
) -> QuadratureResult:
    """Integrate ``evaluator`` (complex grid -> real values) over ``region``.

    A cell's error budget is ``tolerance * cell_area / region_area`` with
    ``tolerance = max(abs_tol, rel_tol * |current total|)``; once every cell
    is within budget, the total error is within tolerance.  Exceeding
    ``max_cells`` returns the best estimate with ``converged=False`` rather
    than raising, and so does a non-finite cell value or error (the
    evaluator overflowed somewhere in the region): refining cannot repair
    it, and a NaN error would never exceed its budget.  Evaluator exceptions
    (e.g. degenerate points inside the region) propagate to the caller.

    The final reduction sums cell contributions in fixed spatial list order,
    so the result does not depend on evaluation scheduling.
    """
    if abs_tol <= 0.0 or rel_tol <= 0.0:
        raise ConfigurationError("tolerances must be positive")
    if max_cells < 1:
        raise ConfigurationError("max_cells must be at least 1")
    area_total = region.area
    cells = [_evaluate_cell(evaluator, region.x_min, region.x_max, region.y_min, region.y_max)]
    while True:
        if not all(math.isfinite(c.value) and math.isfinite(c.error) for c in cells):
            # Plain sums: math.fsum raises on inf - inf.
            total = sum(c.value for c in cells)
            return QuadratureResult(total, sum(c.error for c in cells), len(cells), False)
        total = math.fsum(c.value for c in cells)
        error = math.fsum(c.error for c in cells)
        tolerance = max(abs_tol, rel_tol * abs(total))
        offenders = {
            i for i, c in enumerate(cells)
            if c.error > tolerance * (c.area / area_total)
        }
        if not offenders:
            return QuadratureResult(total, error, len(cells), True)
        room = max_cells - len(cells)
        if room <= 0:
            return QuadratureResult(total, error, len(cells), False)
        if len(offenders) > room:
            worst = sorted(offenders, key=lambda i: cells[i].error, reverse=True)[:room]
            offenders = set(worst)
        next_cells: list[_Cell] = []
        for i, cell in enumerate(cells):
            if i in offenders:
                next_cells.extend(_split(cell, evaluator))
            else:
                next_cells.append(cell)
        cells = next_cells
