"""Adaptive Gauss-Kronrod integration over rectangles."""

import inspect

import numpy as np
import pytest
from scipy.integrate import quad

from levelcross import (
    CoefficientProfile,
    ComplexLevel,
    ConfigurationError,
    MonomialBasis,
    Rectangle,
    equal_variance_density,
    general_mean_density,
    quadrature,
    zero_mean_density,
)
from levelcross.quadrature import GAUSS_INDEX, GAUSS_WEIGHTS, KRONROD_NODES, KRONROD_WEIGHTS

UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


def integrate_density(evaluator, region, abs_tol, rel_tol, *args, **kwargs):
    """``quadrature.integrate_density``, checking the contract of every result.

    A converged result has its summed error estimate within
    ``max(abs_tol, rel_tol * |value|)`` and no non-finite cell.  Every result
    counts 225 evaluations per cell evaluated, at most the
    ``225 * (2 * cells_used - 1)`` of bisections alone, and keeps within
    ``max_cells``.
    """
    call = inspect.signature(quadrature.integrate_density).bind(
        evaluator, region, abs_tol, rel_tol, *args, **kwargs)
    call.apply_defaults()
    result = quadrature.integrate_density(*call.args, **call.kwargs)
    if result.converged:
        assert result.error_estimate <= max(abs_tol, rel_tol * abs(result.value))
        assert result.nonfinite_cells == 0
    assert result.evaluations % 225 == 0
    assert result.evaluations <= 225 * (2 * result.cells_used - 1)
    assert result.cells_used <= call.arguments["max_cells"]
    return result


class TestRuleConstants:
    def test_gauss_subset_matches_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(KRONROD_NODES[GAUSS_INDEX], nodes, atol=1e-15)
        np.testing.assert_allclose(GAUSS_WEIGHTS, weights, atol=1e-15)

    def test_kronrod_polynomial_exactness(self):
        # The 15-point rule integrates monomials up to degree 22 on [-1, 1].
        for degree in range(0, 23):
            approx = float(KRONROD_WEIGHTS @ KRONROD_NODES**degree)
            exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
            assert abs(approx - exact) < 1e-14

    def test_weights_sum_to_two(self):
        assert abs(KRONROD_WEIGHTS.sum() - 2.0) < 1e-15
        assert abs(GAUSS_WEIGHTS.sum() - 2.0) < 1e-15


class TestBasicIntegrals:
    def test_constant(self):
        result = integrate_density(lambda z: np.ones_like(z.real), UNIT_SQUARE, 1e-14, 1e-14)
        assert abs(result.value - 1.0) < 1e-14
        assert result.converged and result.cells_used == 1
        assert result.error_estimate >= 0

    def test_bilinear(self):
        result = integrate_density(lambda z: z.real * z.imag, UNIT_SQUARE, 1e-14, 1e-14)
        assert abs(result.value - 0.25) < 1e-14

    def test_high_degree_polynomial_single_cell(self):
        result = integrate_density(lambda z: z.real**8 * z.imag**6, UNIT_SQUARE, 1e-13, 1e-13)
        assert abs(result.value - 1.0 / 63.0) < 1e-15
        assert result.cells_used == 1

    def test_gaussian_over_plane(self):
        result = integrate_density(
            lambda z: np.exp(-z.real**2 - z.imag**2), Rectangle(-8, 8, -8, 8), 1e-12, 1e-10
        )
        assert abs(result.value - np.pi) < 1e-10
        assert result.converged

    def test_determinism(self):
        f = lambda z: np.cos(3 * z.real) * np.exp(-z.imag**2)
        a = integrate_density(f, Rectangle(-2, 2, -2, 2), 1e-10, 1e-10)
        b = integrate_density(f, Rectangle(-2, 2, -2, 2), 1e-10, 1e-10)
        assert a == b


class TestAdaptivity:
    def test_additivity_under_split(self):
        f = lambda z: np.exp(-3 * (z.real**2 + z.imag**2)) + 0.1 * z.real
        whole = integrate_density(f, Rectangle(-1, 1, -1, 1), 1e-11, 1e-11)
        parts = [
            integrate_density(f, Rectangle(x0, x0 + 1, y0, y0 + 1), 1e-11, 1e-11)
            for x0 in (-1.0, 0.0) for y0 in (-1.0, 0.0)
        ]
        total = sum(p.value for p in parts)
        budget = whole.error_estimate + sum(p.error_estimate for p in parts) + 1e-13
        assert abs(total - whole.value) <= budget

    def test_monotone_in_region_for_nonnegative_integrand(self):
        f = lambda z: 1.0 / (1.0 + z.real**2 + z.imag**2)
        small = integrate_density(f, Rectangle(-1, 1, -1, 1), 1e-10, 1e-10)
        large = integrate_density(f, Rectangle(-2, 2, -2, 2), 1e-10, 1e-10)
        assert small.value <= large.value + small.error_estimate + large.error_estimate

    def test_max_cells_returns_best_estimate(self):
        f = lambda z: 1.0 / (1e-6 + z.real**2 + z.imag**2)
        result = integrate_density(f, Rectangle(-1, 1, -1, 1), 1e-12, 1e-12, max_cells=8)
        assert not result.converged
        assert result.cells_used <= 8
        assert np.isfinite(result.value)

    def test_evaluator_errors_propagate(self):
        def bad(z):
            raise ArithmeticError("degenerate point inside region")

        with pytest.raises(ArithmeticError, match="degenerate"):
            integrate_density(bad, UNIT_SQUARE, 1e-6, 1e-6)

    def test_nan_node_is_not_converged(self):
        # A NaN cell must not pass as converged, nor be refined further.
        def one_nan(z):
            values = np.ones_like(z.real)
            values[3, 5] = np.nan
            return values

        result = integrate_density(one_nan, UNIT_SQUARE, 1e-6, 1e-6)
        assert not result.converged
        assert result.cells_used == 1
        assert np.isnan(result.value)

    def test_nonfinite_cell_after_refinement_is_not_converged(self):
        # Finite on the start cells, infinite on a node of a later one.
        f = lambda z: np.where(np.abs(z - 0.25) < 1e-3, np.inf, np.exp(-z.real**2 / 1e-3))
        result = integrate_density(f, Rectangle(-1, 1, -1, 1), 1e-10, 1e-10)
        assert not result.converged
        assert result.cells_used > 1
        assert not np.isfinite(result.value)

    @pytest.mark.parametrize("degree, with_means", [(80, False), (80, True)])
    def test_overflowing_density_is_not_converged(self, degree, with_means):
        # The closed forms overflow near the corners of [-20, 20]^2 at these
        # degrees; the quadrature reports that instead of a converged NaN.
        with np.errstate(all="ignore"):
            result = _count_over_square(degree, with_means)
        assert not result.converged
        assert not np.isfinite(result.value)

    def test_degree_40_with_means_satisfies_count_law(self):
        # The general-mean trace term stays in range over [-20, 20]^2 at
        # degree 40, so the integral converges to about the degree.
        with np.errstate(over="raise", invalid="raise"):
            result = _count_over_square(40, with_means=True)
        assert result.converged
        assert abs(result.value - 40.0) < 1e-2

    def test_degree_40_stops_at_the_global_budget(self):
        # The summed error estimate, not a per-cell area share, stops the
        # refinement; a per-cell rule spends more than 1000 cells here.
        result = _count_over_square(40, with_means=False)
        assert result.converged
        assert abs(result.value - 40.0) < 1e-2
        assert result.cells_used < 600

    def test_invalid_tolerances(self):
        with pytest.raises(ConfigurationError):
            integrate_density(lambda z: z.real, UNIT_SQUARE, 0.0, 1e-6)
        with pytest.raises(ConfigurationError):
            integrate_density(lambda z: z.real, UNIT_SQUARE, 1e-6, -1.0)

    def test_nan_tolerance_rejected_and_inf_accepted(self):
        # NaN fails every comparison: only `tol > 0` rejects it; inf is a valid tolerance.
        nan, inf = float("nan"), float("inf")
        for abs_tol, rel_tol in ((nan, 1e-6), (1e-6, nan)):
            with pytest.raises(ConfigurationError):
                integrate_density(lambda z: np.ones(z.shape), UNIT_SQUARE, abs_tol, rel_tol)
        result = integrate_density(lambda z: np.ones(z.shape), UNIT_SQUARE, inf, 1e-6)
        assert result.converged and result.cells_used == 1


class TestPassBatching:
    """Each refinement pass evaluates its children in few evaluator calls."""

    def test_calls_evaluations_and_passes(self):
        calls = []

        def f(z):
            calls.append(z.shape)
            return np.exp(-20.0 * np.abs(z - (0.1 + 0.2j)) ** 2)

        result = integrate_density(f, Rectangle(-1, 1, -1, 1), 1e-10, 1e-10)
        assert result.converged
        evaluated = sum(rows // 15 for rows, _ in calls)
        assert result.cells_used > 1
        assert 1 <= result.passes < len(calls) < evaluated
        assert result.evaluations == 225 * evaluated == sum(rows * cols for rows, cols in calls)
        # Bisection alone evaluates 2 * cells - 1; a double split skips the halves.
        assert result.evaluations <= 225 * (2 * result.cells_used - 1)
        # The start cells are the four quadrants, in one call.
        assert calls[0] == (60, 15)
        assert all(rows % 15 == 0 and cols == 15 for rows, cols in calls)

    def test_single_cell_counts(self):
        result = integrate_density(lambda z: np.ones_like(z.real), UNIT_SQUARE, 1e-14, 1e-14)
        assert (result.passes, result.evaluations) == (0, 225)

    @pytest.mark.parametrize("integrand, region, tols, max_cells, pinned, value_rtol", [
        # Truncated by max_cells: the worst cells are split first.  A
        # converged run reads 43.824.
        (lambda z: 1.0 / (1e-6 + (z.real - 0.3) ** 2 + (z.imag + 0.1) ** 2),
         Rectangle(-1.0, 1.0, -1.0, 1.0), (1e-12, 1e-12), 77,
         dict(cells_used=77, value=44.78992369966425), 1e-13),
        # Integer bounds: midpoints must not truncate.
        (lambda z: np.exp(-4 * np.abs(z - (0.5 + 0.25j)) ** 2) * (1 + z.real**2),
         Rectangle(-3, 2, -1, 2), (1e-11, 1e-11), 20000,
         dict(cells_used=34, value=1.0796562386577573, evaluations=12375), 1e-13),
        # The conjugate-pair mean at N = 2 with means over the kept half of
        # [-20, 20]^2, as ``expect`` runs it on a ``quad-n2-mean`` operation:
        # pinned bit for bit, error estimate and counts included.  The start
        # cells are its halves x <= 0 and x >= 0.
        (lambda z: general_mean_density(*_N2_MEAN_MODEL, z, mirror=True).h,
         Rectangle(-20, 20, 0, 20), (5e-9, 1e-8), 20000,
         dict(cells_used=26, value=0.9982053400137022, error_estimate=1.8178837682322662e-09,
              passes=4, evaluations=7650, fallback_cells=0), 0.0),
        # Theorem 2's conjugate-pair mean at N = 40 over the kept quadrant of
        # [-20, 20]^2, as ``expect`` runs it on a ``quad-n40`` operation:
        # pinned bit for bit in the same way.
        (lambda z: zero_mean_density(*_N40_MODEL, z, mirror=True).h,
         Rectangle(0, 20, 0, 20), (2.5e-9, 1e-8), 20000,
         dict(cells_used=63, value=9.999525141218717, error_estimate=9.727673026732491e-08,
              passes=9, evaluations=21825, fallback_cells=0), 0.0),
    ], ids=["truncated", "integer-bounds", "n2-mean-half", "n40-quadrant"])
    def test_refinement_is_pinned(self, integrand, region, tols, max_cells, pinned, value_rtol):
        # Pinned numbers: which cells are refined is a fixed function of the
        # integrand, the region and the tolerances.
        result = integrate_density(integrand, region, *tols, max_cells)
        assert result.converged == (pinned["cells_used"] < max_cells)
        assert abs(result.value - pinned["value"]) <= value_rtol * abs(pinned["value"])
        counts = {name: want for name, want in pinned.items() if name != "value"}
        assert {name: getattr(result, name) for name in counts} == counts

    @pytest.mark.parametrize("tolerance, room, split", [
        # Splitting the 5 and one 3 leaves 5 <= 6, splitting both 3s leaves
        # 2 <= 4: either way the cut takes the whole run of 3s.
        (4.0, 20, [2, 1, 4]),
        (6.0, 20, [2, 1, 4]),
        # Splitting the 5 alone leaves 8, at most the tolerance.
        (8.0, 20, [2]),
        # A budget of two takes the 5 and the first 3 in row order.
        (4.0, 2, [2, 1]),
    ], ids=["tol-4", "tol-6", "tol-8", "room-2"])
    def test_ranked_cut_takes_the_worst_cells_and_whole_ties(self, tolerance, room, split):
        errors = np.array([1.0, 3.0, 5.0, 1.0, 3.0])
        assert quadrature._worst_cells(errors, tolerance, room).tolist() == split

    @pytest.mark.parametrize("integrand, region, across_x, centres", [
        # Varies only in x, over a tall cell: cut across x, the shorter axis.
        (lambda z: np.exp(-40.0 * (z.real - 1.3) ** 2), Rectangle(1, 2, 1, 5), True,
         [1.25 + 3j, 1.75 + 3j]),
        # Varies only in y, over a wide cell: cut across y.
        (lambda z: np.exp(-40.0 * (z.imag - 1.3) ** 2), Rectangle(1, 5, 1, 2), False,
         [3 + 1.25j, 3 + 1.75j]),
        # Both axis errors exactly 0, over a wide cell: cut across the longer
        # axis.  The cell is within any tolerance, so no pass follows.
        (lambda z: np.zeros(z.shape), Rectangle(1, 5, 1, 2), True, []),
    ], ids=["x-only-tall", "y-only-wide", "tie-wide"])
    def test_split_follows_the_larger_axis_error(self, integrand, region, across_x, centres):
        box = np.array([[region.x_min, region.x_max, region.y_min, region.y_max]])
        table = quadrature._evaluate_cells(integrand, box)
        assert table[:, quadrature._ACROSS_X].tolist() == [across_x]
        calls = []

        def f(z):
            calls.append(z.copy())
            return integrand(z)

        # Two cells leave no room for a double split: the first pass
        # evaluates the root's two halves.
        integrate_density(f, region, 1e-12, 1e-12, max_cells=2)
        first_pass = [c.reshape(-1, 15, 15).mean(axis=(1, 2)) for c in calls[1:]]
        np.testing.assert_allclose(np.concatenate([[], *first_pass]), centres, atol=1e-15)

    @pytest.mark.parametrize("region, peak, tolerance, max_cells, centres", [
        # Off the axes: the four quarters, in spatial order, of a cut across
        # the axis with the larger error (x here) and of each half across its
        # longer axis, and never the two halves.  They fill the budget.
        (Rectangle(0, 2, 0, 2), 1.3 + 0.9j, 1e-12, 4,
         [0.5 + 0.5j, 0.5 + 1.5j, 1.5 + 0.5j, 1.5 + 1.5j]),
        # Centred on both axes: the start cells are the quadrants, and the
        # one that holds the peak, the only one over its share, is split
        # into four like any other cell.
        (Rectangle(-1, 1, -1, 1), 0.5 - 0.5j, 1e-6, 7,
         [0.25 - 0.75j, 0.25 - 0.25j, 0.75 - 0.75j, 0.75 - 0.25j]),
    ], ids=["off-axes", "across-axes"])
    def test_cell_far_over_its_share_is_split_into_four(self, region, peak, tolerance, max_cells,
                                                         centres):
        # The error of the cell that holds the peak is far above 2**15 times
        # its share of the tolerance.
        calls = []

        def f(z):
            calls.append(z.copy())
            return 1.0 / (1e-4 + np.abs(z - peak) ** 2)

        integrate_density(f, region, tolerance, tolerance, max_cells=max_cells)
        first_pass = calls[1].reshape(-1, 15, 15).mean(axis=(1, 2))
        np.testing.assert_allclose(first_pass, centres, atol=1e-15)

    def test_several_cells_split_in_one_pass(self):
        # The region is centred on the imaginary axis, so its start cells are the
        # halves x < 0 and x > 0, in one call.  In the first pass the half
        # x < 0, over its share through a smooth ridge, is bisected across x,
        # and the half x > 0, far over its share through a sharp peak, is
        # split into four.  Each cell's children are evaluated in spatial
        # order, its first child first.
        calls = []

        def f(z):
            calls.append(z.copy())
            ridge = np.exp(-40.0 * (z.real + 0.5) ** 2)
            return 1.0 / (1e-4 + np.abs(z - (0.6 + 1.1j)) ** 2) + ridge

        result = integrate_density(f, Rectangle(-1, 1, 0.5, 1.5), 1e-4, 1e-12, max_cells=6)
        assert (result.cells_used, result.passes, result.evaluations) == (6, 1, 225 * 8)
        np.testing.assert_allclose(calls[0].reshape(-1, 15, 15).mean(axis=(1, 2)),
                                   [-0.5 + 1j, 0.5 + 1j], atol=1e-15)
        first_pass = calls[1].reshape(-1, 15, 15).mean(axis=(1, 2))
        left = first_pass[first_pass.real < 0]
        right = first_pass[first_pass.real > 0]
        np.testing.assert_allclose(left, [-0.75 + 1j, -0.25 + 1j], atol=1e-15)
        np.testing.assert_allclose(right, [0.25 + 0.75j, 0.25 + 1.25j, 0.75 + 0.75j, 0.75 + 1.25j],
                                   atol=1e-15)

    def test_cell_budget_holds_under_double_splits(self):
        # A double split adds three cells; it is granted only where the
        # budget has room for it, so no budget is overshot.
        f = lambda z: 1.0 / (1e-6 + (z.real - 1.3) ** 2 + (z.imag - 0.9) ** 2)
        quartered = 0
        for max_cells in range(1, 41):
            result = integrate_density(f, Rectangle(0, 2, 0, 2), 1e-12, 1e-12, max_cells)
            assert result.cells_used <= max_cells
            assert not result.converged
            quartered += result.evaluations < 225 * (2 * result.cells_used - 1)
        assert quartered > 30

    def test_refinement_does_not_depend_on_grouping(self, monkeypatch):
        # A narrow peak whose per-cell errors reach the rounding floor of
        # |Kronrod - Gauss|; how cells are grouped into evaluator calls moves
        # those errors in the last bits, and must not change which cells are
        # refined.
        f = lambda z: 1.0 / (9.77e-6 + np.abs(z - (0.5 + 0.25j)) ** 2)
        outcomes = set()
        for per_call in (1, 5, 32):
            monkeypatch.setattr(quadrature, "CELLS_PER_CALL", per_call)
            result = integrate_density(f, Rectangle(-1, 3, -1, 2), 1.43e-11, 1.43e-11)
            assert result.converged
            outcomes.add((result.cells_used, result.passes, result.value))
        assert len(outcomes) == 1


def _node_grid(x0, x1, y0, y1):
    """The (15, 15) Kronrod node grid of the cell ``(x0, x1, y0, y1)``."""
    xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * KRONROD_NODES
    ys = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * KRONROD_NODES
    return xs[:, None] + 1j * ys[None, :]


class TestStartCells:
    """The first pass cuts the region on each axis it is centred on."""

    @staticmethod
    def calls_of(region, max_cells=20000):
        calls = []

        def f(z):
            calls.append(z.copy())
            return 1.0 / (1e-2 + np.abs(z - (0.1 + 0.2j)) ** 2)

        result = integrate_density(f, Rectangle(*region), 1e-10, 1e-10, max_cells)
        return result, calls

    @pytest.mark.parametrize("region, start", [
        ((-2, 2, -2, 2), [(-2, 0, -2, 0), (-2, 0, 0, 2), (0, 2, -2, 0), (0, 2, 0, 2)]),
        ((-1.2, 1.2, -0.3, 0.3),
         [(-1.2, 0, -0.3, 0), (-1.2, 0, 0, 0.3), (0, 1.2, -0.3, 0), (0, 1.2, 0, 0.3)]),
        ((-0.5, 0.5, 0.1, 1.2), [(-0.5, 0, 0.1, 1.2), (0, 0.5, 0.1, 1.2)]),
        ((-20, 20, 0, 20), [(-20, 0, 0, 20), (0, 20, 0, 20)]),
        ((0.2, 1.3, -0.4, 0.4), [(0.2, 1.3, -0.4, 0), (0.2, 1.3, 0, 0.4)]),
        # Touching an axis only at an edge is not crossing it.
        ((0, 2, 0, 2), [(0, 2, 0, 2)]),
        ((-2, 0, 0, 1.5), [(-2, 0, 0, 1.5)]),
    ], ids=["both-centred", "both-thin", "imaginary-axis", "kept-half", "real-axis",
            "corner-on-origin", "edges-on-axes"])
    def test_every_cell_of_a_centred_region_lies_in_one_closed_quadrant(self, region, start):
        result, calls = self.calls_of(region)
        assert result.converged and result.passes > 0
        np.testing.assert_allclose(calls[0].reshape(-1, 15, 15),
                                   [_node_grid(*cell) for cell in start], rtol=0, atol=1e-14)
        for call in calls:
            for cell in call.reshape(-1, 15, 15):
                for part in (cell.real, cell.imag):
                    assert (part > 0).all() or (part < 0).all()

    @pytest.mark.parametrize("region, start", [
        ((-3, 2, -1, 2), [(-3, 2, -1, 2)]),
        ((-1.2, 1.2, -0.2, 0.9), [(-1.2, 0, -0.2, 0.9), (0, 1.2, -0.2, 0.9)]),
        ((-2, 1.5, -2, 2), [(-2, 1.5, -2, 0), (-2, 1.5, 0, 2)]),
    ], ids=["both-off-centre", "x-centred", "y-centred"])
    def test_an_axis_crossed_off_centre_is_not_cut(self, region, start):
        # Only the axes that fold a region onto itself are cut; refinement
        # alone cuts a cell across an axis crossed off its centre.
        result, calls = self.calls_of(region)
        assert result.converged
        np.testing.assert_allclose(calls[0].reshape(-1, 15, 15),
                                   [_node_grid(*cell) for cell in start], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("max_cells", [1, 2, 3])
    def test_start_cells_beyond_the_budget_are_one_cell(self, max_cells):
        result, calls = self.calls_of((-1, 1, -1, 1), max_cells)
        assert calls[0].shape == (15, 15)
        assert result.cells_used == max_cells


def _n2_mean_model():
    """Profile, basis and level of operation 0 of ``quad-n2-mean`` at seed 1."""
    rng = np.random.default_rng([1, 0])
    var_a, var_b = rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)
    mu_a, mu_b = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
    return CoefficientProfile(mu_a, var_a, mu_b, var_b), MonomialBasis(2), ComplexLevel(1.0, 0.5)


_N2_MEAN_MODEL = _n2_mean_model()


def _n40_model():
    """Profile, basis and level of operation 0 of ``quad-n40`` at seed 1."""
    rng = np.random.default_rng([1, 0])
    var_a, var_b = rng.uniform(0.5, 2.0, 41), rng.uniform(0.5, 2.0, 41)
    return CoefficientProfile(0, var_a, 0, var_b), MonomialBasis(40), ComplexLevel(1.0, 0.5)


_N40_MODEL = _n40_model()


def _count_over_square(degree: int, with_means: bool):
    """Integral of h over [-20, 20]^2 at level 1 + 0.5i, tolerance 1e-8."""
    rng = np.random.default_rng(degree)
    n = degree + 1
    mu_a, mu_b = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)) if with_means else (0, 0)
    profile = CoefficientProfile(mu_a, rng.uniform(0.5, 2, n), mu_b, rng.uniform(0.5, 2, n))
    density = general_mean_density if with_means else zero_mean_density
    basis = MonomialBasis(degree)
    return integrate_density(lambda z: density(profile, basis, 1 + 0.5j, z).h,
                             Rectangle(-20, 20, -20, 20), 1e-8, 1e-8)


def _radial_density_n2(t: np.ndarray) -> np.ndarray:
    """h(|z|^2) for degree-2 monomials, unit variances, K = 0.

    From b0 = 1 + t + t^2, b1 = conj(z)(1 + 2t), b2 = 1 + 4t:
    h = (1 + 4t + t^2) / (pi (1 + t + t^2)^2); decays like 1/(pi t^2).
    """
    return (1.0 + 4.0 * t + t * t) / (np.pi * (1.0 + t + t * t) ** 2)


def _tail_mass_outside_square(radial_h, half_side: float) -> float:
    """Independent 1-D reduction of the mass outside [-R, R]^2 for radial h."""
    R = half_side
    band, _ = quad(lambda r: radial_h(r * r) * 8.0 * np.arccos(R / r) * r,
                   R, R * np.sqrt(2.0), epsabs=1e-13)
    disk, _ = quad(lambda r: radial_h(r * r) * 2.0 * np.pi * r,
                   R * np.sqrt(2.0), np.inf, epsabs=1e-13, limit=200)
    return band + disk


class TestTotalCountLaw:
    """Expected zero count of a degree-N polynomial over expanding squares."""

    def test_radial_formula_matches_evaluator(self, rng):
        basis = MonomialBasis(2)
        for _ in range(10):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            h = float(equal_variance_density(1.0, basis, 0j, z).h)
            assert abs(h - float(_radial_density_n2(abs(z) ** 2))) < 1e-14 * (1 + h)

    def test_expanding_squares_converge_to_degree(self):
        basis = MonomialBasis(2)
        f = lambda z: equal_variance_density(1.0, basis, 0j, z).h
        r20 = integrate_density(f, Rectangle(-20, 20, -20, 20), 1e-8, 1e-10, max_cells=40000)
        r40 = integrate_density(f, Rectangle(-40, 40, -40, 40), 1e-8, 1e-10, max_cells=40000)
        assert r20.converged and r40.converged
        assert abs(r20.value - 2.0) < 1e-2

        # Frozen targets from the independent radial reduction: the mass
        # outside [-R, R]^2 is 2.0501e-3 at R=20 and 5.117e-4 at R=40, so the
        # enlargement picks up 1.539e-3.  (The 1/(pi|z|^4) tail puts the
        # leading term at (1/2 + 1/pi) * 3 / (4 R^2) = 1.534e-3 for R=20.)
        tail20 = _tail_mass_outside_square(_radial_density_n2, 20.0)
        tail40 = _tail_mass_outside_square(_radial_density_n2, 40.0)
        assert abs(tail20 - 2.0501e-3) < 2e-6
        assert abs(tail40 - 5.117e-4) < 2e-6
        assert abs((2.0 - r20.value) - tail20) < 1e-6
        assert abs((r40.value - r20.value) - (tail20 - tail40)) < 1e-6


# Regions that cross the ring |z| = 1, where h varies on a scale of 1/N.
_SWEEP_REGIONS = ((-3, 3, -3, 3), (0, 1.5, -0.5, 1), (-0.5, 1.5, -0.3, 1.2), (-2, 2, -2, 2),
                  (-1.2, 1.2, -0.2, 0.9), (0.5, 1.3, 0.2, 0.8))
_SWEEP_TOLERANCES = (1e-4, 1e-6, 1e-8, 1e-10)


def _sweep_model(seed: int):
    """Integrand and region of model ``seed`` of the error-estimate sweep.

    Degree 2 to 80, log-uniform.  The variances of the real parts and of the
    imaginary parts are log-uniform over a spread drawn log-uniform in
    [1, 1e3].  Half the draws have means uniform in [-s, s], with s uniform
    in [0, 1].  The level is uniform in [-1.5, 1.5]^2, and the region one of
    ``_SWEEP_REGIONS``.
    """
    rng = np.random.default_rng([2027, seed])
    degree = int(round(np.exp(rng.uniform(np.log(2), np.log(80)))))
    n = degree + 1
    spread = np.exp(rng.uniform(0, np.log(1e3)))
    var_a = np.exp(rng.uniform(0, np.log(spread), n))
    var_b = np.exp(rng.uniform(0, np.log(spread), n))
    means = rng.uniform() < 0.5
    scale = rng.uniform(0, 1)
    mu_a = rng.uniform(-scale, scale, n) if means else np.zeros(n)
    mu_b = rng.uniform(-scale, scale, n) if means else np.zeros(n)
    level = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    region = Rectangle(*_SWEEP_REGIONS[int(rng.integers(len(_SWEEP_REGIONS)))])
    profile = CoefficientProfile(mu_a, var_a, mu_b, var_b)
    density = general_mean_density if means else zero_mean_density
    basis = MonomialBasis(degree)
    return (lambda z: density(profile, basis, level, z).h), region


class TestErrorEstimate:
    """The coefficient-decay estimate bounds the true error of the Kronrod value."""

    def test_legendre_rows_match_numpy(self):
        from numpy.polynomial import legendre

        for row, degree in zip(quadrature._RULES[1:quadrature._GAUSS], range(9, 15)):
            unit = np.sqrt(degree + 0.5) * np.eye(degree + 1)[degree]
            expected = KRONROD_WEIGHTS * legendre.legval(KRONROD_NODES, unit)
            np.testing.assert_allclose(row, expected, rtol=1e-13, atol=1e-15)

    # Models 0-7 (32 runs) are tier-1; the full sweep of 150 models (600 runs)
    # is marked slow.
    @pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=[pytest.mark.slow] if seed >= 8 else []) for seed in range(150)])
    def test_estimate_covers_the_true_error(self, seed):
        # Every converged run is within its tolerance (checked by the wrapper)
        # and its estimate is at least its error against the driver at 1e-13.
        evaluator, region = _sweep_model(seed)
        reference = quadrature.integrate_density(evaluator, region, 1e-13, 1e-13, max_cells=40000)
        assert reference.converged
        for tol in _SWEEP_TOLERANCES:
            result = integrate_density(evaluator, region, tol, tol)
            assert result.converged
            assert abs(result.value - reference.value) <= result.error_estimate

    def test_under_sampled_ring_is_covered(self):
        # Degree 80 over [-3, 3]^2 at tolerance 1e-4: the ring |z| = 1 is
        # about 1/80 wide, and the nodes of the early cells fall beside it.
        # A decay estimate gated by |K - G| <= 1e-2 |K| instead of the
        # resolution test reported only 5.7 times the true error here.
        rng = np.random.default_rng(80)
        profile = CoefficientProfile(0, rng.uniform(0.5, 2, 81), 0, rng.uniform(0.5, 2, 81))
        basis, region = MonomialBasis(80), Rectangle(-3, 3, -3, 3)
        f = lambda z: zero_mean_density(profile, basis, 0.5, z).h
        reference = quadrature.integrate_density(f, region, 1e-13, 1e-13, max_cells=40000)
        result = integrate_density(f, region, 1e-4, 1e-4)
        assert reference.converged and result.converged
        assert result.error_estimate >= 10 * abs(result.value - reference.value)
