"""Adaptive Gauss-Kronrod integration over rectangles."""

import numpy as np
import pytest
from scipy.integrate import quad

from levelcross import (
    CoefficientProfile,
    ConfigurationError,
    MonomialBasis,
    Rectangle,
    equal_variance_density,
    general_mean_density,
    integrate_density,
    zero_mean_density,
)
from levelcross.quadrature import GAUSS_INDEX, GAUSS_WEIGHTS, KRONROD_NODES, KRONROD_WEIGHTS

UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


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
        # A NaN error never exceeds its budget; it must not pass as converged.
        def one_nan(z):
            values = np.ones_like(z.real)
            values[3, 5] = np.nan
            return values

        result = integrate_density(one_nan, UNIT_SQUARE, 1e-6, 1e-6)
        assert not result.converged
        assert result.cells_used == 1
        assert np.isnan(result.value)

    def test_nonfinite_cell_after_refinement_is_not_converged(self):
        # Finite on the first cell, infinite on a node of a later one.
        f = lambda z: np.where(np.abs(z - 0.25) < 1e-3, np.inf, np.exp(-z.real**2 / 1e-3))
        result = integrate_density(f, Rectangle(-1, 1, -1, 1), 1e-10, 1e-10)
        assert not result.converged
        assert result.cells_used > 1
        assert not np.isfinite(result.value)

    @pytest.mark.parametrize("degree, with_means", [(80, False), (40, True)])
    def test_overflowing_density_is_not_converged(self, degree, with_means):
        # The closed forms overflow near the corners of [-20, 20]^2 at these
        # degrees; the quadrature reports that instead of a converged NaN.
        rng = np.random.default_rng(degree)
        n = degree + 1
        mu_a, mu_b = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)) if with_means else (0, 0)
        profile = CoefficientProfile(mu_a, rng.uniform(0.5, 2, n), mu_b, rng.uniform(0.5, 2, n))
        density = general_mean_density if with_means else zero_mean_density
        basis = MonomialBasis(degree)
        with np.errstate(all="ignore"):
            result = integrate_density(lambda z: density(profile, basis, 1 + 0.5j, z).h,
                                       Rectangle(-20, 20, -20, 20), 1e-8, 1e-8)
        assert not result.converged
        assert not np.isfinite(result.value)

    def test_invalid_tolerances(self):
        with pytest.raises(ConfigurationError):
            integrate_density(lambda z: z.real, UNIT_SQUARE, 0.0, 1e-6)
        with pytest.raises(ConfigurationError):
            integrate_density(lambda z: z.real, UNIT_SQUARE, 1e-6, -1.0)


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
