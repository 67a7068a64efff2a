"""Domain types: profiles, bases, grids, and the Brownian construction."""

import numpy as np
import pytest

from levelcross import (
    CoefficientProfile,
    ComplexLevel,
    ConfigurationError,
    MonomialBasis,
    PrefixSumBasis,
    Rectangle,
    TabulatedBasis,
    TimeGrid,
    WeightedMonomialBasis,
    build_brownian_basis,
    validate_basis,
)


def all_concrete_bases():
    return [
        MonomialBasis(4),
        WeightedMonomialBasis([1.0, -2.0, 0.5, 3.0]),
        PrefixSumBasis(MonomialBasis(3)),
        TabulatedBasis([
            (lambda z: np.exp(z), lambda z: np.exp(z)),
            (lambda z: np.cos(z), lambda z: -np.sin(z)),
            (lambda z: z**2 + 1.0, lambda z: 2.0 * z),
        ]),
    ]


class TestCoefficientProfile:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ConfigurationError):
            CoefficientProfile([0, 0], [1.0, 0.0], [0, 0], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            CoefficientProfile([0, 0], [1.0, 1.0], [0, 0], [-0.5, 1.0])

    def test_rejects_short_profile(self):
        with pytest.raises(ConfigurationError):
            CoefficientProfile([0.0], [1.0], [0.0], [1.0])

    def test_rejects_entry_counts_that_do_not_broadcast(self):
        with pytest.raises(ConfigurationError, match=r"\[2, 3, 1, 1\] entries"):
            CoefficientProfile([0, 0], [1, 1, 1], 0, 1)
        with pytest.raises(ConfigurationError, match=r"mu_a must be a scalar or 1-D"):
            CoefficientProfile([[0, 0, 0]], [1, 1, 1], 0, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            CoefficientProfile([0, np.inf], [1, 1], [0, 0], [1, 1])

    def test_broadcast_and_entries(self):
        p = CoefficientProfile.iid(4, var_a=2.0, var_b=0.5, mu_a=0.1)
        assert p.size == 4
        np.testing.assert_array_equal(p.var_a, 2.0 * np.ones(4))
        assert not p.has_zero_means
        assert p.equal_variance() is None

    def test_immutable_arrays(self):
        p = CoefficientProfile.iid(3)
        with pytest.raises(ValueError):
            p.var_a[0] = 5.0


class TestGeometry:
    def test_rectangle_validation(self):
        with pytest.raises(ConfigurationError):
            Rectangle(1.0, -1.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            Rectangle(0.0, 1.0, 2.0, 2.0)

    def test_boundary_distance(self):
        r = Rectangle(-1, 1, -2, 2)
        np.testing.assert_allclose(r.boundary_distance(np.array([0.0 + 0.0j])), [1.0])
        np.testing.assert_allclose(r.boundary_distance(np.array([3.0 + 0.0j])), [2.0])
        np.testing.assert_allclose(r.boundary_distance(np.array([2.0 + 3.0j])), [np.hypot(1, 1)])
        assert r.contains(np.array([0.5 + 0.5j])).all()
        assert not r.contains(np.array([1.0 + 0.0j])).any()

    def test_level_validation(self):
        with pytest.raises(ConfigurationError):
            ComplexLevel(np.nan, 0.0)
        assert ComplexLevel.from_complex(1 + 2j).value == 1 + 2j

    def test_time_grid(self):
        g = TimeGrid([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(g.gaps(), [1.0, 1.0, 1.0])
        with pytest.raises(ConfigurationError):
            TimeGrid([2.0, 1.0])
        with pytest.raises(ConfigurationError):
            TimeGrid([-1.0, 1.0])
        with pytest.raises(ConfigurationError):
            TimeGrid([1.0])


class TestBases:
    @pytest.mark.parametrize("basis", all_concrete_bases())
    def test_real_on_real_line(self, basis):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5.0, 5.0, 100).astype(np.complex128)
        vals, derivs = basis.values_and_derivatives(x)
        assert np.all(np.abs(vals.imag) < 1e-12 * (1.0 + np.abs(vals)))
        assert np.all(np.abs(derivs.imag) < 1e-12 * (1.0 + np.abs(derivs)))

    @pytest.mark.parametrize("basis", all_concrete_bases())
    def test_holomorphy_proxy(self, basis):
        validate_basis(basis)

    def test_holomorphy_proxy_catches_wrong_derivative(self):
        bad = TabulatedBasis([
            (lambda z: z, lambda z: np.ones_like(z)),
            (lambda z: z**2, lambda z: 3.0 * z),  # wrong on purpose
        ])
        with pytest.raises(ConfigurationError, match="central-difference"):
            validate_basis(bad)

    def test_weighted_rejects_all_zero_weights(self):
        for weights in ([0.0, 0.0], [0.0, -0.0, 0.0]):
            with pytest.raises(ConfigurationError, match="all be zero"):
                WeightedMonomialBasis(weights)
        for weights in ([0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0]):
            assert WeightedMonomialBasis(weights).count == len(weights)

    def test_monomial_values(self, rng):
        basis = MonomialBasis(3)
        z = rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7)
        vals, derivs = basis.values_and_derivatives(z)
        for j in range(4):
            np.testing.assert_allclose(vals[j], z**j)
            expected = j * z ** (j - 1) if j else np.zeros_like(z)
            np.testing.assert_allclose(derivs[j], expected)

    def test_monomial_high_degree_products(self, rng):
        # Degree 40 built by doubling (rows m..2m-1 are rows 0..m-1 times
        # z^m): close to z**j off the axis, exactly real on it, and
        # derivative row 0 exactly zero.
        basis = MonomialBasis(40)
        j = np.arange(41)[:, None]
        z = 2.0 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * np.pi * rng.uniform(size=50))
        vals, derivs = basis.values_and_derivatives(z)
        expected = z[None, :] ** j
        assert np.max(np.abs(vals - expected) / np.abs(expected)) < 1e-13
        expected_deriv = j[1:] * z[None, :] ** (j[1:] - 1)
        assert np.max(np.abs(derivs[1:] - expected_deriv) / np.abs(expected_deriv)) < 1e-13
        assert np.all(derivs[0] == 0)
        x = rng.uniform(-2.0, 2.0, 50).astype(np.complex128)
        vals, derivs = basis.values_and_derivatives(x)
        assert np.all(vals.imag == 0) and np.all(derivs.imag == 0)

    @pytest.mark.parametrize("degree", [40, 500])
    def test_monomial_powers_match_mpmath(self, rng, degree):
        """The doubling table against 40-digit powers near the unit circle.

        Entry j is a chain of up to j complex products of z, so its rounding
        error grows like j*eps rather than the sqrt(j)*eps a running product
        shows on average; 1e-13 leaves room for that up to degree 500.
        """
        mpmath = pytest.importorskip("mpmath")
        z = np.exp(rng.uniform(np.log(0.9), np.log(1.1), 40) + 2j * np.pi * rng.uniform(size=40))
        vals, _ = MonomialBasis(degree).values_and_derivatives(z)
        worst = 0.0
        with mpmath.workdps(40):
            for i, point in enumerate(z):
                w, power = mpmath.mpc(point), mpmath.mpc(1)
                for j in range(degree + 1):
                    err = abs(mpmath.mpc(vals[j, i]) - power) / abs(power)
                    worst = max(worst, float(err))
                    power *= w
        assert worst < 1e-13

    @pytest.mark.parametrize("degree", [3, 40, 500])
    def test_monomial_power_symmetries_are_exact(self, rng, degree):
        basis = MonomialBasis(degree)
        sign = (-1.0) ** np.arange(degree + 1)[:, None]
        z = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 200) + 2j * np.pi * rng.uniform(size=200))
        vals, _ = basis.values_and_derivatives(z)
        assert np.array_equal(basis.values_and_derivatives(-z)[0], sign * vals)
        assert np.array_equal(basis.values_and_derivatives(np.conj(z))[0], np.conj(vals))
        x = rng.uniform(-2.0, 2.0, 200).astype(np.complex128)
        assert np.all(basis.values_and_derivatives(x)[0].imag == 0)

    @pytest.mark.parametrize("degree", [1, 3, 40, 500])
    def test_monomial_values_only_call_is_exact(self, rng, degree):
        basis = MonomialBasis(degree)
        grid = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (7, 9)) + 2j * np.pi * rng.uniform(size=(7, 9)))
        for z in (grid, grid[3, 4], complex(grid[0, 0])):
            vals, derivs = basis.values_and_derivatives(z, derivatives=False)
            assert derivs is None
            assert np.array_equal(vals, basis.values_and_derivatives(z)[0])
            assert vals.shape == (degree + 1,) + np.shape(z)

    def test_every_basis_skips_derivatives_on_request(self, rng):
        tabulated = TabulatedBasis([(np.exp, np.exp), (np.cos, lambda v: -np.sin(v))])
        for basis in (WeightedMonomialBasis([1.0, 0.5, -2.0]),
                      PrefixSumBasis(MonomialBasis(3)), tabulated):
            z = rng.uniform(-2, 2, (3, 4)) + 1j * rng.uniform(-2, 2, (3, 4))
            vals, derivs = basis.values_and_derivatives(z, derivatives=False)
            assert derivs is None
            assert np.array_equal(vals, basis.values_and_derivatives(z)[0])

    def test_monomial_derivative_at_origin(self):
        vals, derivs = MonomialBasis(2).values_and_derivatives(0.0 + 0.0j)
        np.testing.assert_array_equal(vals, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(derivs, [0.0, 1.0, 0.0])

    def test_prefix_sum_matches_stated_members(self, rng):
        basis = PrefixSumBasis(MonomialBasis(2))
        z = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5)
        vals, _ = basis.values_and_derivatives(z)
        np.testing.assert_allclose(vals[0], 1 + z + z**2)
        np.testing.assert_allclose(vals[1], z + z**2)
        np.testing.assert_allclose(vals[2], z**2)

    def test_prefix_sum_agrees_with_direct_summation(self, rng):
        inner = WeightedMonomialBasis(rng.uniform(-2, 2, 6))
        prefix = PrefixSumBasis(inner)
        z = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        inner_vals, inner_derivs = inner.values_and_derivatives(z)
        vals, derivs = prefix.values_and_derivatives(z)
        for k in range(prefix.count):
            direct = inner_vals[k:].sum(axis=0)
            assert np.all(np.abs(vals[k] - direct) <= 1e-12 * (1 + np.abs(direct)))
            direct_d = inner_derivs[k:].sum(axis=0)
            assert np.all(np.abs(derivs[k] - direct_d) <= 1e-12 * (1 + np.abs(direct_d)))

    def test_polynomial_coefficients(self, rng):
        eta = rng.normal(size=4) + 1j * rng.normal(size=4)
        z = complex(0.3, -0.7)
        mono = MonomialBasis(3)
        np.testing.assert_allclose(np.polyval(mono.polynomial_coefficients(eta)[::-1], z),
                                   sum(eta[j] * z**j for j in range(4)))
        w = WeightedMonomialBasis([1.0, 2.0, -1.0, 0.5])
        vals, _ = w.values_and_derivatives(z)
        np.testing.assert_allclose(np.polyval(w.polynomial_coefficients(eta)[::-1], z),
                                   np.sum(eta * vals))
        prefix = PrefixSumBasis(mono)
        vals, _ = prefix.values_and_derivatives(z)
        np.testing.assert_allclose(np.polyval(prefix.polynomial_coefficients(eta)[::-1], z),
                                   np.sum(eta * vals))
        tab = TabulatedBasis([(np.exp, np.exp), (np.cos, lambda v: -np.sin(v))])
        assert tab.polynomial_coefficients(eta[:2]) is None


class TestBrownianConstruction:
    def test_unit_spacing_variances(self):
        basis, profile = build_brownian_basis(MonomialBasis(2), TimeGrid([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(profile.var_a, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(profile.var_b, [1.0, 1.0, 1.0])
        assert profile.has_zero_means
        assert isinstance(basis, PrefixSumBasis)

    def test_general_gaps(self):
        _, profile = build_brownian_basis(MonomialBasis(2), TimeGrid([0.5, 1.5, 3.0]))
        np.testing.assert_allclose(profile.var_a, [0.5, 1.0, 1.5])

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="does not match"):
            build_brownian_basis(MonomialBasis(3), TimeGrid([1.0, 2.0, 3.0]))

    def test_zero_start_rejected(self):
        with pytest.raises(ConfigurationError, match="t_0"):
            build_brownian_basis(MonomialBasis(2), TimeGrid([0.0, 1.0, 2.0]))

    def test_prefix_rewrite_identity(self, rng):
        # sum_j (A_j + i B_j) f_j == sum_k F_k Delta_k with A + iB = cumsum(Delta)
        inner = MonomialBasis(4)
        prefix = PrefixSumBasis(inner)
        z = rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30)
        delta = rng.normal(size=5) + 1j * rng.normal(size=5)
        coeffs = np.cumsum(delta)
        inner_vals, _ = inner.values_and_derivatives(z)
        prefix_vals, _ = prefix.values_and_derivatives(z)
        lhs = np.einsum("j,j...->...", coeffs, inner_vals)
        rhs = np.einsum("k,k...->...", delta, prefix_vals)
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1 + np.abs(lhs)))

    def test_prefix_basis_real_on_real(self):
        basis, _ = build_brownian_basis(MonomialBasis(3), TimeGrid([0.5, 1.0, 2.0, 2.5]))
        validate_basis(basis)
