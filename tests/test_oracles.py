"""The two first-principles oracles against the assembled closed forms."""

import numpy as np
import pytest

from levelcross import (
    CoefficientProfile,
    ComplexLevel,
    ContractViolationError,
    MonomialBasis,
    WeightedMonomialBasis,
    conditioned_jacobian_density,
    general_mean_density,
    moments_path_density,
    zero_mean_density,
)
from levelcross.density import _conditional_coefficient_means
from conftest import disk_point, random_level, random_mean_profile, random_zero_mean_profile, rel_dev


def test_moments_path_matches_zero_mean_closed_form(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        profile = random_zero_mean_profile(rng, n)
        basis = MonomialBasis(n - 1)
        z = disk_point(rng, 2.0)
        level = random_level(rng)
        closed = float(zero_mean_density(profile, basis, level, z).h)
        oracle = moments_path_density(profile, basis, level, z)
        worst = max(worst, rel_dev(closed, oracle))
    assert worst < 1e-9


def test_oracles_agree_with_each_other(rng):
    for _ in range(25):
        n = int(rng.integers(2, 8))
        profile = random_zero_mean_profile(rng, n)
        basis = MonomialBasis(n - 1)
        z = disk_point(rng, 2.0)
        level = random_level(rng)
        a = moments_path_density(profile, basis, level, z)
        b = conditioned_jacobian_density(profile, basis, level, z)
        assert rel_dev(a, b) < 1e-10


def test_conditioning_oracle_matches_general_mean(rng):
    # The decisive nonzero-mean check: the closed form against generic
    # linear-Gaussian conditioning.
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        profile = random_mean_profile(rng, n, mean_scale=1.5)
        basis = MonomialBasis(n - 1)
        z = disk_point(rng, 2.0)
        level = random_level(rng)
        closed = float(general_mean_density(profile, basis, level, z).h)
        oracle = conditioned_jacobian_density(profile, basis, level, z)
        worst = max(worst, rel_dev(closed, oracle))
    assert worst < 1e-9


def test_oracle_covers_weighted_basis(rng):
    for _ in range(10):
        weights = rng.uniform(0.3, 2.0, 4)
        basis = WeightedMonomialBasis(weights)
        profile = random_mean_profile(rng, 4)
        z = disk_point(rng, 1.5)
        level = random_level(rng, 1.0)
        closed = float(general_mean_density(profile, basis, level, z).h)
        oracle = conditioned_jacobian_density(profile, basis, level, z)
        assert rel_dev(closed, oracle) < 1e-9


def test_cross_covariance_vanishes_for_matched_variances(rng):
    # E(Re S * Im S) = sum (var_a - var_b) u v = 0 when var_a == var_b per index.
    for _ in range(10):
        n = int(rng.integers(2, 7))
        var = rng.uniform(0.25, 4.0, n)
        profile = CoefficientProfile(np.zeros(n), var, np.zeros(n), var)
        parts = zero_mean_density(profile, MonomialBasis(n - 1), 0j, disk_point(rng, 2.0))
        assert abs(float(parts.y2)) < 1e-12 * float(parts.y1)


def test_conditional_means_vanish_at_zero_level(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        profile = random_zero_mean_profile(rng, n)
        mean_a, mean_b = _conditional_coefficient_means(
            profile, MonomialBasis(n - 1), ComplexLevel(0, 0), disk_point(rng, 2.0)
        )
        np.testing.assert_array_equal(mean_a, np.zeros(n))
        np.testing.assert_array_equal(mean_b, np.zeros(n))


def test_conditional_means_linear_in_level(rng):
    profile = random_zero_mean_profile(rng, 4)
    basis = MonomialBasis(3)
    z = disk_point(rng, 2.0)
    a1, b1 = _conditional_coefficient_means(profile, basis, ComplexLevel(1.0, -0.5), z)
    a2, b2 = _conditional_coefficient_means(profile, basis, ComplexLevel(2.0, -1.0), z)
    np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-12)
    np.testing.assert_allclose(b2, 2.0 * b1, rtol=1e-12)


def test_moments_path_rejects_nonzero_means():
    profile = CoefficientProfile.iid(3, mu_b=0.2)
    with pytest.raises(ContractViolationError):
        moments_path_density(profile, MonomialBasis(2), 0j, 0.4 + 0.1j)


def test_high_degree_stays_conditioned(rng):
    # Degree 40: the closed form stays glued to the O(n^2) conditioning
    # oracle despite wide dynamic range.
    n = 41
    profile = random_mean_profile(rng, n, mean_scale=0.5)
    basis = MonomialBasis(n - 1)
    for _ in range(5):
        z = disk_point(rng, 1.3)
        level = random_level(rng, 1.0)
        closed = float(general_mean_density(profile, basis, level, z).h)
        oracle = conditioned_jacobian_density(profile, basis, level, z)
        assert rel_dev(closed, oracle) < 1e-9
        assert closed >= 0.0


@pytest.mark.parametrize("with_means", [False, True])
def test_high_degree_matches_oracle_across_radii(rng, with_means):
    # Degree 40 at 24 points with log-uniform radius in [0.25, 8]: the band of
    # width about 1/N around |z| = 1 and the start of the 1/|z|^4 tail, where
    # the quadratic forms span more than 70 orders of magnitude.
    n = 41
    if with_means:
        profile = CoefficientProfile(rng.uniform(-1, 1, n), rng.uniform(0.5, 2, n),
                                     rng.uniform(-1, 1, n), rng.uniform(0.5, 2, n))
    else:
        profile = random_zero_mean_profile(rng, n, 0.5, 2.0)
    basis = MonomialBasis(n - 1)
    level = ComplexLevel(1.0, 0.5)
    radius = np.exp(rng.uniform(np.log(0.25), np.log(8.0), 24))
    points = radius * np.exp(2j * np.pi * rng.uniform(size=24))
    closed = (general_mean_density if with_means else zero_mean_density)(
        profile, basis, level, points).h
    oracle = conditioned_jacobian_density if with_means else moments_path_density
    for z, h in zip(points, closed):
        assert rel_dev(h, oracle(profile, basis, level, z)) < 1e-9
