"""Winding and companion zero counters, and the Monte Carlo aggregator."""

import tracemalloc

import numpy as np
import pytest

from levelcross import (
    BoundaryHitError,
    CoefficientProfile,
    ComplexLevel,
    ConfigurationError,
    ContractViolationError,
    DiscardRateError,
    MonomialBasis,
    Rectangle,
    TabulatedBasis,
    WeightedMonomialBasis,
    companion_matrix,
    count_zeros_companion,
    count_zeros_winding,
    equal_variance_density,
    estimate_expected_count,
    general_mean_density,
    integrate_density,
    zero_mean_density,
)
import levelcross.zerocount as zerocount

SQUARE2 = Rectangle(-2, 2, -2, 2)
QUAD = MonomialBasis(2)


class TestWindingCounter:
    def test_square_level_one(self):
        eta = np.array([0.0, 0.0, 1.0], dtype=complex)  # S(z) = z^2
        assert count_zeros_winding(eta, QUAD, 1.0 + 0j, SQUARE2) == 2
        assert count_zeros_winding(eta, QUAD, 1.0 + 0j, Rectangle(0.5, 2, -0.5, 0.5)) == 1
        assert count_zeros_winding(eta, QUAD, 1.0 + 0j, Rectangle(-2, -0.5, -0.5, 0.5)) == 1
        assert count_zeros_winding(eta, QUAD, 1.0 + 0j, Rectangle(0.5, 2, 0.5, 2)) == 0

    def test_multiplicity(self):
        eta = np.array([0.0, 0.0, 1.0], dtype=complex)  # double zero at origin
        assert count_zeros_winding(eta, QUAD, 0j, SQUARE2) == 2

    def test_boundary_hit(self):
        eta = np.array([-1.0, 0.0, 1.0], dtype=complex)  # zeros at +-1
        with pytest.raises(BoundaryHitError):
            count_zeros_winding(eta, QUAD, 0j, Rectangle(-1, 1, -1, 1))

    def test_shape_check(self):
        with pytest.raises(ConfigurationError):
            count_zeros_winding(np.array([1.0, 2.0]), QUAD, 0j, SQUARE2)

    def test_nonpolynomial_basis(self):
        # exp(z) = 2 has one solution (log 2) inside the square.
        basis = TabulatedBasis([
            (lambda z: np.exp(z), lambda z: np.exp(z)),
            (lambda z: np.zeros_like(z), lambda z: np.zeros_like(z)),
        ])
        eta = np.array([1.0, 0.0], dtype=complex)
        assert count_zeros_winding(eta, basis, 2.0 + 0j, SQUARE2) == 1
        assert count_zeros_winding(eta, basis, -2.0 + 0j, SQUARE2) == 0


class TestCompanionCounter:
    def test_known_roots(self):
        coeffs = np.array([-1.0, 0.0, 1.0])  # z^2 - 1
        assert count_zeros_companion(coeffs, 0j, SQUARE2) == 2
        assert count_zeros_companion(coeffs, 0j, Rectangle(3, 4, -1, 1)) == 0

    def test_level_shift(self):
        coeffs = np.array([0.0, 0.0, 1.0])  # z^2 = 1 + 0i
        assert count_zeros_companion(coeffs, 1.0 + 0j, Rectangle(0.5, 2, -0.5, 0.5)) == 1

    def test_boundary_hit(self):
        with pytest.raises(BoundaryHitError):
            count_zeros_companion(np.array([-1.0, 0.0, 1.0]), 0j, Rectangle(-1, 1, -1, 1))

    def test_zero_leading_coefficient_and_shape(self):
        with pytest.raises(ContractViolationError):
            count_zeros_companion(np.array([1.0, 2.0, 0.0]), 0j, SQUARE2)
        with pytest.raises(ConfigurationError):
            count_zeros_companion(np.array([[1.0, 2.0]]), 0j, SQUARE2)

    def test_matrix_matches_numpy_roots(self, rng):
        for _ in range(20):
            coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
            mine = np.sort_complex(np.linalg.eigvals(companion_matrix(coeffs)))
            reference = np.sort_complex(np.roots(coeffs[::-1]))
            np.testing.assert_allclose(mine, reference, atol=1e-8)

    def test_matrix_structure(self):
        mat = companion_matrix(np.array([6.0, -5.0, 2.0]))
        np.testing.assert_allclose(mat, [[0.0, -3.0], [1.0, 2.5]])


class TestCrossOracle:
    def test_winding_equals_companion_on_random_draws(self, rng):
        basis = MonomialBasis(3)
        regions = [Rectangle(-1, 1, -1, 1), SQUARE2, Rectangle(0, 1.5, -0.7, 0.9)]
        level = ComplexLevel(0.3, 0.2)
        discarded = 0
        compared = 0
        for _ in range(300):
            eta = rng.normal(size=4) + 1j * rng.normal(size=4)
            for region in regions:
                try:
                    w = count_zeros_winding(eta, basis, level, region)
                except BoundaryHitError:
                    discarded += 1
                    continue
                compared += 1
                assert w == count_zeros_companion(eta, level, region)
        assert compared >= 890
        assert discarded < 0.01 * 900


class TestEstimator:
    def test_requires_enough_trials(self):
        with pytest.raises(ConfigurationError):
            estimate_expected_count(CoefficientProfile.iid(3), QUAD, 0j, SQUARE2, trials=50)

    def test_companion_needs_polynomial_basis(self):
        basis = TabulatedBasis([(np.exp, np.exp), (np.cosh, np.sinh)])
        with pytest.raises(ConfigurationError):
            estimate_expected_count(CoefficientProfile.iid(2), basis, 0j, SQUARE2,
                                    trials=100, method="companion")

    def test_deterministic_in_seed(self):
        profile = CoefficientProfile.iid(3)
        a = estimate_expected_count(profile, QUAD, 0j, SQUARE2, trials=500, seed=11)
        b = estimate_expected_count(profile, QUAD, 0j, SQUARE2, trials=500, seed=11)
        assert a == b
        c = estimate_expected_count(profile, QUAD, 0j, SQUARE2, trials=500, seed=12)
        assert a != c

    def test_methods_agree(self):
        profile = CoefficientProfile.iid(3)
        w = estimate_expected_count(profile, QUAD, 0j, SQUARE2, trials=300, seed=5,
                                    method="winding")
        c = estimate_expected_count(profile, QUAD, 0j, SQUARE2, trials=300, seed=5,
                                    method="companion")
        assert w.mean == c.mean and w.discarded_trials == c.discarded_trials

    def test_count_bound_and_ci_shape(self):
        profile = CoefficientProfile.iid(4)
        est = estimate_expected_count(profile, MonomialBasis(3), 0j, SQUARE2,
                                      trials=2000, seed=3)
        assert est.ci_low <= est.mean <= est.ci_high
        assert est.std_error >= 0
        assert 0.0 <= est.mean <= 3.0
        assert est.discarded_trials / est.trials < 0.01

    def test_large_square_captures_all_roots(self):
        # Degree-2 polynomial: exactly 2 zeros; the expected count over
        # [-20, 20]^2 is 2 minus a 2.05e-3 escape mass (frozen in
        # test_quadrature), so the estimate must match the quadrature target.
        profile = CoefficientProfile.iid(3)
        region = Rectangle(-20, 20, -20, 20)
        est = estimate_expected_count(profile, QUAD, 0j, region, trials=10000, seed=1)
        quadrature = integrate_density(
            lambda z: equal_variance_density(1.0, QUAD, 0j, z).h, region,
            1e-8, 1e-9, max_cells=40000,
        )
        assert abs(est.mean - 2.0) < 1e-2
        assert abs(est.mean - quadrature.value) <= 3.0 * est.std_error + quadrature.error_estimate

    def test_small_region_matches_quadrature(self):
        profile = CoefficientProfile.iid(3)
        region = Rectangle(-1, 1, -1, 1)
        est = estimate_expected_count(profile, QUAD, 0j, region, trials=10000, seed=2)
        quadrature = integrate_density(
            lambda z: equal_variance_density(1.0, QUAD, 0j, z).h, region, 1e-8, 1e-8
        )
        assert abs(est.mean - quadrature.value) <= 3.0 * est.std_error + quadrature.error_estimate

    def test_nonzero_means_match_quadrature(self):
        profile = CoefficientProfile.iid(3, mu_a=0.5, mu_b=0.5)
        region = Rectangle(-1, 1, -1, 1)
        level = ComplexLevel(1.0, 0.5)
        est = estimate_expected_count(profile, QUAD, level, region, trials=10000, seed=4)
        quadrature = integrate_density(
            lambda z: general_mean_density(profile, QUAD, level, z).h, region, 1e-8, 1e-8
        )
        assert abs(est.mean - quadrature.value) <= 3.0 * est.std_error + quadrature.error_estimate

    def test_nonpolynomial_basis_matches_quadrature(self):
        # Tabulated basis: the estimator has no companion route and must fall
        # back to the winding counter end to end.
        basis = TabulatedBasis([
            (lambda z: np.exp(z), lambda z: np.exp(z)),
            (lambda z: np.cos(z), lambda z: -np.sin(z)),
            (lambda z: z**2 + 1.0, lambda z: 2.0 * z),
        ])
        profile = CoefficientProfile.iid(3)
        region = Rectangle(-1, 1, -1, 1)
        level = ComplexLevel(0.2, -0.4)
        est = estimate_expected_count(profile, basis, level, region, trials=800, seed=6)
        quadrature = integrate_density(
            lambda z: zero_mean_density(profile, basis, level, z).h, region, 1e-8, 1e-8
        )
        assert est.discarded_trials / est.trials < 0.01
        assert abs(est.mean - quadrature.value) <= 4.0 * est.std_error + quadrature.error_estimate

    def test_zero_top_weight_lowers_the_degree(self):
        # The member 0 * z^2 vanishes identically, so the sum is the degree-1
        # polynomial of MonomialBasis(1) over the same keyed slots.
        level = ComplexLevel(0.3, 0.2)
        weighted = estimate_expected_count(CoefficientProfile.iid(3),
                                           WeightedMonomialBasis([1.0, 1.0, 0.0]), level,
                                           SQUARE2, trials=2000, seed=1)
        plain = estimate_expected_count(CoefficientProfile.iid(2), MonomialBasis(1), level,
                                        SQUARE2, trials=2000, seed=1)
        assert weighted == plain and weighted.mean > 0
        # A degree-0 remainder eta_0 - K has no zeros.
        constant = estimate_expected_count(CoefficientProfile.iid(2),
                                           WeightedMonomialBasis([1.0, 0.0]), level,
                                           SQUARE2, trials=200, seed=1)
        assert constant.mean == 0.0 and constant.discarded_trials == 0

    def test_discard_abort(self, monkeypatch):
        def always_hits(coeff_rows, level, region):
            trials = len(coeff_rows)
            return np.zeros(trials, dtype=np.int64), np.ones(trials, dtype=bool)

        monkeypatch.setattr(zerocount, "_companion_counts_batch", always_hits)
        with pytest.raises(DiscardRateError):
            estimate_expected_count(CoefficientProfile.iid(3), QUAD, 0j, SQUARE2,
                                    trials=200, seed=0)


class TestTrialBlocks:
    """Both counters count blocks of trials, possibly on several threads."""

    PROFILE = CoefficientProfile.iid(4, mu_a=0.2)
    BASIS = MonomialBasis(3)
    LEVEL = ComplexLevel(0.3, -0.2)
    REGION = Rectangle(-1, 1, -1, 1)
    TRIALS = 1037  # not a multiple of the 50-trial blocks below

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("method", ["companion", "winding"])
    def test_blocks_match_one_batch(self, monkeypatch, method, workers):
        name = f"_{method}_counts_batch"
        batch = getattr(zerocount, name)

        def with_rare_discards(rows, *args):
            # Discard about 0.5% of trials, so that misplaced discard masks
            # would change the mean.
            counts, discard = batch(rows, *args)
            return counts, discard | (rows[:, 0].real > 2.8)

        monkeypatch.setattr(zerocount, name, with_rare_discards)
        eta = zerocount._sample_coefficients(self.PROFILE, self.TRIALS, 8)
        if method == "companion":
            rows, args = self.BASIS.polynomial_coefficients(eta), ()
        else:
            rows, args = eta, (self.BASIS,)
        counts, discard = with_rare_discards(rows, *args, self.LEVEL, self.REGION)
        kept = counts[~discard].astype(np.float64)
        reference = (
            float(kept.mean()),
            float(kept.std(ddof=1) / np.sqrt(kept.size)),
            int(np.count_nonzero(discard)),
        )
        assert reference[2] > 0

        monkeypatch.setattr(zerocount, "_BLOCK_ENTRIES", 50 * 3**2)
        monkeypatch.setattr(zerocount, "_worker_count", lambda: workers)
        est = estimate_expected_count(self.PROFILE, self.BASIS, self.LEVEL, self.REGION,
                                      trials=self.TRIALS, seed=8, method=method)
        assert (est.mean, est.std_error, est.discarded_trials) == reference

    def test_block_error_propagates(self, monkeypatch):
        def broken(coeff_rows, level, region):
            raise FloatingPointError("block failed")

        monkeypatch.setattr(zerocount, "_companion_counts_batch", broken)
        monkeypatch.setattr(zerocount, "_BLOCK_ENTRIES", 50 * 3**2)
        monkeypatch.setattr(zerocount, "_worker_count", lambda: 3)
        with pytest.raises(FloatingPointError, match="block failed"):
            estimate_expected_count(self.PROFILE, self.BASIS, self.LEVEL, self.REGION,
                                    trials=self.TRIALS, seed=8)

    def test_one_block_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(zerocount, "_worker_count", lambda: 3)
        monkeypatch.setattr(zerocount, "ThreadPoolExecutor", None)
        est = estimate_expected_count(self.PROFILE, self.BASIS, self.LEVEL, self.REGION,
                                      trials=self.TRIALS, seed=8)
        assert est.trials == self.TRIALS

    def test_trials_are_counted_in_bounded_blocks(self):
        # All 20 000 degree-10 companion matrices at once take 32 MB; blocks
        # of 2**16 entries keep the peak far below that.
        tracemalloc.start()
        try:
            est = estimate_expected_count(CoefficientProfile.iid(11), MonomialBasis(10),
                                          ComplexLevel(1.0, 0.5), self.REGION,
                                          trials=20000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.trials == 20000
        assert peak < 16 * 2**20

    def test_winding_trials_are_sampled_in_bounded_blocks(self, monkeypatch):
        # Sampling all 20 000 degree-10 trials at once holds about 20 MB of
        # draws and their intermediates; blocks keep the peak far below that.
        monkeypatch.setattr(zerocount, "count_zeros_winding", lambda *args: 0)
        tracemalloc.start()
        try:
            est = estimate_expected_count(CoefficientProfile.iid(11), MonomialBasis(10),
                                          ComplexLevel(1.0, 0.5), self.REGION,
                                          trials=20000, seed=1, method="winding")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.trials == 20000 and est.mean == 0.0
        assert peak < 4 * 2**20
