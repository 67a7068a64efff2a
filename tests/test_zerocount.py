"""Winding and companion zero counters, and the Monte Carlo aggregator."""

import dataclasses
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
    standard_normal_block,
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

    def test_chunks_count_as_single_rows(self, monkeypatch, rng):
        # The batch builds its companion matrices in chunks of _BLOCK_ENTRIES
        # entries.  Patched down to three degree-4 matrices, rows 2 | 3 and
        # 5 | 6 straddle chunk borders: rows 2 and 3 have a root 1e-10
        # outside and inside the edge x = 1, rows 5 and 6 a zero leading
        # coefficient.
        level, region, degree = 0.3 - 0.2j, Rectangle(-1, 1, -1, 1), 4
        rows = rng.normal(size=(11, degree + 1)) + 1j * rng.normal(size=(11, degree + 1))
        for row, x in ((2, 1 + 1e-10), (3, 1 - 1e-10)):
            others = rng.uniform(-2, 2, degree - 1) + 1j * rng.uniform(-2, 2, degree - 1)
            rows[row] = np.poly(np.concatenate(([x + 0.3j], others)))[::-1]
            rows[row, 0] += level
        rows[5:7, -1] = 0
        counts, discard = zerocount._companion_counts_batch(rows, level, region)
        monkeypatch.setattr(zerocount, "_BLOCK_ENTRIES", 3 * degree**2)
        chunked_counts, chunked_discard = zerocount._companion_counts_batch(rows, level, region)
        np.testing.assert_array_equal(chunked_counts, counts)
        np.testing.assert_array_equal(chunked_discard, discard)
        assert np.array_equal(np.flatnonzero(discard), [2, 3, 5, 6])
        for row, count, discarded in zip(rows, counts, discard):
            if discarded:
                with pytest.raises((BoundaryHitError, ContractViolationError)):
                    count_zeros_companion(row, level, region)
            else:
                assert count_zeros_companion(row, level, region) == count


class TestRootsCounter:
    """The certified roots route counts and discards each trial as the companion does."""

    LEVEL = ComplexLevel(1.0, 0.5)
    # The last region crosses the ring |z| ~ 1 where the roots gather.
    REGIONS = [Rectangle(-1, 1, -1, 1), Rectangle(-2.5, 0.5, -3, 0.2), Rectangle(0, 1.5, -0.5, 1)]
    PROFILES = {
        "iid": lambda n: (CoefficientProfile.iid(n + 1), MonomialBasis(n)),
        "means": lambda n: (CoefficientProfile(np.linspace(-1, 1, n + 1),
                                               np.linspace(0.2, 3, n + 1),
                                               np.linspace(0.5, -0.5, n + 1),
                                               np.linspace(2, 0.05, n + 1)),
                            MonomialBasis(n)),
        "weighted": lambda n: (CoefficientProfile.iid(n + 1, var_a=0.5, var_b=2.0),
                               WeightedMonomialBasis(1.0 / np.sqrt(np.arange(1, n + 2)))),
    }

    @staticmethod
    def assert_counted_alike(rows, level, region):
        counts, discard, fallback = zerocount._root_counts_batch(rows, level, region)
        expected_counts, expected_discard = zerocount._companion_counts_batch(rows, level, region)
        np.testing.assert_array_equal(counts, expected_counts)
        np.testing.assert_array_equal(discard, expected_discard)
        return fallback

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("degree", [1, 2, 3, 10, 40])
    def test_seeded_blocks_match_companion(self, degree, profile):
        model_profile, basis = self.PROFILES[profile](degree)
        trials = 100 if degree == 40 else 400
        eta = zerocount._sample_coefficients(model_profile, trials, 17 + degree)
        rows = basis.polynomial_coefficients(eta)
        for region in self.REGIONS:
            fallback = self.assert_counted_alike(rows, self.LEVEL, region)
            # Degree 1 is counted by its 1 x 1 companion matrix; from degree 2
            # the certificate must take almost every row.
            assert fallback == trials if degree == 1 else fallback <= trials // 50

    def test_seeded_block_above_degree_40_matches_companion(self):
        model_profile, basis = self.PROFILES["iid"](80)
        eta = zerocount._sample_coefficients(model_profile, 24, 80)
        rows = basis.polynomial_coefficients(eta)
        assert self.assert_counted_alike(rows, self.LEVEL, self.REGIONS[2]) <= 1

    @staticmethod
    def planted(roots, rng, extra=6):
        """Rows of the monic polynomials with the given roots plus random ones."""
        rows = []
        for planted_roots in roots:
            others = rng.normal(size=extra) + 1j * rng.normal(size=extra)
            rows.append(np.poly(np.concatenate([planted_roots, others]))[::-1])
        return np.array(rows)

    # 3e-9 and 1e-8 lie just outside the certificate's 2e-9 margin, where a
    # looser Aberth stop would first show up as larger disks.
    @pytest.mark.parametrize("gap", [1e-10, 3e-9, 1e-8, 1e-6, 1e-3])
    def test_root_near_an_edge(self, gap, rng):
        region = Rectangle(-1, 1, -1, 1)
        # Inside the right edge, below the bottom edge, above the top edge.
        rows = self.planted([[1.0 - gap + 0.3j], [-0.2 - 1j - 1j * gap], [0.5 + 1j + 1j * gap]],
                            rng)
        fallback = self.assert_counted_alike(rows, 0j, region)
        assert fallback == (len(rows) if gap < zerocount._EIGEN_BOUNDARY_TOL else 0)

    @pytest.mark.parametrize("roots", [[0.3 + 0.2j, 0.3 + 0.2j],
                                       0.5 - 0.4j + 1e-9 * np.exp(2j * np.pi * np.arange(3) / 3)],
                             ids=["double", "cluster"])
    def test_double_root_and_cluster_fall_back(self, roots, rng):
        rows = self.planted([roots] * 5, rng)
        assert self.assert_counted_alike(rows, 0j, Rectangle(-1, 1, -1, 1)) == len(rows)

    def test_degree_zero_and_zero_leading_coefficient(self, rng):
        region = Rectangle(-1, 1, -1, 1)
        constant = np.array([[0.5 + 0.5j], [1.0 + 0.5j], [-2.0]])
        self.assert_counted_alike(constant, self.LEVEL, region)
        rows = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        rows[::2, -1] = 0.0
        self.assert_counted_alike(rows, self.LEVEL, region)
        _, discard, fallback = zerocount._root_counts_batch(rows, self.LEVEL, region)
        np.testing.assert_array_equal(discard, [True, False] * 3)
        assert fallback >= 3

    def test_edge_distance_bounds_the_boundary_distance(self, rng):
        region = Rectangle(-1, 1.5, -0.5, 2)
        z = 3 * rng.normal(size=(7, 300)) + 3j * rng.normal(size=(7, 300))
        out, work = np.empty(z.shape), np.empty(z.shape)
        gap = zerocount._edge_distance(z, region, out, work)
        exact = region.boundary_distance(z)
        inside = region.contains(z)
        assert gap is out and 0 < inside.sum() < z.size
        np.testing.assert_array_equal(gap[inside], exact[inside])
        assert np.all(gap[~inside] <= exact[~inside])


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

    @pytest.mark.parametrize("family", [MonomialBasis, TabulatedBasis])
    def test_winding_asks_for_values_only(self, family, monkeypatch, rng):
        # The boundary table needs f_j alone; derivative rows would be dropped.
        values_and_derivatives = family.values_and_derivatives

        def values_only(self, z, derivatives=True):
            if derivatives:
                raise RuntimeError("derivative rows formed")
            return values_and_derivatives(self, z, derivatives=False)

        monkeypatch.setattr(family, "values_and_derivatives", values_only)
        if family is MonomialBasis:
            basis = MonomialBasis(3)
        else:
            basis = TabulatedBasis([(lambda z, k=k: z**k, lambda z, k=k: k * z ** max(k - 1, 0))
                                    for k in range(4)])
        level, region = ComplexLevel(0.3, 0.2), Rectangle(0, 1.5, -0.7, 0.9)
        for _ in range(20):
            eta = rng.normal(size=4) + 1j * rng.normal(size=4)
            try:
                count = count_zeros_winding(eta, basis, level, region)
            except BoundaryHitError:
                continue
            assert count == count_zeros_companion(eta, level, region)


class TestEstimator:
    def test_coefficients_equal_the_complex_sum_bit_for_bit(self):
        # Means and unequal variances on both parts; a block away from trial 0.
        profile = CoefficientProfile(np.linspace(-1, 1, 11), np.linspace(0.2, 3, 11),
                                     np.linspace(0.5, -0.5, 11), np.linspace(2, 0.05, 11))
        block = standard_normal_block(23, 400, 22, first_trial=1000)
        a = profile.mu_a[None, :] + np.sqrt(profile.var_a)[None, :] * block[:, 0::2]
        b = profile.mu_b[None, :] + np.sqrt(profile.var_b)[None, :] * block[:, 1::2]
        eta = zerocount._sample_coefficients(profile, 400, 23, first_trial=1000)
        assert eta.shape == (400, 11) and eta.dtype == np.complex128
        np.testing.assert_array_equal(np.ascontiguousarray(eta).view(np.uint64),
                                      (a + 1j * b).view(np.uint64))

    def test_requires_enough_trials(self):
        with pytest.raises(ConfigurationError):
            estimate_expected_count(CoefficientProfile.iid(3), QUAD, 0j, SQUARE2, trials=50)

    @pytest.mark.parametrize("size", [2, 6])
    @pytest.mark.parametrize("basis", [QUAD, WeightedMonomialBasis([1.0, 2.0, 3.0])],
                             ids=["monomial", "weighted"])
    @pytest.mark.parametrize("method", ["auto", "companion", "winding"])
    def test_profile_size_must_match_the_basis(self, method, basis, size):
        # Three basis members against two or six laws: no counter may count
        # a polynomial of another degree or fail inside numpy.
        with pytest.raises(ConfigurationError, match="profile has"):
            estimate_expected_count(CoefficientProfile.iid(size), basis, 0.5 + 0j, SQUARE2,
                                    trials=200, method=method)

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
        assert (w.method, c.method) == ("winding", "companion")

    @pytest.mark.parametrize("profile, basis", [
        (CoefficientProfile.iid(11), MonomialBasis(10)),
        (CoefficientProfile(np.linspace(-1, 1, 5), np.linspace(3, 0.01, 5), 0.5,
                            np.linspace(0.1, 2, 5)), MonomialBasis(4)),
        (CoefficientProfile.iid(7), WeightedMonomialBasis([3.0, 1.0, 0.5, 2.0, 1.0, 0.2, 0.7])),
    ], ids=["iid", "means", "weighted"])
    def test_auto_counts_roots_as_the_companion_does(self, profile, basis):
        level, region = ComplexLevel(1.0, 0.5), Rectangle(0, 1.5, -0.5, 1)
        auto = estimate_expected_count(profile, basis, level, region, trials=3000, seed=9)
        companion = estimate_expected_count(profile, basis, level, region, trials=3000, seed=9,
                                            method="companion")
        assert (auto.method, companion.method, companion.fallback_trials) == ("roots", "companion", 0)
        assert 0 <= auto.fallback_trials <= 30
        assert dataclasses.replace(auto, method="companion", fallback_trials=0) == companion

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
        # ``auto`` counts a polynomial basis on the roots route.
        def always_hits(coeff_rows, level, region):
            trials = len(coeff_rows)
            return np.zeros(trials, dtype=np.int64), np.ones(trials, dtype=bool), 0

        monkeypatch.setattr(zerocount, "_root_counts_batch", always_hits)
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
    BLOCK_ROOTS = zerocount._BLOCK_ROOTS
    PEAK_MB = 2.91

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("method", ["roots", "companion", "winding"])
    def test_blocks_match_one_batch(self, monkeypatch, method, workers):
        name = "_root_counts_batch" if method == "roots" else f"_{method}_counts_batch"
        batch = getattr(zerocount, name)

        def with_rare_discards(rows, *args):
            # Discard about 0.5% of trials, so that misplaced discard masks
            # would change the mean.
            counts, discard, *fallback = batch(rows, *args)
            return (counts, discard | (rows[:, 0].real > 2.8), *fallback)

        monkeypatch.setattr(zerocount, name, with_rare_discards)
        eta = zerocount._sample_coefficients(self.PROFILE, self.TRIALS, 8)
        if method == "winding":
            rows, args = eta, (self.BASIS,)
        else:
            rows, args = self.BASIS.polynomial_coefficients(eta), ()
        counts, discard, *_ = with_rare_discards(rows, *args, self.LEVEL, self.REGION)
        kept = counts[~discard].astype(np.float64)
        reference = (
            float(kept.mean()),
            float(kept.std(ddof=1) / np.sqrt(kept.size)),
            int(np.count_nonzero(discard)),
        )
        assert reference[2] > 0

        monkeypatch.setattr(zerocount, "_BLOCK_ENTRIES", 50 * 3**2)
        monkeypatch.setattr(zerocount, "_BLOCK_ROOTS", 50 * 3)
        monkeypatch.setattr(zerocount, "_worker_count", lambda: workers)
        est = estimate_expected_count(self.PROFILE, self.BASIS, self.LEVEL, self.REGION,
                                      trials=self.TRIALS, seed=8,
                                      method="auto" if method == "roots" else method)
        assert (est.mean, est.std_error, est.discarded_trials) == reference
        assert est.method == method

    def test_block_error_propagates(self, monkeypatch):
        def broken(coeff_rows, level, region):
            raise FloatingPointError("block failed")

        monkeypatch.setattr(zerocount, "_root_counts_batch", broken)
        monkeypatch.setattr(zerocount, "_BLOCK_ROOTS", 50 * 3)
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

    @pytest.mark.parametrize("profile", ["iid", "means"])
    @pytest.mark.parametrize("degree, trials", [(3, 3000), (10, 2000), (40, 400)])
    def test_roots_estimate_ignores_blocks_and_workers(self, monkeypatch, degree, trials, profile):
        model_profile, basis = TestRootsCounter.PROFILES[profile](degree)
        seen = set()
        for block_roots in (2**10, 2**13, self.BLOCK_ROOTS):
            for workers in (1, 2):
                monkeypatch.setattr(zerocount, "_BLOCK_ROOTS", block_roots)
                monkeypatch.setattr(zerocount, "_worker_count", lambda: workers)
                est = estimate_expected_count(model_profile, basis, TestRootsCounter.LEVEL,
                                              self.REGION, trials=trials, seed=degree)
                assert est.method == "roots"
                seen.add((est.mean, est.std_error, est.discarded_trials, est.fallback_trials))
        assert len(seen) == 1

    def test_two_workers_keep_lean_block_scratch(self, monkeypatch):
        # With blocks of 2**13 roots and fresh temporaries every sweep, this
        # estimate peaked at 3.68-3.91 MB on two workers.  The block scratch
        # reused by every sweep holds blocks of 2**14 roots in 2.85-2.97 MB;
        # the bound allows 25% over PEAK_MB, their median.
        monkeypatch.setattr(zerocount, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            est = estimate_expected_count(CoefficientProfile.iid(11), MonomialBasis(10),
                                          ComplexLevel(1.0, 0.5), self.REGION,
                                          trials=20000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.trials == 20000 and est.method == "roots"
        assert peak < 1.25 * self.PEAK_MB * 2**20

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
