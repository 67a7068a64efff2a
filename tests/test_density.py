"""Closed-form density evaluators: spot values, identities, symmetries."""

import tracemalloc

import numpy as np
import pytest

from levelcross import (
    CoefficientProfile,
    ComplexLevel,
    ConfigurationError,
    ContractViolationError,
    DegenerateCovarianceError,
    DegeneratePointError,
    MonomialBasis,
    PrefixSumBasis,
    TabulatedBasis,
    TimeGrid,
    WeightedMonomialBasis,
    brownian_density_direct,
    build_brownian_basis,
    conditioned_jacobian_density,
    equal_variance_density,
    general_mean_density,
    moments_path_density,
    zero_level_density,
    zero_mean_density,
)
import levelcross.density as density
import levelcross.numerics as numerics
from conftest import disk_point, random_level, random_mean_profile, random_zero_mean_profile, rel_dev

UNIT_PROFILE = CoefficientProfile.iid(3)
QUAD_BASIS = MonomialBasis(2)
BASIS_KINDS = ["monomial", "weighted", "prefix-sum", "tabulated"]


def basis_of_kind(kind, degree, rng):
    """A degree-``degree`` basis of each structure the shared routes tell apart.

    The weighted basis has random weights in [-2, 2] with one of them zero.
    """
    n = degree + 1
    weights = rng.uniform(-2.0, 2.0, n)
    weights[rng.integers(n)] = 0.0
    return {
        "monomial": MonomialBasis(degree),
        "weighted": WeightedMonomialBasis(weights),
        "prefix-sum": PrefixSumBasis(MonomialBasis(degree)),
        "tabulated": TabulatedBasis([(lambda z, k=k: z**k, lambda z, k=k: k * z ** max(k - 1, 0))
                                     for k in range(n)]),
    }[kind]


class TestSpotValues:
    def test_origin_density_is_one_over_pi(self):
        h = float(zero_mean_density(UNIT_PROFILE, QUAD_BASIS, ComplexLevel(0, 0), 0j).h)
        assert rel_dev(h, 1.0 / np.pi) < 1e-12

    def test_origin_density_general_level(self):
        level = ComplexLevel(0.7, -0.3)
        expected = np.exp(-(0.7**2 + 0.3**2) / 2.0) / np.pi
        h = float(zero_mean_density(UNIT_PROFILE, QUAD_BASIS, level, 0j).h)
        assert rel_dev(h, expected) < 1e-12
        h3 = float(equal_variance_density(1.0, QUAD_BASIS, level, 0j).h)
        assert rel_dev(h3, expected) < 1e-12

    def test_zero_level_spot(self):
        h = float(zero_level_density(UNIT_PROFILE, QUAD_BASIS, 0j))
        assert rel_dev(h, 1.0 / np.pi) < 1e-12


class TestReductions:
    def test_equal_variance_matches_zero_mean(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            sigma2 = float(rng.uniform(0.25, 4.0))
            profile = CoefficientProfile.iid(n, var_a=sigma2, var_b=sigma2)
            basis = MonomialBasis(n - 1)
            z = disk_point(rng, 2.0)
            level = random_level(rng)
            a = float(zero_mean_density(profile, basis, level, z).h)
            b = float(equal_variance_density(sigma2, basis, level, z).h)
            assert rel_dev(a, b) < 1e-12

    def test_equal_variance_zero_level_form(self, rng):
        # At K = 0 the braces collapse to b2 - |b1|^2 / b0.
        for _ in range(20):
            basis = MonomialBasis(int(rng.integers(2, 7)))
            z = disk_point(rng, 2.0)
            parts = equal_variance_density(1.0, basis, ComplexLevel(0, 0), z)
            expected = (parts.b2 - abs(parts.b1) ** 2 / parts.b0) / (np.pi * parts.b0)
            assert rel_dev(float(parts.h), float(expected)) < 1e-12

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_equal_variance_sums_match_direct_sums(self, rng, degree, kind):
        # B0, B1 and B2 come from the unit-variance forms of the shared
        # routes; here they are summed directly over the basis table.
        basis = basis_of_kind(kind, degree, rng)
        z = np.array([disk_point(rng, 8.0) for _ in range(500)])
        parts = equal_variance_density(1.0, basis, 1 + 0.5j, z)
        vals, derivs = basis.values_and_derivatives(z)
        direct = (
            np.sum(np.abs(vals) ** 2, axis=0),
            np.sum(np.conj(vals) * derivs, axis=0),
            np.sum(np.abs(derivs) ** 2, axis=0),
        )
        for got, ref in zip((parts.b0, parts.b1, parts.b2), direct):
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    def test_zero_level_matches_zero_mean(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            profile = random_zero_mean_profile(rng, n)
            basis = MonomialBasis(n - 1)
            z = disk_point(rng, 2.0)
            a = float(zero_mean_density(profile, basis, ComplexLevel(0, 0), z).h)
            b = float(zero_level_density(profile, basis, z))
            assert rel_dev(a, b) < 1e-12

    def test_general_mean_reduces_at_zero_means(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            profile = random_zero_mean_profile(rng, n)
            basis = MonomialBasis(n - 1)
            z = disk_point(rng, 2.0)
            level = random_level(rng)
            a = float(zero_mean_density(profile, basis, level, z).h)
            parts = general_mean_density(profile, basis, level, z)
            assert rel_dev(a, float(parts.h)) < 1e-12
            assert parts.m == 0 and parts.ex1 == 0 and parts.ex2 == 0


class TestGeneralMeanDiagnostics:
    def test_one_determinant_per_call(self, monkeypatch, rng):
        # h needs one compensated determinant.
        calls = []
        original = density.diff_of_products

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(density, "diff_of_products", counted)
        z = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        general_mean_density(random_mean_profile(rng, 4), MonomialBasis(3), random_level(rng), z)
        assert len(calls) == 1

    def test_repeated_operand_is_split_once_bit_for_bit(self, monkeypatch, rng):
        # diff_of_products(a, b, c, c) splits c once; it equals the path that
        # splits both factors of c*d, bit for bit, signs of zero included.
        size = 20000
        a, b, c = (rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-150, 150, size)
                   for _ in range(3))
        # Half the draws have a*b close to c*c, the cancelling case.
        a[::2], b[::2] = c[::2] * (1.0 + rng.uniform(-1e-8, 1e-8, size // 2)), c[::2]
        two_split = numerics.diff_of_products(a, b, c, c.copy())
        calls, two_product = [], numerics._two_product

        def counted(x, y):
            calls.append(1)
            return two_product(x, y)

        monkeypatch.setattr(numerics, "_two_product", counted)
        one_split = numerics.diff_of_products(a, b, c, c)
        assert len(calls) == 1
        np.testing.assert_array_equal(one_split.view(np.uint64), two_split.view(np.uint64))

    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_plain_forms_at_zero_means(self, rng, degree):
        # The general record holds the zero-mean plain forms, bit for bit.
        # h comes from the other assembly, so it agrees to rounding only.
        profile = random_zero_mean_profile(rng, degree + 1)
        basis = MonomialBasis(degree)
        level = random_level(rng)
        z = rng.uniform(-3, 3, 64) + 1j * rng.uniform(-3, 3, 64)
        ref = zero_mean_density(profile, basis, level, z)
        parts = general_mean_density(profile, basis, level, z)
        for name in ("y1", "y2", "y3", "d0", "d1", "d2", "d3"):
            np.testing.assert_array_equal(getattr(parts, name), getattr(ref, name))
        np.testing.assert_allclose(parts.h, ref.h, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_mean_sums_match_direct_sums(self, rng, degree, kind):
        # E(S) = ex1 + i ex2 and m come from the shared routes (on the power
        # route m through the shifted means j mu_j); here they are summed
        # directly over the basis table.  Random-sign means can cancel, so
        # the error is measured against the sum of the terms' moduli.
        basis = basis_of_kind(kind, degree, rng)
        profile = random_mean_profile(rng, degree + 1)
        mu = profile.mu_a + 1j * profile.mu_b
        z = np.array([disk_point(rng, 8.0) for _ in range(500)])
        parts = general_mean_density(profile, basis, 1 + 0.5j, z)
        vals, derivs = basis.values_and_derivatives(z)
        for got, table in ((parts.ex1 + 1j * parts.ex2, vals), (parts.m, derivs)):
            scale = np.abs(mu) @ np.abs(table)
            assert np.max(np.abs(got - mu @ table) / scale) < 1e-13

    def test_common_mean_forms(self, rng):
        # With mu_a = mu_b = mu: E(S) = mu (1 + i) sum f, and the plain
        # forms do not see the means.
        for _ in range(20):
            n = int(rng.integers(2, 7))
            mu = float(rng.uniform(-0.8, 0.8))
            var_a = rng.uniform(0.25, 4.0, n)
            var_b = rng.uniform(0.25, 4.0, n)
            profile = CoefficientProfile(mu * np.ones(n), var_a, mu * np.ones(n), var_b)
            basis = MonomialBasis(n - 1)
            z = disk_point(rng, 2.0)
            vals, _ = basis.values_and_derivatives(np.complex128(z))
            u, v = vals.real, vals.imag
            parts = general_mean_density(profile, basis, random_level(rng), z)
            assert rel_dev(float(parts.y1), np.sum(var_a * u**2 + var_b * v**2)) < 1e-12
            assert rel_dev(float(parts.y3), np.sum(var_a * v**2 + var_b * u**2)) < 1e-12
            y2_expected = np.sum((var_a - var_b) * u * v)
            assert abs(float(parts.y2) - y2_expected) < 1e-12 * (1 + abs(y2_expected))
            for got, expected in ((parts.ex1, mu * np.sum(u - v)), (parts.ex2, mu * np.sum(u + v))):
                assert abs(float(got) - expected) < 1e-12 * (1 + abs(expected))

    def test_common_variance_forms(self, rng):
        # With var_a = var_b = s2 and arbitrary means: d1 = d2 = s2 B1 and
        # d3 = 2 s2 sum |f'|^2, the unit-variance forms scaled by s2.
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s2 = float(rng.uniform(0.25, 4.0))
            profile = CoefficientProfile(
                rng.uniform(-1, 1, n), s2 * np.ones(n), rng.uniform(-1, 1, n), s2 * np.ones(n)
            )
            basis = MonomialBasis(n - 1)
            z = disk_point(rng, 2.0)
            vals, derivs = basis.values_and_derivatives(np.complex128(z))
            parts = general_mean_density(profile, basis, random_level(rng), z)
            d3_expected = 2.0 * s2 * np.sum(np.abs(derivs) ** 2)
            assert rel_dev(float(parts.d3), float(d3_expected)) < 1e-12
            b1 = np.sum(np.conj(vals) * derivs)
            for cross in (parts.d1, parts.d2):
                assert abs(complex(cross) - s2 * b1) <= 1e-12 * (1 + abs(s2 * b1))

    def test_shifted_determinant_can_lose_definiteness(self):
        # Large means push the mean-shifted matrix (y1 - ex1^2, ...) of the
        # classical display out of the PD cone; h is assembled from the plain
        # covariance and stays finite and positive.
        profile = CoefficientProfile.iid(3, var_a=0.5, var_b=0.5, mu_a=1.0, mu_b=1.0)
        parts = general_mean_density(profile, QUAD_BASIS, ComplexLevel(0, 0), 0j)
        y1, y2, y3, ex1, ex2 = (float(x) for x in (parts.y1, parts.y2, parts.y3, parts.ex1, parts.ex2))
        assert (y1 - ex1**2) * (y3 - ex2**2) - (y2 - ex1 * ex2) ** 2 < 0
        assert np.isfinite(float(parts.h)) and float(parts.h) >= 0


class TestPartsInvariants:
    def test_zero_mean_parts(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            profile = random_zero_mean_profile(rng, n)
            basis = MonomialBasis(n - 1)
            parts = zero_mean_density(profile, basis, random_level(rng), disk_point(rng, 2.0))
            y1, y2, y3, d0 = (float(parts.y1), float(parts.y2), float(parts.y3), float(parts.d0))
            assert y1 > 0 and y3 > 0 and d0 > 0
            assert y1 * y3 - y2 * y2 > 0
            assert rel_dev(d0 * d0, y1 * y3 - y2 * y2) < 1e-12

    def test_equal_variance_parts(self, rng):
        for _ in range(30):
            basis = MonomialBasis(int(rng.integers(2, 8)))
            parts = equal_variance_density(
                float(rng.uniform(0.25, 4)), basis, random_level(rng), disk_point(rng, 2.0)
            )
            b0, b2 = float(parts.b0), float(parts.b2)
            assert b0 > 0 and b2 >= 0
            assert abs(parts.b1) ** 2 <= b0 * b2 * (1 + 1e-12)


class TestSymmetries:
    def test_conjugation_symmetry_real_level(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            profile = random_zero_mean_profile(rng, n)
            basis = MonomialBasis(n - 1)
            z = disk_point(rng, 2.0)
            level = ComplexLevel(float(rng.uniform(-2, 2)), 0.0)
            a = float(zero_mean_density(profile, basis, level, z).h)
            b = float(zero_mean_density(profile, basis, level, z.conjugate()).h)
            assert abs(a - b) < 1e-10 * abs(a)

    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_point_symmetry_is_exact(self, rng, degree):
        # (-1)^j eta_j has the law of eta_j for zero means, so h(-z) = h(z);
        # the power table at -z is (-1)^j times the table at z bit for bit,
        # and the forms then agree exactly.
        profile = random_zero_mean_profile(rng, degree + 1)
        basis = MonomialBasis(degree)
        z = 8.0 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
        for evaluate in (zero_mean_density, general_mean_density):
            h = evaluate(profile, basis, 1 + 0.5j, z).h
            assert np.all(np.isfinite(h))
            assert np.array_equal(evaluate(profile, basis, 1 + 0.5j, -z).h, h)

    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_conjugation_complex_level(self, rng, degree):
        # With mu_b = 0 and a basis real on the real axis, conjugating S
        # leaves its law unchanged, so h_K(conj z) = h_conj(K)(z).
        n = degree + 1
        basis = MonomialBasis(degree)
        z = 8.0 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
        zero_mean = random_zero_mean_profile(rng, n)
        with_mu_a = CoefficientProfile(rng.uniform(-1, 1, n), zero_mean.var_a,
                                       np.zeros(n), zero_mean.var_b)
        for profile, evaluate in ((zero_mean, zero_mean_density), (with_mu_a, general_mean_density)):
            a = evaluate(profile, basis, 1 + 0.5j, np.conj(z)).h
            b = evaluate(profile, basis, 1 - 0.5j, z).h
            assert np.max(np.abs(a - b) / np.abs(b)) < 2e-10

    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_conjugation_with_imaginary_means(self, rng, degree):
        # conj S(conj z) = sum conj(eta_j) f_j(z) on a basis real on the real
        # axis, and conj(eta_j) has the means conj(mu_j) and the variances of
        # eta_j: h for (mu, K) at conj z is h for (conj mu, conj K) at z.
        # The fixture's draws read at most 4.2e-11 (N = 40).
        n = degree + 1
        z = 8.0 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
        weights = rng.uniform(0.25, 2.0, n)
        for basis in (MonomialBasis(degree), WeightedMonomialBasis(weights)):
            profile = random_mean_profile(rng, n)
            conjugate = CoefficientProfile(profile.mu_a, profile.var_a, -profile.mu_b, profile.var_b)
            a = general_mean_density(profile, basis, 1 + 0.5j, np.conj(z)).h
            b = general_mean_density(conjugate, basis, 1 - 0.5j, z).h
            assert np.max(np.abs(a - b) / np.abs(b)) < 2e-10

    @staticmethod
    def paired_cases(rng, degree):
        """(evaluate, profile, basis) for theorems 2, 4 and 5 and the weighted basis."""
        n = degree + 1
        weights = rng.uniform(0.25, 2.0, n)
        times = np.cumsum(rng.uniform(0.2, 1.0, n))
        prefix, increments = build_brownian_basis(MonomialBasis(degree), TimeGrid(times))
        return {
            "theorem-2": (zero_mean_density, random_zero_mean_profile(rng, n), MonomialBasis(degree)),
            "theorem-4": (general_mean_density, random_mean_profile(rng, n), MonomialBasis(degree)),
            "theorem-5": (zero_mean_density, increments, prefix),
            "weighted-2": (zero_mean_density, random_zero_mean_profile(rng, n),
                           WeightedMonomialBasis(weights)),
            "weighted-4": (general_mean_density, random_mean_profile(rng, n),
                           WeightedMonomialBasis(weights)),
        }

    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_mirrored_density_is_the_conjugate_pair_mean(self, rng, degree):
        # The mirrored h reuses the forms at z for both terms; the direct
        # pair evaluates h at z and at conj z.  They differ by half the
        # rounding of the conjugation identity: the fixture's draws read at
        # most 3.3e-11 (N = 40).
        z = 8.0 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
        for name, (evaluate, profile, basis) in self.paired_cases(rng, degree).items():
            mirrored = evaluate(profile, basis, 1 + 0.5j, z, mirror=True).h
            pair = 0.5 * (evaluate(profile, basis, 1 + 0.5j, z).h
                          + evaluate(profile, basis, 1 + 0.5j, np.conj(z)).h)
            assert np.max(np.abs(mirrored - pair) / np.abs(pair)) < 1e-10, name

    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_mirrored_density_of_a_conjugate_invariant_law_is_plain(self, rng, degree):
        # mu_b = 0 and a real K: the law is its own conjugate, and the
        # mirrored h is the plain h bit for bit.
        z = 8.0 * np.sqrt(rng.uniform(size=500)) * np.exp(2j * np.pi * rng.uniform(size=500))
        for name, (evaluate, profile, basis) in self.paired_cases(rng, degree).items():
            real_means = CoefficientProfile(profile.mu_a, profile.var_a,
                                            np.zeros(degree + 1), profile.var_b)
            plain = evaluate(real_means, basis, 1.0, z).h
            assert np.array_equal(evaluate(real_means, basis, 1.0, z, mirror=True).h, plain), name

    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_mirrored_density_is_the_mean_over_the_conjugate_level(self, rng, degree):
        # With real means the conjugate law differs only in the level, so the
        # pair's second term is the plain h at conj K on the same forms, bit
        # for bit, out to |z| = 20 where the quotients by d0 keep h in range.
        z = 20.0 * np.sqrt(rng.uniform(size=500)) * np.exp(2j * np.pi * rng.uniform(size=500))
        z[:4] = 20.0, -20.0, 20.0j, 14.0 + 14.0j
        cases = self.paired_cases(rng, degree)
        for name in ("theorem-2", "theorem-5", "weighted-2", "theorem-4"):
            evaluate, profile, basis = cases[name]
            profile = CoefficientProfile(profile.mu_a, profile.var_a,
                                         np.zeros(degree + 1), profile.var_b)
            mirrored = evaluate(profile, basis, 1 + 0.5j, z, mirror=True).h
            pair = 0.5 * (evaluate(profile, basis, 1 + 0.5j, z).h
                          + evaluate(profile, basis, 1 - 0.5j, z).h)
            assert np.all(np.isfinite(pair)), name
            assert np.array_equal(mirrored, pair), name

    @pytest.mark.parametrize("evaluate, profile", [
        (zero_mean_density, CoefficientProfile.iid(4, var_a=1.0, var_b=2.0)),
        (general_mean_density, CoefficientProfile([0.3, 0.0, 0.1, -0.2], 1.0, [0.1, -0.2, 0.0, 0.3], 2.0)),
    ], ids=["theorem-2", "theorem-4"])
    def test_level_free_terms_formed_once_per_pair(self, monkeypatch, evaluate, profile):
        calls = []
        original = density._level_free_quotients

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(density, "_level_free_quotients", counted)
        z = np.linspace(-2, 2, 50) + 0.5j
        evaluate(profile, MonomialBasis(3), ComplexLevel(1.0, 0.5), z, mirror=True)
        assert len(calls) == 1

    def test_rotational_symmetry_equal_variance_zero_level(self, rng):
        for _ in range(40):
            basis = MonomialBasis(int(rng.integers(2, 8)))
            sigma2 = float(rng.uniform(0.25, 4))
            z = disk_point(rng, 2.0)
            theta = float(rng.uniform(0, 2 * np.pi))
            a = float(equal_variance_density(sigma2, basis, 0j, z).h)
            b = float(equal_variance_density(sigma2, basis, 0j, abs(z) * np.exp(1j * theta)).h)
            assert abs(a - b) < 1e-10 * max(abs(a), 1e-300)

    @pytest.mark.parametrize("degree", [10, 40])
    def test_reversal_identity(self, rng, degree):
        # S(z) - K = z^N T(1/z) with T(w) = sum_{i<N} eta_{N-i} w^i + (eta_0 - K) w^N:
        # the laws reversed, with mean mu_0 - K at the top index, at level 0.
        # So h_S(z) = h_T(1/z) / |z|^4, with h_T from theorem 4.  Over these
        # 2000 points with 1 < |z| <= 8 the worst relative deviation of
        # theorems 2 and 3 measured 3.8e-12 and 5.6e-12 at N = 10, and 7.8e-11
        # and 8.0e-11 at N = 40: the direct route's rounding.
        profile, basis, level = CoefficientProfile.iid(degree + 1), MonomialBasis(degree), 1 + 0.5j
        mu_a, mu_b = profile.mu_a[::-1].copy(), profile.mu_b[::-1].copy()
        mu_a[-1] -= level.real
        mu_b[-1] -= level.imag
        reversed_profile = CoefficientProfile(mu_a, profile.var_a[::-1], mu_b, profile.var_b[::-1])
        z = np.sqrt(rng.uniform(1.0, 64.0, 2000)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2000))
        z[0] = 8.0  # the largest radius, on the real axis
        h_t = general_mean_density(reversed_profile, basis, 0.0, 1.0 / z).h / np.abs(z) ** 4
        for h_s in (zero_mean_density(profile, basis, level, z).h,
                    equal_variance_density(1.0, basis, level, z).h):
            assert np.all(np.abs(h_s - h_t) <= 1e-10 * np.maximum(np.abs(h_s), np.abs(h_t)))

    def test_nonnegativity(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            z = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)
            level = random_level(rng)
            h2 = zero_mean_density(random_zero_mean_profile(rng, n), MonomialBasis(n - 1), level, z).h
            assert np.all(h2 >= -1e-10 * (1 + np.abs(h2)))
            h4 = general_mean_density(random_mean_profile(rng, n), MonomialBasis(n - 1), level, z).h
            assert np.all(h4 >= -1e-10 * (1 + np.abs(h4)))


class TestBrownian:
    def test_direct_matches_composition(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            grid = TimeGrid(np.cumsum(rng.uniform(0.2, 1.5, n)))
            inner = MonomialBasis(n - 1)
            z = disk_point(rng, 1.5)
            level = random_level(rng, 1.0)
            basis, profile = build_brownian_basis(inner, grid)
            a = float(zero_mean_density(profile, basis, level, z).h)
            b = float(brownian_density_direct(inner, grid, level, z).h)
            assert rel_dev(a, b) < 1e-12

    def test_positive_at_spot(self):
        basis, profile = build_brownian_basis(MonomialBasis(2), TimeGrid([0.5, 1.5, 3.0]))
        h = zero_mean_density(profile, basis, ComplexLevel(0, 0), 0.2 + 0.1j).h
        assert float(h) > 0


class TestContractsAndErrors:
    def test_zero_mean_rejects_nonzero_means(self):
        profile = CoefficientProfile.iid(3, mu_a=0.5)
        with pytest.raises(ContractViolationError):
            zero_mean_density(profile, QUAD_BASIS, ComplexLevel(0, 0), 0.3j)
        with pytest.raises(ContractViolationError):
            zero_level_density(profile, QUAD_BASIS, 0.3j)

    def test_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            zero_mean_density(CoefficientProfile.iid(4), QUAD_BASIS, 0j, 0.1j)

    def test_degenerate_point(self):
        # All members share a zero at z = 0.
        shared_zero = TabulatedBasis([
            (lambda z: z, lambda z: np.ones_like(z)),
            (lambda z: z**2, lambda z: 2.0 * z),
        ])
        with pytest.raises(DegenerateCovarianceError):
            zero_mean_density(CoefficientProfile.iid(2), shared_zero, 0j, 0.0j)
        with pytest.raises(DegeneratePointError):
            equal_variance_density(1.0, shared_zero, 0j, 0.0j)

    def test_no_overflow_at_degree_40_far_out(self, rng):
        # d0^3 = d0*det is out of double range here; the assembly divides
        # before it multiplies.
        profile = random_zero_mean_profile(rng, 41, 0.5, 2.0)
        basis = MonomialBasis(40)
        level = ComplexLevel(1.0, 0.5)
        z = 20.0 + 20.0j
        with np.errstate(over="raise", invalid="raise"):
            h = float(zero_mean_density(profile, basis, level, z).h)
        assert rel_dev(h, moments_path_density(profile, basis, level, z)) < 1e-9

    def test_general_mean_no_overflow_at_degree_40_far_out(self, rng):
        # |d1|^2 * (y2 + y3) is out of double range here; the trace term
        # divides each factor by d0 first, as the zero-mean assembly does.
        n = 41
        profile = CoefficientProfile(rng.uniform(-1, 1, n), rng.uniform(0.5, 2, n),
                                     rng.uniform(-1, 1, n), rng.uniform(0.5, 2, n))
        basis = MonomialBasis(40)
        level = ComplexLevel(1.0, 0.5)
        z = 20.0 * np.exp(0.7j)
        with np.errstate(over="raise", invalid="raise"):
            h = float(general_mean_density(profile, basis, level, z).h)
        assert np.isfinite(h)
        assert rel_dev(h, conditioned_jacobian_density(profile, basis, level, z)) < 1e-9

    @pytest.mark.parametrize("radius", [20.0, 25.0])
    def test_zero_level_no_overflow_at_degree_40_far_out(self, rng, radius):
        # det*d3 and d0*det are out of double range here; the rational form
        # divides each factor by d0 first.
        profile = random_zero_mean_profile(rng, 41, 0.5, 2.0)
        basis = MonomialBasis(40)
        z = radius * np.exp(0.7j)
        with np.errstate(over="raise", invalid="raise"):
            h = float(zero_level_density(profile, basis, z))
            ref = float(zero_mean_density(profile, basis, ComplexLevel(0, 0), z).h)
        assert np.isfinite(h)
        assert rel_dev(h, ref) < 1e-9

    @pytest.mark.parametrize("radius", [10.0, 20.0, 28.0])
    def test_equal_variance_no_overflow_at_degree_80(self, radius):
        # |B1|^2 and B0^2 are out of double range here.  Scaling every f_j
        # and the level by one factor c leaves h unchanged, and c = r^-80
        # keeps every sum in range.
        level = ComplexLevel(1.0, 0.5)
        z = radius * np.exp(0.7j)
        c = radius**-80
        with np.errstate(over="raise", invalid="raise"):
            h = float(equal_variance_density(1.0, MonomialBasis(80), level, z).h)
            scaled = float(equal_variance_density(
                1.0, WeightedMonomialBasis([c] * 81), ComplexLevel(c, 0.5 * c), z).h)
        assert np.isfinite(h)
        assert rel_dev(h, scaled) < 1e-8

    def test_density_is_evaluated_in_bounded_blocks(self, rng):
        # One full (terms, products, points) array at degree 40 on 10 000
        # points would take 10 000 * 41 * 64 bytes; blockwise evaluation
        # keeps the peak well below it.
        profile = random_zero_mean_profile(rng, 41, 0.5, 2.0)
        basis = MonomialBasis(40)
        z = rng.uniform(-2, 2, (100, 100)) + 1j * rng.uniform(-2, 2, (100, 100))
        tracemalloc.start()
        try:
            h = zero_mean_density(profile, basis, 1 + 0.5j, z).h
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.shape == z.shape
        assert peak < z.size * 41 * 64
        for idx in ((0, 0), (57, 31), (99, 99)):
            single = zero_mean_density(profile, basis, 1 + 0.5j, z[idx]).h
            assert rel_dev(h[idx], single) < 1e-14

    def test_vectorized_matches_scalar(self, rng):
        profile = random_zero_mean_profile(rng, 4)
        basis = MonomialBasis(3)
        level = random_level(rng)
        z = rng.uniform(-2, 2, (3, 5)) + 1j * rng.uniform(-2, 2, (3, 5))
        h_grid = zero_mean_density(profile, basis, level, z).h
        assert h_grid.shape == z.shape
        for idx in np.ndindex(z.shape):
            assert rel_dev(h_grid[idx], float(zero_mean_density(profile, basis, level, z[idx]).h)) < 1e-14


class TestPowerRoute:
    """The power route of the monomial families against the general route.

    ``_product_forms`` forms every value/derivative product of any basis.
    Patched in as ``_basis_forms``, it is the reference for the power route
    on the same ``MonomialBasis``, and for the weights of a
    ``WeightedMonomialBasis`` folded into the variances and means.
    """

    @staticmethod
    def _compare_routes(monkeypatch, rng, profile, basis, means):
        # 12 001 points span at least two power-route blocks at every degree,
        # with a partial last block (5461, 1489 and 399 points per block).
        size = 12_001
        z = np.exp(rng.uniform(np.log(0.05), np.log(8.0), size) + 1j * rng.uniform(0, 2 * np.pi, size))
        evaluate = general_mean_density if means else zero_mean_density
        mu = np.stack((profile.mu_a, profile.mu_b)) if means else None

        def route_forms():
            forms, mean_sums = density._quadratic_forms(profile, basis, z, mu)
            if not means:
                return forms
            (ea, eb), (ma, mb) = mean_sums
            ex = ea + 1j * eb
            return (*forms, ex.real, ex.imag, ma + 1j * mb)

        got = route_forms()
        h_got = evaluate(profile, basis, 1 + 0.5j, z).h
        with monkeypatch.context() as patch:
            patch.setattr(density, "_basis_forms", density._product_forms)
            ref = route_forms()
            h_ref = evaluate(profile, basis, 1 + 0.5j, z).h
        names = ("y1", "y2", "y3", "det", "d0", "d1", "d2", "d3") + (("ex1", "ex2", "m") if means else ())
        got, ref = dict(zip(names, got)), dict(zip(names, ref))

        # Natural scales: the sums of the magnitudes of the terms.
        vals, derivs = basis.values_and_derivatives(z)
        va, vb = profile.var_a, profile.var_b
        mu = np.abs(profile.mu_a + 1j * profile.mu_b)
        scale = {
            "y2": np.abs(va - vb) @ np.abs(vals.real * vals.imag),
            "d1": (va + vb) @ (np.abs(vals) * np.abs(derivs)),
            "ex": mu @ np.abs(vals),
            "m": mu @ np.abs(derivs),
        }
        scale["d2"] = scale["d1"]
        for name in ("y1", "y3", "d3", "d0"):
            assert np.max(np.abs(got[name] - ref[name]) / ref[name]) < 1e-14, name
        for name in ("y2", "d1", "d2") + (("m",) if means else ()):
            assert np.max(np.abs(got[name] - ref[name]) / scale[name]) < 1e-13, name
        if means:
            ex_got, ex_ref = got["ex1"] + 1j * got["ex2"], ref["ex1"] + 1j * ref["ex2"]
            assert np.max(np.abs(ex_got - ex_ref) / scale["ex"]) < 1e-13
        assert np.max(np.abs(h_got - h_ref) / np.abs(h_ref)) < 1e-9

    @pytest.mark.parametrize("means", [False, True])
    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_power_route_matches_general_route(self, monkeypatch, rng, degree, means):
        n = degree + 1
        profile = random_mean_profile(rng, n) if means else random_zero_mean_profile(rng, n)
        self._compare_routes(monkeypatch, rng, profile, MonomialBasis(degree), means)

    @pytest.mark.parametrize("means", [False, True])
    @pytest.mark.parametrize("degree", [2, 10, 40])
    def test_weight_fold_matches_general_route(self, monkeypatch, rng, degree, means):
        n = degree + 1
        profile = random_mean_profile(rng, n) if means else random_zero_mean_profile(rng, n)
        # One zero weight and one negative weight among positive ones.
        weights = rng.uniform(0.25, 2.0, n)
        zero, negative = rng.choice(n, 2, replace=False)
        weights[zero], weights[negative] = 0.0, -weights[negative]
        self._compare_routes(monkeypatch, rng, profile, WeightedMonomialBasis(weights), means)

    def test_power_route_forms_no_derivative_products(self, monkeypatch, rng):
        def products_formed(*args):
            raise RuntimeError("value/derivative products formed")

        values_and_derivatives = MonomialBasis.values_and_derivatives

        def values_only(self, z, derivatives=True):
            if derivatives:
                raise RuntimeError("derivative rows formed")
            return values_and_derivatives(self, z, derivatives=False)

        monkeypatch.setattr(density, "_weighted_sums", products_formed)
        monkeypatch.setattr(MonomialBasis, "values_and_derivatives", values_only)
        zero_mean, with_means = random_zero_mean_profile(rng, 4), random_mean_profile(rng, 4)
        z = np.array([0.3 + 0.2j, -1.5 + 0.7j])
        for basis in (MonomialBasis(3), WeightedMonomialBasis([0.5, 0.0, -2.0, 1.5])):
            assert np.all(np.isfinite(zero_mean_density(zero_mean, basis, 1j, z).h))
            assert np.all(np.isfinite(general_mean_density(with_means, basis, 1j, z).h))
            assert np.all(np.isfinite(equal_variance_density(1.0, basis, 1j, z).h))
        tabulated = TabulatedBasis([(lambda z, k=k: z**k, lambda z, k=k: k * z ** max(k - 1, 0))
                                    for k in range(4)])
        with pytest.raises(RuntimeError, match="products formed"):
            zero_mean_density(zero_mean, tabulated, 1j, z)
        with pytest.raises(RuntimeError, match="products formed"):
            general_mean_density(with_means, tabulated, 1j, z)
        with pytest.raises(RuntimeError, match="products formed"):
            equal_variance_density(1.0, tabulated, 1j, z)
