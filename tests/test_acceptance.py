"""Acceptance suite: one printed pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 3's tail-increment clause is expected to fail for uniform unit
variances: the density of a degree-N monomial sum decays like 1/(pi |z|^4)
regardless of N, so enlarging [-20, 20]^2 to [-40, 40]^2 picks up
(1/2 + 1/pi) * 3 / 1600 = 1.53e-3 of expected-count mass, above the 1e-3
bound asserted here.  The measured values are printed by the failing test;
configurations with variance mass concentrated on the top coefficients
satisfy the bound and are included to show both regimes.
"""

import time

import numpy as np

from levelcross import (
    CoefficientProfile,
    ComplexLevel,
    MonomialBasis,
    Rectangle,
    TimeGrid,
    brownian_density_direct,
    build_brownian_basis,
    equal_variance_density,
    estimate_expected_count,
    general_mean_density,
    integrate_density,
    moments_path_density,
    zero_level_density,
    zero_mean_density,
)
from conftest import disk_point, rel_dev


def _report(name: str, passed: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


def _disk_level(rng, radius=2.0) -> ComplexLevel:
    return ComplexLevel.from_complex(disk_point(rng, radius))


# ---------------------------------------------------------------------------
# 1. Reduction chain
# ---------------------------------------------------------------------------


def test_criterion_1_reduction_chain():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_mean_reduction = worst_equal_variance = worst_zero_level = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        basis = MonomialBasis(n - 1)
        z = disk_point(rng, 2.0)
        level = _disk_level(rng)
        zero_profile = CoefficientProfile(
            np.zeros(n), rng.uniform(0.25, 4.0, n), np.zeros(n), rng.uniform(0.25, 4.0, n)
        )
        h_zero_mean = float(zero_mean_density(zero_profile, basis, level, z).h)
        worst_mean_reduction = max(
            worst_mean_reduction,
            rel_dev(h_zero_mean, float(general_mean_density(zero_profile, basis, level, z).h)),
        )
        sigma2 = float(rng.uniform(0.25, 4.0))
        equal_profile = CoefficientProfile.iid(n, var_a=sigma2, var_b=sigma2)
        worst_equal_variance = max(
            worst_equal_variance,
            rel_dev(
                float(zero_mean_density(equal_profile, basis, level, z).h),
                float(equal_variance_density(sigma2, basis, level, z).h),
            ),
        )
        worst_zero_level = max(
            worst_zero_level,
            rel_dev(
                float(zero_mean_density(zero_profile, basis, ComplexLevel(0, 0), z).h),
                float(zero_level_density(zero_profile, basis, z)),
            ),
        )
    elapsed = time.perf_counter() - start
    worst = max(worst_mean_reduction, worst_equal_variance, worst_zero_level)
    ok = worst < 1e-12 and elapsed < 1.0
    assert _report(
        "criterion 1 (reduction chain, 100 configs)",
        ok,
        f"max rel dev {worst:.2e} (tol 1e-12), runtime {elapsed:.2f}s (< 1s)",
    )


# ---------------------------------------------------------------------------
# 2. Conditional-moment oracle
# ---------------------------------------------------------------------------


def test_criterion_2_moments_path_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        profile = CoefficientProfile(
            np.zeros(n), rng.uniform(0.25, 4.0, n), np.zeros(n), rng.uniform(0.25, 4.0, n)
        )
        basis = MonomialBasis(n - 1)
        z = disk_point(rng, 2.0)
        level = _disk_level(rng)
        worst = max(
            worst,
            rel_dev(
                float(zero_mean_density(profile, basis, level, z).h),
                moments_path_density(profile, basis, level, z),
            ),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    assert _report(
        "criterion 2 (moments-path oracle, 50 configs)",
        ok,
        f"max rel dev {worst:.2e} (tol 1e-9), runtime {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 3. Total-count law
# ---------------------------------------------------------------------------

_TOTAL_COUNT_CONFIGS = [
    ("N=2 uniform var 1", CoefficientProfile.iid(3), 2, ComplexLevel(0, 0)),
    ("N=3 uniform var 1", CoefficientProfile.iid(4), 3, ComplexLevel(0.6, 0.8)),
    (
        "N=2 top-weighted",
        CoefficientProfile(np.zeros(3), [0.25, 1.0, 4.0], np.zeros(3), [0.36, 1.44, 3.24]),
        2,
        ComplexLevel(0.6, 0.8),
    ),
    (
        "N=3 top-weighted",
        CoefficientProfile(np.zeros(4), [0.25, 0.5, 1.0, 4.0], np.zeros(4), [0.25, 0.6, 1.1, 3.9]),
        3,
        ComplexLevel(0, 0),
    ),
]

_total_count_cache: dict = {}


def _total_count_results():
    if not _total_count_cache:
        start = time.perf_counter()
        rows = []
        for name, profile, degree, level in _TOTAL_COUNT_CONFIGS:
            basis = MonomialBasis(degree)
            field = lambda z: zero_mean_density(profile, basis, level, z).h
            inner = integrate_density(field, Rectangle(-20, 20, -20, 20),
                                      1e-8, 1e-10, max_cells=60000)
            outer = integrate_density(field, Rectangle(-40, 40, -40, 40),
                                      1e-8, 1e-10, max_cells=60000)
            rows.append((name, degree, inner, outer))
        _total_count_cache["rows"] = rows
        _total_count_cache["elapsed"] = time.perf_counter() - start
    return _total_count_cache["rows"], _total_count_cache["elapsed"]


def test_criterion_3_total_count_law():
    rows, elapsed = _total_count_results()
    deviations = {name: abs(inner.value - degree) for name, degree, inner, _ in rows}
    converged = all(inner.converged and outer.converged for _, _, inner, outer in rows)
    worst = max(deviations.values())
    ok = converged and worst < 1e-2 and elapsed < 60.0
    assert _report(
        "criterion 3a (total-count law over [-20,20]^2)",
        ok,
        f"max |integral - N| = {worst:.2e} (tol 1e-2), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_tail_increment_bound():
    rows, _ = _total_count_results()
    increments = {name: outer.value - inner.value for name, _, inner, outer in rows}
    detail = ", ".join(f"{name}: {inc:.3e}" for name, inc in increments.items())
    ok = all(inc < 1e-3 for inc in increments.values())
    assert _report(
        "criterion 3b (enlargement increment < 1e-3)", ok, detail
    ), (
        "the enlargement increment exceeds 1e-3 for uniform variances; the "
        "1/(pi|z|^4) density tail makes the exact increment "
        "(1/2 + 1/pi) * 3/1600 = 1.53e-3 there, so the stated bound is not "
        f"attainable for those configurations (measured: {detail})"
    )


# ---------------------------------------------------------------------------
# 4. Monte Carlo vs quadrature grid
# ---------------------------------------------------------------------------


def _mc_grid_configs():
    equal = dict(var_a=(1.0, 1.0, 1.0), var_b=(1.0, 1.0, 1.0))
    unequal = dict(var_a=(1.5, 0.6, 1.1), var_b=(0.8, 1.3, 0.7))
    t_near = Rectangle(-1, 1, -1, 1)
    t_offset = Rectangle(0, 2, -1, 1)
    k_zero = ComplexLevel(0, 0)
    k_off = ComplexLevel(1.0, 0.5)
    grid = [
        (variances, level, mean, t_near)
        for variances in (equal, unequal)
        for level in (k_zero, k_off)
        for mean in (False, True)
    ]
    grid += [
        (equal, k_zero, False, t_offset),
        (unequal, k_off, True, t_offset),
        (equal, k_off, True, t_offset),
        (unequal, k_zero, False, t_offset),
    ]
    return grid


def _density_field(profile, basis, level):
    sigma2 = profile.equal_variance()
    if not profile.has_zero_means:
        return lambda z: general_mean_density(profile, basis, level, z).h
    if sigma2 is not None:
        return lambda z: equal_variance_density(sigma2, basis, level, z).h
    return lambda z: zero_mean_density(profile, basis, level, z).h


def test_criterion_4_mc_quadrature_agreement():
    start = time.perf_counter()
    basis = MonomialBasis(2)
    hits = 0
    z_scores = []
    for i, (variances, level, mean, region) in enumerate(_mc_grid_configs()):
        mu = 0.5 if mean else 0.0
        profile = CoefficientProfile(
            mu * np.ones(3), variances["var_a"], mu * np.ones(3), variances["var_b"]
        )
        quad = integrate_density(_density_field(profile, basis, level), region, 1e-7, 1e-7)
        mc = estimate_expected_count(profile, basis, level, region,
                                     trials=10000, seed=2024 + i)
        z_scores.append((quad.value - mc.mean) / mc.std_error)
        hits += mc.ci_low <= quad.value <= mc.ci_high
    elapsed = time.perf_counter() - start
    max_abs_z = max(abs(z) for z in z_scores)
    ok = hits >= 10 and max_abs_z < 4.0 and elapsed < 600.0
    assert _report(
        "criterion 4 (MC vs quadrature, 12 configs x 1e4 trials)",
        ok,
        f"CI hits {hits}/12 (>= 10), max |z| = {max_abs_z:.2f} (< 4), "
        f"runtime {elapsed:.1f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 5. Cross-oracle zero counting
# ---------------------------------------------------------------------------


def test_criterion_5_cross_oracle_zero_counting():
    from levelcross import BoundaryHitError, count_zeros_companion, count_zeros_winding

    start = time.perf_counter()
    rng = np.random.default_rng(505)
    basis = MonomialBasis(3)
    regions = [Rectangle(-1, 1, -1, 1), Rectangle(-2, 2, -2, 2), Rectangle(0, 1.5, -0.7, 0.9)]
    level = ComplexLevel(0.3, 0.2)
    disagreements = 0
    discarded = 0
    total = 0
    for _ in range(1000):
        eta = rng.normal(size=4) + 1j * rng.normal(size=4)
        for region in regions:
            total += 1
            try:
                winding = count_zeros_winding(eta, basis, level, region)
            except BoundaryHitError:
                discarded += 1
                continue
            disagreements += winding != count_zeros_companion(eta, level, region)
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and discarded < 0.01 * total and elapsed < 30.0
    assert _report(
        "criterion 5 (winding vs companion, 1000 draws x 3 regions)",
        ok,
        f"{disagreements} disagreements, {discarded}/{total} discarded (< 1%), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 6. Closed-form spot values
# ---------------------------------------------------------------------------


def test_criterion_6_spot_values():
    profile = CoefficientProfile.iid(3)
    basis = MonomialBasis(2)
    dev_origin = rel_dev(
        float(zero_mean_density(profile, basis, ComplexLevel(0, 0), 0j).h), 1.0 / np.pi
    )
    level = ComplexLevel(1.25, -0.75)
    expected = np.exp(-(1.25**2 + 0.75**2) / 2.0) / np.pi
    dev_level = rel_dev(
        float(zero_mean_density(profile, basis, level, 0j).h), expected
    )
    dev_level_eq = rel_dev(
        float(equal_variance_density(1.0, basis, level, 0j).h), expected
    )
    worst = max(dev_origin, dev_level, dev_level_eq)
    ok = worst < 1e-12
    assert _report(
        "criterion 6 (spot values h(0) = 1/pi and e^{-|K|^2/2}/pi)",
        ok,
        f"max rel dev {worst:.2e} (tol 1e-12)",
    )


# ---------------------------------------------------------------------------
# 7. Brownian-observation consistency
# ---------------------------------------------------------------------------


def test_criterion_7_brownian_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 7))
        grid = TimeGrid(np.cumsum(rng.uniform(0.2, 1.5, n)))
        inner = MonomialBasis(n - 1)
        z = disk_point(rng, 1.5)
        level = _disk_level(rng, 1.0)
        basis, profile = build_brownian_basis(inner, grid)
        worst = max(
            worst,
            rel_dev(
                float(zero_mean_density(profile, basis, level, z).h),
                float(brownian_density_direct(inner, grid, level, z).h),
            ),
        )
    mc_summary = []
    mc_ok = True
    for i, (times, level) in enumerate([
        ((0.5, 1.5, 3.0), ComplexLevel(0, 0)),
        ((0.8, 1.6, 2.4, 4.0), ComplexLevel(1.0, 0.5)),
    ]):
        grid = TimeGrid(times)
        inner = MonomialBasis(len(times) - 1)
        basis, profile = build_brownian_basis(inner, grid)
        region = Rectangle(-1, 1, -1, 1)
        quad = integrate_density(
            lambda z: zero_mean_density(profile, basis, level, z).h, region, 1e-7, 1e-7
        )
        mc = estimate_expected_count(profile, basis, level, region,
                                     trials=10000, seed=7070 + i)
        z_score = (quad.value - mc.mean) / mc.std_error
        in_ci = mc.ci_low <= quad.value <= mc.ci_high
        mc_ok = mc_ok and in_ci and abs(z_score) < 4.0
        mc_summary.append(f"grid {times}: z = {z_score:+.2f}, in CI: {in_ci}")
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and mc_ok
    assert _report(
        "criterion 7 (Brownian-basis display and MC agreement)",
        ok,
        f"max display rel dev {worst:.2e} (tol 1e-12); {'; '.join(mc_summary)}; "
        f"runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Positivity and symmetry suites
# ---------------------------------------------------------------------------


def test_criterion_8_positivity_and_symmetry():
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    evaluations = 0
    min_scaled = np.inf
    for _ in range(50):
        n = int(rng.integers(2, 9))
        basis = MonomialBasis(n - 1)
        z = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)
        level = _disk_level(rng)
        zero_profile = CoefficientProfile(
            np.zeros(n), rng.uniform(0.25, 4.0, n), np.zeros(n), rng.uniform(0.25, 4.0, n)
        )
        h = zero_mean_density(zero_profile, basis, level, z).h
        min_scaled = min(min_scaled, float(np.min(h / (1.0 + np.abs(h)))))
        evaluations += z.size
        mean_profile = CoefficientProfile(
            rng.uniform(-1, 1, n), rng.uniform(0.25, 4.0, n),
            rng.uniform(-1, 1, n), rng.uniform(0.25, 4.0, n),
        )
        h = general_mean_density(mean_profile, basis, level, z).h
        min_scaled = min(min_scaled, float(np.min(h / (1.0 + np.abs(h)))))
        evaluations += z.size
    positivity_ok = min_scaled >= -1e-10

    worst_rotation = 0.0
    worst_conjugation = 0.0
    for _ in range(100):
        basis = MonomialBasis(int(rng.integers(2, 8)))
        sigma2 = float(rng.uniform(0.25, 4.0))
        z = disk_point(rng, 2.0)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        h_a = float(equal_variance_density(sigma2, basis, 0j, z).h)
        h_b = float(equal_variance_density(sigma2, basis, 0j, abs(z) * np.exp(1j * theta)).h)
        worst_rotation = max(worst_rotation, abs(h_a - h_b) / max(abs(h_a), 1e-300))
        n = basis.count
        profile = CoefficientProfile(
            np.zeros(n), rng.uniform(0.25, 4.0, n), np.zeros(n), rng.uniform(0.25, 4.0, n)
        )
        level = ComplexLevel(float(rng.uniform(-2, 2)), 0.0)
        h_c = float(zero_mean_density(profile, basis, level, z).h)
        h_d = float(zero_mean_density(profile, basis, level, z.conjugate()).h)
        worst_conjugation = max(worst_conjugation, abs(h_c - h_d) / abs(h_c))
    elapsed = time.perf_counter() - start
    ok = (
        positivity_ok
        and evaluations >= 10000
        and worst_rotation < 1e-10
        and worst_conjugation < 1e-10
    )
    assert _report(
        "criterion 8 (positivity and symmetries)",
        ok,
        f"{evaluations} evaluations, min h/(1+|h|) = {min_scaled:.1e} (>= -1e-10), "
        f"rotation dev {worst_rotation:.1e}, conjugation dev {worst_conjugation:.1e} "
        f"(both < 1e-10), runtime {elapsed:.1f}s",
    )
