"""Keyed random streams: determinism, distribution quality, consistency."""

import numpy as np
import pytest
from scipy import stats

from levelcross import StreamKey, standard_normal_block
from levelcross.rng import standard_normal


def test_same_key_same_value():
    key = StreamKey(seed=123, trial=45, slot=6)
    assert standard_normal(key) == standard_normal(key)


def test_distinct_keys_differ():
    base = standard_normal(StreamKey(1, 2, 3))
    assert standard_normal(StreamKey(1, 2, 4)) != base
    assert standard_normal(StreamKey(1, 3, 3)) != base
    assert standard_normal(StreamKey(2, 2, 3)) != base


def test_block_matches_scalar_path():
    block = standard_normal_block(99, 7, 5)
    for t in range(7):
        for s in range(5):
            assert block[t, s] == standard_normal(StreamKey(99, t, s))


@pytest.mark.parametrize("first_trial", [0, 1, 17, 640, 999])
def test_block_offset_matches_rows_of_full_block(first_trial):
    full = standard_normal_block(31, 1000, 22)
    trials = min(655, 1000 - first_trial)
    block = standard_normal_block(31, trials, 22, first_trial=first_trial)
    assert np.array_equal(block, full[first_trial:first_trial + trials])


def test_moments_at_one_million():
    z = standard_normal_block(2024, 1000, 1000).ravel()
    assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 0.01


def test_kolmogorov_smirnov_at_1e5():
    z = standard_normal_block(77, 100, 1000).ravel()
    statistic = stats.kstest(z, "norm").statistic
    critical_1pct = 1.628 / np.sqrt(z.size)
    assert statistic < critical_1pct


def test_draws_finite_and_bounded():
    # u1 mapped into (0, 1] keeps Box-Muller finite: |z| <= sqrt(-2 ln 2^-53)
    z = standard_normal_block(5, 200, 64)
    assert np.all(np.isfinite(z))
    assert np.abs(z).max() < 8.6


def test_cross_stream_independence():
    a = standard_normal_block(1, 1, 100000)[0]
    b = standard_normal_block(2, 1, 100000)[0]
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
    c = standard_normal_block(3, 2, 100000)
    assert abs(np.corrcoef(c[0], c[1])[0, 1]) < 0.02


@pytest.mark.parametrize("seed, trials, slots, first_trial, picks", [
    (0, 3, 4, 0, [(0, 0, 0xBFFD6E559EAF8A12), (2, 3, 0x3FFD81D95C3D985D),
                  (1, 2, 0xBFC0D8619E5568E7)]),
    (2**64 - 1, 2, 5, 0, [(0, 0, 0xC00062105F30DE66), (1, 4, 0xBFD4078F023C23EF),
                          (1, 2, 0x3FBBC2443609730F)]),
    (2**63 + 12345, 3, 22, 2**40 + 7, [(0, 0, 0xBFDF93E1CD8B6D0C), (2, 21, 0xBFEBA731CF140AD1),
                                        (1, 11, 0x3FEFC8DFC32C35FA)]),
    (31, 4, 22, 10**15, [(0, 0, 0xBFC25F4BCDD7B6E7), (3, 21, 0xBFE3B6B7BFD5F23A),
                         (2, 11, 0x3FCABF81215228D4)]),
])
def test_block_bits_are_pinned(seed, trials, slots, first_trial, picks):
    # Bit patterns recorded from the out-of-place implementation; a seed of
    # 2**63 or more wraps the uint64 key words, and a large first trial
    # exercises the high bits of the trial index.
    block = standard_normal_block(seed, trials, slots, first_trial=first_trial)
    assert block.shape == (trials, slots) and block.dtype == np.float64
    for t, s, bits in picks:
        assert int(block[t, s:s + 1].view(np.uint64)[0]) == bits
