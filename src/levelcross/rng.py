"""Seedable, scheduling-independent Gaussian and uniform stream generation.

Every draw is a pure function of a ``(seed, trial, slot)`` key, so concurrent
Monte Carlo trials need no stream-splitting protocol and results do not depend
on evaluation order.  Keys are expanded with the SplitMix64 finalizer (the
mixer behind ``java.util.SplittableRandom``); Gaussians come from Box-Muller
applied to two 53-bit uniforms of the keyed stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64 increment (odd golden ratio)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)
_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent random draw: (seed, trial, slot)."""

    seed: int
    trial: int
    slot: int


def _mix_in_place(x: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of a uint64 array, written over it.

    A full-avalanche bijection on 64-bit words; ``shifted`` is scratch of
    the shape of ``x``.
    """
    for shift, factor in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(x, np.uint64(shift), out=shifted)
        x ^= shifted
        if factor is not None:
            x *= factor
    return x


def _mix(x) -> np.ndarray:
    """``_mix_in_place`` of a copy of ``x`` as uint64 words."""
    x = np.array(x, dtype=np.uint64)
    return _mix_in_place(x, np.empty_like(x))


def _trial_state(seed, trial) -> np.ndarray:
    """The key folded up to the trial: ``mix(mix(seed + golden) + trial)``."""
    seed_word = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return _mix(_mix(seed_word + _GOLDEN) + np.asarray(trial, dtype=np.uint64))


def _stream_state(seed, trial, slot) -> np.ndarray:
    """Fold the key components into a per-stream base state.

    Each fold is `mix(state + component)`: a bijection of the running state,
    so distinct keys collide only by 2^-64-level accident.
    """
    with np.errstate(over="ignore"):
        return _mix(_trial_state(seed, trial) + np.asarray(slot, dtype=np.uint64))


def _uniform_pair(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two uniforms from a stream state: u1 in (0, 1], u2 in [0, 1)."""
    with np.errstate(over="ignore"):
        w1 = _mix(state + _GOLDEN)
        w2 = _mix(state + _GOLDEN + _GOLDEN)
    u1 = ((w1 >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (w2 >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return u1, u2


def standard_normal(key: StreamKey) -> float:
    """One N(0, 1) draw, deterministic in the key."""
    u1, u2 = _uniform_pair(_stream_state(key.seed, key.trial, key.slot))
    return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2))


def standard_normal_block(seed: int, trials: int, slots: int, first_trial: int = 0) -> np.ndarray:
    """N(0,1) draws for a block of the key grid, shape ``(trials, slots)``.

    Entry ``[t, s]`` equals ``standard_normal(StreamKey(seed, first_trial + t,
    s))``, so batched and scalar paths are interchangeable, and a block that
    starts at ``first_trial`` holds exactly those rows of the block that
    starts at 0.  The block repeats the scalar path's operations in place, in
    three ``(trials, slots)`` buffers of 64-bit words: two that become u1 and
    u2 and one for the shifted words.
    """
    trial_idx = np.arange(first_trial, first_trial + trials, dtype=np.uint64)[:, None]
    w1 = np.add(_trial_state(seed, trial_idx), np.arange(slots, dtype=np.uint64)[None, :])
    shifted = np.empty_like(w1)
    with np.errstate(over="ignore"):
        _mix_in_place(w1, shifted)
        w1 += _GOLDEN
        w2 = w1 + _GOLDEN
        _mix_in_place(w1, shifted)
        _mix_in_place(w2, shifted)
    del shifted
    u1, u2 = w1.view(np.float64), w2.view(np.float64)
    np.right_shift(w1, np.uint64(11), out=w1)
    np.add(w1, 1.0, out=u1)
    u1 *= _INV_2_53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    np.right_shift(w2, np.uint64(11), out=w2)
    np.multiply(w2, _INV_2_53, out=u2)
    u2 *= _TWO_PI
    np.cos(u2, out=u2)
    u1 *= u2
    return u1
