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


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; full-avalanche bijection on 64-bit words."""
    x = x.astype(np.uint64, copy=True) if isinstance(x, np.ndarray) else np.uint64(x)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _stream_state(seed, trial, slot) -> np.ndarray:
    """Fold the key components into a per-stream base state.

    Each fold is `mix(state + component)`: a bijection of the running state,
    so distinct keys collide only by 2^-64-level accident.
    """
    seed_word = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        state = _mix(seed_word + _GOLDEN)
        state = _mix(state + np.asarray(trial, dtype=np.uint64))
        state = _mix(state + np.asarray(slot, dtype=np.uint64))
    return state


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


def normal(key: StreamKey, mu: float = 0.0, sigma: float = 1.0) -> float:
    """One N(mu, sigma^2) draw; ``sigma = 0`` returns ``mu`` exactly."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return float(mu)
    return float(mu) + float(sigma) * standard_normal(key)


def standard_normal_block(seed: int, trials: int, slots: int) -> np.ndarray:
    """N(0,1) draws for the full key grid, shape ``(trials, slots)``.

    Entry ``[t, s]`` equals ``standard_normal(StreamKey(seed, t, s))``, so
    batched and scalar paths are interchangeable.
    """
    trial_idx = np.arange(trials, dtype=np.uint64)[:, None]
    slot_idx = np.arange(slots, dtype=np.uint64)[None, :]
    state = _stream_state(seed, trial_idx, slot_idx)
    u1, u2 = _uniform_pair(state)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)
