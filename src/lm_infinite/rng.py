"""Deterministic, platform-independent random streams built on splitmix64.

Every random quantity in the library (parameter init, synthetic corpora,
data order) flows from a single u64 seed through named sub-streams, so any
component can be reproduced in isolation.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

# two uniform doubles per normal pair; 53-bit mantissa scale
_U53 = np.float64(1.0 / (1 << 53))


def _mix(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _fnv1a(name: str) -> np.uint64:
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in name.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * _FNV_PRIME
    return h


def check_seed(seed: int) -> None:
    """Raise a ValueError naming ``seed`` unless it is a u64, in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def derive_stream(seed: int, name: str) -> int:
    """Derive the seed of a named sub-stream from a master seed."""
    check_seed(seed)
    z = _mix(np.uint64(seed) ^ _fnv1a(name))
    with np.errstate(over="ignore"):
        return int(_mix(z + _GAMMA))


class SplitMix64:
    """Counter-based splitmix64 generator; all draws vectorize over numpy."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed)
        self._counter = np.uint64(0)

    def next_u64(self, n: int) -> np.ndarray:
        idx = np.arange(n, dtype=np.uint64) + self._counter
        self._counter += np.uint64(n)
        with np.errstate(over="ignore"):
            return _mix(self._seed + (idx + np.uint64(1)) * _GAMMA)

    def uniform(self, n: int) -> np.ndarray:
        """Uniform doubles in (0, 1], 53-bit resolution."""
        bits = self.next_u64(n) >> np.uint64(11)
        return (bits.astype(np.float64) + 1.0) * _U53

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        """Standard Box-Muller normals, deterministic given the stream state."""
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        u1 = self.uniform(pairs)
        u2 = self.uniform(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (out * std).reshape(shape)

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """Integers in [low, high): 53-bit draws modulo the span (high-low < 2**40)."""
        span = high - low
        if span <= 0:
            raise ValueError("empty integer range")
        bits = self.next_u64(n) >> np.uint64(11)
        return (low + (bits % np.uint64(span)).astype(np.int64)).astype(np.int64)

    def choice_prob(self, n: int) -> np.ndarray:
        """Uniform doubles in [0, 1) for probability thresholding."""
        bits = self.next_u64(n) >> np.uint64(11)
        return bits.astype(np.float64) * _U53
