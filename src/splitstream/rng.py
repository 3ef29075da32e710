"""Deterministic pseudo-randomness for the whole package.

Every random draw anywhere in this codebase flows from a single 64-bit seed
through the xorshift64* update, so any experiment is replayable from its
config.  Two access patterns are provided:

* ``Xorshift64Star`` -- a sequential generator for protocol/simulation code
  that draws a handful of values at a time.
* ``bulk_uniform`` / ``bulk_u64`` -- counter-mode application of the same
  update function for array-sized draws (loss masks, synthetic images),
  vectorised with numpy.

``derive`` splits a seed into independent named streams so that, e.g., the
conv weights of stage 2 and the loss pattern of a link never share draws.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Xorshift64Star", "derive", "bulk_u64", "bulk_uniform"]

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
# golden-ratio increment, also used to displace an all-zero state
_GOLDEN = 0x9E3779B97F4A7C15


def _step(x: int) -> int:
    """One scalar xorshift64* state update (returns the new state)."""
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    x ^= x >> 27
    return x


def _output(x: int) -> int:
    return (x * _MULT) & _MASK64


class Xorshift64Star:
    """Sequential xorshift64* stream.  State must never be zero."""

    def __init__(self, seed: int):
        self._state = (int(seed) & _MASK64) or _GOLDEN

    def next_u64(self) -> int:
        self._state = _step(self._state)
        return _output(self._state)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), for 1 <= n <= 2**64."""
        if not 0 < n <= _MASK64 + 1:
            # past 2**64 the rejection limit below is 0 and every draw fails
            raise ValueError(f"randint bound must be in 1..2**64, got {n}")
        # rejection sampling to avoid modulo bias
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        pool = list(range(n))
        out = []
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def derive(seed: int, *tags: int | str) -> int:
    """Deterministically derive an independent stream seed from tags."""
    state = (int(seed) & _MASK64) or _GOLDEN
    for tag in tags:
        t = _fnv1a64(tag) if isinstance(tag, str) else (int(tag) & _MASK64)
        state = _step((state ^ ((t * _GOLDEN + 1) & _MASK64)) or _GOLDEN)
        state = _step(state)
    return _output(state) or _GOLDEN


def bulk_u64(seed: int, n: int) -> np.ndarray:
    """n decorrelated uint64 draws: per-index counter states pushed through
    three rounds of the xorshift64* update."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    x = (np.uint64(seed) ^ (idx * np.uint64(_GOLDEN))) | np.uint64(1)
    for _ in range(3):
        x ^= x >> np.uint64(12)
        x ^= x << np.uint64(25)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MULT)
    return x


def bulk_uniform(seed: int, n: int) -> np.ndarray:
    """n float64 draws uniform in [0, 1)."""
    return (bulk_u64(seed, n) >> np.uint64(11)) * (2.0 ** -53)
