"""Key-distribution generators.

:class:`ZipfianGenerator` implements the rejection-inversion sampler from
the YCSB core workload (Gray et al.'s "Quickly generating billion-record
synthetic databases" algorithm): draws are O(1) after an O(n) zeta
precomputation, and item 0 is the hottest key.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.sim.rng import DeterministicRNG

#: zeta(n, theta) is an O(n) sum over the whole keyspace; benchmarks build
#: many generators over the same 600K-record table, so memoise it.
_ZETA_CACHE: Dict[Tuple[int, float], float] = {}


class UniformGenerator:
    """Uniform keys over ``[0, item_count)``."""

    def __init__(self, item_count: int, rng: DeterministicRNG):
        if item_count <= 0:
            raise ValueError(f"item_count must be > 0, got {item_count}")
        self.item_count = item_count
        self.rng = rng

    def next_key(self) -> int:
        return self.rng.randint(0, self.item_count - 1)


class ZipfianGenerator:
    """Zipfian keys over ``[0, item_count)`` with skew ``theta``.

    ``theta`` defaults to YCSB's 0.99; ``theta → 0`` approaches uniform.
    """

    def __init__(
        self, item_count: int, rng: DeterministicRNG, theta: float = 0.99
    ):
        if item_count <= 0:
            raise ValueError(f"item_count must be > 0, got {item_count}")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.item_count = item_count
        self.theta = theta
        self.rng = rng
        if item_count <= 2:
            # the rejection-inversion constants degenerate below 3 items;
            # skew over 1–2 keys is meaningless, so draw uniformly
            self._uniform = UniformGenerator(item_count, rng)
            return
        self._uniform = None
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / item_count) ** (1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        key = (n, theta)
        value = _ZETA_CACHE.get(key)
        if value is None:
            # fsum is exactly rounded, so the constant (and every key
            # drawn from it) is the same on every Python version; plain
            # sum() switched to compensated summation in 3.12
            value = math.fsum(1.0 / (i ** theta) for i in range(1, n + 1))
            _ZETA_CACHE[key] = value
        return value

    def next_key(self) -> int:
        if self._uniform is not None:
            return self._uniform.next_key()
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(
            self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha
        )
