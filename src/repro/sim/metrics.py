"""Measurement instruments for experiments.

The paper's methodology is: warm the system up, then measure throughput and
latency over a fixed window.  :class:`MetricsRegistry` supports that
protocol directly — every instrument can be reset when the warmup window
ends, and throughput is computed over the post-reset interval.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, List, Optional

from repro.sim.clock import NANOS_PER_SEC


class Counter:
    """A monotonically increasing event counter (resettable per window)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class LatencyHistogram:
    """Collects latency samples (in clock ticks) and reports summary stats.

    By default samples are kept raw: experiments are short enough (≤ a few
    hundred thousand samples) that exact percentiles are affordable and
    simpler than HDR-style bucketing.  For unbounded runs, ``max_samples``
    caps memory with a deterministic reservoir (seeded from the histogram
    name, so identical runs sample identically): count, sum/mean and max
    stay exact; percentiles come from the reservoir.
    """

    __slots__ = ("name", "samples", "max_samples", "_total", "_sum", "_max", "_rng")

    def __init__(self, name: str, max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self.samples: List[int] = []
        self._total = 0
        self._sum = 0
        self._max = 0
        self._rng: Optional[random.Random] = None
        if max_samples is not None:
            self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def record(self, latency: int) -> None:
        self._total += 1
        self._sum += latency
        if latency > self._max:
            self._max = latency
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append(latency)
            return
        # Vitter's algorithm R: each of the _total samples has an equal
        # max_samples/_total chance of being in the reservoir
        slot = self._rng.randrange(self._total)
        if slot < self.max_samples:
            self.samples[slot] = latency

    def reset(self) -> None:
        self.samples = []
        self._total = 0
        self._sum = 0
        self._max = 0
        if self.max_samples is not None:
            # re-seed so a post-warmup window samples reproducibly
            self._rng = random.Random(zlib.crc32(self.name.encode("utf-8")))

    @property
    def count(self) -> int:
        return self._total

    def mean_seconds(self) -> float:
        if not self._total:
            return 0.0
        return self._sum / self._total / NANOS_PER_SEC

    def percentile_seconds(self, pct: float) -> float:
        """Nearest-rank percentile in seconds (exact unless the reservoir
        cap evicted samples); 0.0 when empty."""
        if not self.samples:
            return 0.0
        if not 0.0 < pct <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {pct}")
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        return ordered[rank - 1] / NANOS_PER_SEC

    def max_seconds(self) -> float:
        return self._max / NANOS_PER_SEC if self._total else 0.0


class MetricsRegistry:
    """All instruments for one simulation, plus the measurement window.

    ``begin_measurement()`` is called when warmup ends: it resets every
    instrument and stamps the window start, after which
    :meth:`throughput_per_second` divides counters by elapsed measured time.
    """

    def __init__(self, sim):
        self.sim = sim
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        self.window_start: int = 0
        self._resettables: List = []

    # ------------------------------------------------------------------
    # instrument factories (idempotent by name)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def histogram(
        self, name: str, max_samples: Optional[int] = None
    ) -> LatencyHistogram:
        if name not in self.histograms:
            self.histograms[name] = LatencyHistogram(name, max_samples=max_samples)
        return self.histograms[name]

    def register_resettable(self, obj) -> None:
        """Attach any object exposing ``reset_window()`` (e.g. a
        :class:`~repro.sim.resources.CpuScheduler`) to the warmup reset."""
        self._resettables.append(obj)

    # ------------------------------------------------------------------
    # window protocol
    # ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        for counter in self.counters.values():
            counter.reset()
        for histogram in self.histograms.values():
            histogram.reset()
        for obj in self._resettables:
            obj.reset_window()
        self.window_start = self.sim.now

    def window_ns(self, end: Optional[int] = None) -> int:
        return (self.sim.now if end is None else end) - self.window_start

    def throughput_per_second(self, counter_name: str) -> float:
        window = self.window_ns()
        if window <= 0:
            return 0.0
        return self.counters[counter_name].value * NANOS_PER_SEC / window
