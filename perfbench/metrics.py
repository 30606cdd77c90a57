"""The benchmark's own arithmetic: pure functions over measured values.

Kept free of simulator imports so the tests in ``test_perfbench.py`` can
check each formula on synthetic inputs.
"""

from __future__ import annotations

from typing import Iterable


def longest_gap(completion_times: Iterable[int], start: int, end: int) -> int:
    """Longest interval in ``[start, end]`` with no completion, in ticks.

    The window edges count as boundaries, so a window with no completion
    at all has an outage of ``end - start``.  Completions outside the
    window are ignored.
    """
    if end < start:
        raise ValueError(f"window ends before it starts: [{start}, {end}]")
    longest = 0
    previous = start
    for when in sorted(t for t in completion_times if start <= t <= end):
        longest = max(longest, when - previous)
        previous = when
    return max(longest, end - previous)


def served_fraction(completions: int, refusals: int) -> float:
    """Completed attempts ÷ attempts, where attempts = completions plus
    refusals (busy-NACKs, which include sheds).  1.0 when nothing was
    refused; 0.0 when nothing was attempted."""
    if completions < 0 or refusals < 0:
        raise ValueError("counts must be non-negative")
    attempts = completions + refusals
    return completions / attempts if attempts else 0.0


def per_txn(total: float, txns: int) -> float:
    """Normalise a quantity measured over a window by the transactions
    committed in it, so a model change that commits more per window is
    not scored as costing more per window."""
    if txns <= 0:
        raise ValueError("no transactions committed in the window")
    return total / txns


def speed_scaled(host_s: float, probe_s: float, nominal_s: float) -> float:
    """Host time expressed at a nominal machine speed: ``host_s`` scaled by
    how much slower (or faster) than ``nominal_s`` a fixed probe ran in
    the same interval."""
    if probe_s <= 0:
        raise ValueError("probe time must be positive")
    return host_s * nominal_s / probe_s

