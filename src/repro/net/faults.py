"""Fault injection: crashes, message drops, partitions.

The replica-failure experiment (Fig. 17) crashes one or five backup
replicas and observes that PBFT's throughput barely moves while Zyzzyva's
collapses (its clients wait for responses from *all* n replicas).  The
fault plan supports that experiment plus the adversarial scenarios the
test suite uses (drops, partitions, scheduled crashes).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.sim.rng import DeterministicRNG


class FaultPlan:
    """Mutable description of which endpoints/links are currently faulty."""

    def __init__(self, rng: Optional[DeterministicRNG] = None):
        self._crashed: Set[str] = set()
        self._crash_at: Dict[str, int] = {}
        self._recover_at: Dict[str, int] = {}
        self._drop_probability: Dict[Tuple[str, str], float] = {}
        self._drop_until: Dict[Tuple[str, str], int] = {}
        self._partitions: Set[frozenset] = set()
        self._rng = rng or DeterministicRNG(0)

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------
    def crash(self, node: str) -> None:
        """Crash ``node`` immediately: it stops sending and receiving."""
        self._crashed.add(node)

    def crash_at(self, node: str, when_ns: int) -> None:
        """Schedule ``node`` to be considered crashed from ``when_ns`` on."""
        self._crash_at[node] = when_ns

    def recover(self, node: str) -> None:
        self._crashed.discard(node)
        self._crash_at.pop(node, None)
        self._recover_at.pop(node, None)

    def recover_at(self, node: str, when_ns: int) -> None:
        """Declare the crash heals (at the delivery level) from
        ``when_ns`` on — crash-for-a-duration without runner bookkeeping.
        State-transfer recovery remains a host decision
        (:meth:`repro.core.system.ResilientDBSystem.recover_replica`)."""
        self._recover_at[node] = when_ns

    def is_crashed(self, node: str, now: int) -> bool:
        if not (self._crashed or self._crash_at):
            return False  # fault-free fast path
        healed_at = self._recover_at.get(node)
        if healed_at is not None and now >= healed_at:
            return False
        if node in self._crashed:
            return True
        when = self._crash_at.get(node)
        return when is not None and now >= when

    def crashed_nodes(self, now: int) -> Set[str]:
        late = {node for node, when in self._crash_at.items() if now >= when}
        return {
            node
            for node in (self._crashed | late)
            if self.is_crashed(node, now)
        }

    # ------------------------------------------------------------------
    # link faults
    # ------------------------------------------------------------------
    def drop_link(self, src: str, dst: str, probability: float = 1.0) -> None:
        """Drop messages src→dst with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._drop_probability[(src, dst)] = probability

    def heal_link(self, src: str, dst: str) -> None:
        self._drop_probability.pop((src, dst), None)
        self._drop_until.pop((src, dst), None)

    def heal_link_at(self, src: str, dst: str, when_ns: int) -> None:
        """Declare a lossy link healthy again from ``when_ns`` on —
        partition-for-a-duration without a scheduled callback."""
        self._drop_until[(src, dst)] = when_ns

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Sever all links between the two groups (both directions)."""
        self._partitions.add(frozenset((frozenset(group_a), frozenset(group_b))))

    def heal_partitions(self) -> None:
        self._partitions.clear()

    # ------------------------------------------------------------------
    # the transport's question
    # ------------------------------------------------------------------
    def should_deliver(self, src: str, dst: str, now: int) -> bool:
        if not (
            self._crashed or self._crash_at or self._partitions
            or self._drop_probability
        ):
            return True  # fault-free fast path; no link can draw randomness
        if self.is_crashed(src, now) or self.is_crashed(dst, now):
            return False
        for pair in self._partitions:
            side_a, side_b = tuple(pair) if len(pair) == 2 else (next(iter(pair)),) * 2
            if (src in side_a and dst in side_b) or (src in side_b and dst in side_a):
                return False
        probability = self._drop_probability.get((src, dst), 0.0)
        if probability:
            until = self._drop_until.get((src, dst))
            if until is not None and now >= until:
                probability = 0.0  # declaratively healed; no rng draw
        if probability and self._rng.random() < probability:
            return False
        return True
