"""Deterministic round-robin unification of concurrent consensus lanes.

RCC (Gupta, Hellings, Sadoghi) runs m independent consensus instances —
one per primary — and merges their per-instance commit orders into one
global execution order by strict round-robin interleaving:

    global_seq(k, s) = (s - 1) * m + k + 1

for instance ``k`` (0-based) at instance-local sequence ``s`` (1-based).
Global sequence 1 is instance 0's first batch, 2 is instance 1's first,
..., m+1 is instance 0's second, and so on.  Because the mapping is a
bijection fixed by (k, s, m), the unified order is a pure function of the
per-instance commit logs: it cannot depend on the interleaving in which
commits happened to arrive.  Stalled instances are unblocked by *skip
certificates* — null batches committed through the instance's own PBFT
rounds (so each skip carries a 2f+1 commit proof) that fill the lane's
slots without executing anything.

Everything in this module is pure data-in/data-out so the fuzz oracle
bank and hypothesis properties can drive it directly.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.consensus.safety import SafetyViolation


def steer_lane(sender: str, request_id: int, num_instances: int) -> int:
    """The lane a client request is steered to.  Every client and replica
    computes the same lane, so forwarding converges."""
    return (zlib.crc32(sender.encode("utf-8")) + request_id) % num_instances


def global_sequence(instance: int, instance_sequence: int, num_instances: int) -> int:
    """Map instance-local sequence ``s`` of lane ``instance`` to the
    global round-robin position."""
    if not 0 <= instance < num_instances:
        raise ValueError(
            f"instance {instance} out of range for m={num_instances}"
        )
    if instance_sequence < 1:
        raise ValueError(f"instance sequence must be >= 1, got {instance_sequence}")
    return (instance_sequence - 1) * num_instances + instance + 1


def instance_of(global_seq: int, num_instances: int) -> int:
    """Which lane owns ``global_seq`` (inverse of :func:`global_sequence`)."""
    if global_seq < 1:
        raise ValueError(f"global sequence must be >= 1, got {global_seq}")
    return (global_seq - 1) % num_instances


def instance_sequence(global_seq: int, num_instances: int) -> int:
    """The lane-local sequence behind ``global_seq``."""
    if global_seq < 1:
        raise ValueError(f"global sequence must be >= 1, got {global_seq}")
    return (global_seq - 1) // num_instances + 1


def unify_commit_logs(
    commit_logs: Mapping[int, Iterable[Tuple[int, str]]],
    num_instances: int,
) -> List[Tuple[int, str]]:
    """Merge per-instance commit logs into the global execution prefix.

    ``commit_logs`` maps instance id -> iterable of (instance sequence,
    digest) pairs, in any order.  Returns the maximal *contiguous* global
    order [(global sequence, digest), ...] starting at 1: the merge stops
    at the first slot whose lane has not committed it yet (ordered
    execution cannot leapfrog a hole).  Raises
    :class:`~repro.consensus.safety.SafetyViolation` if one lane reports
    two different digests for the same instance sequence — per-lane PBFT
    makes that impossible among honest replicas.
    """
    by_lane: Dict[int, Dict[int, str]] = {}
    for lane, entries in commit_logs.items():
        if not 0 <= lane < num_instances:
            raise ValueError(f"instance {lane} out of range for m={num_instances}")
        slots = by_lane.setdefault(lane, {})
        for sequence, digest in entries:
            existing = slots.get(sequence)
            if existing is not None and existing != digest:
                raise SafetyViolation(
                    f"instance {lane} committed two digests at sequence "
                    f"{sequence}: {existing!r} vs {digest!r}"
                )
            slots[sequence] = digest
    unified: List[Tuple[int, str]] = []
    g = 1
    while True:
        lane = instance_of(g, num_instances)
        digest = by_lane.get(lane, {}).get(instance_sequence(g, num_instances))
        if digest is None:
            return unified
        unified.append((g, digest))
        g += 1


def check_unified_execution(
    executed_log: Iterable[Tuple[int, str]],
    commit_logs: Mapping[int, Iterable[Tuple[int, str]]],
    num_instances: int,
) -> int:
    """Every executed (global sequence, digest) must be exactly what its
    owning lane committed at the corresponding lane sequence — i.e. the
    executed log is a prefix of :func:`unify_commit_logs` applied to the
    replica's own commit logs.  Skip certificates committed to unblock a
    lane can therefore never reorder anything: they occupy their lane's
    round-robin slots like any other committed batch.

    Returns the number of entries checked; raises ``SafetyViolation`` on
    the first mismatch.
    """
    lanes: Dict[int, Dict[int, str]] = {}
    for lane, entries in commit_logs.items():
        slots = lanes.setdefault(lane, {})
        for sequence, digest in entries:
            slots.setdefault(sequence, digest)
    checked = 0
    for global_seq, digest in executed_log:
        lane = instance_of(global_seq, num_instances)
        lane_seq = instance_sequence(global_seq, num_instances)
        committed = lanes.get(lane, {}).get(lane_seq)
        if committed is None:
            raise SafetyViolation(
                f"executed global sequence {global_seq} (instance {lane} "
                f"seq {lane_seq}) was never committed by that instance"
            )
        if committed != digest:
            raise SafetyViolation(
                f"executed digest {digest!r} at global sequence {global_seq} "
                f"but instance {lane} committed {committed!r} at seq {lane_seq}"
            )
        checked += 1
    return checked
