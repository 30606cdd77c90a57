"""Multi-primary concurrent consensus (RCC-style).

Runs m independent PBFT instances — one per primary — and deterministically
unifies their per-instance commit orders into one global execution order.
See :mod:`repro.multi.unifier` for the round-robin mapping and
:mod:`repro.multi.coordinator` for the instance coordinator the replica
pipeline drives through the same engine contract as any single-instance
engine.
"""

from repro.multi.coordinator import InstanceCoordinator, MultiProposal
from repro.multi.unifier import (
    check_unified_execution,
    global_sequence,
    instance_of,
    instance_sequence,
    steer_lane,
    unify_commit_logs,
)

__all__ = [
    "InstanceCoordinator",
    "MultiProposal",
    "check_unified_execution",
    "global_sequence",
    "instance_of",
    "instance_sequence",
    "steer_lane",
    "unify_commit_logs",
]
