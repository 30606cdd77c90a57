"""ResilientDB core: the multi-threaded, deeply pipelined replica fabric.

This package assembles the substrates (simulated kernel, network, crypto,
storage, consensus engines) into the system of the paper's §4:

- :class:`~repro.core.config.SystemConfig` — every experiment knob.
- :class:`~repro.core.replica.Replica` — the pipelined replica: input,
  batch, worker, execute, checkpoint and output threads connected by
  queues (Figures 6a/6b), whose request-key rules and executed state are
  the clock-free :class:`~repro.core.host.HostRules` and
  :class:`~repro.core.ledger.Ledger`.
- :class:`~repro.core.clientmgr.ClientGroup` — closed-loop clients with
  the PBFT/PoE completion rules, which an engine's client class extends.
- :class:`~repro.core.system.ResilientDBSystem` — deployment builder and
  experiment runner producing :class:`~repro.core.system.ExperimentResult`.
"""

from repro.core.config import WORK_COSTS, SystemConfig, WorkCosts
from repro.core.system import ExperimentResult, ResilientDBSystem

__all__ = [
    "WORK_COSTS",
    "ExperimentResult",
    "ResilientDBSystem",
    "SystemConfig",
    "WorkCosts",
]
