"""repro — a reproduction of "Permissioned Blockchain Through the Looking
Glass" (ICDCS 2020): the ResilientDB fabric, PBFT/Zyzzyva/PoE consensus,
and the paper's full evaluation, on a deterministic discrete-event
simulator.

Public surface — most users need only::

    from repro import ResilientDBSystem, SystemConfig

    result = ResilientDBSystem(SystemConfig(num_replicas=16)).run()
    print(result.summary())

Subpackages:

- :mod:`repro.core` — the fabric: configuration, replicas, clients, runner.
- :mod:`repro.consensus` — PBFT, Zyzzyva and PoE state machines.
- :mod:`repro.sim` — the simulation kernel.
- :mod:`repro.net`, :mod:`repro.storage`, :mod:`repro.crypto`,
  :mod:`repro.workloads` — the substrates.
- :mod:`repro.bench` — one experiment per paper figure.
"""

from repro.core.config import WORK_COSTS, SystemConfig, WorkCosts
from repro.core.system import ExperimentResult, ResilientDBSystem

__version__ = "1.0.0"

__all__ = [
    "WORK_COSTS",
    "ExperimentResult",
    "ResilientDBSystem",
    "SystemConfig",
    "WorkCosts",
    "__version__",
]
