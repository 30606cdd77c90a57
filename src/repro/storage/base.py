"""Common interface and the one price list for record stores."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple


@dataclass(frozen=True)
class StorageCosts:
    """Simulated nanoseconds the execute-thread spends per record access.

    The in-memory figures model a hash-map probe plus a cache-line copy;
    the SQLite figures model the API call + SQL parse/step + page access
    that §5.7 observes the execute-thread busy-waiting on.  Calibrated so
    the Fig. 14 shape (−94% throughput, +24× latency) reproduces.
    """

    memory_read_ns: int = 150
    memory_write_ns: int = 250
    sqlite_read_ns: int = 90_000
    sqlite_write_ns: int = 170_000

    def op_costs(self, backend: str) -> Tuple[int, int]:
        """``(read_ns, write_ns)`` of one record access on ``backend``
        (``"memory"`` or ``"sqlite"``)."""
        if backend == "memory":
            return self.memory_read_ns, self.memory_write_ns
        return self.sqlite_read_ns, self.sqlite_write_ns


#: The calibration every deployment charges, read by
#: :func:`repro.core.host.execution_charge`.
STORAGE_COSTS = StorageCosts()


class KVStore:
    """Record-store interface used by the execution layer.

    ``read``/``write`` perform the real operation only.  What a record
    access costs the execute-thread is :data:`STORAGE_COSTS`, by the
    store's ``name`` (which is its backend).
    """

    name = "kvstore"

    def read(self, key: str) -> Optional[str]:
        """The value stored under ``key``, or ``None``."""
        raise NotImplementedError

    def write(self, key: str, value: str) -> None:
        """Store ``value`` under ``key``."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of records currently stored."""
        raise NotImplementedError

    def snapshot(self):
        """A point-in-time copy of the records for state transfer, or
        ``None`` when this backend ships no state (a recovering replica
        then keeps its own records).  Later writes do not change it."""
        return None

    def restore(self, snapshot) -> None:
        """Replace every record with a peer's ``snapshot()``."""
        raise NotImplementedError

    def differing_keys(self, other: "KVStore") -> Set[str]:
        """Keys whose values differ between this store and ``other`` (a
        key one store lacks differs from any value); empty exactly when
        the two hold the same records."""
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources (no-op for in-memory stores)."""
