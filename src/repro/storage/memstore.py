"""In-memory key-value store — ResilientDB's default state backend.

"Employing in-memory storage can ensure faster access, which in turn can
lead to high system throughput" (§3).  Durability is delegated to the
protocol: at most f replicas fail, so the replicated in-memory copies are
the persistence story, with checkpoints for recovery.

Every replica starts from "an identical copy of the table" (§5.1), so the
store is copy-on-write: replicas share one read-only base mapping and each
keeps only its own writes.  Snapshots, restores and comparisons between
stores that share a base cost O(writes), never O(table).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.storage.base import KVStore

_EMPTY: Mapping[str, str] = MappingProxyType({})


class InMemoryKVStore(KVStore):
    """A shared read-only base plus a private dict of this store's writes."""

    name = "memory"

    def __init__(self):
        self._base: Mapping[str, str] = _EMPTY
        #: this store's writes; a key here shadows the base
        self._writes: Dict[str, str] = {}
        self.reads = 0
        self.writes = 0

    def read(self, key: str) -> Optional[str]:
        self.reads += 1
        value = self._writes.get(key)
        if value is None:
            value = self._base.get(key)
        return value

    def write(self, key: str, value: str) -> None:
        self.writes += 1
        self._writes[key] = value

    def size(self) -> int:
        base = self._base
        return len(base) + sum(1 for key in self._writes if key not in base)

    def preload(self, records: Mapping[str, str]) -> None:
        """Install the initial table as this store's base (free of
        simulated cost — the paper initialises each replica with an
        identical YCSB table before the measurement starts).

        ``records`` is shared, not copied: hand the same read-only mapping
        to every replica.  Only an empty store can be preloaded.
        """
        if self._base or self._writes:
            raise ValueError("preload needs an empty store")
        self._base = records

    def snapshot(self) -> Tuple[Mapping[str, str], Dict[str, str]]:
        return self._base, dict(self._writes)

    def restore(self, snapshot: Tuple[Mapping[str, str], Dict[str, str]]) -> None:
        base, records = snapshot
        self._base = base
        self._writes = dict(records)

    def differing_keys(self, other: "InMemoryKVStore") -> Set[str]:
        base = self._base
        if base is other._base:
            # only written keys can differ; writing back a base value is
            # not a divergence
            candidates = self._writes.keys() | other._writes.keys()
        else:  # distinct bases: every key is a candidate, O(table)
            candidates = (
                self._writes.keys()
                | other._writes.keys()
                | base.keys()
                | other._base.keys()
            )
        return {
            key for key in candidates if self._lookup(key) != other._lookup(key)
        }

    def _lookup(self, key: str) -> Optional[str]:
        value = self._writes.get(key)
        return self._base.get(key) if value is None else value
