"""Storage layer: record stores, the blockchain ledger, buffer pools.

Covers three of the paper's design levers:

* **In-memory vs off-memory state** (§3, Fig. 14): an in-memory key-value
  store against a real SQLite-backed store whose access latency is charged
  to the simulated execute-thread (which busy-waits on it, as in §5.7).
* **Chain management** (§2.2, §4.6): an immutable ledger beginning at a
  genesis block, where each block is certified either by hashing its
  predecessor (traditional) or by embedding the 2f+1 commit signatures
  that consensus already produced (ResilientDB's cheaper choice).
* **Buffer pools** (§4.8): recycled message/transaction objects that avoid
  per-message allocation cost.
"""

from repro.storage.blockchain import Block, Blockchain, CertificationMode
from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoints import CheckpointStore
from repro.storage.memstore import InMemoryKVStore
from repro.storage.sqlstore import SqliteKVStore
from repro.storage.base import STORAGE_COSTS, KVStore, StorageCosts

__all__ = [
    "STORAGE_COSTS",
    "Block",
    "Blockchain",
    "BufferPool",
    "CertificationMode",
    "CheckpointStore",
    "InMemoryKVStore",
    "KVStore",
    "SqliteKVStore",
    "StorageCosts",
]
