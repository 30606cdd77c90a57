"""The YCSB benchmark workload (§5.1).

"For creating a transaction, each client indexes a YCSB table with an
active set of 600K records … client transactions contain only write
accesses … each client YCSB transaction is generated from a Zipfian
distribution.  During the initialization phase, we ensure each replica has
an identical copy of the table."
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, Optional

from repro.sim.rng import DeterministicRNG
from repro.workloads.transactions import Operation, OpType, Transaction
from repro.workloads.zipf import UniformGenerator, ZipfianGenerator

#: the paper's active set
YCSB_DEFAULT_RECORDS = 600_000
#: YCSB's standard 10 × 10-byte fields collapse to one value column here
YCSB_VALUE_BYTES = 100


class YCSBWorkload:
    """Generates YCSB transactions and the initial table.

    Parameters mirror the knobs the paper's experiments turn:

    - ``ops_per_txn`` — Fig. 11 (multi-operation transactions, 1 → 50).
    - ``padding_bytes`` — Fig. 12 (message size, payload of 8-byte ints).
    - ``write_fraction`` — 1.0 in the paper; configurable for extensions.
    - ``theta`` — Zipfian skew; ``uniform=True`` bypasses skew entirely.
    """

    def __init__(
        self,
        rng: DeterministicRNG,
        record_count: int = YCSB_DEFAULT_RECORDS,
        ops_per_txn: int = 1,
        padding_bytes: int = 0,
        write_fraction: float = 1.0,
        theta: float = 0.99,
        uniform: bool = False,
        value_bytes: int = YCSB_VALUE_BYTES,
    ):
        if record_count <= 0:
            raise ValueError(f"record_count must be > 0, got {record_count}")
        if ops_per_txn <= 0:
            raise ValueError(f"ops_per_txn must be > 0, got {ops_per_txn}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(
                f"write_fraction must be in [0, 1], got {write_fraction}"
            )
        self.rng = rng
        self.record_count = record_count
        self.ops_per_txn = ops_per_txn
        self.padding_bytes = padding_bytes
        self.write_fraction = write_fraction
        self.value_bytes = value_bytes
        if uniform:
            self._keys = UniformGenerator(record_count, rng.fork("keys"))
        else:
            self._keys = ZipfianGenerator(record_count, rng.fork("keys"), theta=theta)
        self._value_counter = 0

    # ------------------------------------------------------------------
    # initial state
    # ------------------------------------------------------------------
    def initial_table(self) -> "YCSBTable":
        """The identical table preloaded on every replica.

        Values are deterministic functions of the key so replicas agree
        without coordination; the table computes them on demand, so one
        instance can back every replica's store at no per-record cost.
        """
        return YCSBTable(self.record_count, self.value_bytes)

    @staticmethod
    def key_name(index: int) -> str:
        return f"user{index}"

    def _initial_value(self, index: int) -> str:
        return initial_value(index, self.value_bytes)

    # ------------------------------------------------------------------
    # transaction generation
    # ------------------------------------------------------------------
    def next_transaction(self, client_id: str) -> Transaction:
        ops = []
        for _ in range(self.ops_per_txn):
            key = self.key_name(self._keys.next_key())
            if self.rng.random() < self.write_fraction:
                self._value_counter += 1
                value = f"v{self._value_counter}:{client_id}".ljust(
                    self.value_bytes, "x"
                )
                ops.append(Operation(OpType.WRITE, key, value))
            else:
                ops.append(Operation(OpType.READ, key))
        return Transaction(
            client_id=client_id,
            ops=tuple(ops),
            padding_bytes=self.padding_bytes,
        )


def initial_value(index: int, value_bytes: int) -> str:
    """The preloaded value of record ``index``."""
    return f"v0:{index}".ljust(value_bytes, "x")


class YCSBTable(Mapping):
    """The initial YCSB table as a read-only mapping that holds no strings.

    Behaves like ``{key_name(i): initial_value(i) for i in range(n)}`` —
    same values, same iteration order — but computes each value when it
    is looked up, so a 600K-record table costs two integers of memory
    and no set-up time however many replicas read it.
    """

    __slots__ = ("record_count", "value_bytes")

    def __init__(self, record_count: int, value_bytes: int = YCSB_VALUE_BYTES):
        self.record_count = record_count
        self.value_bytes = value_bytes

    def _index(self, key) -> Optional[int]:
        """The record index ``key`` names, or ``None`` if it names none.

        Only the canonical spelling ``YCSBWorkload.key_name(i)`` matches:
        ``user007`` or ``user+7`` parse to 7 but are different dict keys.
        """
        if not isinstance(key, str):
            return None
        try:
            index = int(key[4:])
        except ValueError:
            return None
        if 0 <= index < self.record_count and YCSBWorkload.key_name(index) == key:
            return index
        return None

    def get(self, key, default=None):
        index = self._index(key)
        if index is None:
            return default
        return initial_value(index, self.value_bytes)

    def __getitem__(self, key) -> str:
        index = self._index(key)
        if index is None:
            raise KeyError(key)
        return initial_value(index, self.value_bytes)

    def __contains__(self, key) -> bool:
        return self._index(key) is not None

    def __iter__(self) -> Iterator[str]:
        return map(YCSBWorkload.key_name, range(self.record_count))

    def __len__(self) -> int:
        return self.record_count
