"""Client transactions and their operations.

Mirrors ResilientDB's transaction base class (§4.8): a transaction carries
the issuing client and its data — here a list of typed read/write
operations plus optional padding payload (the Fig. 12 experiment grows
requests by attaching a set of 8-byte integers).  ResilientDB recycles
these objects through buffer pools; the simulation charges the pool's CPU
(:mod:`repro.storage.bufferpool`) and keeps each object compact instead:
both classes are slotted, with no per-instance ``__dict__``.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError
from typing import Optional, Tuple


class OpType(str, enum.Enum):
    READ = "read"
    WRITE = "write"


class Operation:
    """One key-value access inside a transaction (immutable, hashable).

    Slotted rather than a dataclass: every in-flight transaction holds
    a few of these, so a per-instance ``__dict__`` would dominate its
    resident size.
    """

    __slots__ = ("op_type", "key", "value")

    def __init__(self, op_type: OpType, key: str, value: Optional[str] = None):
        if op_type is OpType.WRITE and value is None:
            raise ValueError(f"write to {key!r} requires a value")
        setter = object.__setattr__
        setter(self, "op_type", op_type)
        setter(self, "key", key)
        setter(self, "value", value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Operation, (self.op_type, self.key, self.value)

    def _fields(self) -> tuple:
        return (self.op_type, self.key, self.value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Operation(op_type={self.op_type!r}, key={self.key!r}, "
            f"value={self.value!r})"
        )

    def wire_bytes(self) -> int:
        key_bytes = len(self.key)
        value_bytes = len(self.value) if self.value is not None else 0
        return 1 + key_bytes + value_bytes  # 1 = op tag


class Transaction:
    """A client transaction: one or more operations plus padding payload.

    ``padding_bytes`` is extra integers-as-payload (Fig. 12's
    message-size knob).  Slotted like :class:`Operation`; compares by
    value and, being mutable, is unhashable.  The ledger identifies it
    by the sequence of the batch that carries it, so it holds no
    identifier of its own.
    """

    __slots__ = ("client_id", "ops", "padding_bytes")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        client_id: str,
        ops: Tuple[Operation, ...],
        padding_bytes: int = 0,
    ):
        if not ops:
            raise ValueError("transaction must contain at least one operation")
        if padding_bytes < 0:
            raise ValueError(f"padding_bytes must be >= 0, got {padding_bytes}")
        self.client_id = client_id
        self.ops = ops
        self.padding_bytes = padding_bytes

    def _fields(self) -> tuple:
        return (self.client_id, self.ops, self.padding_bytes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"Transaction(client_id={self.client_id!r}, ops={self.ops!r}, "
            f"padding_bytes={self.padding_bytes!r})"
        )

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def wire_bytes(self) -> int:
        """Serialized size: fixed header + operations + padding."""
        return 16 + sum(op.wire_bytes() for op in self.ops) + self.padding_bytes

    def canonical_bytes(self) -> bytes:
        """Stable byte encoding used for digests and request signatures."""
        parts = [self.client_id]
        for op in self.ops:
            parts.append(f"{op.op_type.value}:{op.key}:{op.value or ''}")
        parts.append(str(self.padding_bytes))
        return "|".join(parts).encode("utf-8")
