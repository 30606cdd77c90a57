"""Message digests.

ResilientDB's batch-threads hash *one string representation of the whole
batch* rather than every request individually (§4.3) — the per-batch digest
is one of the fabric's throughput levers.  The digest here is a real
SHA-256 so chain integrity can be tested for real; the simulated time cost
comes from :data:`~repro.crypto.costs.CRYPTO_COSTS`.
"""

from __future__ import annotations

import hashlib

from repro.crypto.costs import CRYPTO_COSTS


def digest_bytes(data: bytes) -> str:
    """Real SHA-256 digest (hex) of ``data``."""
    return hashlib.sha256(data).hexdigest()


def digest_cost(size_bytes: int) -> int:
    """Simulated nanoseconds to hash ``size_bytes`` bytes."""
    return CRYPTO_COSTS.sha256_ns(size_bytes)
