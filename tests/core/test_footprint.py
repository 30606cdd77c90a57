"""Resident footprint of the per-request state.

The paper recycles transaction and message objects through buffer pools
(§4.8); the simulation keeps each request's records compact instead.
These tests pin that down on a small RCC deployment with real tokens and
a real record store: the request records carry no per-instance
``__dict__``, the primaries' dedup state grows by bits, not objects, and
the memory one more in-flight transaction costs stays within budget.
"""

import gc
import tracemalloc

import pytest

from repro.consensus.messages import ClientRequest
from repro.core import ResilientDBSystem, SystemConfig
from repro.core.clientmgr import PendingRequest
from repro.sim.clock import millis
from repro.workloads import Operation, OpType, Transaction

#: traced bytes one more in-flight RCC transaction costs (request, its
#: transaction, operations, write value, token, client record and network
#: events): measured 994 B on CPython 3.11 and 978 B on 3.12, plus 25%
#: headroom.  Dict-backed records cost 1,738 B on 3.11.
BYTES_PER_TXN_BUDGET = 1240


@pytest.fixture(scope="module")
def rcc_system():
    config = SystemConfig(
        protocol="rcc",
        num_primaries=2,
        num_replicas=4,
        num_clients=64,
        client_groups=4,
        batch_size=8,
        ycsb_records=500,
        apply_state=True,
        real_auth_tokens=True,
        warmup=millis(10),
        measure=millis(20),
    )
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.throughput_txns_per_s > 0
    return system


def test_request_records_have_no_instance_dict(rcc_system):
    group = rcc_system.client_groups[0]
    pending = next(iter(group.pending.values()))
    request = pending.request
    txn = request.txns[0]
    records = {
        "PendingRequest": pending,
        "Transaction": txn,
        "Operation": txn.ops[0],
        "AuthToken": request.auth,
    }
    for name, record in records.items():
        assert type(record).__name__ == name
        assert not hasattr(record, "__dict__"), name
    # PBFT-style clients never create the speculative-path container
    assert pending.spec_matches is None


def test_request_records_carry_no_certificate_state():
    # Zyzzyva's commit-certificate path keeps its own bookkeeping, so
    # PBFT, PoE and RCC requests do not pay for it
    slots = PendingRequest.__slots__
    assert not [slot for slot in slots if "certificate" in slot], slots
    assert "local_commits" not in slots


def _traced_growth(action) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_admitting_requests_allocates_no_object_per_request(rcc_system):
    primary = rcc_system.replicas["r0"]
    assert primary.is_primary
    groups = rcc_system.client_groups
    count = 500 * len(groups)
    # the ids each group issues next, so every request is fresh
    requests = [
        ClientRequest(
            group.name,
            group.next_request_id + i,
            (Transaction(group.name, (Operation(OpType.READ, "user1"),)),),
        )
        for i in range(count // len(groups))
        for group in groups
    ]
    primary.admission.max_per_client = None

    def admit():
        for message in requests:
            assert primary.admit_client_request(message)

    growth = _traced_growth(admit)
    # a set of (sender, id) tuples costs ~90 B per request; the bitmaps
    # cost one bit each, in 512-byte pages
    assert growth < count, f"{growth} B for {count} admitted requests"


def test_bytes_per_in_flight_transaction_stay_in_budget(rcc_system):
    group = rcc_system.client_groups[1]
    count = 400
    # open the window so each call issues a request instead of deferring
    group.window.size = group.window.max_size = len(group.pending) + count

    def issue():
        for _ in range(count):
            group._send_new_request()

    growth = _traced_growth(issue)
    per_txn = growth / (count * rcc_system.config.client_batch_txns)
    assert per_txn < BYTES_PER_TXN_BUDGET, f"{per_txn:.0f} B per transaction"
