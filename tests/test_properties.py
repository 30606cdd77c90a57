"""Property-based tests (hypothesis) on core data structures and the
protocol safety invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.consensus import QuorumConfig
from repro.consensus.safety import SafetyViolation, check_execution_consistency
from repro.crypto import CmacAesScheme, Ed25519Scheme, KeyStore
from repro.sim import SimQueue, Simulator
from repro.sim.metrics import LatencyHistogram
from repro.sim.queues import SimPriorityQueue
from repro.sim.rng import DeterministicRNG
from repro.storage import Block, Blockchain, CheckpointStore
from repro.workloads import ZipfianGenerator

from tests.consensus.harness import Cluster, make_request


# ----------------------------------------------------------------------
# quorum arithmetic
# ----------------------------------------------------------------------
@given(n=st.integers(min_value=4, max_value=400))
def test_quorum_intersection_property(n):
    """Any two commit quorums intersect in at least f+1 replicas, so they
    always share a non-faulty one — the root of BFT safety."""
    quorum = QuorumConfig.for_replicas(n)
    overlap = 2 * quorum.commit_quorum - quorum.n
    assert overlap >= quorum.f + 1
    assert quorum.prepare_quorum + 1 == quorum.commit_quorum


# ----------------------------------------------------------------------
# blockchain
# ----------------------------------------------------------------------
@st.composite
def chain_segments(draw):
    length = draw(st.integers(min_value=1, max_value=30))
    return [
        draw(st.text(alphabet="abcdef0123456789", min_size=4, max_size=8))
        for _ in range(length)
    ]


@given(digests=chain_segments())
@settings(max_examples=50)
def test_chain_append_validate_roundtrip(digests):
    from repro.storage.blockchain import CertificationMode

    chain = Blockchain("r0", mode=CertificationMode.PREV_HASH)
    for i, digest in enumerate(digests, start=1):
        chain.append(
            Block(
                sequence=i,
                digest=digest,
                view=0,
                proposer="r0",
                txn_count=1,
                prev_hash=chain.head().block_hash(),
            )
        )
    chain.validate()
    assert chain.height == len(digests)


@given(digests=chain_segments(), tamper_at=st.integers(min_value=0, max_value=28))
@settings(max_examples=50)
def test_chain_tampering_always_detected(digests, tamper_at):
    """Replacing any interior block's digest breaks validation (the
    immutability property of §2.2)."""
    from repro.storage.blockchain import CertificationMode, ChainViolation

    if len(digests) < 2:
        digests = digests + ["aa", "bb"]
    chain = Blockchain("r0", mode=CertificationMode.PREV_HASH)
    for i, digest in enumerate(digests, start=1):
        chain.append(
            Block(
                sequence=i,
                digest=digest,
                view=0,
                proposer="r0",
                txn_count=1,
                prev_hash=chain.head().block_hash(),
            )
        )
    index = 1 + (tamper_at % (len(chain.blocks) - 2)) if len(chain.blocks) > 2 else 1
    victim = chain.blocks[index]
    chain.blocks[index] = Block(
        sequence=victim.sequence,
        digest=victim.digest + "-tampered",
        view=victim.view,
        proposer=victim.proposer,
        txn_count=victim.txn_count,
        prev_hash=victim.prev_hash,
    )
    with pytest.raises(ChainViolation):
        chain.validate()


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------
@given(
    votes=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),  # checkpoint index
            st.sampled_from(["dA", "dB"]),
            st.sampled_from(["r0", "r1", "r2", "r3", "r4", "r5"]),
        ),
        max_size=80,
    )
)
@settings(max_examples=100)
def test_checkpoint_stability_monotone(votes):
    store = CheckpointStore(quorum_size=3, interval=10)
    last_stable = 0
    for index, digest, voter in votes:
        store.record_vote(index * 10, digest, voter)
        assert store.stable_sequence >= last_stable
        assert store.gc_horizon() <= store.stable_sequence
        last_stable = store.stable_sequence


# ----------------------------------------------------------------------
# queues
# ----------------------------------------------------------------------
@given(items=st.lists(st.integers(), max_size=50))
def test_queue_preserves_fifo_order(items):
    sim = Simulator()
    queue = SimQueue(sim, "q")
    for item in items:
        queue.put_nowait(item)
    drained = [queue.get_nowait() for _ in items]
    assert drained == items


@given(
    entries=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers()),
        max_size=50,
    )
)
def test_priority_queue_serves_in_priority_then_fifo_order(entries):
    sim = Simulator()
    queue = SimPriorityQueue(sim, "pq")
    for priority, item in entries:
        queue.put_nowait(item, priority=priority)
    drained = []
    while len(queue):
        drained.append(queue.get_nowait())
    # expected: stable sort by priority
    expected = [item for _priority, item in sorted(
        [(priority, item) for priority, item in entries],
        key=lambda pair: pair[0],
    )]
    # stable sort on priority only

    indexed = sorted(
        enumerate(entries), key=lambda pair: (pair[1][0], pair[0])
    )
    expected = [item for _i, (_priority, item) in indexed]
    assert drained == expected


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
@given(samples=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                        max_size=200))
def test_histogram_percentiles_bounded_by_extremes(samples):
    histogram = LatencyHistogram("h")
    for sample in samples:
        histogram.record(sample)
    p50 = histogram.percentile_seconds(50)
    p99 = histogram.percentile_seconds(99)
    assert min(samples) / 1e9 <= p50 <= p99 <= max(samples) / 1e9
    assert histogram.percentile_seconds(100) == max(samples) / 1e9


# ----------------------------------------------------------------------
# crypto
# ----------------------------------------------------------------------
@given(payload=st.binary(min_size=0, max_size=512))
def test_signature_roundtrip_any_payload(payload):
    store = KeyStore(1)
    store.register("a")
    store.register("b")
    for scheme in (Ed25519Scheme(store), CmacAesScheme(store)):
        token = scheme.authenticate(payload, "a", ["b"])
        valid = scheme.check(payload, token, "a", "b")
        assert valid
        if payload:
            corrupted = bytes([payload[0] ^ 1]) + payload[1:]
            still_valid = scheme.check(corrupted, token, "a", "b")
            assert not still_valid


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
@given(
    item_count=st.integers(min_value=2, max_value=10_000),
    theta=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50)
def test_zipfian_always_in_range(item_count, theta, seed):
    generator = ZipfianGenerator(item_count, DeterministicRNG(seed), theta=theta)
    for _ in range(50):
        assert 0 <= generator.next_key() < item_count


# ----------------------------------------------------------------------
# PBFT safety under adversarial delivery
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    request_count=st.integers(min_value=1, max_value=8),
    drop_fraction=st.floats(min_value=0.0, max_value=0.15),
)
@settings(max_examples=30, deadline=None)
def test_pbft_safety_under_shuffled_lossy_delivery(seed, request_count,
                                                   drop_fraction):
    """No interleaving or moderate message loss may make two replicas
    execute different batches at the same sequence number."""
    rng = DeterministicRNG(seed)
    cluster = Cluster(4)
    requests = [make_request("client0", i) for i in range(1, request_count + 1)]
    for request in requests:
        cluster.propose(request)

    def tamper(src, dst, message):
        return None if rng.random() < drop_fraction else message

    cluster.tamper = tamper
    steps = 0
    while cluster.wire and steps < 50_000:
        cluster.shuffle_wire(rng)
        cluster.deliver_one()
        steps += 1
    # safety always; liveness only without drops
    check_execution_consistency(cluster.executed)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_pbft_equivocating_primary_never_splits_state(seed):
    """A byzantine primary proposing different digests to different
    backups must not produce divergent executions."""
    rng = DeterministicRNG(seed)
    cluster = Cluster(4)
    good = make_request("client0", 1)
    evil = make_request("client0", 2)
    from repro.consensus.messages import PrePrepare

    # craft conflicting pre-prepares for sequence 1 by hand
    for dst, request in (("r1", good), ("r2", good), ("r3", evil)):
        cluster.wire.append(
            ("r0", dst, PrePrepare("r0", 0, 1, request.digest, request))
        )
    while cluster.wire:
        cluster.shuffle_wire(rng)
        cluster.deliver_one()
    check_execution_consistency(cluster.executed, faulty=["r0"])


def test_execution_consistency_detects_divergence():
    logs = {
        "r0": [(1, "a"), (2, "b")],
        "r1": [(1, "a"), (2, "c")],
    }
    with pytest.raises(SafetyViolation):
        check_execution_consistency(logs)


def test_execution_consistency_detects_gap():
    logs = {"r0": [(1, "a"), (3, "c")]}
    with pytest.raises(SafetyViolation):
        check_execution_consistency(logs)
