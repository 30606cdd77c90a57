"""The replica's executed state, driven with plain batches and no simulator.

:class:`~repro.core.ledger.Ledger` executes batches, attests checkpoints
and hands its state to a peer, so these tests need no deployment.
"""

from repro.consensus.base import ExecuteReady
from repro.consensus.messages import (
    ClientRequest, RequestBatch, StateTransferResponse,
)
from repro.consensus.zyzzyva import GENESIS_HISTORY
from repro.core.config import SystemConfig
from repro.core.dedup import RequestKeySet
from repro.core.ledger import Ledger
from repro.storage.blockchain import CertificationMode
from repro.workloads import Operation, OpType, Transaction

REPLICA_IDS = ("r0", "r1", "r2", "r3")
TABLE = {f"k{i}": "initial" for i in range(10)}


def ledger(history_chain=False, **options) -> Ledger:
    config = SystemConfig(num_replicas=len(REPLICA_IDS), **options)
    state = Ledger(config, REPLICA_IDS, 3, history_chain)
    state.store.preload(TABLE)
    return state


def action(sequence, *request_ids):
    requests = tuple(
        ClientRequest("client0", request_id, (Transaction(
            "client0", (Operation(OpType.WRITE, f"k{request_id}", "v"),),
        ),))
        for request_id in request_ids
    )
    batch = RequestBatch(requests)
    batch.digest = f"d{sequence}"
    return ExecuteReady(sequence=sequence, view=0, request=batch)


def record(target: Ledger, executed: RequestKeySet, *actions) -> None:
    for item in actions:
        fresh = executed.add_requests(item.request.requests)
        target.record(item, "r0", fresh)


def test_a_transfer_into_an_empty_ledger_reproduces_the_state():
    source = ledger(history_chain=True, record_completions=True)
    executed = RequestKeySet()
    record(source, executed, action(1, 1, 2), action(2, 3), action(3, 2, 4))
    transfer = source.transfer_since(0)

    target = ledger(history_chain=True)
    target.adopt(transfer)
    assert target.executed_log == source.executed_log == [
        (1, "d1"), (2, "d2"), (3, "d3"),
    ]
    assert target.executed_through == 3
    assert target.state_digest == source.state_digest
    assert target.history_hash == source.history_hash != GENESIS_HISTORY
    assert target.chain.head() == source.chain.head()
    target.chain.validate()
    assert target.store.differing_keys(source.store) == set()
    # the exactly-once log is the replica's own: request 2 ran once
    assert source.executed_requests == [
        (1, (("client0", 1), ("client0", 2))),
        (2, (("client0", 3),)),
        (3, (("client0", 4),)),
    ]
    assert target.executed_requests is None


def test_a_transfer_carries_what_lies_past_the_requesters_watermark():
    source = ledger()
    record(source, RequestKeySet(), action(1, 1), action(2, 2), action(3, 3))
    transfer = source.transfer_since(1)
    assert transfer.executed_sequence == 3
    assert transfer.log_slice == ((2, "d2"), (3, "d3"))
    assert [block.sequence for block in transfer.blocks] == [2, 3]
    # the modelled snapshot is the whole logical table
    assert transfer.snapshot_records == len(TABLE)
    response = StateTransferResponse("r1", transfer)
    assert response.payload_bytes() == 48 + 40 * 2 + 200 * 2 + 120 * len(TABLE)
    # without applied state there is no snapshot to ship
    bare = ledger(apply_state=False)
    record(bare, RequestKeySet(), action(1, 1))
    assert bare.transfer_since(0).snapshot is None
    assert bare.store.differing_keys(ledger().store) == set()


def test_blocks_certify_from_the_chains_own_mode_and_quorum():
    speculative = ledger()
    record(speculative, RequestKeySet(), action(1, 1))
    # no commit proof (speculative execution): the quorum is synthesised
    assert speculative.chain.head().commit_certificate == tuple(
        (rid, b"speculative") for rid in REPLICA_IDS[:3]
    )
    linked = ledger(certification=CertificationMode.PREV_HASH)
    record(linked, RequestKeySet(), action(1, 1), action(2, 2))
    assert linked.chain.head().prev_hash == linked.chain.get(1).block_hash()
    linked.chain.validate()


def test_attest_records_the_digest_a_checkpoint_vote_carries():
    state = ledger()
    assert state.executed_through == 0
    record(state, RequestKeySet(), action(1, 1))
    digest = state.attest(1)
    assert digest == state.state_digest
    assert state.checkpoint_digests == {1: digest}


def test_prune_drops_blocks_below_the_horizon_and_a_transfer_says_so():
    source = ledger()
    record(source, RequestKeySet(), *(action(seq, seq) for seq in range(1, 6)))
    source.prune(4)
    assert source.chain.get(3) is None
    assert source.chain.get(4) is not None
    transfer = source.transfer_since(0)
    assert transfer.pruned_through == 3
    assert [block.sequence for block in transfer.blocks] == [4, 5]
    target = ledger()
    target.adopt(transfer)
    assert target.chain.head() == source.chain.head()
    target.chain.validate()


# -- the execute order ------------------------------------------------------
def test_commit_drops_a_duplicate_and_a_replay():
    state = ledger()
    assert state.commit(action(5, 1)) == (True, False)
    assert state.commit(action(5, 1)) == (False, False)
    assert list(state.waiting) == [5]
    # already-executed sequences are ignored too
    state.next_sequence = 10
    assert state.commit(action(7, 2)) == (False, False)
    assert 7 not in state.waiting


def test_take_next_follows_sequence_order():
    state = ledger()
    for sequence in (3, 2):
        assert state.commit(action(sequence, sequence)) == (True, False)
    assert not state.ready  # sequence 1 has not committed
    assert state.next_sequence == 1
    # committing the next sequence reports it ready
    assert state.commit(action(1, 1)) == (True, True)
    taken = []
    while state.ready:
        taken.append(state.take_next().sequence)
    assert taken == [1, 2, 3]
    assert state.next_sequence == 4
    assert not state.ready and not state.waiting
    # the cursor moves as a batch is taken, before it is recorded
    assert state.executed_through == 0


def test_committed_through_counts_waiting_commits():
    state = ledger()
    assert state.committed_through == 0
    state.commit(action(4, 4))
    assert state.committed_through == 4  # a commit above a gap counts
    state.commit(action(1, 1))
    record(state, RequestKeySet(), state.take_next())
    assert (state.executed_through, state.committed_through) == (1, 4)
    state.commit(action(2, 2))
    record(state, RequestKeySet(), state.take_next())
    assert state.committed_through == 4
    assert list(state.waiting) == [4]


def test_adopt_moves_the_cursor_and_keeps_only_later_commits():
    source = ledger()
    record(source, RequestKeySet(), *(action(seq, seq) for seq in range(1, 6)))
    target = ledger()
    for sequence in (2, 5, 6, 8):
        target.commit(action(sequence, sequence))
    target.adopt(source.transfer_since(0))
    assert target.next_sequence == 6
    assert list(target.waiting) == [6, 8]
    assert target.ready
    assert (target.executed_through, target.committed_through) == (5, 8)
    # a replay of an adopted sequence is dropped
    assert target.commit(action(4, 4)) == (False, True)
