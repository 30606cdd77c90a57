"""The primaries' request dedup state: admission, retry and clearing."""

import pytest
from hypothesis import given, strategies as st

from repro.consensus.base import ExecuteReady
from repro.consensus.messages import ClientRequest, RequestBatch
from repro.core import ResilientDBSystem, execution
from repro.core.dedup import RequestKeySet
from repro.workloads import Operation, OpType, Transaction


def request(sender="client0", request_id=0):
    txn = Transaction(sender, (Operation(OpType.WRITE, f"k{request_id}", "v"),))
    return ClientRequest(sender, request_id, (txn,))


@pytest.fixture
def primary(small_config):
    system = ResilientDBSystem(small_config)
    replica = system.replicas["r0"]
    assert replica.is_primary
    return replica


# ----------------------------------------------------------------------
# RequestKeySet behaves as the set of key tuples it replaces
# ----------------------------------------------------------------------
# ids around page boundaries (pages hold 4,096 ids) and one far-off id
request_ids = st.one_of(
    st.integers(0, 40), st.integers(4_080, 4_110), st.just(10**12)
)
keys = st.tuples(st.sampled_from(["client0", "client1", "client2"]), request_ids)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), keys),
        st.tuples(st.just("discard"), keys),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=120,
)


@given(ops, st.lists(keys, max_size=40))
def test_request_key_set_matches_a_set_of_tuples(operations, probes):
    compact, reference = RequestKeySet(), set()
    for op, key in operations:
        if op == "add":
            compact.add(*key)
            reference.add(key)
        elif op == "discard":
            compact.discard(*key)
            reference.discard(key)
        else:
            compact.clear()
            reference.clear()
        assert len(compact) == len(reference)
    touched = [key for _op, key in operations if key is not None]
    for sender, request_id in touched + probes:
        for near in (request_id - 1, request_id, request_id + 1):
            expected = (sender, near) in reference
            assert compact.contains(sender, near) == expected


def test_a_far_off_request_id_costs_one_page():
    keys = RequestKeySet()
    keys.add("c", 3)
    keys.add("c", 10**12)
    assert keys.contains("c", 3) and keys.contains("c", 10**12)
    assert not keys.contains("c", 4) and not keys.contains("c", 10**12 - 1)
    assert len(keys) == 2
    assert sum(len(page) for page in keys._senders["c"].values()) == 2 * 512


def test_a_copy_is_independent_of_its_original():
    keys = RequestKeySet()
    keys.add("c", 1)
    clone = keys.copy()
    keys.add("c", 2)
    clone.add("d", 3)
    assert clone.contains("c", 1) and not clone.contains("c", 2)
    assert not keys.contains("d", 3)
    assert (len(keys), len(clone)) == (2, 2)


def test_add_requests_returns_the_requests_whose_key_was_new():
    keys = RequestKeySet()
    first = (request(request_id=1), request("client1", request_id=1))
    assert keys.add_requests(first) is first
    again = (
        request(request_id=2),
        request(request_id=1),  # added by the first call
        request("client1", request_id=2),
        request("client1", request_id=2),  # twice in one call
    )
    fresh = keys.add_requests(again)
    assert fresh == [again[0], again[2]]
    assert len(keys) == 4


# ----------------------------------------------------------------------
# exactly-once execution at every replica
# ----------------------------------------------------------------------
def test_a_request_proposed_twice_executes_once(small_config, monkeypatch):
    system = ResilientDBSystem(
        small_config.with_options(record_completions=True)
    )
    replica = system.replicas["r1"]
    writes, answered = [], []
    store_write = replica.ledger.store.write
    replica.ledger.store.write = lambda key, value: (
        writes.append(key) or store_write(key, value)
    )
    respond = execution.respond_to_clients

    def spy_respond(replica, action, batch, thread_id):
        answered.append([r.request_id for r in batch.requests])
        return respond(replica, action, batch, thread_id)

    monkeypatch.setattr(execution, "respond_to_clients", spy_respond)
    # request 5 rides in two batches, as when two RCC lanes propose it
    batches = [
        RequestBatch((request(request_id=4), request(request_id=5))),
        RequestBatch((request(request_id=5), request(request_id=6))),
    ]
    for sequence, batch in enumerate(batches, start=1):
        batch.digest = f"d{sequence}"
        replica.ledger.commit(
            ExecuteReady(sequence=sequence, view=0, request=batch)
        )
    system.sim.spawn(execution.drain_executions(replica, "r1.execute"))
    system.sim.run()
    assert [sequence for sequence, _ in replica.ledger.executed_log] == [1, 2]
    assert writes == ["k4", "k5", "k6"]
    assert replica.ledger.executed_requests == [
        (1, (("client0", 4), ("client0", 5))),
        (2, (("client0", 6),)),
    ]
    # the duplicate is still answered, so a client whose first replies
    # were lost completes
    assert answered == [[4, 5], [5, 6]]


# ----------------------------------------------------------------------
# admission at the primary (the rules themselves: tests/core/test_host.py)
# ----------------------------------------------------------------------
def test_retransmission_of_an_admitted_request_is_dropped(primary):
    first = request(request_id=7)
    assert primary.admit_client_request(first)
    # the same key again — a client retransmission of an in-flight request
    assert not primary.admit_client_request(request(request_id=7))
    assert primary.flow.rejected_requests == 0
    # other ids and other senders are unaffected
    assert primary.admit_client_request(request(request_id=8))
    assert primary.admit_client_request(request("client1", request_id=7))


def test_queue_rejected_request_is_admitted_again_on_retry(primary):
    message = request(request_id=3)
    assert primary.admit_client_request(message)
    # a bounded queue refused it: admission is undone and the client NACKed
    primary.reject_request(message, "queue")
    assert primary.flow.rejected_requests == 1
    assert primary.flow.nacked_keys == {("client0", 3)}
    assert primary.admit_client_request(request(request_id=3))


def test_request_refused_before_admission_is_admitted_on_retry(primary):
    primary.admission.max_per_client = 1
    assert primary.admit_client_request(request(request_id=0))
    # the per-client budget is full: NACKed, nothing recorded
    assert not primary.admit_client_request(request(request_id=1))
    assert primary.flow.rejected_requests == 1
    assert not primary.host.was_admitted("client0", 1)
    # the reply to request 0 frees the budget
    primary.admission.release_client("client0")
    assert primary.admit_client_request(request(request_id=1))


def test_shed_request_is_admitted_again_on_retry(primary):
    message = request(request_id=5)
    assert primary.admit_client_request(message)
    primary.batch_queue.on_shed(message)
    assert primary.flow.shed_keys == [("client0", 5)]
    assert primary.flow.shed_sequenced == []
    assert primary.admit_client_request(request(request_id=5))


def test_shedding_a_sequenced_request_is_recorded_for_the_oracle(primary):
    message = request(request_id=9)
    assert primary.admit_client_request(message)
    primary.host.mark_sequenced([message])
    primary.batch_queue.on_shed(message)
    assert primary.flow.shed_sequenced == [("client0", 9)]


# ----------------------------------------------------------------------
# a forged request must not lock its key (batch-thread and 0B worker)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_threads", [1, 0])
def test_a_forged_request_does_not_block_the_genuine_one(
    small_config, batch_threads
):
    system = ResilientDBSystem(
        small_config.with_options(
            real_auth_tokens=True, batch_threads=batch_threads
        )
    )
    primary = system.replicas["r0"]
    scheme = system.client_scheme
    # client1 signs a request carrying client0's key
    forged = request("client0", request_id=7)
    forged.auth = scheme.authenticate(
        forged.signable_bytes(), "client1", ["r0"]
    )
    assert primary.admit_client_request(forged)
    primary.queue_sequenced(forged)
    primary.start()
    system.sim.run(until=system.sim.now + 5_000_000)
    assert primary.invalid_messages == 1
    assert not primary.host.was_admitted("client0", 7)
    genuine = request("client0", request_id=7)
    genuine.auth = scheme.authenticate(
        genuine.signable_bytes(), "client0", ["r0"]
    )
    assert primary.admit_client_request(genuine)
