"""Crash-recovery / state-transfer tests (§4.7 purpose 1)."""

import pytest

from repro.consensus.base import ExecuteReady
from repro.consensus.messages import StateTransferResponse, make_null_batch
from repro.consensus.zyzzyva import GENESIS_HISTORY, extend_history
from repro.core import ResilientDBSystem, SystemConfig, execution, recovery, stages
from repro.core.ledger import LedgerTransfer
from repro.sim.clock import millis, seconds


def _recovery_config() -> SystemConfig:
    return SystemConfig(
        num_replicas=4,
        num_clients=48,
        client_groups=4,
        batch_size=6,
        ycsb_records=300,
        warmup=millis(50),
        measure=millis(600),
        view_change_timeout=seconds(10),  # keep VC out of the picture
    )


@pytest.fixture
def recovery_config():
    return _recovery_config()


@pytest.fixture(scope="module")
def recovered_run():
    """One run of the unmodified deployment, r3 crashed at 100 ms and
    healed at 300 ms, shared by the tests that only read its outcome."""
    system = ResilientDBSystem(_recovery_config())
    system.faults.crash_at("r3", millis(100))
    system.recover_replica("r3", at_ns=millis(300))
    result = system.run()
    return system, result


def test_recovered_replica_catches_up(recovered_run):
    system, _result = recovered_run
    recovered = system.replicas["r3"]
    healthy = system.replicas["r1"]
    assert recovered.recovery.completed >= 1
    # caught up to within a small window of the healthy replicas
    assert len(recovered.ledger.executed_log) > 0.8 * len(healthy.ledger.executed_log)
    system.validate_safety()


def test_state_transfer_carries_the_executed_request_keys(recovery_config):
    system = ResilientDBSystem(
        recovery_config.with_options(record_completions=True)
    )
    system.faults.crash_at("r3", millis(100))
    system.recover_replica("r3", at_ns=millis(300))
    system.run()
    recovered = system.replicas["r3"]
    assert recovered.recovery.completed >= 1
    # r3 executed none of the adopted range itself, yet knows every
    # request executed there, so it skips the duplicates its peers skip
    own = {key for _, keys in recovered.ledger.executed_requests for key in keys}
    healthy = system.replicas["r1"].ledger.executed_requests
    adopted = [
        key
        for sequence, keys in healthy
        if sequence <= recovered.ledger.executed_through
        for key in keys
        if key not in own
    ]
    assert adopted
    assert all(recovered.host.was_executed(*key) for key in adopted)


def test_recovered_state_converges(recovered_run):
    system, _result = recovered_run
    recovered = system.replicas["r3"].ledger
    healthy = system.replicas["r1"].ledger
    # identical executed prefixes imply identical digests position-wise
    common = min(len(recovered.executed_log), len(healthy.executed_log))
    assert recovered.executed_log[:common] == healthy.executed_log[:common]
    # the adopted chain is internally valid
    recovered.chain.validate()


def test_a_replica_runs_one_recovery_loop_at_a_time(recovery_config, monkeypatch):
    # short retries and checkpoints make checkpoint votes call
    # recovery.begin while a loop is still confirming its last adoption
    from repro.core.ledger import Ledger

    config = recovery_config.with_options(
        measure=millis(250),
        state_transfer_retry=millis(5),
        checkpoint_txns=60,
    )
    alive, peak, served = [0], [0], [0]
    loop = recovery.recovery_loop

    def counted_loop(replica):
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        try:
            yield from loop(replica)
        finally:
            alive[0] -= 1

    transfer_since = Ledger.transfer_since

    def counted_transfer(ledger, have):
        served[0] += 1
        return transfer_since(ledger, have)

    monkeypatch.setattr(recovery, "recovery_loop", counted_loop)
    monkeypatch.setattr(Ledger, "transfer_since", counted_transfer)
    system = ResilientDBSystem(config)
    system.faults.crash_at("r3", millis(100))
    system.recover_replica("r3", at_ns=millis(200))
    system.run()
    assert system.replicas["r3"].recovery.completed >= 1
    assert peak[0] == 1
    # with a new loop per call, up to 6 ran at once and peers served 165
    assert 0 < served[0] < 165
    system.validate_safety()


def test_recovery_counter_in_metrics(recovered_run):
    system, _result = recovered_run
    # warmup reset happens at 50ms, recovery at 300ms: counted
    assert system.metrics.counter("recoveries").value >= 1


def test_trace_records_recovery_and_checkpoints(recovery_config):
    system = ResilientDBSystem(recovery_config.with_options(trace=True))
    system.faults.crash_at("r3", millis(100))
    system.recover_replica("r3", at_ns=millis(300))
    system.run()
    recoveries = system.spans.events(category="recovery")
    assert [record.node for record in recoveries] == ["r3"] * len(recoveries)
    assert recoveries and recoveries[0].at >= millis(300)
    checkpoints = system.spans.events(category="checkpoint")
    assert {record.node for record in checkpoints} == set(system.replica_ids)


def test_throughput_survives_crash_and_recovery(recovered_run):
    _system, result = recovered_run
    assert result.completed_requests > 100


def test_healthy_replicas_ignore_stale_responses(recovery_config):
    """A state response offering less than we have is discarded."""
    system = ResilientDBSystem(recovery_config)
    replica = system.replicas["r1"]
    replica.recovery.active = True
    replica.ledger.next_sequence = 100
    stale = StateTransferResponse("r2", LedgerTransfer(
        executed_sequence=5, state_digest="d", history_hash=GENESIS_HISTORY,
        log_slice=(), blocks=(), snapshot=None, snapshot_records=0,
        pruned_through=0,
    ))
    assert not recovery.absorb_state_response(replica, stale)
    assert replica.recovery.active  # not adopted
    assert replica.ledger.next_sequence == 100


def test_adoption_requires_f_plus_1_matching_offers(recovery_config):
    system = ResilientDBSystem(recovery_config)
    replica = system.replicas["r1"]
    replica.recovery.active = True

    def offer(sender, digest, history_hash=GENESIS_HISTORY):
        return StateTransferResponse(sender, LedgerTransfer(
            executed_sequence=50, state_digest=digest,
            history_hash=history_hash,
            log_slice=tuple((i, "d") for i in range(1, 51)),
            blocks=(), snapshot=None, snapshot_records=0, pruned_through=0,
        ))

    assert not recovery.absorb_state_response(replica, offer("r2", "digestA"))
    assert replica.recovery.active  # one offer is not enough (f=1 -> need 2)
    assert not recovery.absorb_state_response(replica, offer("r3", "digestB"))
    assert replica.recovery.active  # conflicting digests never combine
    assert recovery.absorb_state_response(replica, offer("r0", "digestA"))
    assert not replica.recovery.active
    assert replica.recovery.completed == 1
    assert replica.ledger.next_sequence == 51


def test_offers_that_differ_only_in_history_hash_are_not_adopted(
    recovery_config,
):
    """One faulty peer cannot plant a forged Zyzzyva history hash into an
    otherwise matching offer."""
    system = ResilientDBSystem(recovery_config)
    replica = system.replicas["r1"]
    replica.recovery.active = True

    def offer(sender, history_hash):
        return StateTransferResponse(sender, LedgerTransfer(
            executed_sequence=50, state_digest="digestA",
            history_hash=history_hash,
            log_slice=tuple((i, "d") for i in range(1, 51)),
            blocks=(), snapshot=None, snapshot_records=0, pruned_through=0,
        ))

    recovery.absorb_state_response(replica, offer("r2", GENESIS_HISTORY))
    recovery.absorb_state_response(replica, offer("r3", "forged"))
    assert replica.recovery.active  # f+1 senders, but no f+1 agreement
    assert replica.ledger.next_sequence == 1
    assert replica.ledger.history_hash == GENESIS_HISTORY
    recovery.absorb_state_response(replica, offer("r0", GENESIS_HISTORY))
    assert not replica.recovery.active
    assert replica.ledger.next_sequence == 51


@pytest.mark.parametrize("execute_threads", [1, 0])
def test_an_adoption_below_a_waiting_commit_resumes_execution(
    recovery_config, execute_threads,
):
    """The adopted state ends just below a commit that is already
    waiting: the adoption wakes the parked execute-thread (with
    ``execute_threads=0`` the worker drains it), so execution does not
    stall at the adopted sequence."""
    system = ResilientDBSystem(
        recovery_config.with_options(execute_threads=execute_threads)
    )
    replica = system.replicas["r1"]
    if execute_threads:
        system.sim.spawn(execution.execute_loop(replica))
        system.sim.run()  # the execute-thread parks: nothing has committed
        assert replica.executor.parked is not None
    replica.ledger.commit(
        ExecuteReady(sequence=51, view=0, request=make_null_batch())
    )
    replica.recovery.active = True
    # the state f+1 peers offer: 50 executed batches
    peer = system.replicas["r2"].ledger
    for sequence in range(1, 51):
        action = ExecuteReady(sequence=sequence, view=0, request=make_null_batch())
        peer.record(action, "r0", ())
    transfer = peer.transfer_since(0)
    scheme = system.replica_scheme

    def offer(sender):
        message = StateTransferResponse(sender, transfer)
        message.auth = scheme.authenticate(
            message.signable_bytes(), sender, ["r1"]
        )
        return message

    def worker():
        for sender in ("r2", "r0"):
            yield from stages.handle_protocol_message(
                replica, offer(sender), "r1.worker"
            )

    system.sim.spawn(worker())
    system.sim.run()
    assert replica.recovery.completed == 1
    assert replica.ledger.executed_through == 51
    assert replica.ledger.next_sequence == 52


def test_recovered_store_matches_peers_and_snapshot_counts_the_table(
    recovery_config, monkeypatch,
):
    # a table large enough that the run writes only a fraction of it
    config = recovery_config.with_options(ycsb_records=100_000)
    system = ResilientDBSystem(config)
    recovered = system.replicas["r3"]
    adopted = []
    adopt = recovery.adopt_state

    def record_adoption(replica, response):
        adopt(replica, response)
        if replica is recovered:
            adopted.append(
                (response.transfer.snapshot_records, recovered.ledger.store.size())
            )

    monkeypatch.setattr(recovery, "adopt_state", record_adoption)
    system.faults.crash_at("r3", millis(100))
    system.recover_replica("r3", at_ns=millis(300))
    system.run()
    # silence the clients and drain so every replica executes the same log
    for group in system.client_groups:
        system.faults.crash(group.name)
    system.sim.run(until=system.sim.now + millis(200))

    assert adopted
    for snapshot_records, size in adopted:
        # the whole logical table ships, not just the peer's own writes
        assert snapshot_records == size == config.ycsb_records
    assert recovered.ledger.executed_log == system.replicas["r1"].ledger.executed_log
    for rid in ("r0", "r1", "r2"):
        peer = system.replicas[rid].ledger.store
        assert recovered.ledger.store.differing_keys(peer) == set()
    system.validate_safety()


def test_a_zyzzyva_replica_recovered_by_state_transfer_keeps_the_fast_path():
    """The transfer carries the Zyzzyva history hash: a replica that
    catches up by state transfer signs its later spec-responses with the
    same history hash as its peers, so clients keep completing on the
    3f+1 fast path."""
    config = SystemConfig(
        protocol="zyzzyva",
        num_replicas=4,
        num_clients=32,
        client_groups=4,
        batch_size=6,
        ycsb_records=300,
        warmup=millis(20),
        measure=millis(100),
        seed=7,
        checkpoint_txns=60,
        client_retransmit=millis(4),
        state_transfer_retry=millis(5),
        zyzzyva_client_timeout=millis(3),
    )
    system = ResilientDBSystem(config)
    system.faults.crash_at("r3", millis(25))
    system.recover_replica("r3", at_ns=millis(60))
    result = system.run()
    recovered = system.replicas["r3"].ledger
    assert system.replicas["r3"].recovery.completed >= 1
    by_watermark = {}
    for replica in system.replicas.values():
        ledger = replica.ledger
        by_watermark.setdefault(ledger.executed_through, set()).add(
            ledger.history_hash
        )
    assert all(len(hashes) == 1 for hashes in by_watermark.values())
    # r3's own hash is the history chain over the order its peers executed
    expected = GENESIS_HISTORY
    for sequence, digest in system.replicas["r1"].ledger.executed_log:
        if sequence > recovered.executed_through:
            break
        expected = extend_history(expected, digest)
    assert recovered.history_hash == expected
    assert result.fast_path_completions > result.slow_path_completions
