"""Request carry-over across view changes.

A backup keeps every client request it forwards until the request
executes; when a view change makes it the primary of a request's lane it
proposes the cached request at once instead of waiting for the client's
next backed-off retransmission.
"""

import pytest

from repro.consensus.messages import ClientRequest
from repro.core import ResilientDBSystem, SystemConfig
from repro.flow.invariants import check_flow_invariants
from repro.fuzz.oracles import check_exactly_once
from repro.sim.clock import millis


def _crash_config(**overrides) -> SystemConfig:
    params = dict(
        num_replicas=4,
        num_clients=32,
        client_groups=4,
        batch_size=6,
        ycsb_records=300,
        warmup=millis(20),
        measure=millis(100),
        seed=7,
        client_retransmit=millis(4),
        view_change_timeout=millis(12),
        record_completions=True,
    )
    params.update(overrides)
    return SystemConfig(**params)


class _Spy:
    """Records, at one replica, client-request arrivals, view entries
    (with the cache size then) and the batches its engine proposes."""

    def __init__(self, system, replica_id):
        self.sim = system.sim
        self.replica = replica = system.replicas[replica_id]
        self.arrivals = []
        self.entered = []
        self.proposals = []
        admit = replica.admit_client_request
        enter = replica._on_enter_view
        propose = replica.engine.propose

        def spy_admit(message):
            self.arrivals.append((self.sim.now, _key(message)))
            return admit(message)

        def spy_enter(view):
            self.entered.append(
                (self.sim.now, len(replica.host.forwarded_keys()))
            )
            return enter(view)

        def spy_propose(digest, batch):
            proposal, actions = propose(digest, batch)
            lane = getattr(proposal, "instance", 0)
            keys = [_key(request) for request in batch.requests]
            self.proposals.append((self.sim.now, lane, keys))
            return proposal, actions

        replica.admit_client_request = spy_admit
        replica._on_enter_view = spy_enter
        replica.engine.propose = spy_propose


def _key(request):
    return (request.sender, request.request_id)


def _assert_executed_once(system, faulty=()):
    executed = {
        rid: replica.ledger.executed_requests
        for rid, replica in system.replicas.items()
    }
    assert check_exactly_once(executed, faulty=faulty) > 0


def test_new_primary_proposes_forwarded_requests_before_any_retransmit():
    system = ResilientDBSystem(_crash_config())
    system.crash_primary(at_ns=millis(30))
    spy = _Spy(system, "r1")
    system.run()
    assert spy.entered, "r1 never became primary"
    entered_at, cached = spy.entered[0]
    assert cached > 0
    forwarded = {key for t, key in spy.arrivals if t < entered_at}
    first_retransmit = min(t for t, _ in spy.arrivals if t >= entered_at)
    first_time, _lane, first_keys = spy.proposals[0]
    # r1's first proposal comes after it enters the view, carries only
    # requests it had forwarded to the dead primary, and beats every
    # retransmission that reaches it in the new view
    assert entered_at <= first_time < first_retransmit
    assert first_keys and set(first_keys) <= forwarded
    system.validate_safety(faulty=("r0",))
    _assert_executed_once(system)


def test_carry_over_sends_no_busy_nack_when_admission_is_full():
    system = ResilientDBSystem(
        _crash_config(admission_max_per_client=2, real_auth_tokens=False)
    )
    replica = system.replicas["r1"]
    replica.start()  # r1 alone: no client traffic, no peers
    requests = [ClientRequest("client0", i, ()) for i in range(5)]
    for request in requests:
        replica.host.remember_forwarded(request)
    replica.engine.view = 1  # r1 leads view 1
    replica._on_enter_view(1)
    system.sim.run(until=millis(5))
    # the per-client budget admits two; the pass stops there, silently
    assert replica.flow.nacks_sent == 0
    assert replica.flow.rejected_requests == 0
    assert replica.batch_queue.enqueued_total == 2
    assert all(
        replica.host.was_admitted("client0", i) == (i < 2) for i in range(5)
    )
    assert check_flow_invariants(system) == []


def test_failover_under_overload_keeps_flow_invariants():
    system = ResilientDBSystem(
        _crash_config(
            num_clients=200,
            batch_size=8,
            batch_threads=1,
            queue_policy="reject",
            batch_queue_capacity=64,
            admission_max_inflight=12,
            client_window_initial=4,
        )
    )
    system.crash_primary(at_ns=millis(40))
    spy = _Spy(system, "r1")
    system.run()
    assert spy.entered and spy.entered[0][1] > 0
    assert check_flow_invariants(system) == []
    system.validate_safety(faulty=("r0",))
    _assert_executed_once(system)


def test_cache_is_empty_after_the_next_stable_checkpoint():
    system = ResilientDBSystem(_crash_config(checkpoint_txns=60))
    system.crash_primary(at_ns=millis(30))
    after_gc = []
    for replica in system.replicas.values():

        def spy_gc(host=replica.host, gc=replica.host.gc):
            gc()
            after_gc.append((system.sim.now, len(host.forwarded_keys())))

        replica.host.gc = spy_gc
    spy = _Spy(system, "r1")
    system.run()
    entered_at, cached = spy.entered[0]
    assert cached > 0
    assert any(t > entered_at for t, _ in after_gc)
    assert all(size == 0 for _, size in after_gc)
    # what is left at the end is in flight: nothing a replica executed
    for replica in system.replicas.values():
        executed = {
            key for _, keys in replica.ledger.executed_requests for key in keys
        }
        assert not executed & set(replica.host.forwarded_keys())


def test_rcc_lane1_crash_reproposes_cached_requests_on_the_new_lane_primary():
    system = ResilientDBSystem(
        _crash_config(protocol="rcc", num_primaries=2, checkpoint_txns=60)
    )
    # r1 leads lane 1 in view 0; lane 1's view 1 primary is r2
    system.faults.crash_at("r1", millis(30))
    spy = _Spy(system, "r2")
    system.run()
    assert spy.entered, "r2 never took over lane 1"
    entered_at, cached = spy.entered[0]
    assert cached > 0
    forwarded = {key for t, key in spy.arrivals if t < entered_at}
    lane1 = [
        (t, keys) for t, lane, keys in spy.proposals
        if lane == 1 and t >= entered_at and keys
    ]
    assert lane1, "r2 proposed nothing in lane 1"
    first_time, first_keys = lane1[0]
    assert set(first_keys) <= forwarded
    first_retransmit = min(t for t, _ in spy.arrivals if t >= entered_at)
    assert first_time < first_retransmit
    _assert_executed_once(system)


@pytest.mark.parametrize(
    "engine", [{"protocol": "pbft"}, {"protocol": "rcc", "num_primaries": 2}]
)
def test_fault_free_runs_cache_nothing(engine):
    # clients send straight to their primary, so no replica forwards and
    # the carry-over never runs
    system = ResilientDBSystem(_crash_config(measure=millis(40), **engine))
    system.run()
    for replica in system.replicas.values():
        assert replica.forwarded_requests == 0
        assert not replica.host.forwarded_keys()
