"""Clients learn the current view from the signed replies they receive.

Each reply names the view (the lane's view, under RCC) that ordered it.
A client group accepts the highest view that f+1 distinct replicas have
reported and steers every new request to that view's primary, so after a
failover new requests stop going to the crashed primary first, while f
Byzantine replicas cannot misdirect the group.
"""

import pytest

from repro.bench.runner import base_config
from repro.consensus.messages import ClientResponse, SpecResponse
from repro.consensus.zyzzyva import GENESIS_HISTORY
from repro.core import ResilientDBSystem, SystemConfig
from repro.multi.unifier import steer_lane
from repro.net.transport import Network
from repro.sim.clock import millis

HUGE_VIEW = 10**6


def _idle_system(**overrides):
    """A deployment whose replicas never start: only one client group's
    reply loop runs, fed the replies a test sends it."""
    params = dict(
        num_replicas=7,
        num_clients=4,
        client_groups=1,
        batch_size=4,
        ycsb_records=100,
        warmup=millis(10),
        measure=millis(10),
    )
    params.update(overrides)
    system = ResilientDBSystem(SystemConfig(**params))
    group = system.client_groups[0]
    system.sim.spawn(group._inbox_loop())
    return system, group


def _deliver(system, group, replies):
    for reply in replies:
        system.network.send(reply.sender, group.name, reply)
    system.sim.run(until=system.sim.now + millis(1))


def _client_response(sender, view):
    return ClientResponse(sender, (0,), view, 1, "digest")


def test_f_replicas_cannot_move_the_steer_target_and_f_plus_1_can():
    system, group = _idle_system()
    f = system.quorum.f
    ids = system.replica_ids
    assert f == 2 and group._steer_target(0) == ids[0]
    liars = ids[1:1 + f]
    # f replicas report a far-future view, twice each: no quorum vouches
    _deliver(system, group, [_client_response(rid, HUGE_VIEW) for rid in liars * 2])
    assert group._steer_target(0) == ids[0]
    # one more distinct replica makes f+1: the group moves to that view
    _deliver(system, group, [_client_response(ids[1 + f], HUGE_VIEW)])
    assert group._steer_target(0) == ids[HUGE_VIEW % len(ids)] != ids[0]


def test_the_learned_view_is_the_highest_one_f_plus_1_replicas_reached():
    system, group = _idle_system()
    ids = system.replica_ids
    # views 5, 3, 3 and one liar at HUGE_VIEW: three replicas (f+1) are
    # at view 3 or beyond, but only two at view 5 or beyond
    _deliver(system, group, [
        _client_response(ids[1], 5),
        _client_response(ids[2], 3),
        _client_response(ids[3], 3),
        _client_response(ids[4], HUGE_VIEW),
    ])
    assert group._views == [3]
    assert group._steer_target(0) == ids[3]
    # a lower report from a replica never lowers the learned view
    _deliver(system, group, [_client_response(ids[2], 1)])
    assert group._views == [3]


@pytest.mark.parametrize("protocol", ["zyzzyva", "poe"])
def test_speculative_clients_learn_the_view_from_spec_responses(protocol):
    system, group = _idle_system(protocol=protocol)
    ids = system.replica_ids
    vouchers = ids[1:2 + system.quorum.f]
    _deliver(system, group, [
        SpecResponse(rid, (0,), 2, 1, "digest", GENESIS_HISTORY)
        for rid in vouchers
    ])
    assert group._views == [2]
    assert group._steer_target(0) == ids[2]


def _failover_config(seed):
    # the perfbench pbft-failover deployment
    return base_config(
        num_replicas=4,
        num_clients=200,
        client_groups=4,
        batch_size=8,
        batch_threads=1,
        ycsb_records=1_000,
        warmup=millis(40),
        measure=millis(200),
        queue_policy="reject",
        batch_queue_capacity=64,
        admission_max_inflight=12,
        client_window_initial=4,
        client_retransmit=millis(4),
        view_change_timeout=millis(12),
        seed=seed,
    )


def _spy_client_requests(monkeypatch, system, since):
    """Wrap ``Network.send``: record every client-request a client group
    sends at or after ``since`` as (group, destination, first send?,
    the group's learned views at that moment)."""
    groups = {group.name: group for group in system.client_groups}
    sent = []
    seen = set()
    send = Network.send

    def spy(self, src, dst, message):
        group = groups.get(src)
        if group is not None and message.kind == "client-request":
            key = (src, message.request_id)
            first = key not in seen
            seen.add(key)
            if self.sim.now >= since:
                sent.append((group, message.request_id, dst, first, list(group._views)))
        return send(self, src, dst, message)

    monkeypatch.setattr(Network, "send", spy)
    return sent


def test_after_a_failover_new_requests_go_to_the_new_primary(monkeypatch):
    config = _failover_config(seed=1001)
    system = ResilientDBSystem(config)
    crash_at = config.warmup + millis(40)
    system.crash_primary(at_ns=crash_at)
    sent = _spy_client_requests(monkeypatch, system, since=crash_at)
    system.run()
    assert all(group._views == [1] for group in system.client_groups)
    learned = [first_dst for _g, _r, first_dst, first, views in sent
               if first and views[0] >= 1]
    assert learned and "r0" not in learned
    to_r0 = sum(1 for _g, _r, dst, _f, _v in sent if dst == "r0")
    # a client that never learns the view sends 8,248 of 20,722 here
    assert to_r0 < 1_000


def test_rcc_clients_find_a_lane_primary_from_replies_alone(monkeypatch):
    # the rcc-m2-lane1-crash pin's deployment: r1 leads lane 1 in view 0
    # and crashes; lane 1's view-1 primary is r2
    config = SystemConfig(
        protocol="rcc",
        num_primaries=2,
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
        view_change_timeout=millis(12),
    )
    system = ResilientDBSystem(config)
    system.faults.crash_at("r1", millis(30))
    sent = _spy_client_requests(monkeypatch, system, since=millis(30))
    system.run()
    lane1 = [
        (dst, views) for group, request_id, dst, first, views in sent
        if first and steer_lane(group.name, request_id, 2) == 1
    ]
    after = [dst for dst, views in lane1 if views[1] >= 1]
    assert after and set(after) == {"r2"}
    # no client object holds a replica or an engine
    held = set()
    for replica in system.replicas.values():
        held.update((id(replica), id(replica.engine)))
    for group in system.client_groups:
        for value in vars(group).values():
            inner = value.values() if isinstance(value, dict) else (
                value if isinstance(value, (list, tuple, set)) else ()
            )
            assert id(value) not in held
            assert all(id(item) not in held for item in inner)
