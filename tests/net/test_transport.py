"""Tests for the NIC-level transport and fault injection."""

import pytest

from repro.net import FaultPlan, Message, Network, Topology, WIRE_HEADER_BYTES
from repro.sim import Simulator, micros, seconds


class Ping(Message):
    kind = "ping"

    __slots__ = ("body_bytes",)

    def __init__(self, sender, body_bytes=0):
        super().__init__(sender)
        self.body_bytes = body_bytes

    def payload_bytes(self):
        return self.body_bytes


def make_network(sim, **topo_kwargs):
    network = Network(sim, topology=Topology(**topo_kwargs))
    a = network.register("a")
    b = network.register("b")
    return network, a, b


def drain_one(sim, endpoint, collected):
    def loop():
        message = yield endpoint.inbox.get()
        collected.append((sim.now, message))

    sim.spawn(loop())


def test_message_delivered_with_latency_and_serialisation():
    sim = Simulator()
    network, _a, b = make_network(
        sim, one_way_latency_ns=micros(100), nic_gbps=10.0
    )
    got = []
    drain_one(sim, b, got)
    message = Ping("a", body_bytes=10_000)
    network.send("a", "b", message)
    sim.run(until=seconds(1))
    assert len(got) == 1
    arrival, delivered = got[0]
    assert delivered is message
    size = message.wire_bytes()
    tx_ns = Topology(nic_gbps=10.0).transmission_ns(size)
    # TX serialisation + propagation + RX serialisation
    assert arrival == 2 * tx_ns + micros(100)


def test_wire_size_accounting():
    message = Ping("a", body_bytes=500)
    assert message.wire_bytes() == WIRE_HEADER_BYTES + 500
    # auth adds the per-receiver token size
    from repro.crypto import Ed25519Scheme, KeyStore

    store = KeyStore(0)
    store.register("a")
    scheme = Ed25519Scheme(store)
    message.auth = scheme.authenticate(b"x", "a", ["b"])
    assert message.wire_bytes() == WIRE_HEADER_BYTES + 500 + 64


def test_nic_serialises_back_to_back_sends():
    """Two large messages from one endpoint share its TX NIC, so the second
    arrives one serialisation time after the first."""
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0, nic_gbps=1.0)
    arrivals = []

    def drain():
        while True:
            yield b.inbox.get()
            arrivals.append(sim.now)

    sim.spawn(drain())
    first = Ping("a", body_bytes=100_000)
    second = Ping("a", body_bytes=100_000)
    network.send("a", "b", first)
    network.send("a", "b", second)
    sim.run(until=seconds(1))
    tx_ns = Topology(nic_gbps=1.0).transmission_ns(first.wire_bytes())
    assert arrivals == [2 * tx_ns, 3 * tx_ns]


def test_broadcast_excludes_sender():
    sim = Simulator()
    network = Network(sim, topology=Topology(one_way_latency_ns=0))
    endpoints = {name: network.register(name) for name in ("a", "b", "c")}
    received = {name: [] for name in endpoints}

    def drain(name):
        while True:
            message = yield endpoints[name].inbox.get()
            received[name].append(message)

    for name in endpoints:
        sim.spawn(drain(name))
    network.broadcast("a", list(endpoints), Ping("a"))
    sim.run(until=seconds(1))
    assert len(received["b"]) == 1 and len(received["c"]) == 1
    assert received["a"] == []


def test_duplicate_registration_rejected():
    sim = Simulator()
    network = Network(sim)
    network.register("a")
    with pytest.raises(ValueError):
        network.register("a")


def test_send_to_unknown_endpoint_rejected():
    sim = Simulator()
    network = Network(sim)
    network.register("a")
    with pytest.raises(KeyError):
        network.send("a", "ghost", Ping("a"))


def test_crashed_receiver_drops_message():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.crash("b")
    got = []
    drain_one(sim, b, got)
    network.send("a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert got == []
    assert network.dropped_messages == 1


def test_crashed_sender_sends_nothing():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.crash("a")
    got = []
    drain_one(sim, b, got)
    network.send("a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert got == []


def test_scheduled_crash_takes_effect_at_time():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.crash_at("b", micros(500))
    arrivals = []

    def drain():
        while True:
            yield b.inbox.get()
            arrivals.append(sim.now)

    sim.spawn(drain())
    network.send("a", "b", Ping("a"))
    sim.schedule(micros(600), network.send, "a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert len(arrivals) == 1


def test_partition_blocks_both_directions():
    sim = Simulator()
    network, a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.partition(["a"], ["b"])
    got_a, got_b = [], []
    drain_one(sim, a, got_a)
    drain_one(sim, b, got_b)
    network.send("a", "b", Ping("a"))
    network.send("b", "a", Ping("b"))
    sim.run(until=seconds(1))
    assert got_a == [] and got_b == []
    network.faults.heal_partitions()
    network.send("a", "b", Ping("a"))
    sim.run(until=seconds(2))
    assert len(got_b) == 1


def test_lossy_link_drops_deterministically():
    sim = Simulator(seed=3)
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.drop_link("a", "b", probability=0.5)
    count = []

    def drain():
        while True:
            yield b.inbox.get()
            count.append(1)

    sim.spawn(drain())
    for _ in range(100):
        network.send("a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert 20 < len(count) < 80  # roughly half, seeded so stable
    assert network.dropped_messages == 100 - len(count)


def test_fault_plan_validation():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.drop_link("a", "b", probability=1.5)


def test_network_statistics():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    got = []
    drain_one(sim, b, got)
    message = Ping("a", body_bytes=1000)
    network.send("a", "b", message)
    sim.run(until=seconds(1))
    assert network.messages_sent == 1
    assert network.bytes_sent == message.wire_bytes()


# -- the NIC as two FIFO servers ---------------------------------------------


def test_receiver_crash_mid_rx_drops_that_message_and_later_ones():
    sim = Simulator()
    latency = micros(10)
    network, _a, b = make_network(sim, one_way_latency_ns=latency, nic_gbps=1.0)
    messages = [Ping("a", body_bytes=10_000) for _ in range(3)]
    tx_ns = Topology(nic_gbps=1.0).transmission_ns(messages[0].wire_bytes())
    for message in messages:
        network.send("a", "b", message)
    # m0 is delivered at 2T+L; m1 is mid-RX-serialisation at the crash
    network.faults.crash_at("b", 2 * tx_ns + latency + tx_ns // 2)
    got = []

    def drain():
        while True:
            message = yield b.inbox.get()
            got.append((sim.now, message))

    sim.spawn(drain())
    sim.run(until=seconds(1))
    assert got == [(2 * tx_ns + latency, messages[0])]
    assert network.dropped_messages == 2


def test_zero_time_transmission_keeps_fifo_order():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=micros(5), nic_gbps=1e9)
    messages = [Ping("a", body_bytes=size) for size in (0, 100, 0, 50, 0)]
    assert all(
        network.topology.transmission_ns(m.wire_bytes()) == 0 for m in messages
    )
    got = []

    def drain():
        while True:
            message = yield b.inbox.get()
            got.append((sim.now, message))

    sim.spawn(drain())
    for message in messages:
        network.send("a", "b", message)
    sim.run(until=seconds(1))
    assert got == [(micros(5), message) for message in messages]


def test_endpoints_spawn_no_processes():
    sim = Simulator()
    make_network(sim)
    assert sim.pending_events == 0
