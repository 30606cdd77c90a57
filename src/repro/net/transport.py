"""NIC-level transport between endpoints.

Every endpoint has one full-duplex NIC, modelled as two FIFO servers
(transmit and receive), each a busy flag plus a backlog.  Per message,
src → dst:

1. ``Network.send`` hands the message to ``src``'s TX server: it starts
   serialising at once if the NIC is idle, or joins the TX backlog.
   Serialisation occupies the NIC for ``size ÷ bandwidth``.
2. At serialisation end (``_tx_done``) the fault plan decides delivery, and
   the message arrives at ``dst`` one propagation latency later
   (``_arrive``), where it starts or queues for RX service.
3. RX serialisation takes the same time; at its end (``_rx_done``) the
   message is handed to ``dst.inbox`` and the next RX entry starts.

That is three kernel callbacks per delivered message.  Both ends matter: a
primary broadcasting large ``Pre-prepare`` messages is TX-bound, while a
primary collecting 2f+1 ``Prepare``/``Commit`` messages from every backup
is RX-bound.  The fault plan is consulted at send time (sender crash), at
serialisation end (drops, partitions) and at RX end (receiver crash).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional

from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.queues import SimQueue


class Endpoint:
    """One network-attached node (replica or client group)."""

    def __init__(self, network: "Network", name: str):
        self.network = network
        self.name = name
        #: messages ready for the node's input threads
        self.inbox = SimQueue(network.sim, name=f"{name}.inbox")
        self._tx_busy = False
        self._tx_backlog: deque = deque()  # (dst, message, size)
        self._rx_busy = False
        self._rx_backlog: deque = deque()  # (message, size)

    # -- transmit server -------------------------------------------------
    def _transmit(self, dst: str, message: Message, size: int) -> None:
        if self._tx_busy:
            self._tx_backlog.append((dst, message, size))
        else:
            self._tx_busy = True
            self._tx_start(dst, message, size)

    def _tx_start(self, dst: str, message: Message, size: int) -> None:
        network = self.network
        network.sim.schedule(
            network.topology.transmission_ns(size),
            self._tx_done, dst, message, size,
        )

    def _tx_done(self, dst: str, message: Message, size: int) -> None:
        network = self.network
        sim = network.sim
        if network.faults.should_deliver(self.name, dst, sim.now):
            topology = network.topology
            latency = topology.one_way_latency_ns
            if topology.jitter_ns:
                latency += sim.rng.randint(0, topology.jitter_ns)
            sim.schedule(latency, network.endpoints[dst]._arrive, message, size)
        else:
            network.dropped_messages += 1
        if self._tx_backlog:
            self._tx_start(*self._tx_backlog.popleft())
        else:
            self._tx_busy = False

    # -- receive server --------------------------------------------------
    def _arrive(self, message: Message, size: int) -> None:
        if self._rx_busy:
            self._rx_backlog.append((message, size))
        else:
            self._rx_busy = True
            self._rx_start(message, size)

    def _rx_start(self, message: Message, size: int) -> None:
        network = self.network
        network.sim.schedule(
            network.topology.transmission_ns(size), self._rx_done, message
        )

    def _rx_done(self, message: Message) -> None:
        network = self.network
        if network.faults.is_crashed(self.name, network.sim.now):
            network.dropped_messages += 1
        else:
            self.inbox.put_nowait(message)
        if self._rx_backlog:
            self._rx_start(*self._rx_backlog.popleft())
        else:
            self._rx_busy = False


class Network:
    """The datacenter fabric connecting all endpoints."""

    def __init__(
        self,
        sim,
        topology: Optional[Topology] = None,
        faults: Optional[FaultPlan] = None,
    ):
        self.sim = sim
        self.topology = topology or Topology()
        self.faults = faults or FaultPlan(sim.rng.fork("faults"))
        self.endpoints: Dict[str, Endpoint] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.dropped_messages = 0

    def reset_window(self) -> None:
        """Zero traffic statistics (called when a measurement window opens)."""
        self.messages_sent = 0
        self.bytes_sent = 0
        self.dropped_messages = 0

    def register(self, name: str) -> Endpoint:
        """Attach an endpoint; returns its handle (with ``inbox``)."""
        if name in self.endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(self, name)
        self.endpoints[name] = endpoint
        return endpoint

    def send(self, src: str, dst: str, message: Message) -> None:
        """Hand ``message`` to ``src``'s NIC for transmission to ``dst``."""
        if dst not in self.endpoints:
            raise KeyError(f"unknown destination endpoint {dst!r}")
        if self.faults.is_crashed(src, self.sim.now):
            self.dropped_messages += 1
            return
        size = message.wire_bytes()
        self.messages_sent += 1
        self.bytes_sent += size
        message.created_at = self.sim.now
        self.endpoints[src]._transmit(dst, message, size)

    def broadcast(self, src: str, destinations: Iterable[str], message: Message) -> None:
        """Send one copy of ``message`` to every destination (not ``src``)."""
        for dst in destinations:
            if dst != src:
                self.send(src, dst, message)
