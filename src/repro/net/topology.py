"""Deployment topology: link latency and NIC bandwidth.

The paper's testbed is a single Google Cloud region (Iowa), so the default
topology is a flat datacenter: constant one-way latency between any two
endpoints and one full-duplex NIC per endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import NANOS_PER_SEC, micros


@dataclass(frozen=True)
class Topology:
    """Network parameters shared by all endpoints.

    ``nic_gbps`` is the per-endpoint link rate.  GCP c2-standard-8 instances
    are rated 16 Gbps egress, but sustained many-stream goodput lands well
    below that; we default to 7 Gbps (as ``SystemConfig.nic_gbps`` does),
    which reproduces where the message-size experiment becomes
    network-bound.
    """

    one_way_latency_ns: int = micros(100)
    nic_gbps: float = 7.0

    #: extra per-message latency jitter bound (uniform, deterministic RNG);
    #: zero keeps runs exactly reproducible unless an experiment opts in.
    jitter_ns: int = 0

    def transmission_ns(self, size_bytes: int) -> int:
        """Time for ``size_bytes`` to cross one NIC at the link rate."""
        bits = size_bytes * 8
        return int(bits / (self.nic_gbps * 1e9) * NANOS_PER_SEC)
