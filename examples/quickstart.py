#!/usr/bin/env python3
"""Quickstart: run a small ResilientDB deployment and print what happened.

Builds a 4-replica PBFT deployment with 64 closed-loop clients, runs the
paper's measurement protocol (warm up, then measure), and reports
throughput, latency, per-thread saturation and ledger state.

    python examples/quickstart.py
"""

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


def main() -> None:
    config = SystemConfig(
        num_replicas=4,
        num_clients=64,
        client_groups=4,
        batch_size=10,
        ycsb_records=5_000,
        warmup=millis(100),
        measure=millis(300),
    )
    system = ResilientDBSystem(config)
    result = system.run()

    print("=== ResilientDB quickstart ===")
    print(f"protocol:            {config.protocol} "
          f"(n={config.num_replicas}, f={config.f})")
    print(f"throughput:          {result.throughput_txns_per_s / 1e3:.1f}K txns/s")
    print(f"latency:             mean {result.latency_mean_s * 1e3:.1f} ms, "
          f"p99 {result.latency_p99_s * 1e3:.1f} ms")
    print(f"requests completed:  {result.completed_requests}")
    print(f"network traffic:     {result.messages_sent} messages, "
          f"{result.bytes_sent / 1e6:.1f} MB")

    print("\nper-thread saturation at the primary (Fig. 9 style):")
    for stage, value in sorted(result.primary_saturation.items()):
        bar = "#" * int(value * 40)
        print(f"  {stage:<12} {value * 100:5.1f}% {bar}")

    primary = system.replicas["r0"]
    print(f"\nledger: {primary.ledger.chain.height} blocks, "
          f"stable checkpoint at batch {result.stable_checkpoint}")
    head = primary.ledger.chain.head()
    print(f"head block: seq={head.sequence} digest={head.digest[:16]}… "
          f"certified by {len(head.commit_certificate)} commit signatures")

    prefix = system.validate_safety()
    print(f"\nsafety: all replicas agree on a common prefix of {prefix} batches ✓")


if __name__ == "__main__":
    main()
