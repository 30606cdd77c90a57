#!/usr/bin/env python3
"""A permissioned stock-exchange ledger on the ResilientDB fabric.

§4.2 of the paper motivates client-side batching with exactly this kind of
application: "a client batching multiple requests is visible in
applications such as stock-trading, monetary-exchanges, and service-level
agreements."  Here each client is a brokerage that submits bursts of
orders as a single signed request; the deployment orders and executes them
through PBFT, and the resulting blockchain is the audit trail.

    python examples/stock_exchange.py
"""

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


def main() -> None:
    # Each "client" is a brokerage; a burst of 20 orders rides in one
    # signed request (client_batch_txns), and the matching engine state is
    # the replicated key-value store: one record per order book entry.
    config = SystemConfig(
        num_replicas=7,           # tolerate f=2 byzantine exchanges
        num_clients=32,           # 32 brokerages
        client_groups=8,
        client_batch_txns=20,     # burst of orders per submission (§4.2)
        batch_size=40,            # the primary pairs up two bursts
        ops_per_txn=2,            # debit one book entry, credit another
        ycsb_records=10_000,      # order-book entries
        warmup=millis(100),
        measure=millis(400),
    )
    system = ResilientDBSystem(config)
    result = system.run()

    print("=== permissioned stock exchange ===")
    print(f"deployment:      {config.num_replicas} exchange replicas "
          f"(tolerates {config.f} byzantine)")
    print(f"brokerages:      {config.num_clients}, bursts of "
          f"{config.client_batch_txns} orders per submission")
    print(f"order rate:      {result.throughput_txns_per_s / 1e3:.1f}K orders/s "
          f"({result.throughput_ops_per_s / 1e3:.1f}K book updates/s)")
    print(f"order latency:   mean {result.latency_mean_s * 1e3:.1f} ms, "
          f"p99 {result.latency_p99_s * 1e3:.1f} ms")

    # the audit trail: every burst is a block whose certificate carries
    # 2f+1 commit signatures — non-repudiable evidence of the match order
    primary = system.replicas["r0"]
    print(f"\naudit trail:     {primary.ledger.chain.height} blocks")
    for block in primary.ledger.chain.blocks[-3:]:
        signers = sorted(s for s, _ in block.commit_certificate)[:3]
        print(f"  block {block.sequence:>5}: {block.txn_count} orders, "
              f"digest {block.digest[:12]}…, quorum {signers}…")

    # all exchanges agree on the match order
    prefix = system.validate_safety()
    print(f"\nsettlement: all exchanges agree on {prefix} batches of orders ✓")

    # byzantine resilience: one exchange goes dark mid-trading
    print("\n--- replaying with one exchange crashed ---")
    crashed = ResilientDBSystem(config)
    victim = crashed.crash_replicas(1)[0]
    degraded = crashed.run()
    print(f"{victim} crashed: order rate "
          f"{degraded.throughput_txns_per_s / 1e3:.1f}K orders/s "
          f"({degraded.throughput_txns_per_s / max(1, result.throughput_txns_per_s) * 100:.0f}% "
          f"of healthy) — trading continues")


if __name__ == "__main__":
    main()
