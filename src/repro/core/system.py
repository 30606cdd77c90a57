"""Deployment builder and experiment runner.

``ResilientDBSystem(config).run()`` builds the full simulated deployment —
replicas with their pipelines, client groups, network, key material —
executes the paper's measurement protocol (warm up, reset instruments,
measure) and returns an :class:`ExperimentResult` with the quantities the
paper plots: throughput (txns/s and ops/s), client latency, per-thread
saturation, and traffic statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.consensus.base import QuorumConfig
from repro.consensus.safety import (
    check_execution_consistency,
    check_state_convergence,
)
from repro.core import recovery
from repro.core.clientmgr import ClientGroup
from repro.core.config import SystemConfig
from repro.core.replica import Replica
from repro.crypto.keys import KeyStore
from repro.crypto.schemes import make_scheme
from repro.engines import ENGINES
from repro.net.faults import FaultPlan
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.sim.clock import micros
from repro.sim.kernel import Simulator
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import DeterministicRNG
from repro.storage.base import KVStore


@dataclass
class ExperimentResult:
    """Everything one experiment run reports."""

    throughput_txns_per_s: float
    throughput_ops_per_s: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p99_s: float
    latency_max_s: float
    completed_requests: int
    completed_txns: int
    #: thread-id suffix -> saturation at the primary (Fig. 9a)
    primary_saturation: Dict[str, float] = field(default_factory=dict)
    #: thread-id suffix -> mean saturation across backups (Fig. 9b)
    backup_saturation: Dict[str, float] = field(default_factory=dict)
    messages_sent: int = 0
    bytes_sent: int = 0
    dropped_messages: int = 0
    chain_height: int = 0
    stable_checkpoint: int = 0
    fast_path_completions: int = 0
    slow_path_completions: int = 0
    invalid_messages: int = 0
    #: pipeline stage -> {count, mean_s, p50_s, p99_s}; populated when
    #: ``config.lifecycle_spans`` or ``config.trace`` is on (see
    #: :mod:`repro.obs.spans`)
    stage_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # -- overload protection (repro.flow) ------------------------------
    busy_nacks_sent: int = 0
    busy_nacks_received: int = 0
    requests_shed: int = 0
    admission_rejected: int = 0

    def cumulative_saturation(self, where: str = "primary") -> float:
        """Sum of stage saturations (the paper's 'Cumulative Saturation'
        bars in Fig. 9), as a fraction (1.0 = one fully busy core)."""
        table = (
            self.primary_saturation if where == "primary" else self.backup_saturation
        )
        return sum(table.values())

    def summary(self) -> str:
        return (
            f"throughput={self.throughput_txns_per_s / 1e3:.1f}K txns/s "
            f"latency={self.latency_mean_s * 1e3:.1f}ms "
            f"(p99={self.latency_p99_s * 1e3:.1f}ms) "
            f"requests={self.completed_requests}"
        )

    def stage_latency_table(self) -> str:
        """The per-stage latency breakdown as a printable table (empty
        string when spans were not collected)."""
        from repro.bench.report import format_stage_latency

        return format_stage_latency(self.stage_latency)


class ResilientDBSystem:
    """A full simulated deployment of the fabric."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.rng = DeterministicRNG(config.seed)
        self.metrics = MetricsRegistry(self.sim)
        self.quorum = QuorumConfig(n=config.num_replicas, f=config.f)

        topology = Topology(
            one_way_latency_ns=micros(config.one_way_latency_us),
            nic_gbps=config.nic_gbps,
        )
        self.faults = FaultPlan(self.rng.fork("faults"))
        self.network = Network(self.sim, topology=topology, faults=self.faults)
        self.metrics.register_resettable(self.network)

        # -- observability (repro.obs) ------------------------------------
        from repro.obs.sampler import PipelineSampler
        from repro.obs.spans import (
            TRACE_KEEP_EVENTS,
            TRACE_KEEP_FINISHED,
            SpanRecorder,
        )

        self.spans = SpanRecorder(
            enabled=config.lifecycle_spans or config.trace,
            keep_finished=TRACE_KEEP_FINISHED if config.trace else 0,
            keep_events=TRACE_KEEP_EVENTS if config.trace else 0,
        )
        self.metrics.register_resettable(self.spans)
        self.sampler: Optional[PipelineSampler] = None
        if config.sample_interval is not None:
            self.sampler = PipelineSampler(self, config.sample_interval)

        # -- identities and keys ------------------------------------------
        self.replica_ids: Tuple[str, ...] = tuple(
            f"r{i}" for i in range(config.num_replicas)
        )
        self.replica_set = frozenset(self.replica_ids)
        self.keystore = KeyStore(system_seed=config.seed)
        group_names = [f"client{i}" for i in range(config.client_groups)]
        for identity in list(self.replica_ids) + group_names:
            self.keystore.register(identity)
        self.client_scheme = make_scheme(config.client_scheme, self.keystore)
        self.replica_scheme = make_scheme(config.replica_scheme, self.keystore)

        # -- nodes ----------------------------------------------------------
        self.replicas: Dict[str, Replica] = {
            rid: Replica(self, rid) for rid in self.replica_ids
        }
        self._preload_tables()
        base = config.num_clients // config.client_groups
        remainder = config.num_clients % config.client_groups
        client_class = ENGINES[config.protocol].client
        self.client_groups: List[ClientGroup] = [
            client_class(self, i, base + (1 if i < remainder else 0))
            for i in range(config.client_groups)
        ]
        self._started = False

    # ------------------------------------------------------------------
    def _preload_tables(self) -> None:
        """Give every replica an identical copy of the YCSB table (§5.1).

        The table is a lazily computed read-only mapping: every in-memory
        store shares it as its copy-on-write base, and a SQLite store
        loads its rows from it.
        """
        if not self.config.apply_state:
            return
        workload_rng = self.rng.fork("table")
        from repro.workloads.ycsb import YCSBWorkload

        table = YCSBWorkload(
            workload_rng, record_count=self.config.ycsb_records
        ).initial_table()
        for replica in self.replicas.values():
            replica.ledger.store.preload(table)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash_replicas(self, count: int, at_ns: Optional[int] = None) -> List[str]:
        """Crash ``count`` non-primary replicas (the Fig. 17 experiment).

        Crashes the highest-indexed replicas, which never hold the
        primary role in view 0.
        """
        if not 0 <= count <= self.config.f:
            raise ValueError(
                f"cannot crash {count} replicas; must be in [0, f={self.config.f}]"
            )
        victims = list(self.replica_ids[-count:]) if count else []
        for victim in victims:
            if at_ns is None:
                self.faults.crash(victim)
            else:
                self.faults.crash_at(victim, at_ns)
        return victims

    def recover_replica(self, replica_id: str, at_ns: Optional[int] = None) -> None:
        """Heal a crashed replica and start its state-transfer recovery
        (§4.7: checkpoints "help a failed replica to update itself")."""

        def _heal() -> None:
            self.faults.recover(replica_id)
            recovery.begin(self.replicas[replica_id])

        if at_ns is None:
            _heal()
        else:
            self.sim.schedule(max(0, at_ns - self.sim.now), _heal)

    def make_byzantine(self, replica_id: str, policy: str, **kwargs) -> None:
        """Install a byzantine behaviour policy on one replica.

        Available policies: "silent", "conflicting-voter",
        "equivocating-primary", "delayed" (takes ``delay_ns``).
        """
        from repro.core.byzantine import make_policy

        self.replicas[replica_id].adversary = make_policy(policy, **kwargs)

    def crash_primary(self, at_ns: Optional[int] = None) -> str:
        victim = self.replica_ids[0]
        if at_ns is None:
            self.faults.crash(victim)
        else:
            self.faults.crash_at(victim, at_ns)
        return victim

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        for replica in self.replicas.values():
            replica.start()
        ramp = max(1, self.config.warmup // 2)
        for group in self.client_groups:
            group.start(ramp_ns=ramp)
        if self.sampler is not None:
            self.sim.spawn(self.sampler.run(), name="obs.sampler")

    def run(self) -> ExperimentResult:
        """Warm up, measure, and report (the §5.1 protocol)."""
        config = self.config
        if not self._started:
            self.start()
        self.sim.run(until=config.warmup)
        self.metrics.begin_measurement()
        self.sim.run(until=config.warmup + config.measure)
        return self._collect()

    def _collect(self) -> ExperimentResult:
        metrics = self.metrics
        # materialise instruments that a no-progress run never touched
        for name in (
            "txns_completed",
            "ops_completed",
            "requests_completed",
            "fast_path_completions",
            "slow_path_completions",
        ):
            metrics.counter(name)
        latency = metrics.histogram("request_latency")
        primary = self.replicas[self.replica_ids[0]]
        backups = [self.replicas[rid] for rid in self.replica_ids[1:]]

        def stage_table(replica: Replica) -> Dict[str, float]:
            table = {}
            prefix = f"{replica.replica_id}."
            for thread_id, _busy in replica.cpu.busy_ns.items():
                stage = thread_id[len(prefix):]
                table[stage] = replica.cpu.saturation(thread_id)
            return table

        backup_table: Dict[str, List[float]] = {}
        for backup in backups:
            if self.faults.is_crashed(backup.replica_id, self.sim.now):
                continue
            for stage, value in stage_table(backup).items():
                backup_table.setdefault(stage, []).append(value)

        return ExperimentResult(
            throughput_txns_per_s=metrics.throughput_per_second("txns_completed"),
            throughput_ops_per_s=metrics.throughput_per_second("ops_completed"),
            latency_mean_s=latency.mean_seconds(),
            latency_p50_s=latency.percentile_seconds(50),
            latency_p99_s=latency.percentile_seconds(99),
            latency_max_s=latency.max_seconds(),
            completed_requests=metrics.counters["requests_completed"].value,
            completed_txns=metrics.counters["txns_completed"].value,
            primary_saturation=stage_table(primary),
            backup_saturation={
                stage: sum(values) / len(values)
                for stage, values in backup_table.items()
            },
            messages_sent=self.network.messages_sent,
            bytes_sent=self.network.bytes_sent,
            dropped_messages=self.network.dropped_messages,
            chain_height=primary.ledger.chain.height,
            stable_checkpoint=primary.checkpoints.stable_sequence,
            fast_path_completions=metrics.counters["fast_path_completions"].value,
            slow_path_completions=metrics.counters["slow_path_completions"].value,
            invalid_messages=sum(
                replica.invalid_messages for replica in self.replicas.values()
            ),
            stage_latency=self.spans.stage_table(),
            busy_nacks_sent=sum(
                replica.flow.nacks_sent for replica in self.replicas.values()
            ),
            busy_nacks_received=sum(
                group.busy_nacks_received for group in self.client_groups
            ),
            requests_shed=sum(
                replica.flow.shed_requests for replica in self.replicas.values()
            ),
            admission_rejected=sum(
                replica.admission.rejected_inflight
                + replica.admission.rejected_per_client
                for replica in self.replicas.values()
            ),
        )

    # ------------------------------------------------------------------
    # safety validation (used by tests)
    # ------------------------------------------------------------------
    def validate_safety(self, faulty: Tuple[str, ...] = ()) -> int:
        """Check single-common-order across replicas and chain integrity.

        Returns the proven common prefix length.
        """
        crashed = {
            rid
            for rid in self.replica_ids
            if self.faults.is_crashed(rid, self.sim.now)
        }
        faulty_set = set(faulty) | crashed
        logs = {
            rid: replica.ledger.executed_log for rid, replica in self.replicas.items()
        }
        prefix = check_execution_consistency(logs, faulty=sorted(faulty_set))
        for rid, replica in self.replicas.items():
            if rid not in faulty_set:
                replica.ledger.chain.validate()
        # replicas that executed exactly the same number of batches must
        # have identical state
        if self.config.apply_state and self.config.storage_backend == "memory":
            by_length: Dict[int, Dict[str, KVStore]] = {}
            for rid, replica in self.replicas.items():
                if rid in faulty_set:
                    continue
                ledger = replica.ledger
                by_length.setdefault(len(ledger.executed_log), {})[rid] = ledger.store
            for stores in by_length.values():
                check_state_convergence(stores)
        return prefix

    def close(self) -> None:
        """Release external resources (SQLite connections)."""
        for replica in self.replicas.values():
            replica.ledger.store.close()
