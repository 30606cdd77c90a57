"""Scenario description: one fully reproducible fuzz deployment.

A :class:`Scenario` is plain data — a handful of config knobs plus a
tuple of :class:`FaultEvent` injections — and, together with its seed,
*fully determines* a run: the simulator, workload, fault timing and
crypto keys all derive from ``(config, seed)`` (see ``repro.sim.rng``).
That is what makes fuzzing reproducible for free: a failing run is
replayed by re-running its scenario, and shrinking is just re-running
with subsets of the event tuple (:mod:`repro.fuzz.shrinker`).

Scenarios serialise to JSON (:meth:`Scenario.to_json`), which is the
repro artifact the fuzzer emits on an oracle violation
(:mod:`repro.fuzz.corpus`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple

from repro.core.config import SystemConfig
from repro.engines import ENGINES
from repro.sim.clock import millis

#: byzantine policies that only make sense on the view-0 primary (they
#: transform outgoing *proposals*)
PRIMARY_POLICIES = ("equivocating-primary", "two-faced-primary")

#: byzantine policies any backup can run
BACKUP_POLICIES = ("silent", "conflicting-voter", "delayed")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.  ``kind`` selects which fields are meaningful:

    - ``crash``: ``target`` replica stops at ``at_ms``.
    - ``recover``: ``target`` heals at ``at_ms`` and begins state transfer.
    - ``byzantine``: install ``policy`` on ``target`` at ``at_ms``
      (``delay_ms`` parameterises the ``delayed`` policy).
    - ``drop-link``: messages ``src`` → ``dst`` drop with ``probability``
      from ``at_ms`` until ``until_ms`` (``None`` = rest of the run).
    - ``partition``: sever ``group`` from every other replica between
      ``at_ms`` and ``until_ms`` (``None`` = rest of the run).
    """

    kind: str
    at_ms: float = 0.0
    target: str = ""
    policy: str = ""
    delay_ms: float = 0.0
    src: str = ""
    dst: str = ""
    probability: float = 1.0
    group: Tuple[str, ...] = ()
    until_ms: Optional[float] = None

    KINDS = ("crash", "recover", "byzantine", "drop-link", "partition")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault event kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "crash":
            return f"crash {self.target} @{self.at_ms:g}ms"
        if self.kind == "recover":
            return f"recover {self.target} @{self.at_ms:g}ms"
        if self.kind == "byzantine":
            extra = f" delay={self.delay_ms:g}ms" if self.policy == "delayed" else ""
            return f"byzantine {self.target}={self.policy}{extra} @{self.at_ms:g}ms"
        if self.kind == "drop-link":
            until = f"..{self.until_ms:g}ms" if self.until_ms is not None else ""
            return (
                f"drop {self.src}->{self.dst} p={self.probability:g} "
                f"@{self.at_ms:g}{until}"
            )
        until = f"..{self.until_ms:g}ms" if self.until_ms is not None else ""
        return f"partition {{{','.join(self.group)}}} @{self.at_ms:g}{until}"


@dataclass(frozen=True)
class Scenario:
    """One fuzz deployment: config knobs + injected fault events.

    ``bug`` names a *deliberately injected defect* from
    :data:`repro.fuzz.runner.BUG_REGISTRY` — the self-test hook that
    proves the oracle bank catches real violations.  The generator never
    sets it; only the fuzzer's own test fixtures do.
    """

    seed: int = 0
    protocol: str = "pbft"
    num_replicas: int = 4
    #: concurrent consensus instances (protocol "rcc" only); instance k's
    #: view-0 primary is ``r{k}``
    num_primaries: int = 1
    #: override the (5s, fuzz-window-dwarfing) default view-change timeout
    #: so lane view changes can actually fire inside an rcc scenario
    view_change_timeout_ms: Optional[float] = None
    num_clients: int = 24
    client_groups: int = 2
    batch_size: int = 8
    ops_per_txn: int = 1
    checkpoint_txns: int = 48
    ycsb_records: int = 300
    warmup_ms: float = 25.0
    measure_ms: float = 50.0
    #: extra fault-free settling time before the liveness oracle samples
    #: executed watermarks (the "eventually" in bounded liveness)
    quiesce_ms: float = 35.0
    zyzzyva_timeout_ms: float = 8.0
    faults_tolerated: Optional[int] = None
    #: overload-protection knobs (ISSUE 5); defaults reproduce the
    #: unprotected pre-flow-control behaviour, so old corpus artifacts
    #: deserialise and replay unchanged
    queue_policy: str = "block"
    batch_queue_capacity: Optional[int] = None
    admission_max_inflight: Optional[int] = None
    admission_max_per_client: Optional[int] = None
    client_retransmit_ms: Optional[float] = None
    client_window_initial: Optional[int] = None
    bug: Optional[str] = None
    events: Tuple[FaultEvent, ...] = ()
    label: str = ""

    # ------------------------------------------------------------------
    @property
    def f(self) -> int:
        if self.faults_tolerated is not None:
            return self.faults_tolerated
        return (self.num_replicas - 1) // 3

    @property
    def byzantine_targets(self) -> Tuple[str, ...]:
        return tuple(
            sorted({e.target for e in self.events if e.kind == "byzantine"})
        )

    @property
    def crash_targets(self) -> Tuple[str, ...]:
        """Replicas that crash at any point (recovered or not)."""
        return tuple(
            sorted({e.target for e in self.events if e.kind == "crash"})
        )

    @property
    def faulty_replicas(self) -> Tuple[str, ...]:
        """Everything that ever misbehaves or crashes — the set that must
        stay within ``f`` for the BFT guarantees to apply."""
        return tuple(sorted(set(self.byzantine_targets) | set(self.crash_targets)))

    @property
    def instance_primaries(self) -> Tuple[str, ...]:
        """The view-0 primaries: r0..r{m-1} under rcc, just r0 otherwise.
        A fault on any of them exempts the bounded-liveness oracle (the
        view-change rescue operates on its own timescale)."""
        return tuple(f"r{i}" for i in range(self.num_primaries))

    @property
    def has_overload_knobs(self) -> bool:
        """True when any overload-protection knob deviates from the
        unprotected default (used only for scenario descriptions; the
        flow-invariant oracle applies unconditionally)."""
        return (
            self.queue_policy != "block"
            or self.batch_queue_capacity is not None
            or self.admission_max_inflight is not None
            or self.admission_max_per_client is not None
            or self.client_retransmit_ms is not None
            or self.client_window_initial is not None
        )

    @property
    def has_link_faults(self) -> bool:
        """Drops and partitions lose messages that nothing retransmits, so
        the bounded-liveness oracle does not apply (safety always does)."""
        return any(e.kind in ("drop-link", "partition") for e in self.events)

    # ------------------------------------------------------------------
    def to_config(self) -> SystemConfig:
        overrides = {}
        if self.view_change_timeout_ms is not None:
            overrides["view_change_timeout"] = millis(self.view_change_timeout_ms)
        if self.client_retransmit_ms is not None:
            overrides["client_retransmit"] = millis(self.client_retransmit_ms)
        return SystemConfig(
            queue_policy=self.queue_policy,
            batch_queue_capacity=self.batch_queue_capacity,
            admission_max_inflight=self.admission_max_inflight,
            admission_max_per_client=self.admission_max_per_client,
            client_window_initial=self.client_window_initial,
            protocol=self.protocol,
            num_primaries=self.num_primaries,
            num_replicas=self.num_replicas,
            num_clients=self.num_clients,
            client_groups=self.client_groups,
            batch_size=self.batch_size,
            ops_per_txn=self.ops_per_txn,
            checkpoint_txns=self.checkpoint_txns,
            ycsb_records=self.ycsb_records,
            warmup=millis(self.warmup_ms),
            measure=millis(self.measure_ms),
            zyzzyva_client_timeout=millis(self.zyzzyva_timeout_ms),
            faults_tolerated=self.faults_tolerated,
            seed=self.seed,
            record_completions=True,
            **overrides,
        )

    def with_events(self, events) -> "Scenario":
        return replace(self, events=tuple(events))

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["events"] = [asdict(event) for event in self.events]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        events = tuple(
            FaultEvent(**{**event, "group": tuple(event.get("group", ()))})
            for event in payload.get("events", ())
        )
        fields = {
            key: value for key, value in payload.items() if key != "events"
        }
        return cls(events=events, **fields)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        multi = ENGINES[self.protocol].multi_primary
        lanes = f" m={self.num_primaries}" if multi else ""
        knobs = (
            f"{self.protocol}{lanes} n={self.num_replicas} f={self.f} "
            f"clients={self.num_clients} batch={self.batch_size} "
            f"ckpt={self.checkpoint_txns} seed={self.seed}"
        )
        if self.has_overload_knobs:
            knobs += (
                f" flow[policy={self.queue_policy}"
                f" batch-cap={self.batch_queue_capacity}"
                f" inflight={self.admission_max_inflight}"
                f" per-client={self.admission_max_per_client}]"
            )
        if not self.events:
            return f"{knobs} (fault-free)"
        return f"{knobs} events=[{'; '.join(e.describe() for e in self.events)}]"
