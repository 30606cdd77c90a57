"""Periodic pipeline sampling: queue depths, CPU and network over time.

End-of-run scalars (Fig. 9's saturation bars) say *that* a stage was the
bottleneck; they cannot show queue build-up over the run, which is how
FastFabric-style analyses localise *when* a pipeline saturates.  The
:class:`PipelineSampler` is a simulation process that wakes every
``interval`` ticks and snapshots, per replica:

- the depth of every inter-stage queue (batch, work, checkpoint, output,
  network inbox) via :meth:`repro.sim.queues.SimQueue.stats`,
- CPU occupancy (cores busy now, plus cumulative busy ns per thread),
- and global network counters (messages, bytes, drops).

Samples land in bounded :class:`TimeSeries` (oldest dropped beyond
``max_points``), cheap enough to leave on for whole experiments and
exportable as CSV (:func:`repro.obs.exporters.sampler_csv`) for plotting
queue-growth curves.

Sampling is read-only and consumes no simulated CPU or queue capacity, so
enabling it never changes experiment results.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple


class TimeSeries:
    """A bounded (time, value) series for one sampled quantity."""

    __slots__ = ("name", "points", "dropped")

    def __init__(self, name: str, max_points: int = 4_096):
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        self.name = name
        self.points: Deque[Tuple[int, float]] = deque(maxlen=max_points)
        self.dropped = 0

    def append(self, at: int, value: float) -> None:
        if len(self.points) == self.points.maxlen:
            self.dropped += 1
        self.points.append((at, value))

    def times(self) -> List[int]:
        return [at for at, _value in self.points]

    def values(self) -> List[float]:
        return [value for _at, value in self.points]

    def __len__(self) -> int:
        return len(self.points)


class PipelineSampler:
    """Samples a :class:`~repro.core.system.ResilientDBSystem` periodically.

    The system spawns :meth:`run` as a simulation process when
    ``config.sample_interval`` is set; :meth:`sample` can also be called
    directly (tests, custom probes) at any simulated moment.
    """

    def __init__(self, system, interval: int, max_points: int = 4_096):
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1 tick, got {interval}")
        self.system = system
        self.interval = interval
        self.max_points = max_points
        self.series: Dict[str, TimeSeries] = {}
        self.samples_taken = 0

    # ------------------------------------------------------------------
    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = TimeSeries(name, max_points=self.max_points)
            self.series[name] = series
        return series

    def _record(self, at: int, name: str, value: float) -> None:
        self._series(name).append(at, value)

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Snapshot every probe at the current simulated time."""
        system = self.system
        at = system.sim.now
        for replica_id, replica in system.replicas.items():
            self._record(
                at, f"{replica_id}.inbox.depth", replica.endpoint.inbox.depth
            )
            self._record(
                at, f"{replica_id}.batch-q.depth", replica.batch_queue.depth
            )
            self._record(at, f"{replica_id}.work-q.depth", replica.work_queue.depth)
            self._record(
                at, f"{replica_id}.ckpt-q.depth", replica.checkpoint_queue.depth
            )
            self._record(
                at,
                f"{replica_id}.out-q.depth",
                sum(queue.depth for queue in replica.output_queues),
            )
            self._record(
                at, f"{replica_id}.exec-pending", len(replica.ledger.waiting)
            )
            flow = replica.flow
            self._record(at, f"{replica_id}.flow.shed", flow.shed_requests)
            self._record(at, f"{replica_id}.flow.nacks", flow.nacks_sent)
            self._record(
                at, f"{replica_id}.flow.inflight", replica.admission.inflight
            )
            self._record(at, f"{replica_id}.cpu.busy_cores", replica.cpu.busy_cores)
            self._record(
                at,
                f"{replica_id}.cpu.busy_ns_total",
                sum(replica.cpu.busy_ns.values()),
            )
        network = system.network
        self._record(at, "net.messages_sent", network.messages_sent)
        self._record(at, "net.bytes_sent", network.bytes_sent)
        self._record(at, "net.dropped_messages", network.dropped_messages)
        self.samples_taken += 1

    def run(self):
        """The sampling process: one snapshot every ``interval`` ticks."""
        while True:
            yield self.interval
            self.sample()

    # ------------------------------------------------------------------
    def rows(self) -> List[Tuple[int, str, float]]:
        """All samples as (time, series, value) rows, sorted by time then
        series name — a stable long-format table for CSV export."""
        out: List[Tuple[int, str, float]] = []
        for name in sorted(self.series):
            for at, value in self.series[name].points:
                out.append((at, name, value))
        out.sort(key=lambda row: (row[0], row[1]))
        return out
