"""Transaction-lifecycle spans (§4.1–§4.6 pipeline hand-offs).

A *span* follows one client request through the replica pipeline.  The
client stamps it at submission; the primary stamps it at every hand-off it
observes (input routing, batch assembly, proposal, prepared, committed,
executed); the client closes it when a response quorum completes the
request.  Per-stage latency histograms then answer the question the paper's
Figures 8, 9 and 16 revolve around: *which stage did the p99 go to?*

The stage names follow the pipeline order::

    submit -> input -> batch -> propose -> prepare -> commit -> execute -> reply

Protocols that skip phases simply never stamp them (Zyzzyva's fast path
has no ``prepare``); the latency between two *stamped* stages is
attributed to the later stage.  Consensus phases operate on batches, not
requests, so the recorder keeps a sequence-number → request-keys link
created when the batch is proposed.

The same recorder keeps the run's *instant events* — view changes,
executions, recoveries, stable checkpoints — in a bounded ring of
:class:`TraceRecord`.  Deterministic runs plus these events make failures
replayable: re-run with the same seed, compare the two event lists with
:func:`first_divergence`.

Every hook guards on one flag: a disabled recorder costs hot paths a
single attribute read (callers test ``recorder.enabled`` and never call in
when it is False).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.metrics import LatencyHistogram

#: pipeline hand-offs in order; a span's stamps are a subsequence of this
STAGES: Tuple[str, ...] = (
    "submit",
    "input",
    "batch",
    "propose",
    "prepare",
    "commit",
    "execute",
    "reply",
)

_STAGE_INDEX = {stage: index for index, stage in enumerate(STAGES)}

#: a span key identifies one client request: (client group name, request id)
SpanKey = Tuple[str, int]

#: retention of a traced run (``SystemConfig.trace``): finished spans and
#: instant events kept for export, oldest dropped first
TRACE_KEEP_FINISHED = 10_000
TRACE_KEEP_EVENTS = 100_000


@dataclass(frozen=True)
class TraceRecord:
    """One instant event."""

    at: int  # simulation ticks
    node: str
    category: str  # "view-change", "execute", "recovery", "checkpoint"
    detail: str

    def format(self) -> str:
        return f"[{self.at:>15}] {self.node:<12} {self.category:<10} {self.detail}"


class SpanRecorder:
    """The run's recorder: lifecycle spans, per-stage latency, instant events.

    - ``begin(key, at)`` opens a span at submission time.
    - ``stamp(key, stage, at)`` records the first time a stage is reached
      (later stamps for the same stage are ignored, so retransmissions and
      backup replicas cannot skew a span backwards).
    - ``link_batch(sequence, keys)`` ties a consensus sequence number to
      the requests inside the proposed batch, letting batch-level stamps
      (``propose``/``prepare``/``commit``/``execute``) fan out to spans.
    - ``finish(key, at)`` closes the span, attributing each gap between
      consecutive stamped stages to the later stage's histogram.
    - ``event(at, node, category, detail)`` records an instant event.

    Memory is bounded: open spans are bounded by the number of in-flight
    client requests (closed-loop clients keep one each), histograms carry a
    reservoir cap, and finished spans and events are retained (for trace
    export) only up to ``keep_finished`` and ``keep_events``; 0 keeps none.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_samples: int = 65_536,
        keep_finished: int = 0,
        keep_events: int = 0,
    ):
        self.enabled = enabled
        self.max_samples = max_samples
        self.keep_finished = keep_finished
        self.keep_events = keep_events
        self._open: Dict[SpanKey, Dict[str, int]] = {}
        self._by_sequence: Dict[int, Tuple[SpanKey, ...]] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        #: retained (key, stamps) pairs of closed spans, oldest dropped
        self.finished: Deque[Tuple[SpanKey, Dict[str, int]]] = deque(
            maxlen=keep_finished or None
        )
        self.spans_completed = 0
        self.spans_abandoned = 0
        #: instant events, oldest dropped (and counted) once the ring is full
        self._events: Deque[TraceRecord] = deque(maxlen=keep_events)
        self.events_dropped = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, key: SpanKey, at: int) -> None:
        self._open[key] = {"submit": at}

    def stamp(self, key: SpanKey, stage: str, at: int) -> None:
        span = self._open.get(key)
        if span is not None and stage not in span:
            span[stage] = at

    def link_batch(self, sequence: int, keys: Tuple[SpanKey, ...]) -> None:
        self._by_sequence[sequence] = keys

    def stamp_sequence(self, sequence: int, stage: str, at: int) -> None:
        """Stamp every request linked to a consensus sequence number.

        ``execute`` is the last batch-level stage, so its stamp also
        releases the sequence link (bounding the link table).
        """
        keys = self._by_sequence.get(sequence)
        if keys is None:
            return
        for key in keys:
            self.stamp(key, stage, at)
        if stage == "execute":
            del self._by_sequence[sequence]

    def finish(self, key: SpanKey, at: int) -> None:
        span = self._open.pop(key, None)
        if span is None:
            return
        span["reply"] = at
        previous = span["submit"]
        for stage in STAGES[1:]:
            stamped = span.get(stage)
            if stamped is None:
                continue
            delta = stamped - previous
            if delta >= 0:
                self._histogram(stage).record(delta)
            previous = stamped
        self._histogram("total").record(at - span["submit"])
        self.spans_completed += 1
        if self.keep_finished:
            self.finished.append((key, span))

    def abandon(self, key: SpanKey) -> None:
        """Drop an open span without recording (e.g. client gave up)."""
        if self._open.pop(key, None) is not None:
            self.spans_abandoned += 1

    def event(self, at: int, node: str, category: str, detail: str) -> None:
        if not self.keep_events:
            return
        if len(self._events) == self.keep_events:
            self.events_dropped += 1
        self._events.append(TraceRecord(at, node, category, detail))

    def _histogram(self, stage: str) -> LatencyHistogram:
        histogram = self.histograms.get(stage)
        if histogram is None:
            histogram = LatencyHistogram(
                f"stage.{stage}", max_samples=self.max_samples
            )
            self.histograms[stage] = histogram
        return histogram

    # ------------------------------------------------------------------
    # measurement-window protocol (MetricsRegistry resettable)
    # ------------------------------------------------------------------
    def reset_window(self) -> None:
        """Zero the aggregates when warmup ends (open spans survive: a
        request submitted during warmup but completed inside the window
        counts, matching the request-latency histogram's semantics).
        Events survive too: a trace covers the whole run."""
        for histogram in self.histograms.values():
            histogram.reset()
        self.finished.clear()
        self.spans_completed = 0
        self.spans_abandoned = 0

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return len(self._open)

    def events(
        self,
        node: Optional[str] = None,
        category: Optional[str] = None,
        since: int = 0,
    ) -> List[TraceRecord]:
        return [
            record
            for record in self._events
            if (node is None or record.node == node)
            and (category is None or record.category == category)
            and record.at >= since
        ]

    def stage_table(self) -> Dict[str, Dict[str, float]]:
        """Stage -> {count, mean_s, p50_s, p99_s}, in pipeline order
        (plus ``total``), for every stage that recorded samples."""
        table: Dict[str, Dict[str, float]] = {}
        for stage in list(STAGES[1:]) + ["total"]:
            histogram = self.histograms.get(stage)
            if histogram is None or not histogram.count:
                continue
            table[stage] = {
                "count": float(histogram.count),
                "mean_s": histogram.mean_seconds(),
                "p50_s": histogram.percentile_seconds(50),
                "p99_s": histogram.percentile_seconds(99),
            }
        return table


def validate_stage_order(stamps: Dict[str, int]) -> Optional[str]:
    """Check one span's stamps respect pipeline order and monotonic time.

    Returns None when consistent, else a human-readable violation (used by
    tests as the span invariant, and handy when debugging new hooks).
    """
    ordered: List[Tuple[int, str]] = sorted(
        ((_STAGE_INDEX[stage], stage) for stage in stamps if stage in _STAGE_INDEX)
    )
    previous_time = None
    previous_stage = None
    for _index, stage in ordered:
        at = stamps[stage]
        if previous_time is not None and at < previous_time:
            return (
                f"stage {stage!r} at {at} precedes {previous_stage!r} "
                f"at {previous_time}"
            )
        previous_time, previous_stage = at, stage
    return None


def first_divergence(
    ours: List[TraceRecord], theirs: List[TraceRecord]
) -> Optional[int]:
    """Index of the first differing event between two traces (the
    replay-debugging primitive), or None when they are identical.

    Traces of different lengths diverge where the shorter one ends —
    a missing tail is a divergence, not agreement.
    """
    for index, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return index
    if len(ours) != len(theirs):
        return min(len(ours), len(theirs))
    return None
