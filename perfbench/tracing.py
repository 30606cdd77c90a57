"""Host-time tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side: :class:`Instrumentation`
swaps wrappers in for the public functions at each layer boundary (the
kernel's ``schedule`` and ``run``, ``Process.resume``, ``Network.send``,
the record store, chain and checkpoint store, the MAC/signature schemes
and the YCSB generator) and restores the originals afterwards.  Nothing
in ``src/`` knows it is being traced.

A span's self time is its duration minus the time its child spans cover.
Self time and call counts are aggregated for every span; the first
``keep`` spans are also retained in full (name, start, end, parent index,
request id where known) and written out when the run ends, which keeps a
million-event window from holding millions of records in memory.

Events already queued when tracing starts hold unwrapped bound methods,
so their host time lands in the ``sim.run`` root's self time.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List

from repro.crypto.schemes import (
    CmacAesScheme,
    Ed25519Scheme,
    NullScheme,
    RsaScheme,
)
from repro.net.transport import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.storage.blockchain import Blockchain
from repro.storage.checkpoints import CheckpointStore
from repro.storage.memstore import InMemoryKVStore
from repro.workloads.ycsb import YCSBWorkload

#: pipeline roles whose ``Process.resume`` self time is reported per stage
CORE_STAGES = ("batch", "worker", "execute", "input", "output")


class SpanTracer:
    """A stack of open spans with self-time accounting."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 keep: int = 100_000):
        self._clock = clock
        self._keep = keep
        #: open spans: [name, start, child_ns, retained index or -1]
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: retained spans: [name, start, end, parent index, request]
        self.spans: List[list] = []

    def enter(self, name: str, request: Any = None) -> None:
        now = self._clock()
        index = -1
        if len(self.spans) < self._keep:
            # parents open before their children, so a retained span's
            # parent is always retained too
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, now, None, parent, request])
        self._stack.append([name, now, 0, index])

    def exit(self) -> None:
        end = self._clock()
        name, start, child_ns, index = self._stack.pop()
        duration = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end

    @property
    def depth(self) -> int:
        """Spans still open (0 once a traced region has unwound)."""
        return len(self._stack)

    def layer_self_ns(self, prefix: str) -> int:
        """Summed self time of every span named ``prefix`` or ``prefix.*``."""
        return sum(
            ns for name, ns in self.self_ns.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def calls_of(self, prefix: str) -> int:
        return sum(
            count for name, count in self.calls.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": self.spans,
                    "self_ns": self.self_ns,
                    "calls": self.calls,
                },
                out,
            )


def process_span_name(process_name: str) -> str:
    """Span name for one ``Process.resume``, from the process's role:
    ``r3.batch-1`` → ``core.batch``, ``client2.inbox`` → ``core.client``,
    ``r0.tx-nic`` → ``net.nic``; other replica threads → ``core.other``."""
    owner, _, role = process_name.partition(".")
    if role in ("tx-nic", "rx-nic"):
        return "net.nic"
    if role == "inbox" and owner.startswith("client"):
        return "core.client"
    stage = role.split("-")[0]
    return f"core.{stage}" if stage in CORE_STAGES else "core.other"


class Instrumentation:
    """Installs span wrappers on the layer boundaries while active."""

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self._saved: List[tuple] = []

    def _patch(self, cls: type, attr: str, make: Callable[[Callable], Callable]):
        original = getattr(cls, attr)
        self._saved.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, make(original))

    def _span(self, name: str) -> Callable[[Callable], Callable]:
        enter, exit_ = self.tracer.enter, self.tracer.exit

        def make(fn):
            def traced(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
            return traced
        return make

    def activate(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already active")
        tracer = self.tracer
        enter, exit_ = tracer.enter, tracer.exit
        names: Dict[str, str] = {}

        def resume(fn):
            def traced(process, value):
                name = names.get(process.name)
                if name is None:
                    name = names[process.name] = process_span_name(process.name)
                enter(name)
                try:
                    return fn(process, value)
                finally:
                    exit_()
            return traced

        def send(fn):
            def traced(network, src, dst, message):
                request_id = getattr(message, "request_id", None)
                request = None if request_id is None else (message.sender, request_id)
                # client-originated request sends, counted apart so the
                # benchmark can derive retransmissions per request
                if message.kind == "client-request" and src.startswith("client"):
                    enter("net.send.client_request", request)
                else:
                    enter("net.send", request)
                try:
                    return fn(network, src, dst, message)
                finally:
                    exit_()
            return traced

        self._patch(Simulator, "run", self._span("sim.run"))
        self._patch(Simulator, "schedule", self._span("sim.schedule"))
        self._patch(Process, "resume", resume)
        self._patch(Network, "send", send)
        self._patch(Network, "broadcast", self._span("net.broadcast"))
        self._patch(InMemoryKVStore, "read", self._span("storage.read"))
        self._patch(InMemoryKVStore, "write", self._span("storage.write"))
        self._patch(Blockchain, "append", self._span("storage.append"))
        self._patch(CheckpointStore, "record_vote", self._span("storage.vote"))
        for scheme in (NullScheme, Ed25519Scheme, RsaScheme, CmacAesScheme):
            self._patch(scheme, "authenticate", self._span("crypto.authenticate"))
            self._patch(scheme, "check", self._span("crypto.check"))
        self._patch(
            YCSBWorkload, "next_transaction",
            self._span("workloads.next_transaction"),
        )

    def deactivate(self) -> None:
        for cls, attr, original in reversed(self._saved):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._saved.clear()
