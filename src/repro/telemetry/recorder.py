"""The flight recorder: bounded per-node rings of lifecycle events.

Metrics answer "how much"; spans answer "how long".  Neither answers the
question an operator actually asks after an incident: *what sequence of
events, on which nodes, led here?*  The flight recorder does.  Every
structured lifecycle event the platform emits — weave/unweave, advice
dispatch errors, lease grant/renew/expiry, offer/install/rollback,
injected faults, circuit-breaker transitions, quarantines — is stored
in a fixed-size ring buffer for the node it happened on, stamped with:

- the node id (derived from the event's own fields),
- a per-node monotonic sequence number (total order within the node),
- the registry clock's timestamp (virtual time under simulation),
- the active trace/span ids, when a trace context is live.

Rings are bounded (:data:`DEFAULT_CAPACITY` events per node) so a
week-long run keeps only the recent past — exactly a flight recorder.
Rings can be dumped to JSONL on demand, and dump automatically when a
*black-box event* (a crash, a quarantine) lands, if a dump directory is
configured.

Cost model: the rings are the registry's only event store — each
:class:`~repro.telemetry.registry.MetricsRegistry` owns one hub, and a
recorded event is built once, as one :class:`FlightEvent` appended to
one deque.  The hub only ever sees events that went through an
*installed* registry: with no recorder installed (the default) nothing
reaches it, so the disabled cost is the no-op recorder's one cell read.
``benchmarks/bench_o2_recorder_overhead.py`` gates both ends: an idle
registry taxes nothing, and full, evicting rings tax nothing on the
interception path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Union

from repro.telemetry import runtime
from repro.telemetry.export import write_jsonl
from repro.util.clock import Clock, SystemClock

#: Events kept per node before the ring starts evicting the oldest.
DEFAULT_CAPACITY = 512

#: Black-box events: when one lands and the hub has a ``dump_dir``, the
#: affected node's ring is dumped immediately (the state that *led to*
#: the incident is exactly what the ring still holds).
DUMP_KINDS = frozenset(
    {"fault.crash", "supervision.quarantined", "invariant.violation", "slo.burn"}
)

#: Ring assigned to events that name no node (world-level happenings).
WORLD = "world"


@dataclass(frozen=True)
class FlightEvent:
    """One recorded lifecycle event, causally stampable.

    ``seq`` is monotonic *per node*: it totally orders a node's own
    events even when several share a virtual-time instant.  ``trace_id``
    and ``span_id`` tie the event into the span graph when a context was
    ambient (or carried on the triggering message) at record time.
    """

    node: str
    seq: int
    time: float
    kind: str
    trace_id: str | None = None
    span_id: str | None = None
    fields: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Field access shorthand (``event.get("reason")``)."""
        return self.fields.get(key, default)

    def to_record(self) -> dict[str, Any]:
        """The exportable (JSONL) form of this event."""
        return {
            "type": "flight",
            "node": self.node,
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "FlightEvent":
        """Rebuild an event from its JSONL record."""
        return cls(
            node=record["node"],
            seq=record["seq"],
            time=record["time"],
            kind=record["kind"],
            trace_id=record.get("trace_id"),
            span_id=record.get("span_id"),
            fields=dict(record.get("fields", {})),
        )

    def line(self) -> str:
        """One human-readable line: time, node, seq, kind, fields, trace."""
        trace = f"  [{self.trace_id}]" if self.trace_id else ""
        detail = ", ".join(
            f"{key}={value}"
            for key, value in self.fields.items()
            if key not in ("trace_id", "span_id")
        )
        return (
            f"{self.time:10.3f}  {self.node:<10} #{self.seq:<4} "
            f"{self.kind:<28} {detail}{trace}"
        )

    def __repr__(self) -> str:
        trace = f" trace={self.trace_id}" if self.trace_id else ""
        return f"<FlightEvent {self.node}#{self.seq} t={self.time:.3f} {self.kind}{trace}>"


class FlightRecorder:
    """One node's bounded event ring."""

    __slots__ = ("node", "capacity", "_ring", "_seq", "recorded", "evicted")

    def __init__(self, node: str, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity}")
        self.node = node
        self.capacity = capacity
        self._ring: deque[FlightEvent] = deque(maxlen=capacity)
        self._seq = 0
        #: Total events ever recorded (recorded - len(ring) were evicted).
        self.recorded = 0
        self.evicted = 0

    def record(
        self,
        kind: str,
        time: float,
        fields: Mapping[str, Any],
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> FlightEvent:
        """Append one event, stamping the node's next sequence number."""
        event = FlightEvent(
            node=self.node,
            seq=self._seq,
            time=time,
            kind=kind,
            trace_id=trace_id,
            span_id=span_id,
            fields=fields,
        )
        self._seq += 1
        if len(self._ring) == self.capacity:
            self.evicted += 1
        self._ring.append(event)
        self.recorded += 1
        return event

    def events(self) -> list[FlightEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def tail(self, count: int = 10) -> list[FlightEvent]:
        """The most recent ``count`` retained events, oldest first."""
        if count <= 0:
            return []
        return list(self._ring)[-count:]

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[FlightEvent]:
        return iter(self._ring)

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder {self.node} retained={len(self._ring)}"
            f"/{self.capacity} recorded={self.recorded}>"
        )


def _derive_node(fields: Mapping[str, Any]) -> str:
    """Which node's ring an event belongs to, from its own fields.

    Priority: an explicit ``node`` field; then instance names that embed
    the node id as their first dot-separated component (``owner`` on
    breakers — ``hall.base`` —, ``table`` on lease tables —
    ``robot.extensions`` —, ``agent``/``client`` on renewal agents and
    resilient clients); then the message ``source`` on injected faults.
    Events naming nothing land on the shared :data:`WORLD` ring.
    """
    node = fields.get("node")
    if node:
        return str(node)
    for key in ("owner", "table", "agent", "client"):
        value = fields.get(key)
        if value:
            return str(value).split(".", 1)[0]
    source = fields.get("source")
    if source:
        return str(source)
    return WORLD


class FlightRecorderHub:
    """All nodes' flight recorders, fed by the metrics registry.

    Every :class:`~repro.telemetry.registry.MetricsRegistry` owns one
    (``registry.flight``): each lifecycle event the registry records is
    routed to the ring of the node it names.  ``capacity`` (events per
    ring) is the only retention setting.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        capacity: int = DEFAULT_CAPACITY,
        dump_dir: Union[str, Path, None] = None,
    ):
        self.clock = clock or SystemClock()
        self.capacity = capacity
        #: When set, black-box events (:data:`DUMP_KINDS`) dump the
        #: affected node's ring to ``<dump_dir>/flight-<node>.jsonl``.
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._recorders: dict[str, FlightRecorder] = {}
        self.auto_dumps = 0

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        kind: str,
        fields: Mapping[str, Any],
        time: float | None = None,
    ) -> FlightEvent:
        """Route one lifecycle event to its node's ring.

        The trace/span stamp prefers ids already present in ``fields``
        (e.g. a fault stamped from the faulted message's wire context)
        and falls back to the ambient span context.
        """
        trace_id = fields.get("trace_id")
        span_id = fields.get("span_id")
        if trace_id is None:
            context = runtime.current_context()
            if context is not None:
                trace_id = context.trace_id
                span_id = context.span_id
        event = self.recorder(_derive_node(fields)).record(
            kind,
            self.clock.now() if time is None else time,
            fields,
            trace_id=trace_id,
            span_id=span_id,
        )
        if kind in DUMP_KINDS and self.dump_dir is not None:
            self._auto_dump(event.node)
        return event

    # -- access ------------------------------------------------------------------

    def recorder(self, node: str) -> FlightRecorder:
        """The ring for ``node`` (created on first use)."""
        recorder = self._recorders.get(node)
        if recorder is None:
            recorder = self._recorders[node] = FlightRecorder(node, self.capacity)
        return recorder

    def nodes(self) -> list[str]:
        """Node ids with at least one recorded event, sorted."""
        return sorted(self._recorders)

    def events(self, node: str | None = None) -> list[FlightEvent]:
        """Retained events of one node, or of every node (by node, seq)."""
        if node is not None:
            return self.recorder(node).events()
        out: list[FlightEvent] = []
        for node_id in self.nodes():
            out.extend(self._recorders[node_id].events())
        return out

    def to_records(self) -> list[dict[str, Any]]:
        """Every retained event across all rings, exportable form."""
        return [event.to_record() for event in self.events()]

    def evicted(self) -> int:
        """Events pushed out of full rings, summed over every node."""
        return sum(recorder.evicted for recorder in self._recorders.values())

    # -- dumps -------------------------------------------------------------------

    def dump(
        self, destination: Union[str, Path, IO[str]], node: str | None = None
    ) -> int:
        """Write retained events (one node's, or everyone's) as JSONL.

        Returns the number of records written.  Accepts a path or an
        open text handle; :meth:`Timeline.from_dumps
        <repro.telemetry.timeline.Timeline.from_dumps>` loads dumps back.
        """
        events = self.events(node)
        return write_jsonl([event.to_record() for event in events], destination)

    def dump_all(self, directory: Union[str, Path]) -> list[Path]:
        """Dump each node's ring to ``<directory>/flight-<node>.jsonl``."""
        directory = Path(directory)
        paths = []
        for node in self.nodes():
            path = directory / f"flight-{node}.jsonl"
            self.dump(path, node=node)
            paths.append(path)
        return paths

    def _auto_dump(self, node: str) -> None:
        try:
            self.dump(self.dump_dir / f"flight-{node}.jsonl", node=node)
            self.auto_dumps += 1
        except OSError:  # pragma: no cover - a full disk must not kill the run
            pass

    def __repr__(self) -> str:
        total = sum(len(r) for r in self._recorders.values())
        return f"<FlightRecorderHub nodes={len(self._recorders)} retained={total}>"

