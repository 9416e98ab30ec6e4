"""Causal timelines: per-node flight rings merged into one history.

Each node's flight recorder totally orders *its own* events (the per-node
sequence number).  A :class:`Timeline` merges those per-node streams into
one happens-before-consistent linearization of the whole world:

- Events are ordered by ``(time, node, seq)``.  Under the deterministic
  simulator every timestamp is virtual time from one shared clock, and a
  message is always delivered strictly after it was sent — so time order
  *is* a valid happens-before linearization (a send always precedes its
  receive), and ``(node, seq)`` breaks same-instant ties deterministically
  while preserving each node's own order.
- Events are additionally indexed by trace id, so a cross-node causal
  chain (offer → install → quarantine → health report) can be pulled out
  as one keyed sub-history.

Timelines are built from a live hub (:meth:`Timeline.from_hub`), from
exported records (:meth:`Timeline.from_records` — e.g. several per-node
JSONL dumps collected after a crash), or straight from events.  Querying
goes through :class:`~repro.telemetry.query.TimelineQuery` — start with
:meth:`Timeline.events`.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping, Union

from repro.telemetry.export import read_jsonl
from repro.telemetry.query import TimelineQuery
from repro.telemetry.recorder import FlightEvent, FlightRecorderHub


def _order_key(event: FlightEvent) -> tuple[float, str, int]:
    return (event.time, event.node, event.seq)


class Timeline:
    """A merged, happens-before-ordered history of flight events."""

    def __init__(self, events: Iterable[FlightEvent] = ()):
        self._events: list[FlightEvent] = sorted(events, key=_order_key)
        #: Position of each event in the merged order (identity-keyed:
        #: FlightEvent is frozen but two nodes can record equal payloads).
        self._index: dict[int, int] = {
            id(event): position for position, event in enumerate(self._events)
        }
        self._by_trace: dict[str, list[FlightEvent]] = {}
        for event in self._events:
            if event.trace_id is not None:
                self._by_trace.setdefault(event.trace_id, []).append(event)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_hub(cls, hub: FlightRecorderHub) -> "Timeline":
        """Merge every ring of a live hub."""
        return cls(hub.events())

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "Timeline":
        """Rebuild a timeline from exported records (non-flight records skipped)."""
        return cls(
            FlightEvent.from_record(record)
            for record in records
            if record.get("type") == "flight"
        )

    @classmethod
    def from_dumps(cls, sources: Iterable[Union[str, Path, IO[str]]]) -> "Timeline":
        """Merge several per-node JSONL dump files into one timeline.

        Malformed lines and non-flight records are skipped.
        """
        return cls.from_records(
            record for source in sources for record in read_jsonl(source)
        )

    # -- queries -----------------------------------------------------------------

    def events(self, kind: str | None = None) -> TimelineQuery:
        """The root query: every event, optionally filtered by kind."""
        query = TimelineQuery(self, tuple(self._events))
        return query.kind(kind) if kind is not None else query

    def trace(self, trace_id: str) -> TimelineQuery:
        """Every event stamped with ``trace_id``, in merged order."""
        return TimelineQuery(self, tuple(self._by_trace.get(trace_id, ())))

    def traces(self) -> dict[str, list[FlightEvent]]:
        """Trace-stamped events grouped by trace id, each in merged order."""
        return {trace: list(events) for trace, events in self._by_trace.items()}

    def nodes(self) -> list[str]:
        """Node ids present on the timeline, sorted."""
        return sorted({event.node for event in self._events})

    def kinds(self) -> list[str]:
        """Event kinds present on the timeline, sorted."""
        return sorted({event.kind for event in self._events})

    def position(self, event: FlightEvent) -> int:
        """The event's position in the merged order (ValueError if foreign)."""
        try:
            return self._index[id(event)]
        except KeyError:
            raise ValueError(f"{event!r} is not on this timeline") from None

    # -- rendering ---------------------------------------------------------------

    def render(self, limit: int | None = None) -> str:
        """A human-readable dump of the merged order (for debugging)."""
        events = self._events if limit is None else self._events[-limit:]
        return "\n".join(event.line() for event in events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FlightEvent]:
        return iter(self._events)

    def __repr__(self) -> str:
        return (
            f"<Timeline events={len(self._events)} nodes={len(self.nodes())} "
            f"traces={len(self._by_trace)}>"
        )
