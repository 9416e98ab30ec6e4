"""The flight recorder: rings, node derivation, dumps, auto-dumps."""

import io
import json

import pytest

from repro.telemetry import MetricsRegistry, Timeline, runtime
from repro.telemetry.recorder import (
    DEFAULT_CAPACITY,
    WORLD,
    FlightEvent,
    FlightRecorder,
    FlightRecorderHub,
    _derive_node,
)
from repro.util.clock import Clock


class FrozenClock(Clock):
    def __init__(self, time: float = 0.0):
        self.time = time

    def now(self) -> float:
        return self.time


class TestFlightRecorder:
    def test_sequence_is_monotonic_per_node(self):
        recorder = FlightRecorder("n1")
        events = [recorder.record("k", time=float(i), fields={}) for i in range(5)]
        assert [event.seq for event in events] == [0, 1, 2, 3, 4]
        assert all(event.node == "n1" for event in events)

    def test_ring_evicts_oldest_but_sequence_keeps_counting(self):
        recorder = FlightRecorder("n1", capacity=3)
        for i in range(5):
            recorder.record("k", time=float(i), fields={"i": i})
        assert len(recorder) == 3
        assert [event.get("i") for event in recorder.events()] == [2, 3, 4]
        assert [event.seq for event in recorder.events()] == [2, 3, 4]
        assert recorder.recorded == 5
        assert recorder.evicted == 2

    def test_tail_returns_newest_oldest_first(self):
        recorder = FlightRecorder("n1")
        for i in range(6):
            recorder.record("k", time=float(i), fields={"i": i})
        assert [event.get("i") for event in recorder.tail(2)] == [4, 5]
        assert recorder.tail(0) == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder("n1", capacity=0)

    def test_event_record_round_trip(self):
        recorder = FlightRecorder("n1")
        event = recorder.record(
            "lease.granted", time=2.5, fields={"holder": "hall"}, trace_id="trace:9"
        )
        record = event.to_record()
        assert record["type"] == "flight"
        assert FlightEvent.from_record(record) == event


class TestNodeDerivation:
    def test_explicit_node_wins(self):
        assert _derive_node({"node": "robot", "owner": "hall.base"}) == "robot"

    def test_instance_names_strip_their_suffix(self):
        assert _derive_node({"owner": "hall.base"}) == "hall"
        assert _derive_node({"table": "robot.extensions"}) == "robot"
        assert _derive_node({"agent": "pda-1.renewal"}) == "pda-1"
        assert _derive_node({"client": "hall.midas"}) == "hall"

    def test_fault_source_and_world_fallback(self):
        assert _derive_node({"source": "robot"}) == "robot"
        assert _derive_node({"probability": 0.2}) == WORLD


class TestFlightRecorderHub:
    def test_routes_events_to_derived_rings(self):
        hub = FlightRecorderHub(clock=FrozenClock(1.0))
        hub.record("midas.installed", {"node": "robot", "extension": "x"})
        hub.record("lease.granted", {"table": "hall.registrations"})
        assert hub.nodes() == ["hall", "robot"]
        assert hub.recorder("robot").events()[0].kind == "midas.installed"

    def test_trace_stamp_prefers_fields_over_ambient(self):
        hub = FlightRecorderHub(clock=FrozenClock())
        event = hub.record("fault.injected", {"node": "n", "trace_id": "trace:7"})
        assert event.trace_id == "trace:7"

    def test_trace_stamp_falls_back_to_ambient_context(self, sim):
        registry = MetricsRegistry(clock=sim.clock)
        runtime.install(registry)
        hub = FlightRecorderHub(clock=sim.clock)
        with registry.span("op") as span:
            event = hub.record("prose.weave", {"node": "n"})
        assert event.trace_id == span.trace_id
        assert event.span_id == span.span_id

    def test_default_capacity_applies_to_new_rings(self):
        hub = FlightRecorderHub(clock=FrozenClock(), capacity=7)
        assert hub.recorder("n").capacity == 7
        assert FlightRecorder("m").capacity == DEFAULT_CAPACITY

    def test_events_merged_across_rings(self):
        hub = FlightRecorderHub(clock=FrozenClock())
        hub.record("a", {"node": "n2"}, time=1.0)
        hub.record("b", {"node": "n1"}, time=2.0)
        assert [(e.node, e.kind) for e in hub.events()] == [("n1", "b"), ("n2", "a")]
        assert [e.kind for e in hub.events(node="n1")] == ["b"]


class TestDumps:
    def make_hub(self) -> FlightRecorderHub:
        hub = FlightRecorderHub(clock=FrozenClock())
        hub.record("midas.installed", {"node": "robot"}, time=1.0)
        hub.record("lease.granted", {"node": "hall"}, time=2.0)
        return hub

    def test_dump_to_path_round_trips(self, tmp_path):
        hub = self.make_hub()
        path = tmp_path / "all.jsonl"
        count = hub.dump(path)
        assert count == 2
        assert list(Timeline.from_dumps([path])) == list(Timeline.from_hub(hub))

    def test_dump_one_node_to_handle(self):
        hub = self.make_hub()
        buffer = io.StringIO()
        hub.dump(buffer, node="robot")
        buffer.seek(0)
        events = Timeline.from_dumps([buffer])
        assert [event.node for event in events] == ["robot"]

    def test_dump_all_writes_one_file_per_node(self, tmp_path):
        paths = self.make_hub().dump_all(tmp_path)
        assert sorted(path.name for path in paths) == [
            "flight-hall.jsonl",
            "flight-robot.jsonl",
        ]

    def test_black_box_event_auto_dumps_affected_ring(self, tmp_path):
        hub = FlightRecorderHub(clock=FrozenClock(), dump_dir=tmp_path)
        hub.record("midas.installed", {"node": "robot"}, time=1.0)
        hub.record("supervision.quarantined", {"node": "robot"}, time=2.0)
        assert hub.auto_dumps == 1
        events = Timeline.from_dumps([tmp_path / "flight-robot.jsonl"])
        assert [event.kind for event in events] == [
            "midas.installed",
            "supervision.quarantined",
        ]

    def test_no_dump_dir_means_no_auto_dump(self):
        hub = FlightRecorderHub(clock=FrozenClock())
        hub.record("fault.crash", {"node": "hall"})
        assert hub.auto_dumps == 0

    def test_read_skips_malformed_and_foreign_lines(self, tmp_path):
        hub = self.make_hub()
        path = tmp_path / "dump.jsonl"
        hub.dump(path, node="robot")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{truncated\n")
            handle.write(json.dumps({"type": "counter", "name": "x"}) + "\n")
        events = Timeline.from_dumps([path])
        assert [event.node for event in events] == ["robot"]

    def test_timeline_from_records_keeps_only_flight_records(self):
        hub = self.make_hub()
        records = hub.to_records() + [{"type": "meta", "name": "x"}]
        assert list(Timeline.from_records(records)) == list(Timeline.from_hub(hub))
