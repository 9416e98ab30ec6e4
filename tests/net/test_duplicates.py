"""Duplicate and stray message handling at the transport (regressions).

A reply for a request that is no longer pending — a wire duplicate or a
reply landing after its timeout — must be dropped exactly once, counted,
and must never re-fire ``on_reply``.  A duplicated *request* must not
re-run the handler (at-most-once execution).
"""

import pytest

from repro.errors import RequestTimeout
from repro.net.geometry import Position
from repro.net.network import FaultVerdict
from repro.net.node import NetworkNode
from repro.net.transport import DEDUP_WINDOW, Transport
from repro.telemetry import MetricsRegistry, Timeline
from repro.telemetry import runtime as _telemetry


@pytest.fixture
def pair(sim, network):
    a = network.attach(NetworkNode("a", Position(0, 0)))
    b = network.attach(NetworkNode("b", Position(5, 0)))
    return Transport(a, sim), Transport(b, sim)


def duplicate_kind(network, kind, copies=2):
    """Fault-hook every message of ``kind`` into ``copies`` deliveries."""
    network.fault_hook = lambda message, source, destination: (
        FaultVerdict(copies=copies) if message.kind == kind else None
    )


class TestStrayReplies:
    def test_duplicated_reply_fires_on_reply_exactly_once(self, sim, network, pair):
        client, server = pair
        server.register("ping", lambda sender, body: "pong")
        duplicate_kind(network, "transport.reply")
        replies = []
        client.request("b", "ping", on_reply=replies.append)
        sim.run()
        assert replies == ["pong"]
        assert client.stray_replies == 1

    def test_late_reply_after_timeout_is_counted_not_delivered(self, sim, network, pair):
        client, server = pair
        server.register("slow", lambda sender, body: "late")
        # Delay the reply beyond the request timeout.
        network.fault_hook = lambda message, source, destination: (
            FaultVerdict(extra_delay=2.0)
            if message.kind == "transport.reply"
            else None
        )
        replies, errors = [], []
        client.request(
            "b", "slow", on_reply=replies.append, on_error=errors.append, timeout=1.0
        )
        sim.run()
        assert isinstance(errors[0], RequestTimeout)
        assert replies == []
        assert client.stray_replies == 1

    def test_stray_replies_visible_in_telemetry(self, sim, network, pair):
        client, server = pair
        server.register("ping", lambda sender, body: "pong")
        duplicate_kind(network, "transport.reply")
        registry = MetricsRegistry(clock=sim.clock)
        previous = _telemetry.install(registry)
        try:
            client.request("b", "ping")
            sim.run()
        finally:
            _telemetry.install(previous)
        assert registry.counter_total("net.transport.stray_replies") == 1
        events = Timeline.from_hub(registry.flight).events("transport.stray_reply")
        assert len(events) == 1
        assert events.first().fields["operation"] == "ping"

    def test_triple_duplication_drops_each_extra_once(self, sim, network, pair):
        client, server = pair
        server.register("ping", lambda sender, body: "pong")
        duplicate_kind(network, "transport.reply", copies=3)
        replies = []
        client.request("b", "ping", on_reply=replies.append)
        sim.run()
        assert replies == ["pong"]
        assert client.stray_replies == 2


class TestDuplicateRequests:
    def test_handler_runs_once_for_duplicated_request(self, sim, network, pair):
        client, server = pair
        executions = []
        server.register("incr", lambda sender, body: executions.append(1) or "done")
        duplicate_kind(network, "transport.request")
        replies = []
        client.request("b", "incr", on_reply=replies.append)
        sim.run()
        assert len(executions) == 1
        assert server.duplicate_requests == 1
        assert replies == ["done"]  # second reply dropped as a stray
        assert client.stray_replies == 1

    def test_cached_error_reply_not_reexecuted(self, sim, network, pair):
        client, server = pair
        attempts = []

        def broken(sender, body):
            attempts.append(1)
            raise ValueError("boom")

        server.register("boom", broken)
        duplicate_kind(network, "transport.request")
        errors = []
        client.request("b", "boom", on_error=errors.append)
        sim.run()
        assert len(attempts) == 1
        assert server.duplicate_requests == 1

    def test_distinct_requests_are_not_deduplicated(self, sim, pair):
        client, server = pair
        executions = []
        server.register("op", lambda sender, body: executions.append(body))
        client.request("b", "op", 1)
        client.request("b", "op", 2)
        sim.run()
        assert executions == [1, 2]
        assert server.duplicate_requests == 0

    def test_dedup_window_is_bounded(self, sim, pair):
        client, server = pair
        server.register("op", lambda sender, body: body)
        for i in range(DEDUP_WINDOW + 10):
            client.request("b", "op", i)
        sim.run()
        assert len(server._served) == DEDUP_WINDOW

    def test_reset_volatile_clears_pending_and_served(self, sim, pair):
        client, server = pair
        server.register("ping", lambda sender, body: "pong")
        outcomes = []
        client.request(
            "b", "ping",
            on_reply=lambda _: outcomes.append("reply"),
            on_error=lambda _: outcomes.append("error"),
        )
        client.reset_volatile()
        sim.run()
        # The pending callback was wiped: neither fires, and the reply
        # that still arrives is a counted stray.
        assert outcomes == []
        assert client.stray_replies == 1
