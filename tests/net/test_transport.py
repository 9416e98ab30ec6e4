"""Request/reply transport tests."""

import pytest

from repro.errors import RequestTimeout
from repro.net.geometry import Position
from repro.net.node import NetworkNode
from repro.net.transport import RemoteError, Transport, current_caller


@pytest.fixture
def pair(sim, network):
    a = network.attach(NetworkNode("a", Position(0, 0)))
    b = network.attach(NetworkNode("b", Position(5, 0)))
    return Transport(a, sim), Transport(b, sim)


class TestRequestReply:
    def test_round_trip(self, sim, pair):
        client, server = pair
        server.register("add", lambda sender, body: body["x"] + body["y"])
        replies = []
        client.request("b", "add", {"x": 2, "y": 3}, on_reply=replies.append)
        sim.run()
        assert replies == [5]

    def test_handler_sees_sender(self, sim, pair):
        client, server = pair
        senders = []
        server.register("who", lambda sender, body: senders.append(sender))
        client.request("b", "who")
        sim.run()
        assert senders == ["a"]

    def test_current_caller_inside_handler(self, sim, pair):
        client, server = pair
        callers = []
        server.register("op", lambda sender, body: callers.append(current_caller()))
        client.request("b", "op")
        sim.run()
        assert callers == ["a"]

    def test_current_caller_reset_after_handler(self, sim, pair):
        client, server = pair
        server.register("op", lambda sender, body: None)
        client.request("b", "op")
        sim.run()
        assert current_caller() is None

    def test_handler_exception_becomes_remote_error(self, sim, pair):
        client, server = pair

        def broken(sender, body):
            raise ValueError("server exploded")

        server.register("boom", broken)
        errors = []
        client.request("b", "boom", on_error=errors.append)
        sim.run()
        assert len(errors) == 1
        assert isinstance(errors[0], RemoteError)
        assert "server exploded" in str(errors[0])

    def test_unknown_operation_is_remote_error(self, sim, pair):
        client, _ = pair
        errors = []
        client.request("b", "nothing", on_error=errors.append)
        sim.run()
        assert isinstance(errors[0], RemoteError)

    def test_timeout_when_destination_unreachable(self, sim, network, pair):
        client, _ = pair
        network.partition("a", "b")
        errors = []
        client.request("b", "op", on_error=errors.append, timeout=1.0)
        sim.run()
        assert isinstance(errors[0], RequestTimeout)
        assert client.timeouts == 1

    def test_reply_cancels_timeout(self, sim, pair):
        client, server = pair
        server.register("op", lambda sender, body: "ok")
        errors = []
        client.request("b", "op", on_error=errors.append, timeout=5.0)
        sim.run()
        assert errors == []
        assert client.timeouts == 0

    def test_late_reply_after_timeout_is_dropped(self, sim, network, pair):
        client, server = pair
        server.register("op", lambda sender, body: "late")
        replies, errors = [], []
        # Timeout far shorter than any possible round trip.
        client.request(
            "b", "op", on_reply=replies.append, on_error=errors.append, timeout=0.0001
        )
        sim.run()
        assert replies == []
        assert len(errors) == 1

    def test_concurrent_requests_matched_to_callers(self, sim, pair):
        client, server = pair
        server.register("echo", lambda sender, body: body)
        replies = []
        for value in range(5):
            client.request("b", "echo", value, on_reply=replies.append)
        sim.run()
        assert sorted(replies) == [0, 1, 2, 3, 4]


class TestNotify:
    def test_notify_is_one_way(self, sim, pair):
        client, server = pair
        got = []
        server.register("event", lambda sender, body: got.append(body))
        client.notify("b", "event", {"n": 1})
        sim.run()
        assert got == [{"n": 1}]

    def test_notify_unknown_operation_silently_ignored(self, sim, pair):
        client, _ = pair
        client.notify("b", "nothing")
        sim.run()  # no exception

    def test_notify_handler_error_swallowed(self, sim, pair):
        client, server = pair

        def broken(sender, body):
            raise ValueError("handler bug")

        server.register("event", broken)
        client.notify("b", "event")
        sim.run()  # no exception

    def test_broadcast_notify(self, sim, network, pair):
        client, server = pair
        c = network.attach(NetworkNode("c", Position(0, 5)))
        third = Transport(c, sim)
        got = []
        server.register("ann", lambda sender, body: got.append("b"))
        third.register("ann", lambda sender, body: got.append("c"))
        client.broadcast("ann")
        sim.run()
        assert sorted(got) == ["b", "c"]


class TestSelfAndEdgeCases:
    def test_request_to_self(self, sim, pair):
        """A node may call its own services (distance zero, in range)."""
        client, _ = pair
        client.register("local.echo", lambda sender, body: body)
        replies = []
        client.request("a", "local.echo", "me", on_reply=replies.append)
        sim.run()
        assert replies == ["me"]

    def test_duplicate_reply_ignored(self, sim, pair):
        """A handler answering twice (misbehaving server) cannot fire the
        callback twice — the pending entry is consumed by the first."""
        client, server = pair
        from repro.net.transport import _REPLY, _ReplyBody

        def echo_twice(sender, body):
            # sneak an extra forged reply onto the wire
            server.node.send(sender, _REPLY, _ReplyBody("req:forged", "op", 1, None))
            return "real"

        server.register("op", echo_twice)
        replies = []
        client.request("b", "op", on_reply=replies.append)
        sim.run()
        assert replies == ["real"]

    def test_zero_payload_kinds(self, sim, pair):
        client, server = pair
        seen = []
        server.register("op", lambda sender, body: seen.append(body))
        client.notify("b", "op", None)
        client.notify("b", "op", 0)
        client.notify("b", "op", "")
        sim.run()
        assert seen == [None, 0, ""]


class TestTimeoutSemantics:
    def test_timeout_fails_pending_exactly_once(self, sim, network, pair):
        """The timeout consumes the pending entry: on_error fires once,
        and a stray second timeout callback for the same id is a no-op."""
        client, _ = pair
        network.partition("a", "b")
        errors = []
        request_id = client.request("b", "op", on_error=errors.append, timeout=1.0)
        sim.run()
        assert len(errors) == 1
        assert isinstance(errors[0], RequestTimeout)
        assert client.timeouts == 1
        # A duplicate firing (e.g. a stale scheduled event) must not
        # re-fail the request or bump the counter.
        client._handle_timeout(request_id)
        assert len(errors) == 1
        assert client.timeouts == 1

    def test_timeout_emits_metric_and_event(self, sim, network, pair):
        from repro.telemetry import MetricsRegistry, Timeline, runtime

        client, _ = pair
        network.partition("a", "b")
        registry = MetricsRegistry(clock=sim.clock)
        with runtime.recording(registry):
            client.request("b", "slow.op", timeout=1.0)
            sim.run()
        assert registry.counter_value(
            "net.transport.timeouts", node="a", operation="slow.op"
        ) == 1
        timeline = Timeline.from_hub(registry.flight)
        timeout_events = timeline.events("transport.timeout").all()
        assert len(timeout_events) == 1
        assert timeout_events[0].fields["operation"] == "slow.op"
        assert timeout_events[0].fields["waited"] == pytest.approx(1.0)

    def test_reply_after_timeout_records_no_rtt(self, sim, pair):
        from repro.telemetry import MetricsRegistry, runtime

        client, server = pair
        server.register("op", lambda sender, body: "late")
        registry = MetricsRegistry(clock=sim.clock)
        with runtime.recording(registry):
            client.request("b", "op", timeout=0.0001)
            sim.run()
        assert registry.counter_total("net.transport.timeouts") == 1
        assert registry.histogram("net.transport.rtt", operation="op") is None


class TestRegistration:
    def test_unregister(self, sim, pair):
        client, server = pair
        server.register("op", lambda sender, body: "ok")
        server.unregister("op")
        errors = []
        client.request("b", "op", on_error=errors.append)
        sim.run()
        assert isinstance(errors[0], RemoteError)

    def test_serves(self, pair):
        _, server = pair
        server.register("op", lambda sender, body: None)
        assert server.serves("op")
        assert not server.serves("other")

    def test_stats_counted(self, sim, pair):
        client, server = pair
        server.register("op", lambda sender, body: None)
        client.request("b", "op")
        sim.run()
        assert client.requests_sent == 1
        assert server.requests_served == 1
