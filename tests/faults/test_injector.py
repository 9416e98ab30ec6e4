"""FaultInjector behavior against a live network."""

import pytest

from repro.errors import RequestTimeout
from repro.faults import FaultInjector, FaultPlan, SkewedClock
from repro.net.geometry import Position
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.telemetry import MetricsRegistry, Timeline
from repro.telemetry import runtime as _telemetry


@pytest.fixture
def world(sim, network):
    a = network.attach(NetworkNode("a", Position(0, 0)))
    b = network.attach(NetworkNode("b", Position(5, 0)))
    return Transport(a, sim), Transport(b, sim)


@pytest.fixture
def registry(sim):
    registry = MetricsRegistry(clock=sim.clock)
    previous = _telemetry.install(registry)
    yield registry
    _telemetry.install(previous)


class TestMessageRules:
    def test_drop_rule_eats_matching_requests(self, sim, network, world):
        client, server = world
        server.register("ping", lambda sender, body: "pong")
        plan = FaultPlan().drop(operation="ping")
        injector = FaultInjector(network, sim, plan).install()
        errors = []
        client.request("b", "ping", on_error=errors.append, timeout=1.0)
        sim.run()
        assert isinstance(errors[0], RequestTimeout)
        assert injector.faults_injected == 1
        assert network.messages_dropped == 1

    def test_non_matching_operations_untouched(self, sim, network, world):
        client, server = world
        server.register("ping", lambda sender, body: "pong")
        FaultInjector(network, sim, FaultPlan().drop(operation="other")).install()
        replies = []
        client.request("b", "ping", on_reply=replies.append)
        sim.run()
        assert replies == ["pong"]

    def test_delay_rule_postpones_delivery(self, sim, network, world):
        client, server = world
        server.register("ping", lambda sender, body: "pong")
        FaultInjector(
            network, sim, FaultPlan().delay(extra=0.5, kind="transport.request")
        ).install()
        arrival = []
        client.request("b", "ping", on_reply=lambda _: arrival.append(sim.now))
        sim.run()
        assert arrival[0] > 0.5

    def test_duplicate_rule_delivers_copies(self, sim, network, world):
        client, server = world
        executions = []
        server.register("ping", lambda sender, body: executions.append(sender))
        FaultInjector(
            network, sim, FaultPlan().duplicate(kind="transport.request")
        ).install()
        replies = []
        client.request("b", "ping", on_reply=replies.append)
        sim.run()
        # Two copies arrive; the dedup cache re-runs the handler only once
        # and the second (identical) reply is dropped as a stray.
        assert len(executions) == 1
        assert server.duplicate_requests == 1
        assert len(replies) == 1
        assert client.stray_replies == 1

    def test_reorder_rule_lets_late_traffic_overtake(self, sim, network, world):
        client, _ = world
        received = []
        network.node("b").set_handler(
            "transport.notify", lambda msg: received.append(msg.payload.operation)
        )
        # First notify is delayed 0.1 s; the second bypasses link FIFO and
        # overtakes it.  Without REORDER the FIFO link would preserve order.
        plan = (
            FaultPlan()
            .delay(extra=0.1, kind="transport.notify", max_count=1)
            .reorder(kind="transport.notify")
        )
        FaultInjector(network, sim, plan).install()
        client.notify("b", "first")
        client.notify("b", "second")
        sim.run()
        assert received == ["second", "first"]

    def test_first_applicable_rule_wins(self, sim, network, world):
        client, server = world
        server.register("ping", lambda sender, body: "pong")
        plan = FaultPlan().drop(operation="ping").duplicate(operation="ping")
        injector = FaultInjector(network, sim, plan).install()
        client.request("b", "ping", timeout=1.0)
        sim.run()
        assert plan.message_rules[0].injected == 1
        assert plan.message_rules[1].injected == 0
        assert injector.faults_injected == 1

    def test_faults_recorded_in_telemetry(self, sim, network, world, registry):
        client, _ = world
        FaultInjector(network, sim, FaultPlan().drop()).install()
        client.request("b", "ping", timeout=1.0)
        sim.run()
        assert registry.counter_total("faults.injected") == 1
        events = Timeline.from_hub(registry.flight).events("fault.injected")
        assert events and events.first().fields["action"] == "drop"

    def test_uninstall_restores_clean_path(self, sim, network, world):
        client, server = world
        server.register("ping", lambda sender, body: "pong")
        injector = FaultInjector(network, sim, FaultPlan().drop()).install()
        injector.uninstall()
        assert network.fault_hook is None
        replies = []
        client.request("b", "ping", on_reply=replies.append)
        sim.run()
        assert replies == ["pong"]


class TestCrashRestart:
    def test_scheduled_crash_detaches_and_restart_reattaches(self, sim, network, world):
        client, server = world
        server.register("ping", lambda sender, body: "pong")
        plan = FaultPlan().crash("b", at=1.0, down_for=2.0)
        injector = FaultInjector(network, sim, plan).install()
        crashes, restarts = [], []
        injector.on_crash.connect(crashes.append)
        injector.on_restart.connect(restarts.append)

        errors, replies = [], []
        sim.schedule_at(
            1.5, lambda: client.request("b", "ping", on_error=errors.append, timeout=1.0)
        )
        sim.schedule_at(
            3.5, lambda: client.request("b", "ping", on_reply=replies.append)
        )
        sim.run_for(10.0)
        assert crashes == ["b"] and restarts == ["b"]
        assert isinstance(errors[0], RequestTimeout)
        assert replies == ["pong"]

    def test_crash_without_restart_stays_down(self, sim, network, world):
        client, _ = world
        injector = FaultInjector(
            network, sim, FaultPlan().crash("b", at=1.0)
        ).install()
        sim.run_for(10.0)
        assert "b" not in network
        assert injector.crashed == {"b"}

    def test_crash_events_in_telemetry(self, sim, network, world, registry):
        FaultInjector(
            network, sim, FaultPlan().crash("b", at=1.0, down_for=1.0)
        ).install()
        sim.run_for(5.0)
        names = Timeline.from_hub(registry.flight).kinds()
        assert "fault.crash" in names and "fault.restart" in names

    def test_manual_crash_and_restart(self, sim, network, world):
        injector = FaultInjector(network, sim, FaultPlan()).install()
        injector.crash_now("b")
        assert "b" not in network
        injector.restart_now("b")
        assert "b" in network


class TestLinkFlaps:
    def test_flap_cycles_partition(self, sim, network, world):
        client, server = world
        server.register("ping", lambda sender, body: "pong")
        plan = FaultPlan().flap_link("a", "b", period=4.0, down_for=1.0)
        FaultInjector(network, sim, plan).install()
        outcomes = []

        def attempt():
            client.request(
                "b", "ping",
                on_reply=lambda _: outcomes.append("ok"),
                on_error=lambda _: outcomes.append("fail"),
                timeout=0.5,
            )

        sim.schedule_at(0.5, attempt)   # link down (flap at t=0)
        sim.schedule_at(2.0, attempt)   # link healed
        sim.run_for(6.0)
        assert outcomes == ["fail", "ok"]

    def test_flap_window_closes(self, sim, network, world, registry):
        plan = FaultPlan().flap_link("a", "b", period=2.0, down_for=0.5, between=(0, 5))
        FaultInjector(network, sim, plan).install()
        sim.run_for(20.0)
        timeline = Timeline.from_hub(registry.flight)
        downs = timeline.events("fault.link_down").all()
        ups = timeline.events("fault.link_up").all()
        assert len(downs) == 3  # t = 0, 2, 4
        assert len(ups) == len(downs)
        assert network.reachable(network.node("a"), network.node("b"))


class TestClockSkew:
    def test_clock_for_returns_skewed_view(self, sim, network):
        plan = FaultPlan().skew_clock("n", offset=1.0, drift=0.1)
        injector = FaultInjector(network, sim, plan)
        clock = injector.clock_for("n")
        assert isinstance(clock, SkewedClock)
        sim.run_for(10.0)
        assert clock.now() == pytest.approx(10.0 * 1.1 + 1.0)
        assert injector.clock_for("other").now() == pytest.approx(10.0)


class TestDeterminism:
    def _run(self, seed):
        sim = Simulator()
        network = Network(sim, seed=seed)
        a = network.attach(NetworkNode("a", Position(0, 0)))
        b = network.attach(NetworkNode("b", Position(5, 0)))
        client, server = Transport(a, sim), Transport(b, sim)
        server.register("ping", lambda sender, body: "pong")
        plan = FaultPlan().drop(probability=0.3).delay(extra=0.05, probability=0.2)
        injector = FaultInjector(network, sim, plan).install()
        outcomes = []
        for i in range(40):
            sim.schedule_at(
                i * 0.5,
                lambda: client.request(
                    "b", "ping",
                    on_reply=lambda _: outcomes.append("ok"),
                    on_error=lambda _: outcomes.append("fail"),
                    timeout=0.4,
                ),
            )
        sim.run_for(30.0)
        return outcomes, injector.faults_injected, network.messages_dropped

    def test_same_seed_same_chaos(self):
        assert self._run(77) == self._run(77)

    def test_different_seed_different_chaos(self):
        assert self._run(77) != self._run(78)
