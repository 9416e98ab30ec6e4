"""The shared protocol-stub receiver behind storm nodes and load clients."""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.platform import ProactivePlatform
from repro.loadgen.client import LoadClient
from repro.loadgen.scenario import Scenario
from repro.loadgen.windows import WindowedCollector
from repro.midas.stub import StubReceiver
from repro.net.node import NetworkNode
from repro.net.transport import Transport


def offer(name: str, version: int = 1, duration: float = 8.0) -> dict:
    # The stub reads only the envelope's name and version.
    return {
        "envelope": SimpleNamespace(name=name, version=version),
        "duration": duration,
    }


def build_world(*bases: str, registration_lease: float = 4.0):
    """Linked base stations plus one stub receiver (not yet homed)."""
    platform = ProactivePlatform(seed=3)
    stations = {base: platform.create_base_station(base) for base in bases}
    device = platform.network.attach(NetworkNode("stub-1"))
    stub = StubReceiver(
        Transport(device, platform.simulator),
        platform.simulator,
        "class-a",
        registration_lease,
    )
    return platform, stations, stub


class TestProtocolHandlers:
    def setup_method(self):
        _platform, _stations, self.stub = build_world()

    def test_reoffer_keeps_the_lease_id_and_bumps_the_version(self):
        first = self.stub._serve_offer("base-a", offer("ext", version=1))
        again = self.stub._serve_offer("base-a", offer("ext", version=2))
        assert again["lease_id"] == first["lease_id"]
        (lease,) = self.stub.held.values()
        assert lease.version == 2

    def test_keepalive_splits_renewed_and_unknown_in_body_order(self):
        one = self.stub._serve_offer("base-a", offer("one"))["lease_id"]
        two = self.stub._serve_offer("base-a", offer("two"))["lease_id"]
        reply = self.stub._serve_keepalive(
            "base-a", {"lease_ids": [two, "gone-1", one, "gone-2"]}
        )
        assert reply == {"renewed": [two, one], "unknown": ["gone-1", "gone-2"]}

    def test_revoke_reports_whether_the_lease_was_held(self):
        lease_id = self.stub._serve_offer("base-a", offer("ext"))["lease_id"]
        assert self.stub._serve_revoke("base-a", {"lease_id": lease_id}) == {
            "revoked": True
        }
        assert self.stub.held == {}
        assert self.stub._serve_revoke("base-a", {"lease_id": lease_id}) == {
            "revoked": False
        }

    def test_two_granters_give_two_leases(self):
        from_a = self.stub._serve_offer("base-a", offer("ext"))["lease_id"]
        from_b = self.stub._serve_offer("base-b", offer("ext"))["lease_id"]
        assert from_a != from_b
        assert sorted(self.stub.held) == [("base-a", "ext"), ("base-b", "ext")]


class TestRegistrationUpkeep:
    def test_register_reply_after_a_migrate_is_ignored(self):
        platform, stations, stub = build_world("base-a", "base-b")
        replies: list[dict] = []
        stub.home = "base-a"
        stub.register("base-a", on_reply=replies.append)
        stub.home = "base-b"  # roamed before the reply landed
        platform.run_for(10.0)
        assert replies == []
        # Nothing renewed the base-a registration, so it lapsed.
        assert stations["base-a"].lookup.registration_count() == 0

    def test_upkeep_renews_only_at_the_current_home(self):
        platform, stations, stub = build_world("base-a", "base-b")
        stub.home = "base-a"
        stub.register("base-a")
        platform.run_for(10.0)  # > two terms: alive only through renewals
        assert stations["base-a"].lookup.registration_count() == 1
        stub.home = "base-b"
        stub.register("base-b")
        platform.run_for(10.0)
        assert stations["base-a"].lookup.registration_count() == 0
        assert stations["base-b"].lookup.registration_count() == 1


def test_load_discovery_op_replaces_its_registration():
    # The registrar replaces by service_id: a discovery op must re-send
    # the client's own ServiceItem, or each op adds a registration.
    platform = ProactivePlatform(seed=3)
    station = platform.create_base_station("base")
    scenario = Scenario(clients=1, think_time=0.2, mix={"discovery": 1.0})
    client = LoadClient(
        0,
        Transport(platform.network.attach(NetworkNode("client-000")), platform.simulator),
        platform.simulator,
        scenario,
        station.node_id,
        WindowedCollector(platform.simulator.clock, scenario.window),
    )
    client.start(register=True)
    platform.run_for(5.0)
    assert client.completed >= 5
    assert client.errors == 0
    assert station.lookup.registration_count() == 1
