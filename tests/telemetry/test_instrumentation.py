"""The instrumented choke points, unit by unit, then end to end."""

import pytest

from repro.aop import Aspect, FieldWriteCut, MethodCut, ProseVM, before
from repro.leasing.table import LeaseTable
from repro.telemetry import Timeline
from repro.tuplespace.space import Tuple, TupleSpace, TupleTemplate


class Device:
    def __init__(self):
        self.level = 0

    def ping(self):
        return "pong"


class Watcher(Aspect):
    @before(MethodCut(type="Device", method="ping"))
    def on_ping(self, ctx):
        pass

    @before(FieldWriteCut(type="Device", field="level"))
    def on_level(self, ctx):
        pass


@pytest.fixture
def vm():
    machine = ProseVM(name="test-vm")
    yield machine
    for cls in list(machine.loaded_classes):
        machine.unload_class(cls)


class TestProseInstrumentation:
    def test_dispatch_counts_and_latency(self, registry, vm):
        vm.load_class(Device)
        vm.insert(Watcher())
        device = Device()
        for _ in range(3):
            device.ping()
        assert registry.counter_value(
            "prose.interceptions", joinpoint="Device.ping"
        ) == pytest.approx(3)
        # __init__ triggered the field-write hook for ``level`` as well.
        assert registry.counter_total("prose.field_interceptions") >= 1
        histogram = registry.histogram("prose.dispatch", joinpoint="Device.ping")
        assert histogram is not None and histogram.count == 3
        assert histogram.max < 1.0  # wall-clock advice latency, sane bound

    def test_vm_stats_feed_registry_and_stay_readable(self, registry, vm):
        vm.load_class(Device)
        watcher = Watcher()
        vm.insert(watcher)
        vm.withdraw(watcher)
        # Backward-compatible attribute view...
        assert vm.stats.classes_loaded == 1
        assert vm.stats.inserts == 1
        assert vm.stats.withdrawals == 1
        assert vm.stats.methods_stubbed >= 1
        # ... and the registry mirror, labelled by VM name.
        assert registry.counter_value(
            "prose.vm.classes_loaded", vm="test-vm"
        ) == 1
        assert registry.counter_value("prose.vm.inserts", vm="test-vm") == 1
        assert registry.counter_value("prose.vm.withdrawals", vm="test-vm") == 1

    def test_vm_stats_work_without_recorder(self, vm):
        vm.load_class(Device)
        assert vm.stats.classes_loaded == 1

    def test_as_dict_matches_attributes(self, vm):
        vm.load_class(Device)
        stats = vm.stats.as_dict()
        assert stats["classes_loaded"] == 1
        assert set(stats) == set(vm.stats.FIELDS) | {"weave_seconds"}


class TestLeaseInstrumentation:
    def test_lifecycle_counters(self, sim, registry):
        table = LeaseTable(sim, name="t")
        lease = table.grant("holder", "res", duration=5.0)
        table.renew(lease.lease_id, 5.0)
        table.cancel(lease.lease_id)
        other = table.grant("holder", "res2", duration=1.0)
        sim.run_for(2.0)
        assert registry.counter_value("lease.granted", table="t") == 2
        assert registry.counter_value("lease.renewed", table="t") == 1
        assert registry.counter_value("lease.cancelled", table="t") == 1
        assert registry.counter_value("lease.expired", table="t") == 1
        (event,) = Timeline.from_hub(registry.flight).events("lease.expired")
        assert event.fields["resource"] == "res2"
        assert event.time == pytest.approx(other.expires_at)


class TestTupleSpaceInstrumentation:
    def test_operation_counters_and_size_gauge(self, sim, registry):
        space = TupleSpace(sim, name="s")
        space.out(Tuple("policy", {"hall": "A"}))
        space.out(Tuple("policy", {"hall": "B"}))
        space.rd(TupleTemplate("policy"))
        space.take(TupleTemplate("policy", {"hall": "A"}))
        assert registry.counter_value("tuplespace.out", space="s", kind="policy") == 2
        # take() reads first, so rd is counted twice.
        assert registry.counter_value("tuplespace.rd", space="s", kind="policy") == 2
        assert registry.counter_value("tuplespace.take", space="s", kind="policy") == 1
        assert registry.gauge_value("tuplespace.size", space="s") == 1

    def test_size_gauge_tracks_expiry(self, sim, registry):
        space = TupleSpace(sim, name="s")
        space.out(Tuple("policy"), lease_duration=1.0)
        assert registry.gauge_value("tuplespace.size", space="s") == 1
        sim.run_for(2.0)
        assert registry.gauge_value("tuplespace.size", space="s") == 0


class TestMidasLifecycleTrace:
    """The acceptance criterion: offer→install→renew→revoke is ONE trace."""

    @pytest.fixture
    def world(self):
        from repro import Position as Pos, ProactivePlatform
        from repro.extensions import CallLogging

        platform = ProactivePlatform()
        registry = platform.enable_telemetry()
        hall = platform.create_base_station("hall", Pos(0, 0))
        hall.add_extension("call-log", lambda: CallLogging(type_pattern="Nothing"))
        device = platform.create_mobile_node("node", Pos(10, 0))
        yield platform, hall, device, registry
        platform.disable_telemetry()

    def test_single_connected_trace(self, world):
        platform, hall, device, registry = world
        platform.run_for(6.0)  # discovery + offer + install
        assert device.extensions() == ["call-log"]
        platform.run_for(7.0)  # at least one keepalive/renew round
        hall.extension_base.revoke(device.node_id, "call-log")
        platform.run_for(2.0)
        assert device.extensions() == []

        midas = [s for s in registry.spans if s.name.startswith("midas.")]
        names = {s.name for s in midas}
        assert {
            "midas.offer", "midas.install", "midas.keepalive",
            "midas.renew", "midas.revoke", "midas.withdraw",
        } <= names
        assert len({s.trace_id for s in midas}) == 1

        offer = next(s for s in midas if s.name == "midas.offer")
        install = next(s for s in midas if s.name == "midas.install")
        assert offer.parent_id is None
        assert offer.node == "hall"
        assert install.node == "node"
        assert install.parent_id == offer.span_id
        assert "lease_id" in offer.attrs  # merged in by the reply callback

    def test_lifecycle_counters(self, world):
        platform, hall, device, registry = world
        platform.run_for(6.0)
        hall.extension_base.revoke(device.node_id, "call-log")
        platform.run_for(2.0)
        assert registry.counter_total("midas.offers") >= 1
        assert registry.counter_total("midas.installs") == 1
        assert registry.counter_total("midas.withdrawals") == 1
        timeline = Timeline.from_hub(registry.flight)
        installed = timeline.events("midas.installed").all()
        withdrawn = timeline.events("midas.withdrawn").all()
        assert len(installed) == 1 and len(withdrawn) == 1
        assert withdrawn[0].fields["reason"] == "revoked"

    def test_rejection_counted(self, world):
        from repro import Position as Pos
        from repro.aop.sandbox import SandboxPolicy
        from tests.support import NetworkUsingAspect

        platform, hall, _, registry = world
        hall.add_extension("needs-net", NetworkUsingAspect)
        strict = platform.create_mobile_node(
            "strict", Pos(12, 0), policy=SandboxPolicy.restrictive()
        )
        platform.run_for(6.0)
        assert "needs-net" not in strict.extensions()
        assert registry.counter_value(
            "midas.rejections", node="strict", extension="needs-net"
        ) >= 1
