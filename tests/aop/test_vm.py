"""ProseVM weaving tests."""

import pytest

from repro.aop import Aspect, MethodCut, ProseVM, before
from repro.aop.advice import AdviceKind
from repro.aop.crosscut import FieldWriteCut
from repro.aop.joinpoint import JoinPointKind
from repro.errors import ClassNotLoadedError, NotWovenError, WeaveError

from tests.support import Engine, FieldTraceAspect, TraceAspect, fresh_class


@pytest.fixture
def vm():
    return ProseVM()


class TestClassLoading:
    def test_load_creates_method_joinpoints(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        names = {jp.member for jp in vm.joinpoints(JoinPointKind.METHOD)}
        assert {"start", "throttle", "send_telemetry", "get_id"} <= names

    def test_init_is_a_joinpoint(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        assert "__init__" in {jp.member for jp in vm.joinpoints()}

    def test_other_dunders_not_stubbed(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        assert "__repr__" not in {jp.member for jp in vm.joinpoints()}

    def test_load_is_idempotent(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        count = vm.stats.methods_stubbed
        vm.load_class(cls)
        assert vm.stats.methods_stubbed == count

    def test_loaded_class_behaves_identically(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        engine = cls("e1")
        engine.start()
        assert engine.throttle(100) == 900
        assert engine.get_id() == "e1"

    def test_load_non_class_rejected(self, vm):
        with pytest.raises(WeaveError):
            vm.load_class(42)

    def test_unload_restores_original_methods(self, vm):
        cls = fresh_class()
        original_start = vars(cls).get("start")
        vm.load_class(cls)
        vm.unload_class(cls)
        assert not hasattr(cls.start, "__prose_table__")
        engine = cls()
        engine.start()
        assert engine.rpm == 800
        assert original_start is None or vars(cls)["start"] is original_start

    def test_unload_unknown_class_raises(self, vm):
        with pytest.raises(ClassNotLoadedError):
            vm.unload_class(Engine)

    def test_include_inherited_materializes_base_methods(self, vm):
        from tests.support import Turbine

        cls = fresh_class(Turbine)
        vm.load_class(cls, include_inherited=True)
        members = {jp.member for jp in vm.joinpoints()}
        assert "throttle" in members  # inherited from Engine
        assert "spool" in members

    def test_staticmethods_are_stubbed(self, vm):
        class WithStatic:
            @staticmethod
            def helper(x: int) -> int:
                return x * 2

        vm.load_class(WithStatic)
        trace = TraceAspect(method_pattern="helper")
        vm.insert(trace)
        assert WithStatic.helper(21) == 42
        assert trace.trace == [("helper", (21,))]

    def test_classmethods_are_stubbed(self, vm):
        class WithClass:
            count = 3

            @classmethod
            def bump(cls) -> int:
                return cls.count + 1

        vm.load_class(WithClass)
        trace = TraceAspect(method_pattern="bump")
        vm.insert(trace)
        assert WithClass.bump() == 4
        assert trace.trace == [("bump", ())]


class TestInsertWithdraw:
    def test_insert_activates_matching_advice(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(trace)
        cls().start()
        assert trace.trace == [("start", ())]

    def test_non_matching_advice_inactive(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Rocket")
        vm.insert(trace)
        cls().start()
        assert trace.trace == []

    def test_withdraw_deactivates(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Engine")
        vm.insert(trace)
        engine = cls()
        engine.start()
        vm.withdraw(trace)
        trace.trace.clear()
        engine.start()
        assert trace.trace == []

    def test_double_insert_rejected(self, vm):
        trace = TraceAspect()
        vm.insert(trace)
        with pytest.raises(WeaveError):
            vm.insert(trace)

    def test_withdraw_uninserted_rejected(self, vm):
        with pytest.raises(NotWovenError):
            vm.withdraw(TraceAspect())

    def test_insert_before_class_load_still_weaves(self, vm):
        trace = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(trace)
        cls = fresh_class()
        vm.load_class(cls)  # class arrives after the aspect
        cls().start()
        assert trace.trace == [("start", ())]

    def test_two_aspects_independent_withdrawal(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        first = TraceAspect(method_pattern="start")
        second = TraceAspect(method_pattern="start")
        vm.insert(first)
        vm.insert(second)
        vm.withdraw(first)
        cls().start()
        assert first.trace == []
        assert len(second.trace) == 1

    def test_withdraw_all(self, vm):
        vm.insert(TraceAspect())
        vm.insert(TraceAspect())
        vm.withdraw_all()
        assert vm.aspects == ()

    def test_is_inserted(self, vm):
        trace = TraceAspect()
        assert not vm.is_inserted(trace)
        vm.insert(trace)
        assert vm.is_inserted(trace)

    def test_advised_joinpoints_reflect_weaving(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        assert vm.advised_joinpoints() == []
        trace = TraceAspect(method_pattern="start")
        vm.insert(trace)
        assert [jp.member for jp in vm.advised_joinpoints()] == ["start"]

    def test_interception_count(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        vm.insert(TraceAspect(method_pattern="start"))
        engine = cls()
        engine.start()
        engine.start()
        engine.throttle(1)  # not advised: fast path, not counted
        assert vm.interception_count() == 2

    def test_lifecycle_hooks_called(self, vm):
        events = []

        class Lifecycle(Aspect):
            def on_insert(self, target_vm):
                events.append(("insert", target_vm))

            def on_withdraw(self, target_vm):
                events.append(("withdraw", target_vm))

            @before(MethodCut(type="*", method="nothing"))
            def advice(self, ctx):
                pass

        aspect = Lifecycle()
        vm.insert(aspect)
        vm.withdraw(aspect)
        assert events == [("insert", vm), ("withdraw", vm)]

    def test_unload_class_detaches_aspect_registrations(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(method_pattern="start")
        vm.insert(trace)
        vm.unload_class(cls)
        cls().start()
        assert trace.trace == []
        # Re-loading re-weaves the still-inserted aspect.
        vm.load_class(cls)
        cls().start()
        assert len(trace.trace) == 1


class TestStubsOnlyWhileAdvised:
    """Stubs are prebuilt at load time but bound into the class only while
    their join point is advised; the class dict is pristine otherwise."""

    def test_load_installs_nothing(self, vm):
        cls = fresh_class()
        before_load = dict(vars(cls))
        vm.load_class(cls)
        assert dict(vars(cls)) == before_load
        assert not hasattr(cls.start, "__prose_table__")
        assert "__setattr__" not in vars(cls)

    def test_joinpoints_still_enumerable(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        assert {jp.member for jp in vm.joinpoints()} >= {"start", "throttle"}

    def test_insert_installs_only_matched_stubs(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        vm.insert(TraceAspect(type_pattern="Engine", method_pattern="start"))
        assert vars(cls)["start"] is vm.table_for(cls, "start").stub
        assert not hasattr(cls.throttle, "__prose_table__")

    def test_interception_works(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(trace)
        cls().start()
        assert trace.trace == [("start", ())]

    def test_withdraw_restores_pristine_methods(self, vm):
        cls = fresh_class()
        original = vars(cls)["start"]
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(trace)
        vm.withdraw(trace)
        assert vars(cls)["start"] is original

    def test_stub_reused_across_activations(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        stub = vm.table_for(cls, "start").stub
        for _ in range(2):
            trace = TraceAspect(type_pattern="Engine", method_pattern="start")
            vm.insert(trace)
            assert vars(cls)["start"] is stub
            vm.withdraw(trace)

    def test_field_hook_swapped(self, vm):
        cls = fresh_class()
        vm.load_class(cls)

        aspect = Aspect()
        writes = []
        aspect.add_advice(
            AdviceKind.AFTER,
            FieldWriteCut(type="Engine", field="rpm"),
            lambda ctx: writes.append(ctx.new_value),
        )
        vm.insert(aspect)
        assert "__setattr__" in vars(cls)
        engine = cls()
        engine.rpm = 5
        assert 5 in writes
        vm.withdraw(aspect)
        assert "__setattr__" not in vars(cls)

    def test_two_aspects_one_joinpoint(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        first = TraceAspect(type_pattern="Engine", method_pattern="start")
        second = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(first)
        vm.insert(second)
        vm.withdraw(first)
        # Still advised by the second: stub stays.
        assert hasattr(cls.start, "__prose_table__")
        vm.withdraw(second)
        assert not hasattr(cls.start, "__prose_table__")

    def test_unload_while_advised(self, vm):
        cls = fresh_class()
        original = vars(cls)["start"]
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Engine")
        vm.insert(trace)
        vm.unload_class(cls)
        cls().start()
        assert vars(cls)["start"] is original
        assert trace.trace == []

    def test_captured_stub_falls_back_after_withdraw(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Engine", method_pattern="throttle")
        vm.insert(trace)
        engine = cls()
        throttle = engine.throttle  # bound to the installed stub
        vm.withdraw(trace)
        assert throttle(5) == 5  # fast path: straight to the original
        assert trace.trace == []


class TestMultipleVMs:
    def test_second_vm_does_not_restub(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        other = ProseVM(name="other")
        other.load_class(cls)
        assert other.is_loaded(cls)
        assert other.stats.methods_stubbed == 0
        assert other.joinpoints() == []
        # The owner's tables live outside the class, so nothing marks it.
        assert not hasattr(cls.start, "__prose_table__")
        other.unload_class(cls)
        assert vm.table_for(cls, "start").joinpoint.member == "start"

    def test_second_vm_cannot_clobber_advice(self, vm):
        cls = fresh_class()
        other = ProseVM(name="other")
        vm.load_class(cls)
        other.load_class(cls)
        mine = TraceAspect(type_pattern="Engine", method_pattern="start")
        my_writes = FieldTraceAspect(type_pattern="Engine", field_pattern="rpm")
        theirs = TraceAspect(type_pattern="Engine", method_pattern="start")
        their_writes = FieldTraceAspect(type_pattern="Engine", field_pattern="rpm")
        vm.insert(mine)
        vm.insert(my_writes)
        other.insert(theirs)
        other.insert(their_writes)
        other.withdraw(theirs)
        other.withdraw(their_writes)
        cls().start()
        assert mine.trace == [("start", ())]
        assert ("rpm", 0, 800) in my_writes.writes
        assert theirs.trace == [] and their_writes.writes == []

    def test_class_free_again_after_owner_unloads(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        vm.unload_class(cls)
        other = ProseVM(name="other")
        other.load_class(cls)
        assert other.stats.methods_stubbed > 0
