"""Field-write join point tests."""

import pytest

from repro.aop import Aspect, FieldWriteCut, ProseVM
from repro.aop.advice import AdviceKind
from repro.errors import WeaveError

from tests.support import FieldTraceAspect, fresh_class


@pytest.fixture
def vm():
    return ProseVM()


@pytest.fixture
def cls(vm):
    klass = fresh_class()
    vm.load_class(klass)
    return klass


class TestFieldInterception:
    def test_write_intercepted_with_old_and_new(self, vm, cls):
        aspect = FieldTraceAspect(type_pattern="Engine", field_pattern="rpm")
        vm.insert(aspect)
        engine = cls()
        engine.rpm = 1000
        writes = [w for w in aspect.writes if w[0] == "rpm"]
        assert (("rpm", 0, 1000)) in writes

    def test_initialization_writes_seen(self, vm):
        aspect = FieldTraceAspect(field_pattern="rpm")
        vm.insert(aspect)
        cls = fresh_class()
        vm.load_class(cls)
        cls()
        assert ("rpm", None, 0) in aspect.writes

    def test_non_matching_fields_untouched(self, vm, cls):
        aspect = FieldTraceAspect(field_pattern="rpm")
        vm.insert(aspect)
        engine = cls()
        aspect.writes.clear()
        engine.log = ["x"]
        assert aspect.writes == []

    def test_withdraw_stops_interception(self, vm, cls):
        aspect = FieldTraceAspect(field_pattern="rpm")
        vm.insert(aspect)
        engine = cls()
        vm.withdraw(aspect)
        aspect.writes.clear()
        engine.rpm = 5
        assert aspect.writes == []

    def test_writes_still_take_effect(self, vm, cls):
        vm.insert(FieldTraceAspect())
        engine = cls()
        engine.rpm = 123
        assert engine.rpm == 123

    def test_before_advice_can_rewrite_value(self, vm, cls):
        class Clamp(Aspect):
            def __init__(self):
                super().__init__()
                self.add_advice(
                    AdviceKind.BEFORE,
                    FieldWriteCut(type="Engine", field="rpm"),
                    self.clamp,
                )

            def clamp(self, ctx):
                if isinstance(ctx.new_value, int) and ctx.new_value > 100:
                    ctx.new_value = 100

        vm.insert(Clamp())
        engine = cls()
        engine.rpm = 5000
        assert engine.rpm == 100

    def test_around_on_field_cut_rejected(self, vm):
        class Bad(Aspect):
            def __init__(self):
                super().__init__()
                self.add_advice(
                    AdviceKind.AROUND, FieldWriteCut(type="*", field="*"), self.advice
                )

            def advice(self, ctx):
                pass

        with pytest.raises(WeaveError):
            vm.insert(Bad())

    def test_subclass_instances_matched_dynamically(self, vm):
        from tests.support import Turbine

        base = fresh_class()  # Engine clone

        class Turbo(base):  # subclass defined after, not separately loaded
            pass

        vm.load_class(base)
        aspect = FieldTraceAspect(type_pattern="Turbo", field_pattern="rpm")
        vm.insert(aspect)
        base().rpm = 1  # an Engine, not a Turbo: no match
        count_after_base = len([w for w in aspect.writes if w[0] == "rpm" and w[2] == 1])
        Turbo().rpm = 2
        turbo_writes = [w for w in aspect.writes if w[0] == "rpm" and w[2] == 2]
        assert count_after_base == 0
        assert turbo_writes

    def test_slots_classes_supported(self, vm):
        class Slotted:
            __slots__ = ("value",)

            def __init__(self):
                self.value = 0

        vm.load_class(Slotted)
        aspect = FieldTraceAspect(type_pattern="Slotted")
        vm.insert(aspect)
        obj = Slotted()
        obj.value = 9
        assert ("value", None, 9) in aspect.writes
        assert obj.value == 9

    def test_unload_restores_setattr(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        vm.insert(FieldTraceAspect(type_pattern="Engine", field_pattern="rpm"))
        assert hasattr(cls.__setattr__, "__prose_field_table__")
        vm.unload_class(cls)
        assert "__setattr__" not in vars(cls)
        assert not hasattr(cls.__setattr__, "__prose_field_table__")
        engine = cls()
        engine.rpm = 7
        assert engine.rpm == 7

    def test_custom_setattr_preserved(self, vm):
        class Custom:
            def __init__(self):
                self.history = []

            def __setattr__(self, name, value):
                object.__setattr__(self, name, value)
                if name != "history":
                    self.history.append(name)

        vm.load_class(Custom)
        aspect = FieldTraceAspect(type_pattern="Custom", field_pattern="speed")
        vm.insert(aspect)
        obj = Custom()
        obj.speed = 3
        assert obj.speed == 3
        assert "speed" in obj.history  # original __setattr__ still runs
        assert ("speed", None, 3) in aspect.writes
