"""Unit tests for the extension supervisor's containment barrier."""

from __future__ import annotations

import pytest

from repro.aop import (
    Aspect,
    AspectSandbox,
    Capability,
    MethodCut,
    ProseVM,
    SandboxPolicy,
    SystemGateway,
    around,
    before,
)
from repro.errors import AccessDeniedError, AdviceBudgetExceeded, FaultPlanError
from repro.supervision import (
    STRIKE_BUDGET,
    STRIKE_ERROR,
    STRIKE_VIOLATION,
    ExtensionSupervisor,
    SupervisionPolicy,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry import runtime as _telemetry

from tests.support import Engine, fresh_class


class CrashingBefore(Aspect):
    """Before-advice that always raises."""

    @before(MethodCut(type="*", method="throttle"))
    def explode(self, ctx):
        raise ValueError("advice bug")


class VetoingBefore(Aspect):
    """Before-advice that raises a platform exception (intentional veto)."""

    @before(MethodCut(type="*", method="throttle"))
    def veto(self, ctx):
        raise AccessDeniedError("no session")


class CrashingAroundPreProceed(Aspect):
    """Around-advice that dies before proceeding."""

    @around(MethodCut(type="*", method="throttle"))
    def explode(self, ctx):
        raise ValueError("pre-proceed bug")


class CrashingAroundPostProceed(Aspect):
    """Around-advice that proceeds, then dies."""

    @around(MethodCut(type="*", method="throttle"))
    def explode(self, ctx):
        ctx.proceed()
        raise ValueError("post-proceed bug")


class RelayingAround(Aspect):
    """Around-advice that just proceeds (relaying app exceptions)."""

    @around(MethodCut(type="*", method="fail"))
    def relay(self, ctx):
        return ctx.proceed()


class SpinningBefore(Aspect):
    """Before-advice burning unbounded interpreter steps."""

    @before(MethodCut(type="*", method="throttle"))
    def spin(self, ctx):
        total = 0
        for step in range(1_000_000):
            total += step


class ProceedingAround(Aspect):
    """Around-advice that is cheap itself but proceeds into app code."""

    def __init__(self):
        super().__init__()
        self.results: list[int] = []

    @around(MethodCut(type="*", method="throttle"))
    def pass_through(self, ctx):
        value = ctx.proceed()
        self.results.append(value)
        return value


class ViolatingBefore(Aspect):
    """Before-advice that acquires a capability it was never granted."""

    @before(MethodCut(type="*", method="throttle"))
    def grab(self, ctx):
        self.gateway.acquire(Capability.NETWORK)


def supervised_world(sim, policy=None, aspect=None, sandbox=None):
    """A VM with one instrumented Engine clone and one supervised aspect."""
    vm = ProseVM()
    supervisor = ExtensionSupervisor(sim, policy or SupervisionPolicy())
    cls = fresh_class(Engine)
    vm.load_class(cls)
    if aspect is not None:
        vm.insert(aspect, sandbox=sandbox, containment=supervisor.guard(aspect))
    return vm, supervisor, cls()


class TestErrorContainment:
    def test_before_advice_error_is_contained(self, sim):
        aspect = CrashingBefore()
        vm, supervisor, engine = supervised_world(sim, aspect=aspect)
        assert engine.throttle(5) == 5  # application unharmed
        health = supervisor.health_of(aspect)
        assert health.contained == 1
        assert health.strikes[0].kind == STRIKE_ERROR
        assert "ValueError" in health.strikes[0].detail

    def test_around_failing_before_proceed_keeps_app_alive(self, sim):
        aspect = CrashingAroundPreProceed()
        vm, supervisor, engine = supervised_world(sim, aspect=aspect)
        # The guard proceeds on the dead advice's behalf.
        assert engine.throttle(7) == 7
        assert supervisor.health_of(aspect).strikes[0].kind == STRIKE_ERROR

    def test_around_failing_after_proceed_returns_proceed_value(self, sim):
        aspect = CrashingAroundPostProceed()
        vm, supervisor, engine = supervised_world(sim, aspect=aspect)
        assert engine.throttle(3) == 3  # the already-computed result
        assert supervisor.health_of(aspect).contained == 1

    def test_application_exception_through_proceed_is_not_a_strike(self, sim):
        aspect = RelayingAround()
        vm, supervisor, engine = supervised_world(sim, aspect=aspect)
        with pytest.raises(RuntimeError, match="engine failure"):
            engine.fail()
        assert supervisor.health_of(aspect).contained == 0

    def test_passthrough_exception_propagates_without_strike(self, sim):
        aspect = VetoingBefore()
        vm, supervisor, engine = supervised_world(sim, aspect=aspect)
        with pytest.raises(AccessDeniedError):
            engine.throttle(1)
        assert supervisor.health_of(aspect).contained == 0

    def test_observing_policy_records_but_reraises(self, sim):
        aspect = CrashingBefore()
        vm, supervisor, engine = supervised_world(
            sim, policy=SupervisionPolicy.observing(), aspect=aspect
        )
        with pytest.raises(ValueError, match="advice bug"):
            engine.throttle(1)
        health = supervisor.health_of(aspect)
        assert health.contained == 1
        assert not health.quarantined


class TestBudgets:
    def test_step_budget_aborts_runaway_advice(self, sim):
        aspect = SpinningBefore()
        vm, supervisor, engine = supervised_world(
            sim, policy=SupervisionPolicy(step_budget=500), aspect=aspect
        )
        assert engine.throttle(2) == 2  # aborted advice, app unharmed
        health = supervisor.health_of(aspect)
        assert health.strikes[0].kind == STRIKE_BUDGET
        assert "step budget" in health.strikes[0].detail

    def test_step_budget_excludes_proceeded_application_code(self, sim):
        aspect = ProceedingAround()
        vm, supervisor, engine = supervised_world(
            sim, policy=SupervisionPolicy(step_budget=200), aspect=aspect
        )
        # The application method can be arbitrarily busy without charging
        # the advice's budget.
        for _ in range(5):
            engine.throttle(1)
        assert supervisor.health_of(aspect).contained == 0
        assert len(aspect.results) == 5

    def test_budget_exceeded_error_carries_label_and_budget(self):
        exc = AdviceBudgetExceeded("ext.advice", 42)
        assert exc.advice_label == "ext.advice"
        assert exc.budget == 42
        assert "42" in str(exc)

    def test_time_budget_is_post_hoc(self, sim):
        aspect = ProceedingAround()
        vm, supervisor, engine = supervised_world(
            sim, policy=SupervisionPolicy(time_budget=1e-12), aspect=aspect
        )
        # Any real execution exceeds a 1ps budget: a strike is recorded
        # but the advice's result is kept (post-hoc semantics).
        assert engine.throttle(4) == 4
        assert aspect.results == [4]
        health = supervisor.health_of(aspect)
        assert health.contained == 1
        assert health.strikes[0].kind == STRIKE_BUDGET


class TestViolations:
    def test_sandbox_violation_is_contained_as_violation_strike(self, sim):
        aspect = ViolatingBefore()
        sandbox = AspectSandbox(SandboxPolicy.restrictive(), aspect.name)
        aspect.bind(SystemGateway({}, sandbox))
        vm, supervisor, engine = supervised_world(
            sim, aspect=aspect, sandbox=sandbox
        )
        assert engine.throttle(9) == 9
        assert supervisor.health_of(aspect).strikes[0].kind == STRIKE_VIOLATION


class TestQuarantine:
    def test_strikes_in_window_trigger_quarantine_once(self, sim):
        aspect = CrashingBefore()
        fired: list[tuple] = []
        vm, supervisor, engine = supervised_world(
            sim, policy=SupervisionPolicy(max_strikes=3), aspect=aspect
        )
        supervisor.on_quarantine.connect(lambda a, h: fired.append((a, h)))
        for _ in range(5):
            engine.throttle(1)
        health = supervisor.health_of(aspect)
        assert health.quarantined
        assert health.quarantined_at == sim.now
        assert len(fired) == 1  # fires exactly once
        assert fired[0][0] is aspect

    def test_quarantined_advice_is_skipped(self, sim):
        aspect = CrashingBefore()
        vm, supervisor, engine = supervised_world(
            sim, policy=SupervisionPolicy(max_strikes=2), aspect=aspect
        )
        engine.throttle(1)
        engine.throttle(1)
        assert supervisor.health_of(aspect).quarantined
        contained_before = supervisor.health_of(aspect).contained
        assert engine.throttle(1) == 3  # advice skipped, app still works
        assert supervisor.health_of(aspect).contained == contained_before

    def test_strikes_outside_window_do_not_escalate(self, sim):
        aspect = CrashingBefore()
        vm, supervisor, engine = supervised_world(
            sim,
            policy=SupervisionPolicy(max_strikes=2, strike_window=5.0),
            aspect=aspect,
        )
        engine.throttle(1)
        sim.run_for(10.0)  # first strike ages out of the window
        engine.throttle(1)
        health = supervisor.health_of(aspect)
        assert health.contained == 2
        assert not health.quarantined

    def test_lenient_policy_never_quarantines(self, sim):
        aspect = CrashingBefore()
        vm, supervisor, engine = supervised_world(
            sim, policy=SupervisionPolicy.lenient(), aspect=aspect
        )
        for _ in range(10):
            engine.throttle(1)
        health = supervisor.health_of(aspect)
        assert health.contained == 10
        assert not health.quarantined

    def test_release_forgets_health(self, sim):
        aspect = CrashingBefore()
        vm, supervisor, engine = supervised_world(sim, aspect=aspect)
        engine.throttle(1)
        supervisor.release(aspect)
        assert supervisor.health_of(aspect) is None
        assert supervisor.supervised() == []


class TestTelemetryAndPolicy:
    def test_containment_and_quarantine_are_counted(self, sim):
        registry = MetricsRegistry(clock=sim.clock)
        aspect = CrashingBefore()
        with _telemetry.recording(registry):
            vm, supervisor, engine = supervised_world(
                sim, policy=SupervisionPolicy(max_strikes=2), aspect=aspect
            )
            engine.throttle(1)
            engine.throttle(1)
        assert registry.counter_total("supervision.contained") == 2
        assert registry.counter_total("supervision.quarantined") == 1
        kinds = {
            event.fields["kind"]
            for event in registry.flight.events()
            if event.kind == "supervision.contained"
        }
        assert kinds == {STRIKE_ERROR}

    def test_snapshot_is_serializable_summary(self, sim):
        aspect = CrashingBefore()
        vm, supervisor, engine = supervised_world(sim, aspect=aspect)
        engine.throttle(1)
        snap = supervisor.snapshot()
        assert snap["policy"]["max_strikes"] == 3
        assert snap["extensions"][0]["contained"] == 1
        assert snap["extensions"][0]["recent_strikes"][0]["kind"] == STRIKE_ERROR

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_strikes": 0},
            {"strike_window": 0.0},
            {"step_budget": 0},
            {"time_budget": 0.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(FaultPlanError):
            SupervisionPolicy(**kwargs)
