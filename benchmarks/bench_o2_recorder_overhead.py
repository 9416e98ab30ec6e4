"""O2 — flight-recorder overhead on the interception hot path.

The flight recorder's contract (the PR-1 no-op pattern, extended): the
hub hangs off a :class:`MetricsRegistry` and only ever sees events that
already passed through an *installed* registry.  Therefore:

- **disabled** (no recorder installed — the default): constructing a
  hub must change nothing on the hot path; dispatch still pays only the
  closed-over-cell ``is None`` test.  Gate: ≤2% over the E2-style
  baseline measured in the same process.
- **enabled** (registry installed, hub attached): interception itself
  emits metrics, not lifecycle events, so attaching a hub may add at
  most the registry's own event-routing slack.  Gate: ≤10% over the
  same workload on a registry *without* a hub.

Both gates have no epsilon.  Each runs interleaved pairs of timed
blocks (alternating which side goes first) and gates the median of the
per-pair ratios, so drift on a loaded CI box cancels within a pair and
outlier pairs do not move the verdict.  Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_o2_recorder_overhead.py
"""

import time

import pytest

from conftest import interleaved_pairs
from repro.aop import Aspect, MethodCut, ProseVM, before
from repro.telemetry import FlightRecorderHub, MetricsRegistry, runtime

#: Relative budgets, gated on the median per-pair ratio.
DISABLED_BUDGET = 1.02
ENABLED_BUDGET = 1.10

TRIALS = 5
CALLS = 50_000
#: Interleaved (baseline, candidate) pairs behind each gate, and calls
#: per timed block: short blocks keep the two halves of a pair close in
#: time, many pairs steady the median.
PAIRS = 100
BLOCK_CALLS = 10_000


class Target:
    def noop(self) -> None:
        pass


class DoNothing(Aspect):
    @before(MethodCut(type="Target", method="noop"))
    def advice(self, ctx):
        pass


def _per_call_seconds(fn, calls: int = CALLS) -> float:
    fn()  # warm
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _best_per_call(fn, trials: int = TRIALS) -> float:
    """Min over several trials — the least-noisy estimate of true cost."""
    return min(_per_call_seconds(fn) for _ in range(trials))


@pytest.fixture
def woven_target(vm):
    vm.load_class(Target)
    vm.insert(DoNothing())
    return Target()


@pytest.fixture(autouse=True)
def no_leftover_recorder():
    runtime.reset()
    yield
    runtime.reset()


@pytest.mark.benchmark(group="o2-recorder")
def test_o2_disabled_hub_is_free(benchmark, woven_target):
    """A constructed-but-unreachable hub must not tax disabled dispatch."""

    def with_idle_hub() -> float:
        # The hub exists and is attached to a registry, but the registry
        # is not installed — the dispatch closure still takes the no-op
        # branch.  The hub lives only for this block.
        registry = MetricsRegistry(flight=FlightRecorderHub())
        assert registry.flight is not None
        return _per_call_seconds(woven_target.noop, BLOCK_CALLS)

    baseline, with_hub, ratio = interleaved_pairs(
        lambda: _per_call_seconds(woven_target.noop, BLOCK_CALLS),
        with_idle_hub,
        PAIRS,
    )

    benchmark.extra_info["baseline_per_call_us"] = round(baseline * 1e6, 4)
    benchmark.extra_info["with_idle_hub_per_call_us"] = round(with_hub * 1e6, 4)
    benchmark.extra_info["disabled_ratio"] = round(ratio, 3)
    assert ratio <= DISABLED_BUDGET, (
        f"disabled-path recorder overhead {ratio:.3f}x (median of {PAIRS} "
        f"pair ratios) exceeds {DISABLED_BUDGET}x budget"
    )
    benchmark(woven_target.noop)


@pytest.mark.benchmark(group="o2-recorder")
def test_o2_enabled_hub_within_budget(benchmark, woven_target):
    """Recording with a hub attached stays within 10% of recording without."""
    plain_registry = MetricsRegistry()
    hub_registry = MetricsRegistry(flight=FlightRecorderHub())

    def recording_into(registry: MetricsRegistry) -> float:
        with runtime.recording(registry):
            return _per_call_seconds(woven_target.noop, BLOCK_CALLS)

    without_hub, with_hub, ratio = interleaved_pairs(
        lambda: recording_into(plain_registry),
        lambda: recording_into(hub_registry),
        PAIRS,
    )
    with runtime.recording(hub_registry):
        benchmark(woven_target.noop)
    assert hub_registry.counter_total("prose.interceptions") > 0

    benchmark.extra_info["without_hub_per_call_us"] = round(without_hub * 1e6, 4)
    benchmark.extra_info["with_hub_per_call_us"] = round(with_hub * 1e6, 4)
    benchmark.extra_info["enabled_ratio"] = round(ratio, 3)
    assert ratio <= ENABLED_BUDGET, (
        f"enabled recorder overhead {ratio:.3f}x (median of {PAIRS} pair "
        f"ratios) exceeds {ENABLED_BUDGET}x budget"
    )


@pytest.mark.benchmark(group="o2-recorder")
def test_o2_event_routing_cost(benchmark):
    """The hub's true cost center: one ``registry.event()`` with routing.

    Reported (not gated): the per-event cost of the ring append on top of
    the registry's own event bookkeeping."""
    plain = MetricsRegistry()
    cost_plain = _best_per_call(lambda: plain.event("lease.renewed", node="n"))
    hub_registry = MetricsRegistry(flight=FlightRecorderHub())
    cost_hub = _best_per_call(lambda: hub_registry.event("lease.renewed", node="n"))
    benchmark.extra_info["event_plain_per_call_us"] = round(cost_plain * 1e6, 4)
    benchmark.extra_info["event_with_hub_per_call_us"] = round(cost_hub * 1e6, 4)
    benchmark.extra_info["event_routing_ratio"] = round(cost_hub / cost_plain, 3)
    benchmark(lambda: hub_registry.event("lease.renewed", node="n"))


def test_o2_disabled_hub_records_nothing(vm):
    """Behavioral half of the gate: with the registry uninstalled, no
    event reaches the hub — its rings stay empty no matter how much the
    instrumented application runs."""
    vm.load_class(Target)
    vm.insert(DoNothing())
    target = Target()
    hub = FlightRecorderHub()
    MetricsRegistry(flight=hub)  # attached, never installed
    for _ in range(100):
        target.noop()
    assert hub.nodes() == []

    # Installed, the same workload routes weave/lifecycle events only —
    # per-call interception still records nothing on the rings.
    registry = MetricsRegistry(flight=hub)
    with runtime.recording(registry):
        for _ in range(100):
            target.noop()
        registry.event("lease.granted", table="robot.extensions")
    assert hub.nodes() == ["robot"]
    assert hub.recorder("robot").recorded == 1
