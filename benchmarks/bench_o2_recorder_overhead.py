"""O2 — flight-recorder overhead on the interception hot path.

The flight rings are the registry's only event store: every
:class:`MetricsRegistry` owns a hub, and the hub only ever sees events
that passed through an *installed* registry.  Therefore:

- **disabled** (no recorder installed — the default): building a
  registry, rings and all, must change nothing on the hot path; dispatch
  still pays only the closed-over-cell ``is None`` test.  Gate: ≤2% over
  the E2-style baseline measured in the same process.
- **enabled** (registry installed): interception itself emits metrics,
  not lifecycle events, so how much the event store holds must not
  matter.  Gate: a registry whose rings are full — eviction active on
  every one of :data:`FULL_NODES` nodes — stays within 10% of a fresh
  registry on the same workload.

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
from repro.telemetry import MetricsRegistry, runtime
from repro.telemetry.recorder import DEFAULT_CAPACITY

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
#: Nodes whose rings the enabled gate's full registry keeps evicting.
FULL_NODES = 64


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


def _full_registry() -> MetricsRegistry:
    """A registry whose every ring is full and has evicted."""
    registry = MetricsRegistry()
    for node in range(FULL_NODES):
        for _ in range(DEFAULT_CAPACITY + 1):
            registry.event("lease.renewed", node=f"n{node}")
    assert all(
        registry.flight.recorder(f"n{node}").evicted for node in range(FULL_NODES)
    )
    return registry


@pytest.mark.benchmark(group="o2-recorder")
def test_o2_disabled_hub_is_free(benchmark, woven_target):
    """A built-but-uninstalled registry must not tax disabled dispatch."""

    def with_idle_registry() -> float:
        # The registry and its hub exist, but the registry is not
        # installed — the dispatch closure still takes the no-op branch.
        # They live only for this block.
        registry = MetricsRegistry()
        assert registry.flight.nodes() == []
        return _per_call_seconds(woven_target.noop, BLOCK_CALLS)

    baseline, with_hub, ratio = interleaved_pairs(
        lambda: _per_call_seconds(woven_target.noop, BLOCK_CALLS),
        with_idle_registry,
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
def test_o2_full_rings_within_budget(benchmark, woven_target):
    """Recording with full, evicting rings stays within 10% of a fresh registry."""
    fresh_registry = MetricsRegistry()
    full_registry = _full_registry()

    def recording_into(registry: MetricsRegistry) -> float:
        with runtime.recording(registry):
            return _per_call_seconds(woven_target.noop, BLOCK_CALLS)

    fresh, full, ratio = interleaved_pairs(
        lambda: recording_into(fresh_registry),
        lambda: recording_into(full_registry),
        PAIRS,
    )
    with runtime.recording(full_registry):
        benchmark(woven_target.noop)
    assert full_registry.counter_total("prose.interceptions") > 0

    benchmark.extra_info["fresh_per_call_us"] = round(fresh * 1e6, 4)
    benchmark.extra_info["full_rings_per_call_us"] = round(full * 1e6, 4)
    benchmark.extra_info["enabled_ratio"] = round(ratio, 3)
    assert ratio <= ENABLED_BUDGET, (
        f"full-ring recorder overhead {ratio:.3f}x (median of {PAIRS} pair "
        f"ratios) exceeds {ENABLED_BUDGET}x budget"
    )


@pytest.mark.benchmark(group="o2-recorder")
def test_o2_event_routing_cost(benchmark):
    """The store's true cost center: one ``registry.event()``.

    Reported (not gated): the per-event cost of stamping one
    :class:`FlightEvent` and appending it to its (full, evicting) ring."""
    registry = MetricsRegistry()
    cost = _best_per_call(lambda: registry.event("lease.renewed", node="n"))
    assert registry.flight.recorder("n").evicted
    benchmark.extra_info["event_per_call_us"] = round(cost * 1e6, 4)
    benchmark(lambda: registry.event("lease.renewed", node="n"))


def test_o2_disabled_hub_records_nothing(vm):
    """Behavioral half of the gate: with the registry uninstalled, no
    event reaches its rings — they stay empty no matter how much the
    instrumented application runs."""
    vm.load_class(Target)
    vm.insert(DoNothing())
    target = Target()
    registry = MetricsRegistry()  # built, never installed
    for _ in range(100):
        target.noop()
    assert registry.flight.nodes() == []

    # Installed, the same workload routes weave/lifecycle events only —
    # per-call interception still records nothing on the rings.
    with runtime.recording(registry):
        for _ in range(100):
            target.noop()
        registry.event("lease.granted", table="robot.extensions")
    assert registry.flight.nodes() == ["robot"]
    assert registry.flight.recorder("robot").recorded == 1
