"""O3 — health-plane overhead on the telemetry hot path.

The health plane's contract extends the PR-1 no-op pattern one layer
up: the plane hangs off a :class:`MetricsRegistry` as a *sample-stream
subscriber*, so:

- **disabled** (no plane attached — the default): every counter
  increment pays exactly one ``self.health is not None`` check.
  Constructing a plane without attaching it must change nothing.
  Gate: ≤2% over a baseline on the same registry.
- **enabled** (plane attached to a real harness): judged end to end —
  a full 100-node storm run with the health plane on stays within 10%
  of the same run with it off, as the median of per-pair ratios over
  interleaved pairs.  Per-sample cost for a *matching* metric is
  several windows of accumulator work by design (reported, not gated);
  what the gate protects is the workload, where simulation machinery
  dominates and the plane's O(windows) updates amortize out.

Neither gate has an epsilon.  Each runs interleaved pairs (count blocks
for the disabled gate, whole storms for the enabled one), alternating
which side goes first, and gates the median per-pair ratio, so drift on
a loaded CI box cancels within a pair and outlier pairs do not move the
verdict.  Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_o3_health_overhead.py
"""

import gc
import time

import pytest

from conftest import interleaved_pairs
from repro.scenarios.harness import run_storm
from repro.scenarios.spec import roaming_storm
from repro.telemetry import MetricsRegistry
from repro.telemetry.health import (
    CounterRatioSLI,
    HealthPlane,
    RollupRule,
    SLO,
    scaled_pairs,
)

#: Relative budgets, gated on the median per-pair ratio.
DISABLED_BUDGET = 1.02
ENABLED_BUDGET = 1.10

TRIALS = 5
CALLS = 50_000
#: Interleaved (baseline, idle plane) pairs behind the disabled gate, and
#: calls per timed block.
PAIRS = 100
BLOCK_CALLS = 10_000
#: Interleaved (without, with) storm pairs behind the enabled gate.
STORM_PAIRS = 20
STORM_NODES = 100


def _per_call_seconds(fn, calls: int = CALLS) -> float:
    fn()  # warm
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _best_per_call(fn, trials: int = TRIALS) -> float:
    """Min over several trials — the least-noisy estimate of true cost."""
    return min(_per_call_seconds(fn) for _ in range(trials))


def _matching_plane() -> HealthPlane:
    """A plane whose SLO and rollup both route the benchmarked metric."""
    return HealthPlane(
        slos=[
            SLO(
                "renewal-availability",
                "midas",
                target=0.99,
                sli=CounterRatioSLI(
                    good=("midas.renewals",), bad=("midas.failures",)
                ),
                pairs=scaled_pairs(60.0, floor=1.0),
            )
        ],
        rules=[RollupRule("renew-rate", "midas.*", "rate", window=10.0)],
    )


@pytest.mark.benchmark(group="o3-health")
def test_o3_disabled_plane_is_free(benchmark):
    """A constructed-but-unattached plane must not tax the count path."""
    registry = MetricsRegistry()

    def count() -> None:
        registry.count("midas.renewals", node="n1")

    def with_idle_plane() -> float:
        # The plane exists, but registry.health stays None.  It lives
        # only for this block.
        plane = _matching_plane()
        assert registry.health is None and plane.engine.slos
        return _per_call_seconds(count, BLOCK_CALLS)

    baseline, with_plane, ratio = interleaved_pairs(
        lambda: _per_call_seconds(count, BLOCK_CALLS), with_idle_plane, PAIRS
    )

    benchmark.extra_info["baseline_per_call_us"] = round(baseline * 1e6, 4)
    benchmark.extra_info["with_idle_plane_per_call_us"] = round(
        with_plane * 1e6, 4
    )
    benchmark.extra_info["disabled_ratio"] = round(ratio, 3)
    assert ratio <= DISABLED_BUDGET, (
        f"disabled-path health overhead {ratio:.3f}x (median of {PAIRS} "
        f"pair ratios) exceeds {DISABLED_BUDGET}x budget"
    )
    benchmark(count)


@pytest.mark.benchmark(group="o3-health")
def test_o3_enabled_storm_within_budget(benchmark, bench_trajectory):
    """A full storm with the plane on stays within 10% of one with it off."""
    spec = roaming_storm(nodes=STORM_NODES, bases=2, seed=11).with_overrides(
        drop_roamed=0.0
    )

    def run(health: bool) -> float:
        gc.collect()
        start = time.perf_counter()
        report = run_storm(spec, health=health)
        elapsed = time.perf_counter() - start
        assert report.clean
        return elapsed

    run(False)  # warm: imports, caches, allocator
    run(True)
    without_plane_s, with_plane_s, ratio = interleaved_pairs(
        lambda: run(False), lambda: run(True), STORM_PAIRS
    )

    benchmark.extra_info["storm_without_plane_s"] = round(without_plane_s, 4)
    benchmark.extra_info["storm_with_plane_s"] = round(with_plane_s, 4)
    benchmark.extra_info["enabled_ratio"] = round(ratio, 3)
    assert ratio <= ENABLED_BUDGET, (
        f"enabled health-plane overhead {ratio:.3f}x (median of "
        f"{STORM_PAIRS} pair ratios) exceeds {ENABLED_BUDGET}x budget"
    )
    bench_trajectory(
        "health",
        {
            "benchmark": "o3",
            "spec": spec.name,
            "seed": spec.seed,
            "nodes": STORM_NODES,
            "pairs": STORM_PAIRS,
            "enabled_ratio": round(ratio, 3),
            "disabled_budget": DISABLED_BUDGET,
            "enabled_budget": ENABLED_BUDGET,
        },
    )
    benchmark(lambda: run_storm(spec, health=True))


@pytest.mark.benchmark(group="o3-health")
def test_o3_matching_sample_cost(benchmark):
    """The plane's true cost center: one count routed into windows.

    Reported (not gated): a matching counter pays the SLO's window
    accumulators plus one rollup — O(windows), independent of history.
    """
    plain = MetricsRegistry()
    cost_plain = _best_per_call(
        lambda: plain.count("midas.renewals", node="n1")
    )
    registry = MetricsRegistry()
    _matching_plane().attach(registry)
    cost_matching = _best_per_call(
        lambda: registry.count("midas.renewals", node="n1")
    )
    benchmark.extra_info["count_plain_per_call_us"] = round(cost_plain * 1e6, 4)
    benchmark.extra_info["count_matching_per_call_us"] = round(
        cost_matching * 1e6, 4
    )
    benchmark.extra_info["matching_ratio"] = round(cost_matching / cost_plain, 3)
    benchmark(lambda: registry.count("midas.renewals", node="n1"))


def test_o3_detached_plane_receives_nothing():
    """Behavioral half of the gate: with no attach, the stream never
    reaches the plane — its windows stay empty however much traffic the
    registry carries."""
    registry = MetricsRegistry()
    plane = _matching_plane()
    for _ in range(100):
        registry.count("midas.renewals", node="n1")
    slo = plane.engine.slos[0]
    assert slo.good_total == 0.0 and slo.bad_total == 0.0
    assert plane.book.series() == []

    plane.attach(registry)
    for _ in range(100):
        registry.count("midas.renewals", node="n1")
    assert slo.good_total == 100.0
    assert len(plane.book.series()) == 1
