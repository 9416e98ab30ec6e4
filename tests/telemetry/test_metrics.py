"""Instrument containers and the registry's recorder surface."""

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    format_labels,
    label_key,
)


class TestLabelKey:
    def test_order_independent(self):
        assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})

    def test_values_stringified(self):
        assert label_key({"n": 3}) == (("n", "3"),)

    def test_empty(self):
        assert label_key({}) == ()
        assert format_labels(()) == ""

    def test_format(self):
        assert format_labels((("a", "1"), ("b", "x"))) == "{a=1, b=x}"


class TestCounter:
    def test_incr(self):
        counter = Counter("hits")
        counter.incr()
        counter.incr(2.5)
        assert counter.value == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("hits").incr(-1)

    def test_record(self):
        counter = Counter("hits", label_key({"node": "a"}))
        counter.incr()
        assert counter.to_record() == {
            "type": "counter",
            "name": "hits",
            "labels": {"node": "a"},
            "value": 1.0,
        }


class TestGauge:
    def test_set_goes_both_ways(self):
        gauge = Gauge("depth")
        gauge.set(5, now=1.0)
        gauge.set(2, now=2.0)
        assert gauge.value == 2.0
        assert gauge.updated_at == 2.0


class TestHistogram:
    def test_counts_land_in_buckets(self):
        histogram = Histogram("latency", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1, 1]  # last slot = overflow
        assert histogram.count == 5
        assert histogram.min == 0.0005
        assert histogram.max == 5.0

    def test_mean_is_exact(self):
        histogram = Histogram("latency", buckets=(1.0,))
        histogram.observe(0.25)
        histogram.observe(0.75)
        assert histogram.mean() == 0.5

    def test_quantile_bucket_resolution(self):
        histogram = Histogram("latency", buckets=(0.001, 0.01, 0.1))
        for _ in range(90):
            histogram.observe(0.005)
        for _ in range(10):
            histogram.observe(0.05)
        assert histogram.quantile(0.5) == 0.01
        assert histogram.quantile(0.95) == 0.1

    def test_quantile_overflow_uses_max(self):
        histogram = Histogram("latency", buckets=(0.001,))
        histogram.observe(7.0)
        assert histogram.quantile(0.99) == 7.0

    def test_empty(self):
        histogram = Histogram("latency")
        assert histogram.mean() == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())
        with pytest.raises(ValueError):
            Histogram("latency").quantile(1.5)


class TestRegistry:
    def test_count_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.count("hits", node="a")
        registry.count("hits", 2, node="a")
        registry.count("hits", node="b")
        assert registry.counter_value("hits", node="a") == 3
        assert registry.counter_value("hits", node="b") == 1
        assert registry.counter_total("hits") == 4
        assert registry.counter_value("hits", node="zz") == 0.0

    def test_gauge_value(self):
        registry = MetricsRegistry()
        registry.gauge("depth", 4, queue="q")
        assert registry.gauge_value("depth", queue="q") == 4
        assert registry.gauge_value("depth", queue="other") is None

    def test_observe_creates_histogram_with_default_buckets(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.5)
        histogram = registry.histogram("latency")
        assert histogram is not None
        assert histogram.buckets == DEFAULT_BUCKETS
        assert histogram.count == 1

    def test_declared_buckets_apply_to_new_histograms(self):
        registry = MetricsRegistry()
        registry.declare_buckets("latency", (1.0, 2.0))
        registry.observe("latency", 1.5, op="x")
        assert registry.histogram("latency", op="x").buckets == (1.0, 2.0)

    def test_sim_clock_timestamps(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=sim.clock)
        sim.schedule(5.0, lambda: registry.event("tick"))
        sim.run()
        assert registry.flight.events()[0].time == 5.0

    def test_event_is_stored_once(self):
        registry = MetricsRegistry()
        registry.event("lease.granted", node="n")
        records = registry.to_records()
        assert [record["type"] for record in records] == ["meta", "flight"]
        assert records[1]["kind"] == "lease.granted"
        assert len(registry.flight.events()) == 1
        assert registry.flight.recorder("n").recorded == 1

    def test_event_retention_bounded(self):
        registry = MetricsRegistry()
        registry.flight.capacity = 3
        for index in range(5):
            registry.event("e", n=index)
        assert len(registry.flight.events()) == 3
        assert registry.flight.events()[0].fields["n"] == 2
