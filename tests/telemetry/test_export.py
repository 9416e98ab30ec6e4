"""JSONL round-trip, the shared text summary, and the JSON summary."""

import io
import json

from repro.telemetry import MetricsRegistry, runtime
from repro.telemetry.export import (
    _label_suffix,
    json_summary,
    read_jsonl,
    text_summary,
    write_jsonl,
)
from repro.util.clock import Clock


class FrozenClock(Clock):
    """Repeated ``to_records()`` calls must stamp identical metadata."""

    def now(self) -> float:
        return 42.0


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry(name="unit", clock=FrozenClock())
    runtime.install(registry)
    registry.count("hits", 3, node="a")
    registry.gauge("depth", 2, queue="q")
    registry.observe("latency", 0.002, op="x")
    registry.event("thing.happened", node="a")
    with registry.span("outer", node="a"):
        with registry.span("inner", node="b"):
            pass
    runtime.reset()
    return registry


class TestJsonlRoundTrip:
    def test_write_read_identity(self, tmp_path):
        registry = populated_registry()
        path = tmp_path / "dump.jsonl"
        count = write_jsonl(registry, path)
        records = read_jsonl(path)
        assert len(records) == count
        assert records == registry.to_records()

    def test_file_object_round_trip(self):
        registry = populated_registry()
        buffer = io.StringIO()
        write_jsonl(registry, buffer)
        buffer.seek(0)
        assert read_jsonl(buffer) == registry.to_records()

    def test_meta_record_first(self):
        records = populated_registry().to_records()
        assert records[0]["type"] == "meta"
        assert records[0]["name"] == "unit"


class TestTextSummary:
    def test_live_and_loaded_render_identically(self, tmp_path):
        registry = populated_registry()
        path = tmp_path / "dump.jsonl"
        write_jsonl(registry, path)
        live = text_summary(registry, title="t")
        loaded = text_summary(read_jsonl(path), title="t")
        assert live == loaded

    def test_sections_present(self):
        summary = text_summary(populated_registry())
        assert "counters:" in summary
        assert "hits{node=a} = 3" in summary
        assert "gauges:" in summary
        assert "histograms:" in summary
        assert "latency{op=x}" in summary
        assert "thing.happened x1" in summary
        assert "traces: 1 (2 spans)" in summary

    def test_span_tree_indented_under_parent(self):
        summary = text_summary(populated_registry())
        lines = summary.splitlines()
        outer = next(line for line in lines if "outer" in line)
        inner = next(line for line in lines if "inner" in line)
        assert len(inner) - len(inner.lstrip()) > len(outer) - len(outer.lstrip())

    def test_empty_registry(self):
        assert "(empty)" in text_summary(MetricsRegistry())

    def test_many_traces_elided(self):
        registry = MetricsRegistry()
        for _ in range(8):
            with registry.span("op", parent=None):
                pass
        assert "more traces" in text_summary(registry)


class TestSummaryEdgeCases:
    def empty_histogram_record(self) -> dict:
        from repro.telemetry.metrics import DEFAULT_BUCKETS, Histogram, label_key

        return Histogram("empty", label_key({}), DEFAULT_BUCKETS).to_record()

    def test_empty_histogram_renders_n_zero(self):
        records = [{"type": "meta", "name": "u", "exported_at": 0.0}]
        records.append(self.empty_histogram_record())
        assert "empty  n=0" in text_summary(records, title="t")

    def test_empty_histogram_json_quantiles_are_null(self):
        records = [self.empty_histogram_record()]
        histogram = json_summary(records)["histograms"][0]
        assert histogram["count"] == 0
        assert histogram["mean"] is None
        assert histogram["p50"] is None
        assert histogram["p95"] is None

    def test_single_bucket_histogram_quantiles(self):
        from repro.telemetry.metrics import Histogram, label_key

        histogram = Histogram("one", label_key({}), buckets=(1.0,))
        for value in (0.2, 0.4, 0.6):
            histogram.observe(value)
        summary = json_summary([histogram.to_record()])["histograms"][0]
        # Every observation landed in the only bucket, so both quantiles
        # resolve to its upper bound.
        assert summary["p50"] == 1.0
        assert summary["p95"] == 1.0
        assert summary["mean"] == (0.2 + 0.4 + 0.6) / 3

    def test_label_suffix_sorts_unordered_labels(self):
        record = {"labels": {"zeta": "1", "alpha": "2"}}
        assert _label_suffix(record) == "{alpha=2, zeta=1}"

    def test_label_suffix_empty_labels(self):
        assert _label_suffix({"labels": {}}) == ""
        assert _label_suffix({}) == ""


class TestMalformedLines:
    def test_read_jsonl_skips_and_counts(self, tmp_path):
        registry = populated_registry()
        path = tmp_path / "dump.jsonl"
        write_jsonl(registry, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
            handle.write("\n")  # blank lines are not damage
            handle.write("[1, 2\n")
        records = read_jsonl(path)
        assert records[-1] == {"type": "read_errors", "malformed_lines": 2}
        # The intact records still loaded.
        assert records[:-1] == registry.to_records()

    def test_text_summary_warns_about_malformed(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        write_jsonl(populated_registry(), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("oops\n")
        assert "1 malformed line(s)" in text_summary(read_jsonl(path), title="t")


class TestJsonSummary:
    def test_live_and_loaded_summaries_equal(self, tmp_path):
        registry = populated_registry()
        path = tmp_path / "dump.jsonl"
        write_jsonl(registry, path)
        live = json_summary(registry)
        loaded = json_summary(read_jsonl(path))
        assert live == loaded
        # The structure is JSON-clean (no sets, no objects).
        assert json.loads(json.dumps(live)) == live

    def test_sections(self):
        summary = json_summary(populated_registry())
        assert summary["meta"]["name"] == "unit"
        assert summary["counters"][0] == {
            "name": "hits",
            "labels": {"node": "a"},
            "value": 3.0,
        }
        assert summary["events"] == {"total": 1, "by_name": {"thing.happened": 1}}
        assert summary["spans"] == {"total": 2, "traces": 1}
        assert summary["flight"] == {"total": 1, "by_node": {"a": 1}}
        assert summary["malformed_lines"] == 0


class TestQuantileOptions:
    def many_valued_histogram(self):
        from repro.telemetry.metrics import DEFAULT_BUCKETS, Histogram, label_key

        histogram = Histogram("lat", label_key({}), DEFAULT_BUCKETS)
        for i in range(1, 101):
            histogram.observe(i / 1000.0)  # 1ms .. 100ms
        return histogram

    def test_default_quantiles_include_p99(self):
        from repro.telemetry.export import DEFAULT_QUANTILES

        assert DEFAULT_QUANTILES == (0.5, 0.95, 0.99)
        summary = json_summary([self.many_valued_histogram().to_record()])
        histogram = summary["histograms"][0]
        assert set(histogram) >= {"p50", "p95", "p99"}
        assert histogram["p50"] <= histogram["p95"] <= histogram["p99"]

    def test_p99_appears_in_text_summary(self):
        records = [
            {"type": "meta", "name": "u", "exported_at": 0.0},
            self.many_valued_histogram().to_record(),
        ]
        assert "p99=" in text_summary(records, title="t")

    def test_custom_quantiles_change_the_keys(self):
        record = self.many_valued_histogram().to_record()
        summary = json_summary([record], quantiles=(0.25, 0.999))
        histogram = summary["histograms"][0]
        assert "p25" in histogram
        assert "p99.9" in histogram
        assert "p50" not in histogram
        text = text_summary(
            [{"type": "meta", "name": "u", "exported_at": 0.0}, record],
            title="t",
            quantiles=(0.25, 0.999),
        )
        assert "p25=" in text and "p99.9=" in text

    def test_quantile_label_formatting(self):
        from repro.telemetry.export import quantile_label

        assert quantile_label(0.5) == "p50"
        assert quantile_label(0.95) == "p95"
        assert quantile_label(0.999) == "p99.9"
        assert quantile_label(0.25) == "p25"

    def test_out_of_range_quantiles_rejected(self):
        import pytest

        record = self.many_valued_histogram().to_record()
        for bad in ((0.0,), (1.0,), (0.5, 1.5), (-0.1,), ()):
            with pytest.raises(ValueError):
                json_summary([record], quantiles=bad)
            with pytest.raises(ValueError):
                text_summary([record], title="t", quantiles=bad)
