"""End-to-end closed-loop runs on the smoke preset (fast, deterministic)."""

import hashlib
import json

import pytest

from repro.loadgen.harness import LoadReport, run_scenario
from repro.loadgen.scenario import PRESETS
from repro.telemetry import MetricsRegistry


#: SHA-256 of each preset's canonical report JSON.  Same-seed replay
#: alone would let a refactor change load behaviour deterministically;
#: these pin the behaviour itself.
PINNED_DIGESTS = {
    "smoke": "7e477fdafe14176671d70c376eb24589d8bc7e6e29c6eff0775ebe8c2bb02e19",
    "mmn": "e30f88e9d092d9484553844c28923ab19b9b0c0d438ec7d46c86f1918e619226",
}


def report_digest(report: LoadReport) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def report() -> LoadReport:
    return run_scenario(PRESETS["smoke"])


class TestSmokeRun:
    def test_loop_completes_operations_without_errors(self, report):
        assert report.overall["completions"] > 0
        assert report.overall["errors"] == 0
        assert report.clients["errors"] == 0
        assert report.clients["completed"] > 0

    def test_all_mix_operations_exercised(self, report):
        # The smoke mix names all four ops; every one must complete at
        # least once during the measured phase.
        assert set(report.overall["per_op"]) == {
            "install",
            "renew",
            "revoke",
            "discovery",
        }

    def test_run_finds_a_stable_span(self, report):
        first, last = report.span
        assert last - first >= 4
        assert report.stable["windows"] == last - first

    def test_station_accounting_is_consistent(self, report):
        station = report.station
        assert station["shed"] == 0
        assert station["failed"] == 0
        assert 0.0 < station["utilization"] <= 1.0
        # Sojourn decomposes into wait + service.
        assert station["mean_sojourn"] == pytest.approx(
            station["mean_wait"] + station["mean_service"]
        )

    def test_windows_cover_the_measured_duration(self, report):
        spec = report.scenario
        assert len(report.windows) == int(spec.duration / spec.window)

    def test_operational_laws_hold(self, report):
        # Check the interactive response-time law in its cycle-time form
        # N/X = R + Z: distribution-free, and well-conditioned even when
        # R << Z (the direct R-form divides by a near-zero quantity).  A
        # big gap means the harness mismeasured, not that a model is off.
        spec = report.scenario
        cycle_measured = spec.clients / report.stable["throughput"]
        cycle_law = report.stable["latency"]["mean"] + spec.think_time
        assert cycle_measured == pytest.approx(cycle_law, rel=0.10)

    def test_report_serializes_to_plain_json(self, report):
        payload = json.dumps(report.to_dict())
        assert PRESETS["smoke"].name in payload

    def test_summary_lines_mention_the_key_numbers(self, report):
        text = "\n".join(report.summary_lines())
        assert "closed mmn" in text
        assert "stable windows" in text


class TestDeterminism:
    def test_same_seed_reproduces_the_report(self, report):
        again = run_scenario(PRESETS["smoke"])
        assert again.to_dict() == report.to_dict()

    def test_different_seed_changes_the_trace(self, report):
        other = run_scenario(PRESETS["smoke"].replace(seed=43))
        assert other.to_dict() != report.to_dict()


    def test_smoke_report_matches_its_pinned_digest(self, report):
        assert report_digest(report) == PINNED_DIGESTS["smoke"]

    def test_mmn_report_matches_its_pinned_digest(self):
        assert report_digest(run_scenario(PRESETS["mmn"])) == PINNED_DIGESTS["mmn"]


class TestTelemetryFeed:
    def test_registry_receives_load_metrics(self):
        registry = MetricsRegistry()
        run_scenario(PRESETS["smoke"], registry=registry)
        assert registry.histograms_named("loadgen.window.throughput")
        assert registry.histograms_named("loadgen.window.latency")
        assert registry.histograms_named("midas.pipeline.sojourn")
        assert registry.counter_total("midas.pipeline.completed") > 0
