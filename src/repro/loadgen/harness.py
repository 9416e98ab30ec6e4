"""Scenario runner: build a world, drive it, measure it, model it.

:func:`run_scenario` stands up one base station with a pipelined
:class:`~repro.midas.base.ExtensionBase`, attaches N protocol-stub
clients (:mod:`repro.loadgen.client`), runs the closed loop for warmup
plus the measured duration, and returns a :class:`LoadReport` holding
the windowed measurements, the station's exact cumulative accounting,
and the closed-M/M/n prediction for the same parameters.

Measurement discipline:

- warmup is structural — the collector is armed only after it;
- per-window throughput feeds :func:`~repro.loadgen.windows.stable_span`,
  and only the stable span's numbers are compared against the models;
- station wait/service come from the pipeline's exact cumulative sums
  (differences of boundary snapshots), not from sampled histograms.

Caveat on completion matching: ``install``/``revoke`` completions are
routed by the base's ``on_adapted``/``on_rejected``/``on_revoked``
signals, keyed ``(node, extension)``.  A background offer for the same
pair (the initial adaptation wave, or a re-adaptation triggered by a
``discovery`` op) can therefore resolve a client's op a little early.
Background offers are dormant during measurement (long leases park the
reconciler and renewer), so this only matters in mixes that include
``discovery`` — and shows up as slightly optimistic install latency,
never as a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.platform import ProactivePlatform
from repro.extensions.call_logging import CallLogging
from repro.loadgen.analysis import closed_mmn, operational_checks, saturation_point
from repro.loadgen.client import DRIVE, LoadClient, ext_name
from repro.loadgen.scenario import Scenario
from repro.loadgen.windows import Window, WindowedCollector, aggregate, stable_span
from repro.net.network import NetworkConfig
from repro.net.node import NetworkNode
from repro.net.transport import Transport
from repro.sim.timers import PeriodicTimer
from repro.telemetry import MetricsRegistry
from repro.telemetry.health import (
    CounterRatioSLI,
    HealthPlane,
    LatencySLI,
    RollupRule,
    SLO,
    scaled_pairs,
)

#: Station counters differenced across the measured phase.
_CUMULATIVE = ("submitted", "completed", "shed", "failed", "wait_seconds", "service_seconds")

#: Sojourn times past this multiple of the nominal service time count
#: against the latency SLO (queueing is expected; a 10x sojourn means
#: the station is drowning, not serving).
SLOW_SOJOURN_MULTIPLE = 10.0


def load_health_plane(scenario: Scenario) -> HealthPlane:
    """The load harness's health plane: pipeline availability + latency.

    Windows are the SRE pairs compressed to the scenario's measured
    duration, floored at two collection windows so burn math never runs
    on sub-sample noise.
    """
    pairs = scaled_pairs(
        max(scenario.duration, 4 * scenario.window), floor=2 * scenario.window
    )
    slow = SLOW_SOJOURN_MULTIPLE * scenario.service_time
    return HealthPlane(
        slos=[
            SLO(
                "pipeline-availability",
                "pipeline",
                target=0.99,
                sli=CounterRatioSLI(
                    good=("midas.pipeline.completed",),
                    bad=("midas.pipeline.shed", "midas.pipeline.failed"),
                ),
                pairs=pairs,
            ),
            SLO(
                "pipeline-latency",
                "pipeline",
                target=0.95,
                sli=LatencySLI("midas.pipeline.sojourn", slow),
                pairs=pairs,
            ),
        ],
        rules=[
            RollupRule(
                "pipeline-errors",
                "midas.pipeline.*",
                "ratio",
                window=5 * scenario.window,
                bad_when=lambda metric, labels: metric.endswith(
                    (".shed", ".failed")
                ),
                group_by=("station",),
            ),
            RollupRule(
                "sojourn-p99",
                "midas.pipeline.sojourn",
                "quantile",
                window=5 * scenario.window,
                q=0.99,
            ),
        ],
        name=f"load:{scenario.name}",
    )


@dataclass
class LoadReport:
    """Everything one scenario run produced."""

    scenario: Scenario
    windows: list[Window]
    #: ``(first, last_exclusive)`` indices of the stable span.
    span: tuple[int, int]
    #: Aggregate over the stable span (what models are compared against).
    stable: dict[str, Any]
    #: Aggregate over the whole measured phase.
    overall: dict[str, Any]
    #: Station accounting over the measured phase (exact deltas).
    station: dict[str, Any]
    #: Closed-M/M/n prediction for the scenario's parameters.
    predicted: dict[str, float]
    #: Operational-law cross-checks of the stable-span measurements.
    checks: dict[str, Any]
    #: Per-client loop accounting (includes warmup).
    clients: dict[str, Any] = field(default_factory=dict)
    #: Health-plane verdict at the end of the measured phase.
    health: dict[str, Any] | None = None

    @property
    def model_gap(self) -> float | None:
        """Relative error of the closed-M/M/n response-time prediction."""
        measured = (self.stable.get("latency") or {}).get("mean")
        predicted = self.predicted.get("response_time")
        if not measured or not predicted:
            return None
        return abs(measured - predicted) / predicted

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "span": list(self.span),
            "stable": self.stable,
            "overall": self.overall,
            "station": self.station,
            "predicted": self.predicted,
            "checks": self.checks,
            "model_gap": self.model_gap,
            "clients": self.clients,
            "windows": [window.to_dict() for window in self.windows],
            "health": self.health,
        }

    def summary_lines(self) -> list[str]:
        """Human-readable digest (used by the CLI)."""
        spec = self.scenario
        lat = self.stable.get("latency") or {}
        fmt = lambda v: "-" if v is None else f"{v * 1000:.2f}ms"  # noqa: E731
        lines = [
            f"scenario {spec.name!r}: N={spec.clients} Z={spec.think_time}s "
            f"S={spec.service_time}s workers={spec.workers} ({spec.dispatch}) "
            f"seed={spec.seed}",
            f"measured  : X={self.stable.get('throughput', 0.0):.2f} op/s over "
            f"{self.stable.get('windows', 0)} stable windows "
            f"(of {len(self.windows)}), R mean={fmt(lat.get('mean'))} "
            f"p95={fmt(lat.get('p95'))} p99={fmt(lat.get('p99'))}",
            f"station   : util={self.station.get('utilization', 0.0):.2f} "
            f"wait={fmt(self.station.get('mean_wait'))} "
            f"service={fmt(self.station.get('mean_service'))} "
            f"shed={self.station.get('shed', 0)}",
            f"closed mmn: X={self.predicted.get('throughput', 0.0):.2f} op/s "
            f"R={fmt(self.predicted.get('response_time'))} "
            f"util={self.predicted.get('utilization', 0.0):.2f} "
            f"(knee at N*={self.checks.get('saturation_clients', 0.0):.1f})",
        ]
        gap = self.model_gap
        if gap is not None:
            lines.append(f"model gap : {gap * 100:.1f}% on mean response time")
        return lines


class _CompletionRouter:
    """Matches base-side completion signals back to waiting clients.

    One expectation per ``(node, extension)`` key; the drive handler
    registers it before invoking the base, the signal resolves it.
    """

    def __init__(self, clients: dict[str, LoadClient]):
        self.clients = clients
        self._expected: dict[tuple[str, str], int] = {}

    def expect(self, node_id: str, name: str, seq: int) -> None:
        self._expected[(node_id, name)] = seq

    def resolve(self, node_id: str, name: str, ok: bool) -> None:
        seq = self._expected.pop((node_id, name), None)
        client = self.clients.get(node_id)
        if seq is not None and client is not None:
            client.resolve(seq, ok)


def run_scenario(
    scenario: Scenario,
    registry: MetricsRegistry | None = None,
    health: "bool | HealthPlane" = True,
) -> LoadReport:
    """Run one closed-loop load scenario; deterministic given its seed.

    ``health`` may be a pre-built :class:`HealthPlane` (the control
    tower passes one so it can inspect rollups and the alert log after
    the run); ``True`` builds the standard plane, ``False`` disables it.
    """
    scenario.validate()
    platform = ProactivePlatform(
        seed=scenario.seed,
        network_config=NetworkConfig(
            base_latency=scenario.net_latency,
            latency_per_meter=0.0,
            jitter=scenario.net_jitter,
            loss_probability=scenario.loss_probability,
        ),
        lease_duration=scenario.lease_duration,
        pipeline=scenario.pipeline_config(),
    )
    registry = platform.enable_telemetry(registry, flight=False)
    simulator = platform.simulator
    station = platform.create_base_station("base")
    for index in range(scenario.catalog_size):
        station.add_extension(
            ext_name(index),
            lambda index=index: CallLogging(type_pattern=f"LoadTarget{index}"),
        )

    collector = WindowedCollector(simulator.clock, scenario.window)
    clients: dict[str, LoadClient] = {}
    for index in range(scenario.clients):
        node = platform.network.attach(NetworkNode(f"client-{index:03d}"))
        transport = Transport(node, simulator)
        client = LoadClient(
            index, transport, simulator, scenario, station.node_id, collector
        )
        clients[client.node_id] = client
    router = _CompletionRouter(clients)
    base = station.extension_base
    base.on_adapted.connect(lambda node, name: router.resolve(node, name, True))
    base.on_rejected.connect(lambda node, name, detail: router.resolve(node, name, False))
    base.on_revoked.connect(router.resolve)

    def drive(sender: str, body: dict) -> None:
        client = clients[body["client"]]
        seq, op, name = body["seq"], body["op"], body["name"]
        if op == "install":
            router.expect(client.node_id, name, seq)
            base.offer(client.node_id, name, force=True)
        elif op == "renew":
            base.renew_node(
                client.node_id,
                on_done=lambda count: client.resolve(seq, True),
                on_error=lambda error: client.resolve(seq, False),
            )
        elif op == "revoke":
            router.expect(client.node_id, name, seq)
            if not base.revoke(client.node_id, name):
                # Base and stub disagree (e.g. the base shed an earlier
                # revoke after dropping its record): fail fast.
                router.resolve(client.node_id, name, False)

    station.transport.register(DRIVE, drive)

    for client in clients.values():
        client.start(scenario.register_clients)

    pipeline = base.pipeline
    assert pipeline is not None  # scenarios always configure one

    # Warmup (initial adaptation wave + loop ramp-up), then arm.
    platform.run_for(scenario.warmup)
    collector.begin()
    begin_stats = pipeline.stats()
    # Health plane armed only for the measured phase, like the collector.
    plane: HealthPlane | None = None
    if health:
        plane = health if isinstance(health, HealthPlane) else load_health_plane(scenario)
        plane.attach(registry)
        plane.watch_platform(platform)
        plane.start(simulator, interval=scenario.window)

    def boundary() -> None:
        collector.snapshot(pipeline.stats())
        depth, busy = pipeline.depth(), pipeline.in_service()
        collector.sample({"queue_depth": depth, "in_service": busy})
        registry.observe("loadgen.queue_depth", depth, scenario=scenario.name)

    sampler = PeriodicTimer(
        simulator, scenario.window, boundary, name="loadgen.windows"
    ).start()
    platform.run_for(scenario.duration)
    sampler.stop()
    end_stats = pipeline.stats()
    health_dict: dict[str, Any] | None = None
    if plane is not None:
        plane.tick()  # final burn reading at the measurement boundary
        plane.stop()
        health_dict = plane.report().to_dict()
        if plane.peak is not None:
            health_dict["peak"] = plane.peak.to_dict()
        plane.detach()
    for client in clients.values():
        client.stop()

    # The boundary tick at exactly t = end opens an empty window past the
    # measured phase; keep only windows that start inside it.
    cutoff = (collector.started_at or 0.0) + scenario.duration - 1e-9
    windows = [window for window in collector.finalize() if window.start < cutoff]
    span = stable_span(
        [window.throughput for window in windows],
        min_windows=min(4, max(1, len(windows))),
    )
    stable = aggregate(windows, span)
    overall = aggregate(windows, (0, len(windows)))
    for window in windows:
        registry.observe(
            "loadgen.window.throughput", window.throughput, scenario=scenario.name
        )
        mean = window.mean_latency
        if mean is not None:
            registry.observe(
                "loadgen.window.latency", mean, scenario=scenario.name
            )
    platform.disable_telemetry()

    delta = {key: end_stats[key] - begin_stats[key] for key in _CUMULATIVE}
    completed = delta["completed"]
    station_stats: dict[str, Any] = {
        **delta,
        "workers": scenario.workers,
        "dispatch": scenario.dispatch,
        "throughput": completed / scenario.duration,
        "utilization": delta["service_seconds"]
        / (scenario.duration * scenario.workers),
        "mean_wait": delta["wait_seconds"] / completed if completed else None,
        "mean_service": delta["service_seconds"] / completed if completed else None,
        "mean_sojourn": (delta["wait_seconds"] + delta["service_seconds"]) / completed
        if completed
        else None,
        "final_depth": end_stats["depth"],
    }

    predicted = closed_mmn(
        scenario.clients, scenario.think_time, scenario.service_time, scenario.workers
    )
    latency = (stable.get("latency") or {}).get("mean") or 0.0
    checks = operational_checks(
        clients=scenario.clients,
        think_time=scenario.think_time,
        throughput=stable.get("throughput", 0.0),
        response_time=latency,
        service_time=station_stats["mean_service"] or scenario.service_time,
        servers=scenario.workers,
    )
    checks["saturation_clients"] = saturation_point(
        scenario.think_time, scenario.service_time, scenario.workers
    )

    return LoadReport(
        scenario=scenario,
        windows=windows,
        span=span,
        stable=stable,
        overall=overall,
        station=station_stats,
        predicted=predicted,
        checks=checks,
        clients={
            "issued": sum(client.issued for client in clients.values()),
            "completed": sum(client.completed for client in clients.values()),
            "errors": sum(client.errors for client in clients.values()),
        },
        health=health_dict,
    )
