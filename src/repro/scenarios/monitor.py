"""The continuously evaluated invariant monitor.

While a storm runs, an :class:`InvariantMonitor` re-checks the federated
world every ``interval`` virtual seconds against four invariants:

- **single-home** — after quiescence a node is tracked (and its leases
  renewed) by at most one base.  Transient dual-homes are the nature of
  roaming; one that outlives ``grace`` means a ROAMED announcement was
  lost *and* reconciliation failed to converge.
- **lease-soundness** — base-side records and node-side leases agree:
  no base renews a lease its node no longer holds past grace, and no
  node sits on an expired lease the sweeper should have withdrawn.
- **revocation-completeness** — after a mass revocation settles, no
  zombie copy of the revoked extension survives on any base's books or
  any node.
- **quarantine-convergence** — a reported quarantine sticks: the
  reporter's record is dropped and the catalog keeps suppressing the
  bad version for that device class until a version bump heals it.

A violation is reported once per ``(invariant, subject)``, carries a
causal trace cut from the flight-recorder timeline (every event that
names the subject), and lands on the flight recorder itself as an
``invariant.violation`` event — an auto-dump kind, so a hub wired to a
dump directory writes the black box the moment an invariant breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.midas.base import ExtensionBase
from repro.scenarios.nodes import StormNode
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.telemetry import MetricsRegistry
from repro.telemetry.timeline import Timeline
from repro.util.signal import Signal

#: Causal-trace length attached to each violation.
TRACE_LIMIT = 40


@dataclass
class Violation:
    """One invariant breach, with enough context to debug it."""

    invariant: str  # single-home | lease-soundness | revocation-completeness | quarantine-convergence
    subject: str  # the node / extension the invariant broke for
    time: float
    detail: str
    trace: str = ""

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "time": self.time,
            "detail": self.detail,
            "trace": self.trace,
        }


@dataclass
class _QuarantineExpectation:
    base_id: str
    reporter: str
    extension: str
    node_class: str
    version: int | None
    reported_at: float


@dataclass
class _RevocationExpectation:
    extension: str
    deadline: float
    violated: bool = field(default=False)


class InvariantMonitor:
    """Continuously checks a storm world's federated invariants."""

    def __init__(
        self,
        simulator: Simulator,
        bases: dict[str, ExtensionBase],
        nodes: dict[str, StormNode],
        registry: MetricsRegistry,
        interval: float = 1.0,
        grace: float = 15.0,
    ):
        self.simulator = simulator
        self.bases = bases
        self.nodes = nodes
        self.registry = registry
        self.interval = interval
        self.grace = grace
        self.violations: list[Violation] = []
        #: Fires with (violation,) the moment one is reported.
        self.on_violation = Signal("invariants.on_violation")
        self.ticks = 0
        #: Virtual time dual-homing was last observed anywhere (None =
        #: never) — the roam-storm convergence measurement.
        self.last_dual_at: float | None = None
        self._dual_since: dict[str, float] = {}
        self._phantom_since: dict[tuple[str, str, str], float] = {}
        self._reported: set[tuple[str, str]] = set()
        self._revocations: list[_RevocationExpectation] = []
        self._quarantines: list[_QuarantineExpectation] = []
        self._timer: PeriodicTimer | None = None
        for base in bases.values():
            base.on_quarantined.connect(
                lambda reporter, name, body, base=base: self._quarantine_reported(
                    base, reporter, name, body
                )
            )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "InvariantMonitor":
        if self._timer is None:
            self._timer = PeriodicTimer(
                self.simulator, self.interval, self.tick, name="invariants.monitor"
            ).start()
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # -- expectations ------------------------------------------------------------

    def expect_revocation(self, extension: str, deadline: float) -> None:
        """Promise: by ``deadline``, no copy of ``extension`` survives."""
        self._revocations.append(_RevocationExpectation(extension, deadline))

    def _quarantine_reported(
        self, base: ExtensionBase, reporter: str, name: str, body: dict
    ) -> None:
        version = body.get("version")
        self._quarantines.append(
            _QuarantineExpectation(
                base.node_id,
                reporter,
                name,
                str(body.get("node_class", reporter)),
                int(version) if version is not None else None,
                self.simulator.now,
            )
        )

    # -- the continuous check ------------------------------------------------------

    def tick(self) -> None:
        self.ticks += 1
        now = self.simulator.now
        homes = self._homes()
        self._check_single_home(now, homes)
        self._check_lease_soundness(now)
        self._check_revocations(now)
        self._check_quarantines(now)

    def _homes(self) -> dict[str, set[str]]:
        """node -> bases currently tracking (renewing) it."""
        homes: dict[str, set[str]] = {}
        for base_id, base in self.bases.items():
            for (node, _name) in base._adapted:
                homes.setdefault(node, set()).add(base_id)
        return homes

    def _check_single_home(self, now: float, homes: dict[str, set[str]]) -> None:
        dual = {node for node, tracked in homes.items() if len(tracked) > 1}
        if dual:
            self.last_dual_at = now
        for node in dual:
            since = self._dual_since.setdefault(node, now)
            if now - since >= self.grace:
                self._violate(
                    "single-home",
                    node,
                    f"tracked by {sorted(homes[node])} since t={since:.2f} "
                    f"({now - since:.1f}s > grace {self.grace:.1f}s)",
                )
        # Nodes that converged leave the watch list.
        self._dual_since = {
            node: since for node, since in self._dual_since.items() if node in dual
        }
        # Convergence gauges, sampled every tick: how many nodes are
        # dual-homed right now, and the worst observed lag.  These feed
        # the health plane's convergence-lag SLO (sampled gauges measure
        # *what fraction of time* the fleet was out of bounds).
        self.registry.gauge("scenarios.dual_homed", float(len(dual)))
        if self._dual_since:
            worst_node, since = max(
                self._dual_since.items(), key=lambda item: (now - item[1], item[0])
            )
            self.registry.gauge("scenarios.roam_lag", now - since, node=worst_node)
        else:
            self.registry.gauge("scenarios.roam_lag", 0.0)

    def _check_lease_soundness(self, now: float) -> None:
        # Base-side phantoms: a base renewing a lease its node dropped.
        # (Keepalives self-heal this — the node answers "unknown" and the
        # renewer abandons — so only persistence past grace is a bug.)
        live: set[tuple[str, str, str]] = set()
        for base_id, base in self.bases.items():
            for (node_id, name) in base._adapted:
                node = self.nodes.get(node_id)
                if node is None or not node.attached:
                    continue  # churned away: abandonment owns this case
                key = (base_id, node_id, name)
                live.add(key)
                if (base_id, name) in node.held:
                    continue
                since = self._phantom_since.setdefault(key, now)
                if now - since >= self.grace:
                    self._violate(
                        "lease-soundness",
                        node_id,
                        f"{base_id} still renews {name!r} the node dropped "
                        f"{now - since:.1f}s ago",
                    )
        self._phantom_since = {
            key: since for key, since in self._phantom_since.items() if key in live
        }
        # Node-side: the sweeper must withdraw expired leases promptly.
        slack = 2 * self.interval + 1.0
        for node_id, node in self.nodes.items():
            for (granter, name), lease in node.held.items():
                if lease.expires_at + slack < now:
                    self._violate(
                        "lease-soundness",
                        node_id,
                        f"holds expired lease on {name!r} from {granter} "
                        f"({now - lease.expires_at:.1f}s past expiry)",
                    )

    def _check_revocations(self, now: float) -> None:
        for expectation in list(self._revocations):
            if now < expectation.deadline:
                continue
            name = expectation.extension
            zombies: list[str] = []
            for base_id, base in self.bases.items():
                for (node, ext) in base._adapted:
                    if ext == name:
                        zombies.append(f"{base_id} tracks {node}")
            for node_id, node in self.nodes.items():
                if node.attached and node.holds(name):
                    zombies.append(f"{node_id} holds it")
            if zombies:
                self._violate(
                    "revocation-completeness",
                    name,
                    f"zombies after deadline t={expectation.deadline:.1f}: "
                    + "; ".join(sorted(zombies)[:8]),
                )
            self._revocations.remove(expectation)

    def _check_quarantines(self, now: float) -> None:
        for expectation in list(self._quarantines):
            if now - expectation.reported_at < self.grace:
                continue
            base = self.bases.get(expectation.base_id)
            self._quarantines.remove(expectation)
            if base is None:
                continue
            name = expectation.extension
            if name not in base.catalog:
                continue  # revoked / removed since: nothing left to converge
            if (
                expectation.version is not None
                and base.catalog.version_of(name) > expectation.version
            ):
                continue  # a newer version healed the mark legitimately
            if base.catalog.is_healthy(name, expectation.node_class):
                self._violate(
                    "quarantine-convergence",
                    name,
                    f"{expectation.base_id} still offers {name!r} to class "
                    f"{expectation.node_class} after {expectation.reporter}'s report",
                )
            if (expectation.reporter, name) in base._adapted:
                self._violate(
                    "quarantine-convergence",
                    name,
                    f"{expectation.base_id} re-adapted reporter "
                    f"{expectation.reporter} with {name!r}",
                )

    # -- reporting ------------------------------------------------------------------

    def _violate(self, invariant: str, subject: str, detail: str) -> None:
        key = (invariant, subject)
        if key in self._reported:
            return
        self._reported.add(key)
        violation = Violation(
            invariant, subject, self.simulator.now, detail, self._causal_trace(subject)
        )
        self.violations.append(violation)
        # Lands on the subject's flight ring; "invariant.violation" is an
        # auto-dump kind, so a dump-wired hub writes the black box now.
        self.registry.event(
            "invariant.violation",
            node=subject,
            invariant=invariant,
            detail=detail,
        )
        self.registry.count("invariants.violations", invariant=invariant)
        self.on_violation.fire(violation)

    def _causal_trace(self, subject: str) -> str:
        """The merged timeline, cut down to events naming the subject."""
        events = [
            event
            for event in self.registry.flight.events()
            if event.node == subject
            or any(value == subject for value in event.fields.values())
        ]
        if not events:
            return ""
        return Timeline(events[-TRACE_LIMIT:]).render()

    def summary(self) -> dict:
        """Counts for reports and fingerprints."""
        return {
            "ticks": self.ticks,
            "violations": [v.to_dict() for v in self.violations],
            "last_dual_at": self.last_dual_at,
        }
