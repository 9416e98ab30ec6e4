"""The deterministic chaos engine.

A :class:`FaultInjector` executes a :class:`~repro.faults.plan.FaultPlan`
against a live :class:`~repro.net.network.Network`:

- message rules run as the network's ``fault_hook`` — called once per
  transmission attempt, drawing randomness only from the network's
  seeded RNG, so one seed reproduces the whole run;
- crash schedules detach a node at its crash instant (radio dead,
  in-flight traffic to it drops) and reattach it at restart; the
  ``on_crash``/``on_restart`` signals let the owning platform wipe the
  node's *volatile* state while durable state survives;
- link flaps drive :meth:`Network.partition`/:meth:`Network.heal` on a
  schedule;
- clock skews hand out :class:`~repro.faults.clock.SkewedClock` views
  per node.

Every injected fault is recorded through the telemetry runtime (events
named ``fault.*`` plus the ``faults.injected`` counter), so a trace of a
chaos run shows *why* each request died, not just that it timed out.
"""

from __future__ import annotations

import logging
import random

from repro.faults.clock import SkewedClock
from repro.faults.plan import (
    DELAY,
    DROP,
    DUPLICATE,
    REORDER,
    FaultPlan,
    MessageRule,
)
from repro.net.message import Message
from repro.net.network import FaultVerdict, Network
from repro.net.node import NetworkNode
from repro.sim.kernel import Simulator
from repro.telemetry import runtime as _telemetry
from repro.util.clock import Clock
from repro.util.patterns import wildcard_match
from repro.util.signal import Signal

logger = logging.getLogger(__name__)


class FaultInjector:
    """Runs one fault plan against one network, deterministically."""

    def __init__(
        self,
        network: Network,
        simulator: Simulator,
        plan: FaultPlan | None = None,
        rng: random.Random | None = None,
    ):
        self.network = network
        self.simulator = simulator
        self.plan = plan or FaultPlan()
        #: Defaults to the network's own seeded RNG: one seed, one run.
        self.rng = rng or network.rng
        #: Fires with (node_id,) when a scheduled crash takes a node down.
        self.on_crash = Signal("faults.on_crash")
        #: Fires with (node_id,) when a crashed node comes back.
        self.on_restart = Signal("faults.on_restart")
        self.faults_injected = 0
        self.crashed: set[str] = set()
        self._skewed_clocks: dict[str, SkewedClock] = {}
        self._crashed_nodes: dict[str, NetworkNode] = {}
        self._installed = False
        #: operation -> the rules whose operation pattern matches it, in
        #: plan order; dropped whenever the plan's rule count changes.
        self._rules_by_operation: dict[str, tuple[MessageRule, ...]] = {}
        self._indexed_rules = 0
        for skew in self.plan.clock_skews:
            self._skewed_clocks[skew.node_id] = SkewedClock(
                simulator.clock, skew.offset, skew.drift
            )

    # -- lifecycle -----------------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Hook the network and schedule every planned crash and flap."""
        if self._installed:
            return self
        self._installed = True
        if self.plan.message_rules:
            self.network.fault_hook = self._judge
        for crash in self.plan.crashes:
            self.simulator.schedule_at(
                max(crash.at, self.simulator.now), self._crash, crash.node_id
            )
            if crash.down_for is not None:
                self.simulator.schedule_at(
                    max(crash.at, self.simulator.now) + crash.down_for,
                    self._restart,
                    crash.node_id,
                )
        for flap in self.plan.link_flaps:
            first = max(flap.after, self.simulator.now)
            self.simulator.schedule_at(first, self._flap_down, flap)
        return self

    def uninstall(self) -> None:
        """Stop judging messages (scheduled crashes/flaps already queued
        still fire; use a fresh simulator for a truly clean world)."""
        # ``==``, not ``is``: bound methods are recreated on each access.
        if self.network.fault_hook == self._judge:
            self.network.fault_hook = None
        self._installed = False

    # -- message faults -------------------------------------------------------------

    def _judge(
        self, message: Message, source: NetworkNode, destination: NetworkNode
    ) -> FaultVerdict | None:
        now = self.simulator.now
        operation = getattr(message.payload, "operation", "") or ""
        for rule in self._rules_for(operation):
            if not rule.fires(
                now, message.kind, source.node_id, destination.node_id, self.rng
            ):
                continue
            rule.injected += 1
            self.faults_injected += 1
            self._record(rule, message, operation)
            if rule.action == DROP:
                return FaultVerdict(drop_reason="fault: injected drop")
            if rule.action == DELAY:
                extra = rule.extra_delay
                if rule.delay_jitter:
                    extra += self.rng.uniform(0, rule.delay_jitter)
                return FaultVerdict(extra_delay=extra)
            if rule.action == DUPLICATE:
                return FaultVerdict(copies=rule.copies)
            if rule.action == REORDER:
                return FaultVerdict(bypass_fifo=True)
        return None

    def _rules_for(self, operation: str) -> tuple[MessageRule, ...]:
        """The candidate rules for ``operation``, each matched once."""
        rules = self.plan.message_rules
        if len(rules) != self._indexed_rules:
            self._rules_by_operation.clear()
            self._indexed_rules = len(rules)
        candidates = self._rules_by_operation.get(operation)
        if candidates is None:
            candidates = tuple(
                rule for rule in rules
                if wildcard_match(rule.match.operation, operation)
            )
            self._rules_by_operation[operation] = candidates
        return candidates

    def _record(self, rule: MessageRule, message: Message, operation: str) -> None:
        recorder = _telemetry.get_recorder()
        recorder.count("faults.injected", action=rule.action)
        fields = {
            "action": rule.action,
            "kind": message.kind,
            "operation": operation,
            "source": message.source,
            "destination": message.destination,
            "message_id": message.message_id,
        }
        # Faults strike in transit, where no span is ambient — the
        # faulted message's own wire context ties the event to the trace
        # whose request just died.
        trace = getattr(message, "trace", None)
        if trace:
            fields["trace_id"] = trace.get("trace_id")
            fields["span_id"] = trace.get("span_id")
        recorder.event("fault.injected", **fields)

    # -- crash / restart --------------------------------------------------------------

    def crash_now(self, node_id: str) -> None:
        """Crash ``node_id`` immediately (manual chaos)."""
        self._crash(node_id)

    def restart_now(self, node_id: str) -> None:
        """Restart a crashed node immediately (manual chaos)."""
        self._restart(node_id)

    def _crash(self, node_id: str) -> None:
        if node_id in self.crashed:
            return
        try:
            node = self.network.node(node_id)
        except Exception:
            logger.warning("cannot crash unknown node %s", node_id)
            return
        self.crashed.add(node_id)
        self._crashed_nodes[node_id] = node
        self.network.detach(node)
        self.faults_injected += 1
        recorder = _telemetry.get_recorder()
        recorder.count("faults.injected", action="crash")
        recorder.event("fault.crash", node=node_id, time=self.simulator.now)
        logger.debug("fault: crashed %s at t=%.3f", node_id, self.simulator.now)
        self.on_crash.fire(node_id)

    def _restart(self, node_id: str) -> None:
        node = self._crashed_nodes.pop(node_id, None)
        if node is None:
            return
        self.crashed.discard(node_id)
        self.network.attach(node)
        _telemetry.get_recorder().event(
            "fault.restart", node=node_id, time=self.simulator.now
        )
        logger.debug("fault: restarted %s at t=%.3f", node_id, self.simulator.now)
        self.on_restart.fire(node_id)

    # -- link flaps --------------------------------------------------------------------

    def _flap_down(self, flap) -> None:
        if self.simulator.now >= flap.before:
            return
        self.network.partition(flap.node_a, flap.node_b)
        self.faults_injected += 1
        recorder = _telemetry.get_recorder()
        recorder.count("faults.injected", action="link-flap")
        recorder.event(
            "fault.link_down", a=flap.node_a, b=flap.node_b, time=self.simulator.now
        )
        self.simulator.schedule(flap.down_for, self._flap_up, flap)

    def _flap_up(self, flap) -> None:
        self.network.heal(flap.node_a, flap.node_b)
        _telemetry.get_recorder().event(
            "fault.link_up", a=flap.node_a, b=flap.node_b, time=self.simulator.now
        )
        next_down = self.simulator.now + (flap.period - flap.down_for)
        if next_down < flap.before:
            self.simulator.schedule_at(next_down, self._flap_down, flap)

    # -- clock skew ---------------------------------------------------------------------

    def clock_for(self, node_id: str) -> Clock:
        """``node_id``'s view of time (skewed if the plan says so)."""
        return self._skewed_clocks.get(node_id, self.simulator.clock)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector rules={len(self.plan.message_rules)} "
            f"injected={self.faults_injected} crashed={sorted(self.crashed)}>"
        )
