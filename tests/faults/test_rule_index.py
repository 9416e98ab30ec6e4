"""The injector's per-operation rule index against a plain linear scan.

``FaultInjector`` looks message rules up by payload operation instead of
scanning the whole plan.  The index must be invisible: the same verdict
for every message, the same rule budgets, and the same RNG draws in the
same order as testing every rule in plan order.
"""

import copy
import random
from types import SimpleNamespace

from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import DELAY, DROP, DUPLICATE, REORDER
from repro.net.geometry import Position
from repro.net.message import Message
from repro.net.network import FaultVerdict, Network
from repro.net.node import NetworkNode
from repro.sim.kernel import Simulator
from repro.util.patterns import wildcard_match

OPERATIONS = ("midas.offer", "midas.keepalive", "lookup.renew", "lookup.register", "")
KINDS = ("transport.request", "transport.reply", "transport.notify")
NODES = ("base-0", "base-1", "node-1", "node-2", "robot-1")


def linear_applies(rule, now, kind, operation, source, destination, rng):
    """Whether one rule strikes, every pattern tested in full."""
    if rule.max_count is not None and rule.injected >= rule.max_count:
        return False
    match = rule.match
    if not (match.after <= now < match.before):
        return False
    patterns = (
        (match.kind, kind),
        (match.operation, operation),
        (match.source, source),
        (match.destination, destination),
    )
    if not all(wildcard_match(pattern, text) for pattern, text in patterns):
        return False
    return rule.probability >= 1.0 or rng.random() < rule.probability


def linear_judge(rules, now, message, source, destination, rng):
    """The reference: every rule, in plan order, matched from scratch."""
    operation = getattr(message.payload, "operation", "") or ""
    for rule in rules:
        if not linear_applies(
            rule, now, message.kind, operation, source, destination, rng
        ):
            continue
        rule.injected += 1
        if rule.action == DROP:
            return FaultVerdict(drop_reason="fault: injected drop")
        if rule.action == DELAY:
            extra = rule.extra_delay
            if rule.delay_jitter:
                extra += rng.uniform(0, rule.delay_jitter)
            return FaultVerdict(extra_delay=extra)
        if rule.action == DUPLICATE:
            return FaultVerdict(copies=rule.copies)
        if rule.action == REORDER:
            return FaultVerdict(bypass_fifo=True)
    return None


def busy_plan():
    return (
        FaultPlan()
        .drop(operation="midas.offer", probability=0.3, max_count=5)
        .delay(operation="lookup.*", extra=0.1, jitter=0.2, probability=0.5)
        .duplicate(kind="transport.reply", probability=0.25)
        .drop(source="node-*", destination="base-*", probability=0.4)
        .reorder(operation="*", destination="robot-*", probability=0.6)
        .drop(operation="midas.*", source="base-1", between=(3.0, 8.0))
        .delay(kind="transport.notify", extra=0.05, max_count=3)
    )


class Harness:
    """One indexed injector and one linear reference on twin RNGs."""

    def __init__(self, plan, seed):
        self.sim = Simulator()
        network = Network(self.sim, seed=0)
        self.nodes = {
            name: NetworkNode(name, Position(index, 0))
            for index, name in enumerate(NODES)
        }
        self.reference_rules = copy.deepcopy(plan.message_rules)
        self.reference_rng = random.Random(seed)
        self.injector = FaultInjector(
            network, self.sim, plan, rng=random.Random(seed)
        ).install()

    def step(self, draw, now):
        source, destination = draw.sample(NODES, 2)
        message = Message(
            source,
            destination,
            draw.choice(KINDS),
            SimpleNamespace(operation=draw.choice(OPERATIONS)),
        )
        self.sim.run(until=now)
        got = self.injector._judge(
            message, self.nodes[source], self.nodes[destination]
        )
        want = linear_judge(
            self.reference_rules, self.sim.now, message,
            source, destination, self.reference_rng,
        )
        assert got == want
        assert self.injector.rng.getstate() == self.reference_rng.getstate()
        return got


def drive(harness, seed, messages):
    draw = random.Random(seed * 7919)
    verdicts = []
    for index in range(messages):
        verdicts.append(harness.step(draw, index * 0.01))
    return verdicts


class TestRuleIndex:
    def test_verdicts_and_rng_match_linear_scan(self):
        for seed in (3, 7, 11):
            harness = Harness(busy_plan(), seed)
            verdicts = drive(harness, seed, 2000)
            assert any(verdict is not None for verdict in verdicts)
            assert any(verdict is None for verdict in verdicts)
            indexed = harness.injector.plan.message_rules
            assert [rule.injected for rule in indexed] == [
                rule.injected for rule in harness.reference_rules
            ]

    def test_max_count_budgets_hold(self):
        harness = Harness(busy_plan(), 5)
        drive(harness, 5, 3000)
        rules = harness.injector.plan.message_rules
        assert rules[0].injected == 5
        assert rules[6].injected == 3

    def test_rule_appended_after_install_is_seen(self):
        plan = FaultPlan().drop(operation="lookup.renew", probability=0.5)
        harness = Harness(plan, 9)
        drive(harness, 9, 200)
        late = FaultPlan().duplicate(operation="lookup.*", probability=0.5)
        plan.rule(late.message_rules[0])
        harness.reference_rules.append(copy.deepcopy(late.message_rules[0]))
        drive(harness, 10, 500)
        assert plan.message_rules[1].injected > 0
        assert plan.message_rules[1].injected == harness.reference_rules[1].injected
