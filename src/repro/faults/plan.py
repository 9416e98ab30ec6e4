"""Declarative fault plans.

A :class:`FaultPlan` is pure data: a list of message-level rules
(drop/delay/duplicate/reorder, matched by operation, endpoint, kind and
time window), node crash/restart schedules, link flap schedules, and
per-node clock skews.  Plans say *what* goes wrong and *when*; the
:class:`~repro.faults.injector.FaultInjector` makes it happen against a
live network, deterministically.

Plans round-trip through plain dicts (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`), so a chaos scenario can live in a JSON
file next to the benchmark that replays it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field

from repro.errors import FaultPlanError
from repro.util.patterns import wildcard_match

#: Message-rule actions.
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
REORDER = "reorder"

_ACTIONS = (DROP, DELAY, DUPLICATE, REORDER)


@dataclass(frozen=True)
class MessageMatch:
    """Which messages a rule applies to.  ``*`` wildcards throughout.

    ``operation`` matches the transport-level operation carried in a
    request/reply/notify payload (e.g. ``midas.offer`` or ``lookup.*``);
    ``kind`` matches the raw message kind (``transport.request``, ...).
    The time window ``[after, before)`` is simulated seconds.
    """

    operation: str = "*"
    kind: str = "*"
    source: str = "*"
    destination: str = "*"
    after: float = 0.0
    before: float = math.inf

    def matches(
        self, now: float, kind: str, operation: str, source: str, destination: str
    ) -> bool:
        return wildcard_match(self.operation, operation) and self.admits(
            now, kind, source, destination
        )

    def admits(self, now: float, kind: str, source: str, destination: str) -> bool:
        """:meth:`matches` minus the operation; ``*`` patterns cost nothing."""
        if not (self.after <= now < self.before):
            return False
        return (
            (self.kind == "*" or wildcard_match(self.kind, kind))
            and (self.source == "*" or wildcard_match(self.source, source))
            and (
                self.destination == "*"
                or wildcard_match(self.destination, destination)
            )
        )


@dataclass
class MessageRule:
    """One injected misbehavior on matching messages.

    ``probability`` is evaluated per matching message with the network's
    seeded RNG; ``max_count`` optionally budgets the rule (e.g. "drop
    the first three offers, then behave").  ``injected`` counts hits.
    """

    action: str
    match: MessageMatch = field(default_factory=MessageMatch)
    probability: float = 1.0
    max_count: int | None = None
    #: DELAY: fixed extra latency plus uniform seeded jitter on top.
    extra_delay: float = 0.0
    delay_jitter: float = 0.0
    #: DUPLICATE: total copies delivered (2 = one duplicate).
    copies: int = 2
    injected: int = 0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise FaultPlanError(f"unknown fault action {self.action!r}")
        if not (0.0 <= self.probability <= 1.0):
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.copies < 2 and self.action == DUPLICATE:
            raise FaultPlanError(f"duplicate needs copies >= 2, got {self.copies}")

    def applies(
        self,
        now: float,
        kind: str,
        operation: str,
        source: str,
        destination: str,
        rng: random.Random,
    ) -> bool:
        return wildcard_match(self.match.operation, operation) and self.fires(
            now, kind, source, destination, rng
        )

    def fires(
        self, now: float, kind: str, source: str, destination: str, rng: random.Random
    ) -> bool:
        """:meth:`applies` for a message whose operation already matched.

        Draws from ``rng`` only for a matching, unspent rule with
        ``probability`` below 1.
        """
        if self.max_count is not None and self.injected >= self.max_count:
            return False
        if not self.match.admits(now, kind, source, destination):
            return False
        return self.probability >= 1.0 or rng.random() < self.probability


@dataclass(frozen=True)
class CrashSchedule:
    """Take a node down at ``at``; bring it back ``down_for`` later.

    ``down_for=None`` means the node never restarts in this plan.
    """

    node_id: str
    at: float
    down_for: float | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultPlanError(f"crash time must be >= 0, got {self.at}")
        if self.down_for is not None and self.down_for <= 0:
            raise FaultPlanError(f"down_for must be > 0, got {self.down_for}")


@dataclass(frozen=True)
class LinkFlap:
    """Periodically sever and heal one link inside a time window."""

    node_a: str
    node_b: str
    period: float
    down_for: float
    after: float = 0.0
    before: float = math.inf

    def __post_init__(self) -> None:
        if self.down_for <= 0 or self.period <= self.down_for:
            raise FaultPlanError(
                f"need period > down_for > 0, got period={self.period} "
                f"down_for={self.down_for}"
            )


@dataclass(frozen=True)
class ClockSkew:
    """A node's local clock runs ``offset`` seconds ahead and drifts by
    ``drift`` (0.01 = gains 10 ms per simulated second)."""

    node_id: str
    offset: float = 0.0
    drift: float = 0.0


class FaultPlan:
    """A complete chaos scenario, built fluently::

        plan = (
            FaultPlan()
            .drop(operation="midas.offer", probability=0.2)
            .delay(kind="transport.reply", extra=0.5, jitter=0.2)
            .duplicate(operation="midas.offer", probability=0.1)
            .crash("hall", at=30.0, down_for=8.0)
            .flap_link("hall", "node", period=4.0, down_for=1.0)
            .skew_clock("node", offset=0.25, drift=0.001)
        )
    """

    def __init__(self) -> None:
        self.message_rules: list[MessageRule] = []
        self.crashes: list[CrashSchedule] = []
        self.link_flaps: list[LinkFlap] = []
        self.clock_skews: list[ClockSkew] = []

    # -- fluent builders -----------------------------------------------------------

    def rule(self, rule: MessageRule) -> "FaultPlan":
        """Append a prebuilt message rule."""
        self.message_rules.append(rule)
        return self

    def drop(
        self,
        operation: str = "*",
        kind: str = "*",
        source: str = "*",
        destination: str = "*",
        probability: float = 1.0,
        between: tuple[float, float] | None = None,
        max_count: int | None = None,
    ) -> "FaultPlan":
        """Silently eat matching messages."""
        return self.rule(
            MessageRule(
                DROP,
                self._match(operation, kind, source, destination, between),
                probability=probability,
                max_count=max_count,
            )
        )

    def delay(
        self,
        extra: float,
        jitter: float = 0.0,
        operation: str = "*",
        kind: str = "*",
        source: str = "*",
        destination: str = "*",
        probability: float = 1.0,
        between: tuple[float, float] | None = None,
        max_count: int | None = None,
    ) -> "FaultPlan":
        """Add ``extra`` (plus seeded ``jitter``) latency to matches."""
        return self.rule(
            MessageRule(
                DELAY,
                self._match(operation, kind, source, destination, between),
                probability=probability,
                max_count=max_count,
                extra_delay=extra,
                delay_jitter=jitter,
            )
        )

    def duplicate(
        self,
        operation: str = "*",
        kind: str = "*",
        source: str = "*",
        destination: str = "*",
        probability: float = 1.0,
        copies: int = 2,
        between: tuple[float, float] | None = None,
        max_count: int | None = None,
    ) -> "FaultPlan":
        """Deliver matching messages ``copies`` times."""
        return self.rule(
            MessageRule(
                DUPLICATE,
                self._match(operation, kind, source, destination, between),
                probability=probability,
                max_count=max_count,
                copies=copies,
            )
        )

    def reorder(
        self,
        operation: str = "*",
        kind: str = "*",
        source: str = "*",
        destination: str = "*",
        probability: float = 1.0,
        between: tuple[float, float] | None = None,
        max_count: int | None = None,
    ) -> "FaultPlan":
        """Let matching messages bypass FIFO link ordering (overtake)."""
        return self.rule(
            MessageRule(
                REORDER,
                self._match(operation, kind, source, destination, between),
                probability=probability,
                max_count=max_count,
            )
        )

    def crash(
        self, node_id: str, at: float, down_for: float | None = None
    ) -> "FaultPlan":
        """Crash ``node_id`` at ``at``; restart after ``down_for`` seconds."""
        self.crashes.append(CrashSchedule(node_id, at, down_for))
        return self

    def flap_link(
        self,
        node_a: str,
        node_b: str,
        period: float,
        down_for: float,
        between: tuple[float, float] | None = None,
    ) -> "FaultPlan":
        """Flap the ``node_a``–``node_b`` link every ``period`` seconds."""
        after, before = between if between is not None else (0.0, math.inf)
        self.link_flaps.append(LinkFlap(node_a, node_b, period, down_for, after, before))
        return self

    def skew_clock(
        self, node_id: str, offset: float = 0.0, drift: float = 0.0
    ) -> "FaultPlan":
        """Skew ``node_id``'s local clock by ``offset`` and ``drift``."""
        self.clock_skews.append(ClockSkew(node_id, offset, drift))
        return self

    @staticmethod
    def _match(
        operation: str,
        kind: str,
        source: str,
        destination: str,
        between: tuple[float, float] | None,
    ) -> MessageMatch:
        after, before = between if between is not None else (0.0, math.inf)
        return MessageMatch(operation, kind, source, destination, after, before)

    # -- (de)serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """The plan as plain data (JSON-safe except ``inf`` windows)."""
        return {
            "message_rules": [
                {
                    "action": rule.action,
                    "match": asdict(rule.match),
                    "probability": rule.probability,
                    "max_count": rule.max_count,
                    "extra_delay": rule.extra_delay,
                    "delay_jitter": rule.delay_jitter,
                    "copies": rule.copies,
                }
                for rule in self.message_rules
            ],
            "crashes": [asdict(crash) for crash in self.crashes],
            "link_flaps": [asdict(flap) for flap in self.link_flaps],
            "clock_skews": [asdict(skew) for skew in self.clock_skews],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan produced by :meth:`to_dict`."""
        plan = cls()
        for raw in data.get("message_rules", ()):
            plan.rule(
                MessageRule(
                    raw["action"],
                    MessageMatch(**raw.get("match", {})),
                    probability=raw.get("probability", 1.0),
                    max_count=raw.get("max_count"),
                    extra_delay=raw.get("extra_delay", 0.0),
                    delay_jitter=raw.get("delay_jitter", 0.0),
                    copies=raw.get("copies", 2),
                )
            )
        for raw in data.get("crashes", ()):
            plan.crashes.append(CrashSchedule(**raw))
        for raw in data.get("link_flaps", ()):
            plan.link_flaps.append(LinkFlap(**raw))
        for raw in data.get("clock_skews", ()):
            plan.clock_skews.append(ClockSkew(**raw))
        return plan

    def __repr__(self) -> str:
        return (
            f"<FaultPlan rules={len(self.message_rules)} "
            f"crashes={len(self.crashes)} flaps={len(self.link_flaps)} "
            f"skews={len(self.clock_skews)}>"
        )
