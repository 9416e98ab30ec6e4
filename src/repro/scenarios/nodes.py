"""Storm nodes: lightweight roaming receivers.

A :class:`StormNode` is a :class:`~repro.midas.stub.StubReceiver`: it
speaks just enough MIDAS for bases to adapt it, without a ProseVM, so
storms scale to thousands of nodes.  On top of the stub it models the
*roaming* side faithfully:

- it is homed at exactly one base at a time and keeps exactly that
  base's registrar lease alive;
- :meth:`migrate` re-registers it at a new base and abandons the old
  registration — the moment federated bookkeeping can go wrong;
- leases are tracked per ``(granting base, extension)``: if two bases
  each believe they host the node, the node really holds two lease sets,
  which is exactly the dual-home state the invariant monitor hunts;
- every install / withdrawal / migration lands on the flight recorder,
  so invariant violations come with a causal timeline.
"""

from __future__ import annotations

from repro.midas.receiver import HEALTH
from repro.midas.stub import HeldLease, StubReceiver
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.telemetry import runtime as _telemetry


class StormNode(StubReceiver):
    """One roaming member of the storm population."""

    def __init__(
        self,
        index: int,
        transport: Transport,
        simulator: Simulator,
        node_class: str,
        registration_lease: float,
    ):
        super().__init__(transport, simulator, node_class, registration_lease)
        self.index = index
        self.attached = True
        # Storm accounting.
        self.migrations = 0
        self.installs = 0
        self.withdrawals = 0

    def installed(self, lease: HeldLease) -> None:
        self.installs += 1
        _telemetry.get_recorder().event(
            "storm.installed",
            node=self.node_id,
            extension=lease.name,
            granter=lease.granter,
        )

    def withdrawn(self, lease: HeldLease, reason: str) -> None:
        self.withdrawals += 1
        _telemetry.get_recorder().event(
            "storm.withdrawn",
            node=self.node_id,
            extension=lease.name,
            granter=lease.granter,
            reason=reason,
        )

    def sweep(self, now: float) -> None:
        """Expire overdue leases (driven by the world's shared sweeper)."""
        for key, lease in list(self.held.items()):
            if lease.expires_at <= now:
                self.withdraw(key, "expired")

    # -- roaming lifecycle ---------------------------------------------------------

    def join(self, base_id: str) -> None:
        """First arrival: register the adaptation service at ``base_id``."""
        self.home = base_id
        _telemetry.get_recorder().event(
            "storm.join", node=self.node_id, base=base_id
        )
        self.register(base_id)

    def migrate(self, base_id: str) -> None:
        """Roam to ``base_id``: register there, let the old lease lapse.

        The old base is *not* told by this node — that is the ROAMED
        announcement's job, which is exactly what storms attack.
        """
        if not self.attached or base_id == self.home:
            return
        previous = self.home
        self.home = base_id
        self._registration_lease_id = None  # the old base's lease lapses
        self.migrations += 1
        _telemetry.get_recorder().event(
            "storm.migrate",
            node=self.node_id,
            base=base_id,
            previous=previous or "",
        )
        self.register(base_id)

    def leave(self) -> None:
        """Churn out: drop off the network mid-storm."""
        if not self.attached:
            return
        self.attached = False
        previous = self.home
        self.abandon_home()
        _telemetry.get_recorder().event(
            "storm.leave", node=self.node_id, base=previous or ""
        )
        network = self.transport.node.network
        if network is not None:
            network.detach(self.transport.node)

    def rejoin(self, network, base_id: str) -> None:
        """Churn back in at ``base_id`` (a fresh arrival)."""
        if self.attached:
            return
        network.attach(self.transport.node)
        self.attached = True
        _telemetry.get_recorder().event(
            "storm.return", node=self.node_id, base=base_id
        )
        self.home = base_id
        self.register(base_id)

    def report_quarantine(self, name: str) -> None:
        """Report ``name`` quarantined to its granter and withdraw it."""
        target: tuple[str, str] | None = None
        for key in self.held:
            if key[1] == name and (target is None or key[0] == self.home):
                target = key
        if target is None:
            return
        granter, _ = target
        lease = self.held[target]
        self.transport.notify(
            granter,
            HEALTH,
            {
                "extension": name,
                "node_class": self.node_class,
                "version": lease.version,
                "offender": name,
            },
        )
        self.withdraw(target, "quarantined")

    # -- queries ----------------------------------------------------------------------

    def granters(self) -> list[str]:
        """Bases this node currently holds at least one lease from."""
        return sorted({granter for (granter, _name) in self.held})

    def holds(self, name: str) -> bool:
        """Does this node hold ``name`` from any granter?"""
        return any(key[1] == name for key in self.held)

    def __repr__(self) -> str:
        return (
            f"<StormNode {self.node_id} home={self.home} "
            f"held={len(self.held)} attached={self.attached}>"
        )
