"""Protocol-stub receivers: MIDAS adaptation without weaving.

A :class:`StubReceiver` speaks just enough MIDAS for a base to adapt it:
the receiver side of OFFER / KEEPALIVE / REVOKE, plus registrar
REGISTER / RENEW upkeep.  It runs no ProseVM, verification or weaving,
so populations of thousands stay cheap.  Storm nodes
(:mod:`repro.scenarios.nodes`) and closed-loop load clients
(:mod:`repro.loadgen.client`) both subclass it; they add their own
lifecycles and react to lease changes through the :meth:`installed` /
:meth:`withdrawn` hooks.
"""

from __future__ import annotations

from typing import Callable

from repro.discovery.registrar import REGISTER, RENEW
from repro.discovery.service import ServiceItem
from repro.midas.receiver import ADAPTATION_INTERFACE, KEEPALIVE, OFFER, REVOKE
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.util.ids import fresh_id


class HeldLease:
    """One extension lease a stub holds from one base."""

    __slots__ = ("lease_id", "name", "granter", "version", "duration", "expires_at")

    def __init__(
        self,
        lease_id: str,
        name: str,
        granter: str,
        version: int,
        duration: float,
        expires_at: float,
    ):
        self.lease_id = lease_id
        self.name = name
        self.granter = granter
        self.version = version
        self.duration = duration
        self.expires_at = expires_at


def _ignore(error: Exception) -> None:
    """Swallow an error the stub heals later (upkeep, re-register)."""


class StubReceiver:
    """The receiver side of MIDAS, minus the weaving."""

    def __init__(
        self,
        transport: Transport,
        simulator: Simulator,
        node_class: str,
        registration_lease: float,
    ):
        self.transport = transport
        self.simulator = simulator
        self.node_class = node_class
        #: Term requested for the registrar lease (REGISTER and RENEW).
        self.registration_lease = registration_lease
        self.node_id = transport.node.node_id
        #: The base whose registrar lease this stub keeps alive (None
        #: when it has none).
        self.home: str | None = None
        #: ``(granting base, extension)`` -> lease.  Two granters for the
        #: same extension is physically possible — that is the dual-home
        #: bug state, observable here and at the bases.
        self.held: dict[tuple[str, str], HeldLease] = {}
        #: The advertised adaptation service (the last fresh one registered).
        self.service_item: ServiceItem | None = None
        self._registration_lease_id: str | None = None
        self._upkeep: PeriodicTimer | None = None

        transport.register(OFFER, self._serve_offer)
        transport.register(KEEPALIVE, self._serve_keepalive)
        transport.register(REVOKE, self._serve_revoke)

    # -- hooks ---------------------------------------------------------------------

    def installed(self, lease: HeldLease) -> None:
        """Hook: a fresh offer (not a refresh) granted ``lease``."""

    def withdrawn(self, lease: HeldLease, reason: str) -> None:
        """Hook: ``lease`` was dropped (revoked, expired, quarantined...)."""

    # -- MIDAS protocol stub -------------------------------------------------------

    def _serve_offer(self, sender: str, body: dict) -> dict:
        envelope = body["envelope"]
        duration = float(body["duration"])
        key = (sender, envelope.name)
        lease = self.held.get(key)
        if lease is None:
            lease = self.held[key] = HeldLease(
                fresh_id(f"{self.node_id}.lease"),
                envelope.name,
                sender,
                envelope.version,
                duration,
                self.simulator.now + duration,
            )
            self.installed(lease)
        else:
            # Re-offer of a held extension: refresh under the same lease
            # id (a version bump rides the same refresh).
            lease.version = envelope.version
            lease.duration = duration
            lease.expires_at = self.simulator.now + duration
        return {"lease_id": lease.lease_id, "duration": duration}

    def _serve_keepalive(self, sender: str, body: dict) -> dict:
        by_id = {lease.lease_id: lease for lease in self.held.values()}
        renewed, unknown = [], []
        for lease_id in body["lease_ids"]:
            lease = by_id.get(lease_id)
            if lease is None:
                unknown.append(lease_id)
            else:
                lease.expires_at = self.simulator.now + lease.duration
                renewed.append(lease_id)
        return {"renewed": renewed, "unknown": unknown}

    def _serve_revoke(self, sender: str, body: dict) -> dict:
        lease_id = body["lease_id"]
        for key, lease in list(self.held.items()):
            if lease.lease_id == lease_id:
                self.withdraw(key, "revoked")
                return {"revoked": True}
        return {"revoked": False}

    def withdraw(self, key: tuple[str, str], reason: str) -> None:
        """Drop the lease held under ``key``, if any."""
        lease = self.held.pop(key, None)
        if lease is not None:
            self.withdrawn(lease, reason)

    # -- registration upkeep -------------------------------------------------------

    def register(
        self,
        base_id: str,
        on_error: Callable[[Exception], None] = _ignore,
        timeout: float | None = None,
        on_reply: Callable[[dict], None] | None = None,
        item: ServiceItem | None = None,
    ) -> None:
        """Register the adaptation service at ``base_id`` and keep it alive.

        Without ``item`` a fresh :class:`ServiceItem` is advertised.
        Passing the current :attr:`service_item` re-registers it: the
        registrar replaces by ``service_id``, so the old registration is
        replaced rather than joined by a second one.  A reply that lands
        after :attr:`home` moved away from ``base_id`` is ignored;
        otherwise the granted lease is renewed from then on and
        ``on_reply`` runs.
        """
        if item is None:
            item = self.service_item = ServiceItem(
                ADAPTATION_INTERFACE, self.node_id, {"class": self.node_class}
            )

        def granted(body: dict) -> None:
            if self.home != base_id:
                return  # moved on (or left) before the reply landed
            self._registration_lease_id = body["lease_id"]
            self._start_upkeep(float(body["duration"]))
            if on_reply is not None:
                on_reply(body)

        self.transport.request(
            base_id,
            REGISTER,
            {"item": item, "duration": self.registration_lease},
            on_reply=granted,
            on_error=on_error,
            timeout=timeout,
        )

    def abandon_home(self) -> None:
        """Stop renewing the registrar lease and let it lapse at the base."""
        self.home = None
        self._registration_lease_id = None
        if self._upkeep is not None:
            self._upkeep.stop()
            self._upkeep = None

    def _start_upkeep(self, granted: float) -> None:
        if self._upkeep is not None:
            return
        self._upkeep = PeriodicTimer(
            self.simulator,
            max(granted / 3.0, 0.1),
            self._renew_registration,
            name=f"{self.node_id}.registration",
        ).start()

    def _renew_registration(self) -> None:
        # Only the *current* home's registration is kept alive; after a
        # migration the old base's registrar lease is left to expire,
        # like a device that walked out of radio range.
        if self.home is None or self._registration_lease_id is None:
            return
        self.transport.request(
            self.home,
            RENEW,
            {
                "lease_id": self._registration_lease_id,
                "duration": self.registration_lease,
            },
            on_error=_ignore,
        )
