"""The extension base — the distributing side of MIDAS.

"Extension base nodes contain a list of extensions.  They discover new
nodes joining the network and send extensions to the newcomers." (§3.2)

An :class:`ExtensionBase`:

- watches the discovery layer for adaptation services (either the local
  :class:`~repro.discovery.registrar.LookupService` it co-hosts with, or
  remote events when running as a pure peer) and pushes every catalog
  extension to each newly seen node;
- keeps distributed extensions alive by sending ``midas.keepalive``
  renewals; when a node stops answering, the base abandons its leases
  (the node's own expiry already withdrew the extension there);
- supports revocation on demand and *replacement* — re-adding an
  extension under the same name bumps its version and re-offers it to
  every adapted node, which swaps the old copy for the new one;
- records every action in an activity log ("each MIDAS extension base
  keeps track of its extension activity: what nodes were adapted, at what
  point in time") and implements the paper's simple roaming algorithm:
  peer bases are told when a node arrives here, so they stop renewing
  the leases they hold for it.

The base's event handling has two execution modes.  By default
(``pipeline=None``) every piece of work — an offer, a keepalive round, a
health report — runs inline in the callback that triggered it, exactly
as a small hall wants.  Handing the constructor a
:class:`~repro.midas.pipeline.PipelineConfig` interposes an explicit
accept-queue → worker-pool station (:mod:`repro.midas.pipeline`) in
front of the same work: jobs wait for one of N simulated workers, hold
it for a service time, and can be shed under overload — which is what
load experiments measure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

from repro.discovery.client import DiscoveryClient
from repro.discovery.events import EventKind, RemoteEvent
from repro.discovery.registrar import LookupService
from repro.discovery.service import ServiceItem, ServiceTemplate
from repro.errors import PipelineOverloadError, UnknownExtensionError
from repro.leasing.renewer import RenewalAgent, TrackedLease
from repro.midas.catalog import ExtensionCatalog, ExtensionFactory
from repro.midas.pipeline import AcceptQueuePipeline, PipelineConfig
from repro.midas.receiver import (
    ADAPTATION_INTERFACE,
    HEALTH,
    KEEPALIVE,
    OFFER,
    REVOKE,
)
from repro.net.transport import Transport
from repro.resilience.client import ResilientClient
from repro.resilience.policy import RetryPolicy
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.telemetry import runtime as _telemetry
from repro.util.signal import Signal

logger = logging.getLogger(__name__)

ROAMED = "midas.roamed"
ROAM_SYNC = "midas.roam.sync"

#: Term of the lease a base asks receivers to grant its extensions.
DEFAULT_EXTENSION_LEASE = 10.0

#: ``(arrival time, base id)`` of a node's newest known arrival.  Epochs
#: order totally (time first, base id breaking same-instant ties), so
#: every roaming conflict — a reordered ROAMED, a duplicated one, two
#: bases both believing they host a node — resolves the same way
#: everywhere: the newest arrival wins.
RoamEpoch = tuple[float, str]


@dataclass(frozen=True)
class AdaptationRecord:
    """One entry of the base's activity log."""

    time: float
    node_id: str
    extension: str
    action: str  # offered | accepted | rejected | renewed-lost | revoked | replaced | roamed
    detail: str = ""


class _Adapted:
    """Base-side record of one extension live on one node."""

    __slots__ = ("node_id", "name", "version", "lease_id", "trace")

    def __init__(
        self,
        node_id: str,
        name: str,
        version: int,
        lease_id: str,
        trace: "_telemetry.SpanContext | None" = None,
    ):
        self.node_id = node_id
        self.name = name
        self.version = version
        self.lease_id = lease_id
        #: Span context of the offer that installed this extension; later
        #: keepalives and revocations parent under it, so the whole
        #: lifecycle forms one trace.
        self.trace = trace


class ExtensionBase:
    """Distributes and manages extensions for one proactive environment."""

    def __init__(
        self,
        transport: Transport,
        simulator: Simulator,
        catalog: ExtensionCatalog,
        lease_duration: float = DEFAULT_EXTENSION_LEASE,
        node_filter: "ServiceTemplate | None" = None,
        retry_policy: RetryPolicy | None = None,
        pipeline: PipelineConfig | None = None,
        renew_batch_interval: float | None = None,
        roam_sync_interval: float | None = None,
    ):
        self.transport = transport
        self.simulator = simulator
        self.catalog = catalog
        self.lease_duration = lease_duration
        #: The accept-queue → worker-pool station all base work runs
        #: through, or None for the classic inline single-worker mode
        #: (byte-identical to the pre-pipeline behavior).
        self.pipeline: AcceptQueuePipeline | None = (
            AcceptQueuePipeline(
                simulator, pipeline, name=f"{transport.node.node_id}.base"
            )
            if pipeline is not None
            else None
        )
        #: When set, offers and revocations retry with backoff (bounded
        #: by the lease term — an offer older than that is stale anyway)
        #: and keepalive failures back off instead of waiting full
        #: periods.  None keeps the classic reconcile-only behavior.
        self.retry_policy = retry_policy
        #: Optional template restricting which adaptation services this
        #: base adapts (e.g. only nodes advertising ``{"role": "robot"}``)
        #: — a hall can have per-device-kind policies.
        self.node_filter = node_filter
        self.node_id = transport.node.node_id

        #: Fires with (node_id, extension_name) when a node accepts an extension.
        self.on_adapted = Signal(f"{self.node_id}.on_adapted")
        #: Fires with (node_id, extension_name, detail) when an offer is rejected.
        self.on_rejected = Signal(f"{self.node_id}.on_rejected")
        #: Fires with (node_id,) when a node's renewals are abandoned.
        self.on_node_lost = Signal(f"{self.node_id}.on_node_lost")
        #: Fires with (node_id, extension_name, report_body) when a node
        #: reports it quarantined one of our extensions.
        self.on_quarantined = Signal(f"{self.node_id}.on_quarantined")
        #: Fires with (node_id, extension_name, ok) when a revocation
        #: resolves — ok=False for remote errors, timeouts, or shedding.
        self.on_revoked = Signal(f"{self.node_id}.on_revoked")

        self.activity_log: list[AdaptationRecord] = []
        self._adapted: dict[tuple[str, str], _Adapted] = {}  # (node, name) -> record
        #: The same records indexed by node (node -> {name: record}), kept
        #: in step with ``_adapted`` by :meth:`_put_adapted` and
        #: :meth:`_pop_adapted`: per-node questions cost O(that node's
        #: names), not a scan of every adaptation.  A node's names keep
        #: their relative order in ``_adapted``; a node with none is absent.
        self._by_node: dict[str, dict[str, _Adapted]] = {}
        #: node_id -> advertised node class ("class" service attribute),
        #: used to scope quarantine marks to a whole class of devices.
        self._node_classes: dict[str, str] = {}
        self._peer_bases: list[str] = []
        #: Newest known arrival per node (here or at a peer).  Fed by
        #: local arrivals, incoming ROAMED announcements, and anti-entropy
        #: exchanges; consulted so a stale ROAMED cannot undo a later
        #: arrival and a reconcile cannot resurrect leases a roam dropped.
        self._roam_epochs: dict[str, RoamEpoch] = {}
        #: When set, peer bases periodically exchange digests of their
        #: adapted-node sets and resolve conflicts by newest roam epoch —
        #: so even a permanently lost ROAMED converges within one
        #: interval.  None keeps the classic announce-only behavior.
        self.roam_sync_interval = roam_sync_interval
        self._roam_sync_timer: PeriodicTimer | None = None
        # ``renew_batch_interval`` puts all keepalives on one sweep timer
        # (one kernel event per interval however many nodes are adapted)
        # instead of one timer per lease — the fleet-scale mode.
        self._renewer = RenewalAgent(
            simulator,
            self._send_keepalive,
            name=f"{self.node_id}.extensions",
            backoff=retry_policy,
            batch_interval=renew_batch_interval,
        )
        self._renewer.on_abandoned.connect(self._renewal_abandoned)
        if retry_policy is not None:
            # Unless the caller budgeted explicitly, stop retrying an
            # offer/revoke after one lease term — it is stale by then and
            # the reconciler owns recovery.
            effective = (
                retry_policy
                if retry_policy.deadline is not None
                else retry_policy.with_deadline(lease_duration)
            )
            self._client: ResilientClient | None = ResilientClient(
                transport, simulator, policy=effective, name=f"{self.node_id}.base"
            )
        else:
            self._client = None
        #: Public read access for inspection (breaker states, retry stats).
        self.resilient_client = self._client
        self._reconciler: PeriodicTimer | None = None
        transport.register(ROAMED, self._serve_roamed)
        transport.register(ROAM_SYNC, self._serve_roam_sync)
        transport.register(HEALTH, self._serve_health)

    # -- work dispatch -----------------------------------------------------------

    def _submit(
        self,
        key: str,
        kind: str,
        fn: Callable[[], None],
        on_shed: "Callable[[PipelineOverloadError], None] | None" = None,
    ) -> bool:
        """Run one unit of base work inline, or queue it on the pipeline.

        Without a pipeline this *is* the classic code path: ``fn`` runs
        synchronously, in the exact place the inline implementation ran,
        so default-configured bases behave byte-identically.  With a
        pipeline the work waits for a worker; False means it was shed
        (``on_shed``, if any, already fired).
        """
        if self.pipeline is None:
            fn()
            return True
        return self.pipeline.submit(key, kind, fn, on_shed=on_shed)

    # -- crash support -----------------------------------------------------------

    def reset_volatile(self) -> None:
        """Crash model: forget who was adapted; keep the catalog.

        The catalog (the hall's policy) and the activity log are durable;
        the map of live extensions and the leases being kept alive are
        memory.  After restart the reconciler re-adapts every node it
        still sees registered — receivers treat the re-offer of a version
        they already run as a plain lease refresh, so recovery is
        idempotent.
        """
        for tracked in self._renewer.tracked():
            self._renewer.forget(tracked.lease_id)
        self._adapted.clear()
        self._by_node.clear()
        self._roam_epochs.clear()
        if self.pipeline is not None:
            self.pipeline.reset_volatile()

    # -- discovery wiring --------------------------------------------------------

    def watch_lookup(self, lookup: LookupService) -> None:
        """Adapt every adaptation service registering at a co-hosted registrar.

        Besides reacting to registration events, the base periodically
        *reconciles*: every registered adaptation service is re-offered
        anything it is missing.  This heals transient divergence — e.g.
        keep-alives abandoned during a lossy spell while the node never
        actually left.
        """
        lookup.on_registered.connect(
            lambda item: self._service_seen(item, fresh=True)
        )
        lookup.on_deregistered.connect(self._service_gone)
        for item in lookup.items():
            self._service_seen(item)
        if self._reconciler is None:
            self._reconciler = PeriodicTimer(
                self.simulator,
                max(self.lease_duration, 1.0),
                lambda: self._reconcile(lookup),
                name=f"{self.node_id}.reconcile",
            ).start()

    def _reconcile(self, lookup: LookupService) -> None:
        for item in lookup.items():
            self._service_seen(item)

    def watch_remote(self, discovery: "DiscoveryClient") -> None:
        """Adapt nodes discovered through a *remote* registrar.

        For deployments where the extension base does not co-host the
        lookup service: subscribe to adaptation-service registration
        events via the Jini event protocol, and reconcile periodically
        with a template query (healing lost event deliveries).
        """
        template = ServiceTemplate(interface=ADAPTATION_INTERFACE)

        def on_event(event: "RemoteEvent") -> None:
            if event.kind is EventKind.REGISTERED:
                self._service_seen(event.item, fresh=True)
            else:
                self._service_gone(event.item, event.kind)

        discovery.listen(template, on_event)

        def reconcile_query() -> None:
            discovery.lookup(
                template,
                lambda items: [self._service_seen(item) for item in items],
            )

        # Services registered before our subscription landed produce no
        # event; query as soon as (and whenever) a registrar is known.
        discovery.on_registrar_found.connect(lambda registrar: reconcile_query())
        reconcile_query()
        if self._reconciler is None:
            self._reconciler = PeriodicTimer(
                self.simulator,
                max(self.lease_duration, 1.0),
                reconcile_query,
                name=f"{self.node_id}.remote-reconcile",
            ).start()

    def _service_seen(self, item: ServiceItem, fresh: bool = False) -> None:
        if item.interface != ADAPTATION_INTERFACE:
            return
        if item.provider == self.node_id:
            return  # never adapt ourselves
        if self.node_filter is not None and not self.node_filter.matches(item):
            return  # outside this base's policy scope
        self._node_classes[item.provider] = str(
            item.attributes.get("class", item.provider)
        )
        self.adapt_node(item.provider, fresh=fresh)

    def _service_gone(self, item: ServiceItem, kind: object = None) -> None:
        if item.interface != ADAPTATION_INTERFACE:
            return
        # The node left our space: stop keeping its extensions alive.  Its
        # receiver-side leases will lapse and withdraw everything locally.
        self._drop_node(item.provider, action="renewed-lost", detail="deregistered")

    # -- distribution ------------------------------------------------------------------

    def adapt_node(self, node_id: str, fresh: bool = False) -> None:
        """Offer every catalog extension to ``node_id``.

        ``fresh=True`` marks a genuine (re-)arrival — a registration
        event, not a periodic reconcile of stale lookup state.  A
        non-fresh adapt is refused when a ROAMED announcement has told
        this base the node now lives at a peer: re-offering then would
        resurrect exactly the leases the roam dropped.
        """
        newly_seen = node_id not in self._by_node
        if not fresh and newly_seen:
            known = self._roam_epochs.get(node_id)
            if known is not None and known[1] != self.node_id:
                _telemetry.get_recorder().count(
                    "midas.roam.stale_refused", node=self.node_id
                )
                logger.debug(
                    "%s: refusing stale adapt of %s (roamed to %s at t=%.3f)",
                    self.node_id,
                    node_id,
                    known[1],
                    known[0],
                )
                return
        if fresh or newly_seen:
            self._note_arrival(node_id)
        for name in self.catalog.names():
            self.offer(node_id, name)
        if newly_seen:
            # Roaming is announced on arrival, not on periodic reconciles
            # of a node that never left.
            self._announce_roaming(node_id)

    def offer(self, node_id: str, name: str, force: bool = False) -> None:
        """Offer one catalog extension to one node.

        ``force=True`` re-offers even a version the node already holds —
        the receiver treats that as a plain lease refresh, so it is safe
        and is what load generators and recovery tooling use to produce
        a real end-to-end offer round.
        """
        live = self._adapted.get((node_id, name))
        if not force and live is not None and live.version >= self.catalog.version_of(name):
            return  # already adapted with the current version
        node_class = self._node_classes.get(node_id, node_id)
        if not self.catalog.is_healthy(name, node_class):
            # This version was quarantined on this class of node; hold it
            # back until the catalog publishes a newer one.  No activity
            # log entry — the reconciler hits this every period.
            _telemetry.get_recorder().count(
                "midas.offers_suppressed",
                node=self.node_id,
                extension=name,
                node_class=node_class,
            )
            return

        def on_shed(error: PipelineOverloadError) -> None:
            self._log(node_id, name, "rejected", str(error))
            self.on_rejected.fire(node_id, name, str(error))

        self._submit(
            node_id, "offer", lambda: self._do_offer(node_id, name), on_shed=on_shed
        )

    def _do_offer(self, node_id: str, name: str) -> None:
        """The worker half of :meth:`offer`: seal, send, track the reply."""
        envelope = self.catalog.seal(name)
        self._log(node_id, name, "offered", f"v{envelope.version}")
        recorder = _telemetry.get_recorder()
        # The offer roots a fresh trace (parent=None): the receiver-side
        # install and every later keepalive/revoke hang under it.
        span = recorder.start_span(
            "midas.offer",
            parent=None,
            node=self.node_id,
            target=node_id,
            extension=name,
            version=envelope.version,
        )
        recorder.count("midas.offers", node=self.node_id, extension=name)

        def on_reply(body: dict) -> None:
            lease_id = body["lease_id"]
            previous = self._adapted.get((node_id, name))
            if previous is not None and previous.lease_id != lease_id:
                self._renewer.forget(previous.lease_id)
            self._put_adapted(
                _Adapted(node_id, name, envelope.version, lease_id, trace=span.context)
            )
            if not self._renewer.tracking(lease_id):
                self._renewer.track(
                    lease_id,
                    node_id,
                    body["duration"],
                    resource=name,
                    context=node_id,
                )
            self._log(node_id, name, "accepted", f"lease={lease_id}")
            span.end(lease_id=lease_id)
            self.on_adapted.fire(node_id, name)

        def on_error(error: Exception) -> None:
            self._log(node_id, name, "rejected", str(error))
            span.end(status="error", error=str(error))
            self.on_rejected.fire(node_id, name, str(error))

        with span.activate():
            self._request(
                node_id,
                OFFER,
                {"envelope": envelope, "duration": self.lease_duration},
                on_reply=on_reply,
                on_error=on_error,
            )

    # -- revocation & replacement ----------------------------------------------------------

    def revoke(self, node_id: str, name: str, reason: str = "revoked") -> bool:
        """Actively revoke one extension from one node.

        Returns True when a live adaptation existed (so a revocation was
        initiated); :attr:`on_revoked` later reports how it resolved.
        """
        live = self._pop_adapted(node_id, name)
        if live is None:
            return False
        self._renewer.forget(live.lease_id)

        def on_shed(error: PipelineOverloadError) -> None:
            self._log(node_id, name, "revoked", f"shed: {error}")
            self.on_revoked.fire(node_id, name, False)

        self._submit(
            node_id,
            "revoke",
            lambda: self._do_revoke(live, node_id, name, reason),
            on_shed=on_shed,
        )
        return True

    def _do_revoke(
        self, live: _Adapted, node_id: str, name: str, reason: str
    ) -> None:
        """The worker half of :meth:`revoke`: send and log."""
        span = _telemetry.get_recorder().start_span(
            "midas.revoke",
            parent=live.trace,
            node=self.node_id,
            target=node_id,
            extension=name,
            reason=reason,
        )

        def on_reply(body: dict) -> None:
            span.end(revoked=bool(body.get("revoked")))
            self.on_revoked.fire(node_id, name, bool(body.get("revoked")))

        def on_error(error: Exception) -> None:
            span.end(status="error", error=str(error))
            self.on_revoked.fire(node_id, name, False)

        with span.activate():
            self._request(
                node_id,
                REVOKE,
                {"lease_id": live.lease_id, "reason": reason},
                on_reply=on_reply,
                on_error=on_error,
            )
        self._log(node_id, name, "revoked", reason)

    def _request(
        self,
        node_id: str,
        operation: str,
        body: dict,
        on_reply: Callable,
        on_error: Callable,
    ) -> None:
        if self._client is not None:
            self._client.call(
                node_id, operation, body, on_reply=on_reply, on_error=on_error
            )
        else:
            self.transport.request(
                node_id, operation, body, on_reply=on_reply, on_error=on_error
            )

    def revoke_node(self, node_id: str, reason: str = "revoked") -> None:
        """Revoke every extension this base holds on ``node_id``."""
        for name in list(self._by_node.get(node_id, ())):
            self.revoke(node_id, name, reason)

    def renew_node(
        self,
        node_id: str,
        on_done: Callable[[int], None] | None = None,
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        """Renew every lease held on ``node_id`` now, in one batch.

        A single ``midas.keepalive`` request carries all of the node's
        lease ids (the receiver renews them in one pass), ahead of the
        per-lease renewal schedule.  Useful after a roaming return or a
        recovery — and the natural "renew" operation for closed-loop
        load generators.  ``on_done`` receives the number of leases the
        peer confirmed.
        """
        lease_ids = sorted(
            live.lease_id for live in self._by_node.get(node_id, {}).values()
        )
        if not lease_ids:
            if on_done is not None:
                on_done(0)
            return

        def on_shed(error: PipelineOverloadError) -> None:
            if on_error is not None:
                on_error(error)

        self._submit(
            node_id,
            "renew",
            lambda: self._do_renew_node(node_id, lease_ids, on_done, on_error),
            on_shed=on_shed,
        )

    def _do_renew_node(
        self,
        node_id: str,
        lease_ids: list[str],
        on_done: Callable[[int], None] | None,
        on_error: Callable[[Exception], None] | None,
    ) -> None:
        span = _telemetry.get_recorder().start_span(
            "midas.keepalive",
            parent=None,
            node=self.node_id,
            target=node_id,
            batch=len(lease_ids),
        )

        def on_reply(body: dict) -> None:
            renewed = body.get("renewed", ())
            span.end(renewed=len(renewed))
            if on_done is not None:
                on_done(len(renewed))

        def on_fail(error: Exception) -> None:
            span.end(status="error", error=str(error))
            if on_error is not None:
                on_error(error)

        with span.activate():
            self.transport.request(
                node_id,
                KEEPALIVE,
                {"lease_ids": lease_ids},
                on_reply=on_reply,
                on_error=on_fail,
            )

    def replace_extension(self, name: str, factory: ExtensionFactory) -> None:
        """Swap the catalog entry for ``name`` and re-adapt all its holders.

        Implements §3.2's "replacement of obsolete extensions with new
        ones in case the local policy evolves or it is changed".
        """
        if name not in self.catalog:
            raise UnknownExtensionError(f"no extension {name!r} to replace")
        self.catalog.add(name, factory)  # bumps version
        for (node_id, ext_name) in list(self._adapted):
            if ext_name == name:
                self._log(node_id, name, "replaced", f"v{self.catalog.version_of(name)}")
                self.offer(node_id, name)

    # -- receiver health reports -----------------------------------------------------------

    def _serve_health(self, sender: str, body: dict) -> None:
        self._submit(sender, "health", lambda: self._handle_health(sender, body))

    def _handle_health(self, sender: str, body: dict) -> None:
        """A receiver quarantined one of our extensions: believe it.

        The catalog entry is marked unhealthy for the reporter's node
        class, so the reconciler stops re-offering the bad version to
        that class of device; publishing a fixed version (catalog
        version bump) heals the mark.  The base-side lease record is
        dropped — the receiver already withdrew locally.
        """
        name = str(body.get("extension", ""))
        node_class = str(body.get("node_class", sender))
        version = body.get("version")
        if name in self.catalog:
            self.catalog.mark_unhealthy(
                name, node_class, int(version) if version is not None else None
            )
        live = self._pop_adapted(sender, name)
        if live is not None:
            self._renewer.forget(live.lease_id)
        offender = body.get("offender", name)
        strikes = body.get("strikes") or []
        detail = f"offender={offender} strikes={len(strikes)} class={node_class}"
        self._log(sender, name, "quarantined", detail)
        recorder = _telemetry.get_recorder()
        recorder.count(
            "midas.quarantines",
            node=self.node_id,
            extension=name,
            node_class=node_class,
        )
        recorder.event(
            "midas.quarantine_reported",
            node=self.node_id,
            reporter=sender,
            extension=name,
            offender=offender,
            node_class=node_class,
        )
        logger.info(
            "%s: %s quarantined %s (%s); suppressing offers to class %s",
            self.node_id,
            sender,
            name,
            offender,
            node_class,
        )
        self.on_quarantined.fire(sender, name, body)

    # -- roaming ------------------------------------------------------------------------------

    def link_peer_base(self, base_node_id: str) -> None:
        """Tell this base about a peer base for the roaming algorithm."""
        if base_node_id != self.node_id and base_node_id not in self._peer_bases:
            self._peer_bases.append(base_node_id)
            self._ensure_roam_sync()

    def _ensure_roam_sync(self) -> None:
        if self.roam_sync_interval is None or self._roam_sync_timer is not None:
            return
        if not self._peer_bases:
            return
        self._roam_sync_timer = PeriodicTimer(
            self.simulator,
            self.roam_sync_interval,
            self._roam_sync_tick,
            name=f"{self.node_id}.roam-sync",
        ).start()

    def _note_arrival(self, node_id: str) -> None:
        """Record that ``node_id`` is here, now — if that beats what we know."""
        epoch: RoamEpoch = (self.simulator.now, self.node_id)
        known = self._roam_epochs.get(node_id)
        if known is None or epoch > known:
            self._roam_epochs[node_id] = epoch

    def _announce_roaming(self, node_id: str) -> None:
        """Tell every peer base ``node_id`` arrived here.

        With a retry policy the announcement rides the resilient client
        (retries with backoff within the lease-term deadline) and counts
        ``midas.roam.announce_failed`` when retries exhaust — anti-entropy
        then owns convergence.  Without one it is the paper's classic
        fire-and-forget notify.
        """
        epoch = self._roam_epochs.get(node_id, (self.simulator.now, self.node_id))
        recorder = _telemetry.get_recorder()
        for peer in self._peer_bases:
            body = {"node_id": node_id, "epoch": [epoch[0], epoch[1]]}
            recorder.count("midas.roam.announced", node=self.node_id, peer=peer)
            if self._client is None:
                # lint: allow(proto.mixed-send-modes) — the classic path is the paper's fire-and-forget notify; _serve_roamed is epoch-idempotent, so undeduped duplicates are harmless
                self.transport.notify(peer, ROAMED, body)
                continue
            self._client.call(
                peer,
                ROAMED,
                body,
                on_reply=lambda reply: None,
                on_error=lambda error, peer=peer: self._announce_failed(
                    node_id, peer, error
                ),
            )

    def _announce_failed(self, node_id: str, peer: str, error: Exception) -> None:
        recorder = _telemetry.get_recorder()
        recorder.count("midas.roam.announce_failed", node=self.node_id, peer=peer)
        recorder.event(
            "midas.roam.announce_failed",
            node=self.node_id,
            peer=peer,
            roamed=node_id,
            error=str(error),
        )
        logger.warning(
            "%s: could not announce %s's arrival to %s: %s",
            self.node_id,
            node_id,
            peer,
            error,
        )

    def _serve_roamed(self, sender: str, body: dict) -> dict:
        accepted = self._submit(
            sender, "roamed", lambda: self._handle_roamed(sender, body)
        )
        # The reply doubles as an acknowledgement for retrying announcers.
        return {"accepted": accepted}

    def _handle_roamed(self, sender: str, body: dict) -> None:
        """Apply one ROAMED announcement — idempotently, and in order.

        The announcement carries the arrival's roam epoch; anything at or
        below what we already know (a duplicate delivery, or a stale
        announcement reordered behind a later arrival here) is ignored.
        Unknown nodes are recorded too: a late reconcile must not re-offer
        to a node that provably lives elsewhere now.
        """
        node_id = body["node_id"]
        raw = body.get("epoch")
        if raw is None:
            # Pre-epoch announcer: synthesize "arrived at sender just now",
            # which preserves the classic always-drop behavior.
            epoch: RoamEpoch = (self.simulator.now, sender)
        else:
            epoch = (float(raw[0]), str(raw[1]))
        known = self._roam_epochs.get(node_id)
        recorder = _telemetry.get_recorder()
        if known is not None and epoch <= known:
            recorder.count("midas.roam.stale_ignored", node=self.node_id)
            return
        self._roam_epochs[node_id] = epoch
        if node_id in self._by_node:
            logger.debug(
                "%s: node %s roamed to %s; dropping leases",
                self.node_id,
                node_id,
                epoch[1],
            )
            recorder.event(
                "midas.roam.dropped",
                node=self.node_id,
                roamed=node_id,
                peer=epoch[1],
            )
            self._drop_node(node_id, action="roamed", detail=f"now at {epoch[1]}")
        else:
            recorder.event(
                "midas.roam.recorded",
                node=self.node_id,
                roamed=node_id,
                peer=epoch[1],
            )

    # -- anti-entropy reconciliation ----------------------------------------------

    def _roam_digest(self) -> dict[str, list]:
        """Our adapted-node set, each with the newest arrival epoch we know.

        A node adapted without any recorded epoch (pre-epoch state, or
        state rebuilt after a crash wiped the epochs) claims ``(0.0,
        self)`` — the weakest possible claim, losing to any real arrival.
        """
        digest: dict[str, list] = {}
        for (node, _name) in self._adapted:
            if node not in digest:
                epoch = self._roam_epochs.get(node, (0.0, self.node_id))
                digest[node] = [epoch[0], epoch[1]]
        return digest

    def _roam_sync_tick(self) -> None:
        digest = self._roam_digest()
        for peer in self._peer_bases:
            self._send_roam_sync(peer, digest)

    def _send_roam_sync(self, peer: str, digest: dict[str, list]) -> None:
        recorder = _telemetry.get_recorder()
        recorder.count("midas.roam.sync_sent", node=self.node_id, peer=peer)

        def on_reply(body: dict) -> None:
            conflicts = (body or {}).get("conflicts") or {}
            for node_id, raw in conflicts.items():
                self._learn_roam(node_id, (float(raw[0]), str(raw[1])))

        def on_error(error: Exception) -> None:
            recorder.count("midas.roam.sync_failed", node=self.node_id, peer=peer)

        self._request(peer, ROAM_SYNC, {"adapted": digest}, on_reply, on_error)

    def _serve_roam_sync(self, sender: str, body: dict) -> dict:
        """Anti-entropy exchange: merge the peer's claims, return ours.

        The peer sends the nodes it currently hosts, each with its roam
        epoch.  Claims newer than our knowledge are learned (dropping our
        leases where we host the same node — it provably moved); claims
        *older* than our knowledge are returned as conflicts so the peer
        drops its side.  Served inline: this is control-plane metadata and
        the reply must reflect current knowledge, not a queued snapshot.
        """
        conflicts: dict[str, list] = {}
        for node_id, raw in (body.get("adapted") or {}).items():
            epoch = (float(raw[0]), str(raw[1]))
            known = self._roam_epochs.get(node_id)
            if known is not None and known > epoch:
                conflicts[node_id] = [known[0], known[1]]
                continue
            self._learn_roam(node_id, epoch)
        return {"conflicts": conflicts}

    def _learn_roam(self, node_id: str, epoch: RoamEpoch) -> None:
        """Adopt a newer roam epoch learned via anti-entropy."""
        known = self._roam_epochs.get(node_id)
        if known is not None and epoch <= known:
            return
        self._roam_epochs[node_id] = epoch
        if epoch[1] != self.node_id and node_id in self._by_node:
            recorder = _telemetry.get_recorder()
            recorder.count("midas.roam.reconciled", node=self.node_id)
            recorder.event(
                "midas.roam.reconciled",
                node=self.node_id,
                roamed=node_id,
                peer=epoch[1],
            )
            self._drop_node(
                node_id, action="roamed", detail=f"reconciled to {epoch[1]}"
            )

    # -- queries ----------------------------------------------------------------------------------

    def adapted_nodes(self) -> list[str]:
        """Node ids currently holding at least one extension from this base."""
        return sorted(self._by_node)

    def extensions_on(self, node_id: str) -> list[str]:
        """Names of this base's extensions live on ``node_id``."""
        return sorted(self._by_node.get(node_id, ()))

    def activity_for(self, node_id: str) -> list[AdaptationRecord]:
        """Activity-log entries concerning ``node_id``."""
        return [record for record in self.activity_log if record.node_id == node_id]

    # -- keep-alive plumbing -------------------------------------------------------------------------

    def _send_keepalive(
        self,
        tracked: TrackedLease,
        on_success: Callable[[], None],
        on_failure: Callable[[Exception], None],
    ) -> None:
        # Shedding a keepalive looks like any other send failure to the
        # renewal agent: it backs off and retries within the silence
        # budget, so a transient overload does not abandon leases.
        self._submit(
            tracked.peer,
            "renew",
            lambda: self._do_keepalive(tracked, on_success, on_failure),
            on_shed=on_failure,
        )

    def _do_keepalive(
        self,
        tracked: TrackedLease,
        on_success: Callable[[], None],
        on_failure: Callable[[Exception], None],
    ) -> None:
        live = self._adapted.get((tracked.context, tracked.resource))
        span = _telemetry.get_recorder().start_span(
            "midas.keepalive",
            parent=live.trace if live is not None else None,
            node=self.node_id,
            target=tracked.peer,
            extension=tracked.resource,
        )

        def on_reply(body: dict) -> None:
            if tracked.lease_id in body.get("renewed", ()):
                span.end()
                on_success()
            else:
                # The node answered but no longer holds the lease — it
                # withdrew the extension (expiry during a lossy spell) or
                # crashed and lost everything.  No number of keepalives
                # can revive a dead lease: abandon now, so the reconciler
                # re-offers on its next pass instead of lease-terms later.
                span.end(status="error", error="lease unknown at peer")
                self._renewer.abandon(tracked.lease_id)

        def on_error(error: Exception) -> None:
            span.end(status="error", error=str(error))
            on_failure(error)

        with span.activate():
            self.transport.request(
                tracked.peer,
                KEEPALIVE,
                {"lease_ids": [tracked.lease_id]},
                on_reply=on_reply,
                on_error=on_error,
            )

    def _renewal_abandoned(self, tracked: TrackedLease) -> None:
        node_id: str = tracked.context
        name: str = tracked.resource
        self._pop_adapted(node_id, name)
        self._log(node_id, name, "renewed-lost", "keepalive failures")
        if node_id not in self._by_node:
            self.on_node_lost.fire(node_id)

    def _drop_node(self, node_id: str, action: str, detail: str) -> None:
        names = self._by_node.pop(node_id, None)
        if names is None:
            return
        for name, live in names.items():
            del self._adapted[(node_id, name)]
            self._renewer.forget(live.lease_id)
            self._log(node_id, name, action, detail)
        self.on_node_lost.fire(node_id)

    # -- the adaptation map -------------------------------------------------------------------------

    def _put_adapted(self, live: _Adapted) -> None:
        """Record ``live`` in ``_adapted`` and the per-node index."""
        self._adapted[(live.node_id, live.name)] = live
        names = self._by_node.get(live.node_id)
        if names is None:
            names = self._by_node[live.node_id] = {}
        names[live.name] = live

    def _pop_adapted(self, node_id: str, name: str) -> _Adapted | None:
        """Remove one adaptation from ``_adapted`` and the per-node index."""
        live = self._adapted.pop((node_id, name), None)
        if live is not None:
            names = self._by_node[node_id]
            del names[name]
            if not names:
                del self._by_node[node_id]
        return live

    def _log(self, node_id: str, extension: str, action: str, detail: str = "") -> None:
        self.activity_log.append(
            AdaptationRecord(self.simulator.now, node_id, extension, action, detail)
        )

    def __repr__(self) -> str:
        return (
            f"<ExtensionBase {self.node_id} catalog={self.catalog.names()} "
            f"adapted={self.adapted_nodes()}>"
        )
