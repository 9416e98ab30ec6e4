"""Compact fleet state and the builder that wires a whole fleet up.

At 100k nodes, one Python object per leaf (a Transport, a lease table
entry, a renewal agent) is two orders of magnitude too heavy.  The fleet
stores leaves as *rows in parallel arrays* — struct-of-arrays, a byte of
state, two ints and two doubles per leaf — appended one cluster head's
slice at a time.  A leaf is its row index; no per-leaf name or object
exists.

:class:`FleetBuilder` assembles the full stack:

- a :class:`~repro.core.platform.ProactivePlatform` whose base station
  runs the accept-queue pipeline and *batched* lease sweeps,
- a :class:`~repro.fleet.regions.ShardedKernel` whose region 0 **is**
  the platform simulator (base, transport and pipeline events share
  shard 0 unmodified),
- the :class:`~repro.fleet.tree.TreePlan` registrar/cluster-head tree,
  one leaf region per registrar,
- per-region sweep loops that renew/expire leaf rows in bulk and hand
  one aggregate report per sweep uptree.

Everything is seeded; :meth:`Fleet.fingerprint` digests the per-region
logs and final population so determinism is a hash comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from array import array
from itertools import repeat
from typing import Any

from repro.aop.aspect import Aspect
from repro.core.platform import BaseStation, ProactivePlatform
from repro.errors import SimulationError
from repro.fleet.regions import ShardedKernel
from repro.fleet.tree import (
    FLEET_OFFER,
    FLEET_REVOKE,
    ClusterHead,
    ClusterRegistrar,
    TreePlan,
)
from repro.midas.pipeline import PipelineConfig
from repro.midas.trust import TrustStore
from repro.net.geometry import Position
from repro.net.node import NetworkNode
from repro.net.transport import Transport
from repro.telemetry.health import (
    CounterRatioSLI,
    HealthPlane,
    RollupRule,
    SLO,
    scaled_pairs,
)

__all__ = [
    "FleetPolicyAspect",
    "FleetPopulation",
    "Fleet",
    "FleetBuilder",
    "fleet_health_plane",
    "IDLE",
    "OFFERED",
    "INSTALLED",
    "REVOKED",
    "EXPIRED",
    "STATE_NAMES",
]

#: Leaf lifecycle states (one byte per leaf in the state array).
IDLE, OFFERED, INSTALLED, REVOKED, EXPIRED = range(5)
STATE_NAMES = ("idle", "offered", "installed", "revoked", "expired")


class FleetPopulation:
    """Array-backed leaf state: a byte of lifecycle + doubles of timing.

    All bulk operations work on contiguous ``[start, stop)`` ranges (a
    cluster head's slice) so the hot loops are flat array scans.  State
    counts are maintained incrementally — :meth:`counts` never scans.
    """

    __slots__ = (
        "state",
        "region",
        "head",
        "expires_at",
        "renew_until",
        "installs",
        "renewals",
        "expiries",
        "revocations",
        "_state_counts",
    )

    def __init__(self):
        self.state = array("b")
        self.region = array("l")
        self.head = array("l")
        #: Virtual instant the leaf's current lease lapses (INSTALLED only).
        self.expires_at = array("d")
        #: The leaf keeps renewing until this instant, then churns out.
        self.renew_until = array("d")
        # Cumulative lifecycle accounting.
        self.installs = 0
        self.renewals = 0
        self.expiries = 0
        self.revocations = 0
        self._state_counts = [0, 0, 0, 0, 0]

    def add_leaves(self, region: int, head: int, renew_until: array) -> None:
        """Append one cluster head's slice of IDLE leaves.

        The slice holds ``len(renew_until)`` leaves, with those churn
        deadlines in order; each column grows by one C-level extend.
        """
        count = len(renew_until)
        self.state.frombytes(bytes(count))  # IDLE == 0
        self.region.extend(repeat(region, count))
        self.head.extend(repeat(head, count))
        self.expires_at.extend(repeat(0.0, count))
        self.renew_until.extend(renew_until)
        self._state_counts[IDLE] += count

    def __len__(self) -> int:
        return len(self.state)

    def state_of(self, index: int) -> int:
        return self.state[index]

    def counts(self) -> dict[str, int]:
        """Leaves per lifecycle state (O(1) — incrementally maintained)."""
        return dict(zip(STATE_NAMES, self._state_counts))

    # -- bulk range operations (the hot paths) ------------------------------------

    def offer_range(self, start: int, stop: int) -> int:
        """Mark IDLE leaves in the range OFFERED; returns how many."""
        state, counts = self.state, self._state_counts
        offered = 0
        for i in range(start, stop):
            if state[i] == IDLE:
                state[i] = OFFERED
                offered += 1
        counts[IDLE] -= offered
        counts[OFFERED] += offered
        return offered

    def install_range(self, start: int, stop: int, now: float, duration: float) -> int:
        """OFFERED → INSTALLED with a fresh lease term; returns how many."""
        state, expires = self.state, self.expires_at
        counts = self._state_counts
        installed = 0
        term = now + duration
        for i in range(start, stop):
            if state[i] == OFFERED:
                state[i] = INSTALLED
                expires[i] = term
                installed += 1
        counts[OFFERED] -= installed
        counts[INSTALLED] += installed
        self.installs += installed
        return installed

    def sweep_range(
        self, start: int, stop: int, now: float, duration: float
    ) -> tuple[int, int]:
        """One renewal/expiry pass over a cluster's slice.

        INSTALLED leaves whose term already lapsed go EXPIRED; the rest
        renew (term := now + duration) while their ``renew_until`` churn
        deadline has not passed.  Returns ``(renewed, expired)``.
        """
        state, expires, until = self.state, self.expires_at, self.renew_until
        counts = self._state_counts
        renewed = expired = 0
        term = now + duration
        for i in range(start, stop):
            if state[i] != INSTALLED:
                continue
            if expires[i] <= now:
                state[i] = EXPIRED
                expired += 1
            elif until[i] > now:
                expires[i] = term
                renewed += 1
        counts[INSTALLED] -= expired
        counts[EXPIRED] += expired
        self.renewals += renewed
        self.expiries += expired
        return renewed, expired

    def revoke_range(self, start: int, stop: int) -> int:
        """OFFERED/INSTALLED → REVOKED (base withdrew the extension)."""
        state, counts = self.state, self._state_counts
        revoked = 0
        for i in range(start, stop):
            if state[i] == OFFERED or state[i] == INSTALLED:
                counts[state[i]] -= 1
                state[i] = REVOKED
                revoked += 1
        counts[REVOKED] += revoked
        self.revocations += revoked
        return revoked

    def __repr__(self) -> str:
        return f"<FleetPopulation {len(self)} leaves {self.counts()}>"


class FleetPolicyAspect(Aspect):
    """The (deliberately inert) extension a fleet distributes.

    Fleet benchmarks measure the *platform* — signing, verification,
    distribution, leasing — not advice execution, so the payload carries
    configuration but declares no advice.  Module-level so envelopes can
    pickle it.
    """

    def __init__(self, policy: str = "fleet-default"):
        super().__init__()
        self.policy = policy


def fleet_health_plane(renew_interval: float) -> HealthPlane:
    """A *detached* health plane sized to the fleet's sweep cadence.

    Fleet runs install no process-global recorder (100k nodes would
    swamp one), so the plane is fed explicit timestamps straight from
    :meth:`Fleet._sweep_region` — renewed leaves are good events,
    expired leaves are bad ones.  Steady churn stays far below the 10%
    error budget; a broken renewal path (mass expiry) burns it fast.
    """
    pairs = scaled_pairs(40.0 * renew_interval, floor=2.0 * renew_interval)
    plane = HealthPlane(
        slos=[
            SLO(
                name="fleet-lease-renewal",
                subsystem="fleet",
                target=0.90,
                sli=CounterRatioSLI(
                    good=("fleet.sweep.renewed",),
                    bad=("fleet.sweep.expired",),
                ),
                pairs=pairs,
                min_samples=8.0,
                description="leaf lease sweeps renew (vs expire) leaves",
            )
        ],
        rules=[
            RollupRule(
                name="sweep-rate",
                pattern="fleet.sweep.*",
                kind="rate",
                window=10.0 * renew_interval,
            )
        ],
        name="fleet-health",
    )
    plane.model.declare_subsystem("fleet")
    return plane


class Fleet:
    """A built fleet: platform + sharded kernel + registrar tree + rows.

    Use :class:`FleetBuilder` to construct one.  Driving it:

    - :meth:`distribute` pushes a catalog extension downtree through the
      base pipeline (install),
    - :meth:`run_epochs` advances every region in epoch lockstep
      (renewal sweeps, head lease batches, churn expiries),
    - :meth:`withdraw` revokes fleet-wide,
    - :meth:`fingerprint` digests the run for determinism checks.
    """

    def __init__(
        self,
        platform: ProactivePlatform,
        base: BaseStation,
        kernel: ShardedKernel,
        plan: TreePlan,
        population: FleetPopulation,
        registrars: list[ClusterRegistrar],
        heads: list[ClusterHead],
        leaf_lease_duration: float,
        renew_interval: float,
        install_latency: float,
    ):
        self.platform = platform
        self.base = base
        self.kernel = kernel
        self.plan = plan
        self.population = population
        self.registrars = registrars
        self.heads = heads
        self.leaf_lease_duration = leaf_lease_duration
        self.renew_interval = renew_interval
        self.install_latency = install_latency
        #: Per-region append-only activity logs (region-local times);
        #: the raw material of :meth:`fingerprint`.
        self.region_logs: list[list[tuple[Any, ...]]] = [
            [] for _ in range(plan.regions)
        ]
        self._heads_by_region: dict[int, list[ClusterHead]] = {}
        for head in heads:
            self._heads_by_region.setdefault(head.region, []).append(head)
        #: Distribution accounting on the base side.
        self.offers_sent = 0
        self.offers_acked = 0
        self.revokes_sent = 0
        #: Registrar requests that timed out or faulted (never part of
        #: :meth:`fingerprint`; surfaced by :meth:`stats`).
        self.send_errors = 0
        #: Detached health plane (set by the builder); fed from sweeps.
        #: Never part of :meth:`fingerprint` — judgment, not observation.
        self.health: HealthPlane | None = None
        for region in range(1, plan.regions):
            kernel.schedule(region, renew_interval, self._sweep_region, region)

    # -- driving -----------------------------------------------------------------

    def distribute(self, name: str) -> None:
        """Offer catalog extension ``name`` to every registrar subtree.

        One sealed envelope, one pipeline job + one transport request per
        registrar; each registrar verifies once and fans out to its heads
        as epoch handoffs.
        """
        envelope = self.base.catalog.seal(name)
        for registrar in self.registrars:

            def send(registrar: ClusterRegistrar = registrar) -> None:
                self.offers_sent += 1
                self.base.transport.request(
                    registrar.node_id,
                    FLEET_OFFER,
                    {"envelope": envelope},
                    on_reply=lambda body: self._offer_acked(),
                    on_error=lambda exc: self._send_failed(),
                )

            self._submit(registrar.node_id, "fleet.offer", send)

    def withdraw(self, name: str) -> None:
        """Revoke extension ``name`` across the whole fleet."""
        for registrar in self.registrars:

            def send(registrar: ClusterRegistrar = registrar) -> None:
                self.revokes_sent += 1
                self.base.transport.request(
                    registrar.node_id,
                    FLEET_REVOKE,
                    {"name": name},
                    on_error=lambda exc: self._send_failed(),
                )

            self._submit(registrar.node_id, "fleet.revoke", send)

    def run_epochs(self, count: int) -> int:
        """Advance the whole fleet ``count`` epochs; returns events run."""
        return self.kernel.run_epochs(count)

    def run_until(self, deadline: float) -> int:
        return self.kernel.run_until(deadline)

    def _submit(self, key: str, kind: str, fn) -> None:
        pipeline = self.base.extension_base.pipeline
        if pipeline is None:
            fn()
        else:
            pipeline.submit(key, kind, fn)

    def _offer_acked(self) -> None:
        self.offers_acked += 1

    def _send_failed(self) -> None:
        """A registrar request timed out or faulted; counted, not fatal."""
        self.send_errors += 1

    # -- region-side callbacks (run on leaf shards) --------------------------------

    def _head_offer(self, head: ClusterHead, name: str, version: int) -> None:
        sim = self.kernel.simulator(head.region)
        offered = self.population.offer_range(head.start, head.stop)
        self._log(head.region, sim.now, "offer", head.index, offered)
        sim.schedule(self.install_latency, self._head_install, head, name)

    def _head_install(self, head: ClusterHead, name: str) -> None:
        sim = self.kernel.simulator(head.region)
        installed = self.population.install_range(
            head.start, head.stop, sim.now, self.leaf_lease_duration
        )
        self._log(head.region, sim.now, "install", head.index, installed)
        if installed:
            self.kernel.handoff(
                head.region, 0,
                self.registrars[head.registrar].record_installs, installed,
            )

    def _head_revoke(self, head: ClusterHead, name: str) -> None:
        sim = self.kernel.simulator(head.region)
        revoked = self.population.revoke_range(head.start, head.stop)
        self._log(head.region, sim.now, "revoke", head.index, revoked)
        if revoked:
            self.kernel.handoff(
                head.region, 0,
                self.registrars[head.registrar].record_revocations, revoked,
            )

    def _sweep_region(self, region: int) -> None:
        sim = self.kernel.simulator(region)
        now = sim.now
        renewed = expired = 0
        for head in self._heads_by_region.get(region, ()):
            r, e = self.population.sweep_range(
                head.start, head.stop, now, self.leaf_lease_duration
            )
            renewed += r
            expired += e
        self._log(region, now, "sweep", renewed, expired)
        if self.health is not None:
            if renewed:
                self.health.ingest_count(
                    now, "fleet.sweep.renewed", float(renewed), region=str(region)
                )
            if expired:
                self.health.ingest_count(
                    now, "fleet.sweep.expired", float(expired), region=str(region)
                )
        if renewed or expired:
            self.kernel.handoff(
                region, 0,
                self.registrars[region - 1].record_leaf_activity,
                renewed, expired,
            )
        sim.schedule(self.renew_interval, self._sweep_region, region)

    def _log(self, region: int, now: float, tag: str, *fields: Any) -> None:
        self.region_logs[region].append((round(now, 9), tag) + fields)

    # -- inspection ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 over per-region logs + final population + tree stats.

        Identical for identical (seed, scenario) runs, whatever the shard
        count — the contract the determinism tests pin down.
        """
        payload = {
            "logs": self.region_logs,
            "counts": self.population.counts(),
            "lifecycle": [
                self.population.installs,
                self.population.renewals,
                self.population.expiries,
                self.population.revocations,
            ],
            "tree": [
                [
                    registrar.leaf_installs,
                    registrar.leaf_renewals,
                    registrar.leaf_expiries,
                    registrar.leaf_revocations,
                    registrar.renew_batches,
                    registrar.head_registrations,
                    registrar.envelopes_verified,
                ]
                for registrar in self.registrars
            ],
            "handoffs": self.kernel.handoffs_delivered,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def health_report(self):
        """One burn evaluation + the full verdict (None if plane disabled)."""
        if self.health is None:
            return None
        self.health.tick()
        return self.health.report()

    def region_activity(self) -> list[dict[str, Any]]:
        """Per-region sweep totals — the control tower's heatline feed."""
        out: list[dict[str, Any]] = []
        for region in range(1, self.plan.regions):
            renewed = expired = sweeps = 0
            for row in self.region_logs[region]:
                if row[1] == "sweep":
                    sweeps += 1
                    renewed += row[2]
                    expired += row[3]
            out.append(
                {
                    "region": region,
                    "sweeps": sweeps,
                    "renewed": renewed,
                    "expired": expired,
                }
            )
        return out

    def leaf_operations(self) -> int:
        """Total leaf lifecycle operations so far (install/renew/expire/revoke)."""
        population = self.population
        return (
            population.installs
            + population.renewals
            + population.expiries
            + population.revocations
        )

    def stats(self) -> dict[str, Any]:
        """One flat snapshot for benchmarks and docs."""
        return {
            "leaves": len(self.population),
            "heads": len(self.heads),
            "registrars": len(self.registrars),
            "regions": self.plan.regions,
            "shards": self.kernel.shards,
            "epochs": self.kernel.epochs,
            "kernel_events": self.kernel.events_processed,
            "handoffs": self.kernel.handoffs_delivered,
            "leaf_ops": self.leaf_operations(),
            "population": self.population.counts(),
            "head_leases": self.base.lookup.registration_count(),
            "renew_batches": sum(r.renew_batches for r in self.registrars),
            "send_errors": self.send_errors,
            "envelopes_verified": sum(
                r.envelopes_verified for r in self.registrars
            ),
            "pipeline": (
                self.base.extension_base.pipeline.stats()
                if self.base.extension_base.pipeline is not None
                else None
            ),
        }

    def __repr__(self) -> str:
        return (
            f"<Fleet leaves={len(self.population)} regions={self.plan.regions} "
            f"t={self.kernel.time:.1f}>"
        )


class FleetBuilder:
    """Builds a :class:`Fleet` from scale knobs (all defaulted sanely).

    ``churn`` leaves (fraction) stop renewing at a seeded instant within
    ``churn_horizon``, so long runs exercise expiry sweeps, not just
    steady-state renewal.
    """

    def __init__(
        self,
        leaves: int,
        leaves_per_cluster: int = 512,
        clusters_per_registrar: int = 16,
        shards: int | None = None,
        epoch: float = 1.0,
        seed: int = 7,
        leaf_lease_duration: float = 20.0,
        head_lease_duration: float = 20.0,
        renew_interval: float = 5.0,
        install_latency: float = 0.25,
        churn: float = 0.15,
        churn_horizon: float = 60.0,
        pipeline: PipelineConfig | None = None,
        workers: int = 4,
        service_time: float = 0.005,
        health: bool = True,
    ):
        if not 0.0 <= churn <= 1.0:
            raise SimulationError(f"churn must be in [0, 1], got {churn}")
        self.leaves = leaves
        self.plan = TreePlan(leaves, leaves_per_cluster, clusters_per_registrar)
        self.shards = shards
        self.epoch = epoch
        self.seed = seed
        self.leaf_lease_duration = leaf_lease_duration
        self.head_lease_duration = head_lease_duration
        self.renew_interval = renew_interval
        self.install_latency = install_latency
        self.churn = churn
        self.churn_horizon = churn_horizon
        self.pipeline = pipeline or PipelineConfig(
            workers=workers,
            dispatch="shard",
            service_time=service_time,
            seed=seed,
        )
        self.health = health

    def build(self) -> Fleet:
        """Assemble platform, kernel, tree and population; start the tree."""
        plan = self.plan
        platform = ProactivePlatform(
            seed=self.seed,
            pipeline=self.pipeline,
            # Batched sweeps at the base: one timer per lease table,
            # however many head leases the tree parks there.
            batch_interval=self.renew_interval,
        )
        base = platform.create_base_station("base")
        base.catalog.add("fleet-policy", FleetPolicyAspect)
        kernel = ShardedKernel(
            regions=plan.regions,
            epoch=self.epoch,
            shards=self.shards,
            shard0=platform.simulator,
        )

        rng = random.Random(f"fleet:{self.seed}")
        churn, horizon = self.churn, self.churn_horizon
        population = FleetPopulation()
        heads: list[ClusterHead] = []
        for index in range(plan.heads):
            start, stop = plan.leaf_range(index)
            region = plan.region_of_head(index)
            # Churn draws stay in leaf-index order: one random() per
            # leaf, then a uniform() deadline for each churner.
            renew_until = array("d", repeat(math.inf, stop - start))
            if churn:
                for offset in range(stop - start):
                    if rng.random() < churn:
                        renew_until[offset] = rng.uniform(0.0, horizon)
            population.add_leaves(region, index, renew_until)
            heads.append(
                ClusterHead(
                    index, region, index // plan.clusters_per_registrar, start, stop
                )
            )

        registrars: list[ClusterRegistrar] = []
        fleet = Fleet(
            platform,
            base,
            kernel,
            plan,
            population,
            registrars,
            heads,
            leaf_lease_duration=self.leaf_lease_duration,
            renew_interval=self.renew_interval,
            install_latency=self.install_latency,
        )
        if self.health:
            fleet.health = fleet_health_plane(self.renew_interval)
        for index in range(plan.registrars):
            start, stop = plan.head_range(index)
            angle = 2.0 * math.pi * index / plan.registrars
            node = platform.network.attach(
                NetworkNode(
                    f"registrar-{index:03d}",
                    Position(5.0 * math.cos(angle), 5.0 * math.sin(angle)),
                )
            )
            platform.network.wire("base", node.node_id)
            trust = TrustStore()
            trust.trust_signer(base.signer)
            registrar = ClusterRegistrar(
                index,
                Transport(node, platform.simulator),
                platform.simulator,
                kernel,
                trust,
                base.node_id,
                heads[start:stop],
                renew_interval=self.renew_interval,
                lease_duration=self.head_lease_duration,
                on_offer=fleet._head_offer,
                on_revoke=fleet._head_revoke,
            )
            registrar.register_heads()
            registrars.append(registrar)
        return fleet
