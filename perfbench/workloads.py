"""The four benchmark workloads.

Each workload builds its world from a seed (``setup``), drives it
(``run``) and returns a :class:`Rep`: the work it completed, host time
per operation, a digest of its output, and its attempted/failed
operation counts.  The program under test receives only the generated
inputs; all timing happens here, outside it.

Why these four: each stresses a different set of layers, so a change to
one layer has a workload that exercises it and one that bypasses it.

- ``roam-storm``: federated roaming storm over protocol-stub nodes.
  Small control messages through ``sim``/``net``/``midas.base``/
  ``discovery``/``leasing``/``telemetry``/``scenarios``; no weaving.
- ``app-hooks``: the SPECjvm-like suite on pristine, PROSE-activated
  and one-aspect-advised classes, interleaved in one process.  Only
  ``aop`` dispatch differs between the modes; no network, no kernel.
- ``adapt-churn``: real mobile nodes bouncing between two halls whose
  policies bundle real extensions.  The write side of ``aop`` (insert,
  withdraw), the MIDAS receiver, envelopes, trust, vetting, and large
  envelope payloads through ``net``.
- ``fleet-lifecycle``: the 100k-leaf fleet lifecycle (distribute,
  steady epochs, withdraw, drain).  The only workload that runs
  ``fleet``; about a third of its host time is set-up.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib.util
import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import repro.workloads.kernels as _kernels
from repro.aop import Aspect, MethodCut, ProseVM, before
from repro.core.environment import ProactiveEnvironment
from repro.core.platform import ProactivePlatform
from repro.extensions import (
    AccessControl,
    AdHocTransactions,
    Billing,
    CallLogging,
    OrthogonalPersistence,
)
from repro.fleet import FleetBuilder
from repro.midas.receiver import OFFER
from repro.net.geometry import Position, Region
from repro.scenarios import roaming_storm
from repro.scenarios.harness import report_from
from repro.scenarios.storms import StormWorld
from repro.workloads.suite import WorkloadSuite

from hostspeed import Interval, Yardstick

#: Seed of the reference repetition whose digest is pinned in
#: ``pinned.json`` (the X1/X3 experiments use the same seed).
REFERENCE_SEED = 7


@dataclass
class Rep:
    """One repetition: set up a world from a seed, then drive it.

    Timed intervals are ``(start, host seconds)`` on ``perf_counter``.
    """

    #: Units of completed work (messages, iterations, installs, leaf ops).
    work: int = 0
    #: Every timed operation.
    ops: list[Interval] = field(default_factory=list)
    #: The timed parts of the drive that ``work`` was done in.
    segments: list[Interval] = field(default_factory=list)
    #: Digest of the output, including simulated-time results.
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    #: Wrong outputs found by the workload's own checks.
    problems: list[str] = field(default_factory=list)
    #: Deterministic results and derived figures, for the report.
    info: dict[str, Any] = field(default_factory=dict)
    #: Set by :func:`run_rep`: set-up interval, yardstick probes, and
    #: host seconds of set-up plus drive (probes excluded).
    setup: Interval = (0.0, 0.0)
    probes: list[Interval] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.setup[1]

    @property
    def busy_s(self) -> float:
        return sum(seconds for _start, seconds in self.segments)


def digest_of(value: Any) -> str:
    payload = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_copies = itertools.count()


def kernel_copy() -> Any:
    """A fresh copy of the workload-kernel module.

    ``ProseVM.load_class`` rewrites a class in place, so one class can
    serve only one VM per process; every VM gets its own classes.
    """
    spec = importlib.util.spec_from_file_location(
        f"perfbench_kernels_{next(_copies)}", _kernels.__file__
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    """Builds a world from a seed and drives it."""

    name = ""
    #: What ``work_per_s`` counts, and what one timed operation is.
    work_unit = ""
    op_name = ""

    def setup(self, seed: int, tracer: Any = None) -> Any:
        raise NotImplementedError

    def run(self, world: Any, pace: Yardstick) -> Rep:
        """Drive the world, calling ``pace.pace()`` between operations."""
        raise NotImplementedError

    def teardown(self, world: Any) -> None:
        """Release a world that was built but never run."""


# -- roam-storm -----------------------------------------------------------------


class RoamStorm(Workload):
    """``roaming_storm(bases=3)``: 40% of ROAMED announcements dropped,
    telemetry and the health plane on, as ``run_storm`` runs it.

    The storm is driven in slices of :data:`SLICE` simulated seconds;
    one operation is the host time to advance the world one slice.
    """

    name = "roam-storm"
    work_unit = "msg"
    op_name = "slice"
    NODES = 200
    BASES = 3
    SLICE = 0.1

    def setup(self, seed: int, tracer: Any = None) -> StormWorld:
        return StormWorld(roaming_storm(nodes=self.NODES, bases=self.BASES, seed=seed))

    def teardown(self, world: StormWorld) -> None:
        world.close()

    def run(self, world: StormWorld, pace: Yardstick) -> Rep:
        spec = world.spec
        simulator = world.simulator
        steps = round(spec.total_time / self.SLICE)
        ops = []
        try:
            for step in range(1, steps + 1):
                until = spec.total_time if step == steps else step * self.SLICE
                began = perf_counter()
                simulator.run(until=until)
                ops.append((began, perf_counter() - began))
                pace.pace()
            # The same closing readings run_storm takes.
            began = perf_counter()
            world.monitor.tick()
            if world.health is not None:
                world.health.tick()
            report = report_from(world)
            closing = (began, perf_counter() - began)
        finally:
            world.close()
        violating = {v.subject for v in report.violations}
        return Rep(
            work=report.network["delivered"],
            ops=ops,
            segments=ops + [closing],
            digest=report.fingerprint,
            attempted=spec.nodes,
            failed=len(violating),
            info={
                "delivered": report.network["delivered"],
                "last_dual_at": report.last_dual_at,
                "violations": len(report.violations),
                "violating_nodes": sorted(violating),
                "migrations": report.stats["migrations"],
            },
        )


# -- app-hooks --------------------------------------------------------------------


class DbProbe(Aspect):
    """The one fixed aspect of the advised mode: a do-nothing before
    advice on every ``DbKernel`` method (one kernel's join points)."""

    @before(MethodCut(type="DbKernel", method="*"))
    def touch(self, ctx: Any) -> None:
        pass


class AppHooks(Workload):
    """The ``WorkloadSuite`` in three interleaved modes in one process.

    pristine: uninstrumented classes; hooked: loaded into a ProseVM, no
    advice (the paper's 7% case); advised: loaded, with :class:`DbProbe`
    inserted.  Each repetition builds all three, then runs
    :data:`BLOCKS` blocks of :data:`ITERATIONS` iterations per mode,
    rotating the mode order per block.  One operation is one suite
    iteration on the hooked classes.
    """

    name = "app-hooks"
    work_unit = "iteration"
    op_name = "iteration"
    MODES = ("pristine", "hooked", "advised")
    SUITE = {"compress_size": 256, "db_rows": 100, "rays": 25}
    BLOCKS = 6
    ITERATIONS = 10

    def setup(self, seed: int, tracer: Any = None) -> dict[str, Any]:
        compress_seed = seed % 251 + 1
        reference = self._suite(_kernels, compress_seed)
        world: dict[str, Any] = {
            "expected": reference.run_once(), "compress_seed": compress_seed, "suites": {},
        }
        for mode in self.MODES:
            kernels = kernel_copy()
            if mode != "pristine":
                vm = ProseVM(name=f"app-hooks-{mode}")
                for cls in kernels.workload_classes():
                    vm.load_class(cls)
                if mode == "advised":
                    vm.insert(DbProbe())
            suite = self._suite(kernels, compress_seed)
            if tracer is not None:
                # A span costs more than a hook, so spans sit around whole
                # iterations; see layers.split_dispatch for the aop share.
                suite.run_once = tracer.span("workloads", f"app-hooks.{mode}", suite.run_once)
            world["suites"][mode] = suite
        return world

    def joinpoints_per_iteration(self, compress_seed: int) -> tuple[int, int]:
        """Join points one iteration executes: (all hooked, advised ones).

        Counted with a profile hook over the stubs ``load_class`` planted
        (method stubs and the woven ``__setattr__``), outside any timing.
        """
        kernels = kernel_copy()
        vm = ProseVM(name="app-hooks-count")
        stubs: dict[Any, str] = {}
        for cls in kernels.workload_classes():
            vm.load_class(cls)
            for name, value in cls.__dict__.items():
                if hasattr(value, "__prose_table__") or hasattr(value, "__prose_field_table__"):
                    stubs[value.__code__] = cls.__name__
        suite = self._suite(kernels, compress_seed)
        seen: Counter[str] = Counter()

        def profile(frame: Any, event: str, _arg: Any) -> None:
            if event == "call" and frame.f_code in stubs:
                seen[stubs[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            suite.run_once()
        finally:
            sys.setprofile(None)
        return sum(seen.values()), seen["DbKernel"]

    def _suite(self, kernels: Any, compress_seed: int) -> WorkloadSuite:
        suite = WorkloadSuite(**self.SUITE)
        suite.compress = kernels.CompressKernel(
            size=self.SUITE["compress_size"], seed=compress_seed
        )
        suite.db = kernels.DbKernel(rows=self.SUITE["db_rows"])
        suite.ray = kernels.RayKernel(rays=self.SUITE["rays"])
        return suite

    def run(self, world: dict[str, Any], pace: Yardstick) -> Rep:
        expected = world["expected"]
        runs: dict[str, list[Interval]] = {mode: [] for mode in self.MODES}
        wrong = dict.fromkeys(self.MODES, 0)
        for block in range(self.BLOCKS):
            shift = block % len(self.MODES)
            for mode in self.MODES[shift:] + self.MODES[:shift]:
                suite = world["suites"][mode]
                intervals = runs[mode]
                for _ in range(self.ITERATIONS):
                    began = perf_counter()
                    witness = suite.run_once()
                    intervals.append((began, perf_counter() - began))
                    if witness != expected:
                        wrong[mode] += 1
                    pace.pace()
        times = {mode: [seconds for _start, seconds in runs[mode]] for mode in self.MODES}
        pristine = sum(times["pristine"])
        iterations = self.BLOCKS * self.ITERATIONS
        return Rep(
            work=len(runs["hooked"]),
            ops=runs["hooked"],
            segments=runs["hooked"],
            digest=digest_of({"witness": expected, "iterations": iterations}),
            attempted=iterations * len(self.MODES),
            failed=sum(wrong.values()),
            problems=[
                f"{mode}: {count} wrong witnesses" for mode, count in wrong.items() if count
            ],
            info={
                "witness": expected,
                "compress_seed": world["compress_seed"],
                "iterations_per_mode": iterations,
                "pristine_ms": pristine / iterations * 1e3,
                "hooked_ms": sum(times["hooked"]) / iterations * 1e3,
                "advised_ms": sum(times["advised"]) / iterations * 1e3,
                "app_slowdown": sum(times["hooked"]) / pristine,
                "advised_slowdown": sum(times["advised"]) / pristine,
            },
        )


# -- adapt-churn --------------------------------------------------------------------


class AdaptChurn(Workload):
    """Mobile nodes bouncing between two adjacent halls.

    Hall A's policy: access control (which REQUIRES session management,
    inserted implicitly), call logging and orthogonal persistence.  Hall
    B's: billing (also REQUIRES session management) and ad-hoc
    transactions.  Extensions are published through the vetting gate,
    so every envelope ships a signed vet report.  Leases are short, so a
    node that walks out withdraws.  Each node loads its own copies of
    the workload classes.  One operation is one ``midas.offer`` served
    by a node: open, verify, vet, transactional install and reply.
    """

    name = "adapt-churn"
    work_unit = "install"
    op_name = "offer"
    NODES = 40
    HORIZON = 150.0
    LEASE = 10.0
    SPEED = 6.0
    DWELL = (8.0, 16.0)
    HALLS = (Region(0, 0, 40, 40, name="A"), Region(60, 0, 100, 40, name="B"))

    def setup(self, seed: int, tracer: Any = None) -> dict[str, Any]:
        platform = ProactivePlatform(seed=seed, lease_duration=self.LEASE)
        env = ProactiveEnvironment(platform)
        hall_a = env.add_hall(self.HALLS[0])
        hall_b = env.add_hall(self.HALLS[1])
        for hall, policy in (
            (hall_a, {
                "access-control": lambda: AccessControl(allowed=("base.A",)),
                "call-logging": lambda: CallLogging(type_pattern="DbKernel"),
                "persistence": lambda: OrthogonalPersistence(type_pattern="Vec3"),
            }),
            (hall_b, {
                "billing": lambda: Billing({"*": 0.01}),
                "transactions": lambda: AdHocTransactions(method_type_pattern="DbKernel"),
            }),
        ):
            for name, factory in policy.items():
                hall.station.catalog.publish(name, factory)

        rng = random.Random(f"adapt-churn:{seed}")
        world: dict[str, Any] = {
            "platform": platform, "log": [], "offers": [], "adapted": 0, "rejected": 0,
        }

        def spot(region: Region) -> Position:
            return Position(
                rng.uniform(region.min_x + 5, region.max_x - 5),
                rng.uniform(region.min_y + 5, region.max_y - 5),
            )

        for index in range(self.NODES):
            hall = rng.randrange(len(self.HALLS))
            node = platform.create_mobile_node(f"node-{index:03d}", spot(self.HALLS[hall]))
            node.mobility.speed = self.SPEED
            for cls in kernel_copy().workload_classes():
                node.load_class(cls)
            self._time_offers(node, world["offers"])
            self._log_lifecycle(node, platform, world["log"])
            moves_at = rng.uniform(*self.DWELL)
            while moves_at < self.HORIZON:
                hall = 1 - hall
                platform.simulator.schedule_at(moves_at, node.walk_to, spot(self.HALLS[hall]))
                moves_at += rng.uniform(*self.DWELL) + 50.0 / self.SPEED

        def adapted(_node: str, _name: str) -> None:
            world["adapted"] += 1

        def rejected(_node: str, _name: str, _error: str) -> None:
            world["rejected"] += 1

        for station in platform.base_stations.values():
            station.extension_base.on_adapted.connect(adapted)
            station.extension_base.on_rejected.connect(rejected)
        return world

    @staticmethod
    def _time_offers(node: Any, offers: list[Interval]) -> None:
        """Time the node's registered ``midas.offer`` handler."""
        serve = node.transport._handlers[OFFER]

        @functools.wraps(serve)
        def timed(sender: str, body: Any) -> Any:
            began = perf_counter()
            try:
                return serve(sender, body)
            finally:
                offers.append((began, perf_counter() - began))

        node.transport.register(OFFER, timed)

    @staticmethod
    def _log_lifecycle(node: Any, platform: ProactivePlatform, log: list) -> None:
        node_id = node.node_id
        node.adaptation.on_installed.connect(
            lambda installed: log.append((round(platform.now, 6), node_id, "+", installed.name, ""))
        )
        node.adaptation.on_withdrawn.connect(
            lambda installed, reason: log.append(
                (round(platform.now, 6), node_id, "-", installed.name, reason)
            )
        )

    def run(self, world: dict[str, Any], pace: Yardstick) -> Rep:
        simulator = world["platform"].simulator
        slices = []
        for second in range(1, int(self.HORIZON) + 1):
            began = perf_counter()
            simulator.run(until=float(second))
            slices.append((began, perf_counter() - began))
            pace.pace()
        log = world["log"]
        installs = sum(1 for entry in log if entry[2] == "+")
        withdrawals = len(log) - installs
        attempted = world["adapted"] + world["rejected"]
        return Rep(
            work=installs,
            ops=list(world["offers"]),
            segments=slices,
            digest=digest_of({"log": log, "adapted": world["adapted"], "rejected": world["rejected"]}),
            attempted=attempted,
            failed=world["rejected"],
            problems=[] if installs else ["no extension was ever installed"],
            info={
                "offers_served": len(world["offers"]),
                "installs": installs,
                "withdrawals": withdrawals,
                "first_install_at": log[0][0] if log else None,
            },
        )


# -- fleet-lifecycle ------------------------------------------------------------------


class FleetLifecycle(Workload):
    """The X1 lifecycle: distribute, steady epochs, withdraw, drain.

    One operation is one renewal round: :data:`ROUND` one-second epochs,
    the builder's default renewal interval, so every round holds one
    sweep of every region (the first also the distribution, the last the
    withdrawal).
    """

    name = "fleet-lifecycle"
    work_unit = "leaf op"
    op_name = "round"
    LEAVES = 100_000
    SHARDS = 4
    STEADY = 60
    DRAIN = 5
    ROUND = 5

    def setup(self, seed: int, tracer: Any = None) -> Any:
        return FleetBuilder(leaves=self.LEAVES, shards=self.SHARDS, seed=seed).build()

    def run(self, fleet: Any, pace: Yardstick) -> Rep:
        ops, sends = [], []
        began = perf_counter()
        fleet.distribute("fleet-policy")
        sends.append((began, perf_counter() - began))
        for phase_epochs, withdraw in ((self.STEADY, True), (self.DRAIN, False)):
            for _ in range(phase_epochs // self.ROUND):
                began = perf_counter()
                fleet.run_epochs(self.ROUND)
                ops.append((began, perf_counter() - began))
                pace.pace()
            if withdraw:
                began = perf_counter()
                fleet.withdraw("fleet-policy")
                sends.append((began, perf_counter() - began))
        stats = fleet.stats()
        population = stats["population"]
        problems = []
        if population["idle"] or population["offered"] or population["installed"]:
            problems.append(f"leaves left mid-lifecycle: {population}")
        if population["revoked"] + population["expired"] != stats["leaves"]:
            problems.append("revoked + expired does not cover every leaf")
        if stats["envelopes_verified"] != stats["registrars"]:
            problems.append("envelope verifications differ from registrar count")
        if stats["head_leases"] != stats["heads"]:
            problems.append("head leases differ from head count")
        return Rep(
            work=stats["leaf_ops"],
            ops=ops,
            segments=ops + sends,
            digest=fleet.fingerprint(),
            attempted=fleet.offers_sent + fleet.revokes_sent,
            failed=fleet.send_errors,
            problems=problems,
            info={
                "leaf_ops": stats["leaf_ops"],
                "handoffs": stats["handoffs"],
                "epochs": stats["epochs"],
                "kernel_events": stats["kernel_events"],
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (RoamStorm(), AppHooks(), AdaptChurn(), FleetLifecycle())
}


def outcome(reps: list[Rep], problems: list[str]) -> tuple[int, int]:
    """A run's attempted and failed operations: those of one replay.

    Every repetition replays the same seed, so its operations are the
    same operations again; counting them once per repetition would make
    the totals depend on how many repetitions the host's speed allowed.
    The counts of the first repetition are reported, and every other
    repetition must reproduce them.
    """
    counts = {(rep.attempted, rep.failed) for rep in reps}
    if len(counts) != 1:
        problems.append(f"repetitions disagree on (attempted, failed): {sorted(counts)}")
    return reps[0].attempted, reps[0].failed


def run_rep(workload: Any, seed: int, tracer: Any = None) -> Rep:
    """Set up and drive one repetition, timing the set-up.

    Garbage of earlier repetitions is collected first, outside the
    timing, so no repetition pays for another's cycles and peak RSS
    holds one world at a time.
    """
    gc.collect()
    pace = Yardstick()
    pace.probe(3)
    probed = pace.spent
    began = perf_counter()
    world = workload.setup(seed, tracer)
    setup = (began, perf_counter() - began)
    pace.probe(3)
    rep = workload.run(world, pace)
    rep.wall_s = perf_counter() - began - (pace.spent - probed)
    pace.probe(3)
    rep.setup = setup
    rep.probes = pace.probes
    return rep
