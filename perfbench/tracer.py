"""Per-layer host-time attribution, recorded from outside the program.

The tracer wraps calls into each package's public boundaries with
in-memory spans.  A span's *self time* is its duration minus the time
its child spans cover; summing self time by layer splits a traced wall
time into layers, and whatever ran outside every span is reported as
unattributed, so ``sum(self) + unattributed == wall`` holds exactly.

Layers are the packages of ``repro`` (``repro.sim`` -> ``sim``), with
the MIDAS base and receiver split out (``midas.base``,
``midas.receiver``) because they sit on different workloads' paths.

Boundaries are patched as **class attributes** (``Simulator.run``,
``ProseVM.insert``, ...), never as module-level names, because
``from x import f`` bindings would escape a module patch.  Two patches
reach code registered at run time:

- ``Transport.register`` wraps every protocol handler, attributed to
  the layer of the module that defines the handler;
- ``Simulator.schedule_at`` wraps every scheduled callback, so each
  fired event is a child span of the kernel's ``run`` span.

:meth:`Tracer.uninstall` puts every original attribute object back, so
untraced runs in the same process measure unwrapped code.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

from repro.aop.vm import ProseVM
from repro.fleet.population import FleetBuilder, FleetPopulation
from repro.fleet.regions import ShardedKernel
from repro.leasing.renewer import RenewalAgent
from repro.leasing.table import LeaseTable
from repro.midas import receiver as _receiver
from repro.midas.envelope import ExtensionEnvelope
from repro.midas.trust import TrustStore
from repro.net.network import Network
from repro.net.transport import Transport
from repro.scenarios.monitor import InvariantMonitor
from repro.sim.kernel import Event, Simulator
from repro.sim.timers import PeriodicTimer
from repro.telemetry.health import HealthPlane
from repro.telemetry.registry import MetricsRegistry
from repro.util.ids import IdGenerator
from repro.vetting.report import VetReport
from repro.vetting.vetter import Vetter

#: Modules that form a layer of their own inside their package.
_SPLIT_MODULES = {
    "repro.midas.base": "midas.base",
    "repro.midas.receiver": "midas.receiver",
}

#: Layer of code that is not part of ``repro`` (the benchmark's own).
BENCH = "bench"


def layer_of_module(module: str | None) -> str:
    """The layer a module belongs to."""
    if not module or not module.startswith("repro."):
        return BENCH
    if module in _SPLIT_MODULES:
        return _SPLIT_MODULES[module]
    return module.split(".")[1]


def layer_of(fn: Any) -> str:
    """The layer of a callable: its defining module's package.

    Periodic-timer ticks count for the layer of the timer's callback,
    and partials for the layer of the function they bind.
    """
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, PeriodicTimer):
        fn = owner.callback
    while isinstance(fn, functools.partial):
        fn = fn.func
    return layer_of_module(getattr(fn, "__module__", None))


class Tracer:
    """Spans around layer boundaries, kept in memory.

    Use as ``with Tracer() as tracer:`` (install, then uninstall on
    exit); run the traced region with :meth:`root`.
    """

    #: Boundaries whose every duration is kept (for medians).
    SAMPLED = ("aop.insert", "aop.withdraw", "aop.load_class", "app-hooks.pristine")

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.boundary_s: defaultdict[str, float] = defaultdict(float)
        self.boundary_calls: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()
        self.transports: dict[int, Transport] = {}
        self.networks: dict[int, Network] = {}
        # Child-time accumulators; the bottom entry collects top-level spans.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[type, str, Any, bool]] = []
        self._restored: list[tuple[type, str, Any, bool]] = []

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, boundary: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span charged to ``layer``."""
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        boundary_s, boundary_calls = self.boundary_s, self.boundary_calls
        samples = self.samples[boundary] if boundary in self.SAMPLED else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[layer] += 1
                boundary_s[boundary] += elapsed
                boundary_calls[boundary] += 1
                if samples is not None:
                    samples.append(elapsed)

        return traced

    def root(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn`` outside any span: (result, seconds its spans covered)."""
        if len(self._stack) != 1:
            raise RuntimeError("root() cannot nest inside a span")
        covered = self._stack[0]
        result = fn()
        return result, self._stack[0] - covered

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: type, name: str, make: Callable[[Callable], Callable]) -> None:
        own = name in owner.__dict__
        raw = owner.__dict__[name] if own else getattr(owner, name)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, name, raw, own))
        setattr(owner, name, replacement)

    def _spans(self, owner: type, layer: str, prefix: str, *names: str) -> None:
        for name in names:
            self._patch(
                owner, name,
                lambda fn, name=name: self.span(layer, f"{prefix}.{name}", fn),
            )

    def install(self) -> "Tracer":
        """Wrap every boundary (once; see :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._install_kernel()
        self._install_transport()
        self._spans(Network, "net", "net", "transmit")
        self._spans(ExtensionEnvelope, "midas", "midas.envelope", "open", "verify_vet_report")
        self._spans(TrustStore, "midas", "midas.trust", "verify")
        self._spans(Vetter, "vetting", "vetting", "vet_instance", "vet_class")
        self._spans(VetReport, "vetting", "vetting", "from_dict", "digest")
        self._spans(ProseVM, "aop", "aop", "insert", "withdraw", "load_class", "unload_class")
        self._spans(LeaseTable, "leasing", "leasing", "grant", "renew", "cancel", "get")
        self._spans(RenewalAgent, "leasing", "leasing.agent", "track", "forget", "abandon")
        self._spans(InvariantMonitor, "scenarios", "scenarios.monitor", "tick")
        self._spans(HealthPlane, "telemetry", "telemetry.health", "tick")
        self._spans(
            MetricsRegistry, "telemetry", "telemetry.record",
            "count", "gauge", "observe", "event", "start_span",
        )
        self._spans(IdGenerator, "util", "util.ids", "next")
        self._spans(FleetBuilder, "fleet", "fleet", "build")
        self._spans(ShardedKernel, "fleet", "fleet", "run_epoch")
        self._install_sweeps()
        self._install_counters()
        return self

    def _install_kernel(self) -> None:
        tracer = self
        callback_span = self.span

        def make_schedule_at(original: Callable) -> Callable:
            def schedule_at(sim: Simulator, when: float, fn: Callable, *args: Any, **kwargs: Any):
                tracer.counts["sim.scheduled"] += 1
                return original(sim, when, callback_span(layer_of(fn), "callback", fn), *args, **kwargs)

            return tracer.span("sim", "sim.schedule_at", schedule_at)

        self._patch(Simulator, "schedule_at", make_schedule_at)
        self._spans(Simulator, "sim", "sim", "run")

    def _install_transport(self) -> None:
        tracer = self

        def make_register(original: Callable) -> Callable:
            def register(transport: Transport, operation: str, handler: Callable) -> None:
                tracer.transports[id(transport)] = transport
                network = getattr(transport.node, "network", None)
                if network is not None:
                    tracer.networks[id(network)] = network
                if not getattr(handler, "__perfbench_traced__", False):
                    # A handler wrapping an already traced one keeps its
                    # span (and its attributes, via functools.wraps).
                    layer = layer_of(handler)
                    handler = functools.wraps(handler)(
                        tracer.span(layer, f"{layer}:{operation}", handler)
                    )
                    handler.__perfbench_traced__ = True
                return original(transport, operation, handler)

            return register

        self._patch(Transport, "register", make_register)
        self._spans(Transport, "net", "net.transport", "request", "notify", "broadcast")

    def _install_sweeps(self) -> None:
        tracer = self

        def make_range(name: str) -> Callable[[Callable], Callable]:
            def make(original: Callable) -> Callable:
                def ranged(population: FleetPopulation, start: int, stop: int, *args: Any):
                    tracer.counts[f"fleet.{name}.leaves"] += stop - start
                    return original(population, start, stop, *args)

                return tracer.span("fleet", f"fleet.{name}", ranged)

            return make

        for name in ("offer_range", "install_range", "sweep_range", "revoke_range"):
            self._patch(FleetPopulation, name, make_range(name))

    def _install_counters(self) -> None:
        """Counts at boundaries that are too cheap to time."""
        tracer = self

        def make_cancel(original: Callable) -> Callable:
            def cancel(event: Event) -> None:
                if not event.canceled:
                    tracer.counts["sim.canceled"] += 1
                return original(event)

            return cancel

        def make_rollback(original: Callable) -> Callable:
            def rollback(txn: Any) -> None:
                original(txn)
                if txn.rolled_back:
                    tracer.counts["midas.receiver.rollbacks"] += 1

            return rollback

        def make_init(original: Callable) -> Callable:
            def init(service: Any, *args: Any, **kwargs: Any) -> None:
                original(service, *args, **kwargs)
                service.on_installed.connect(
                    lambda _installed: tracer.counts.update(("midas.receiver.installs",))
                )
                service.on_withdrawn.connect(
                    lambda _installed, _reason: tracer.counts.update(("midas.receiver.withdrawals",))
                )

            return init

        self._patch(Event, "cancel", make_cancel)
        self._patch(_receiver._InstallTransaction, "rollback", make_rollback)
        self._patch(_receiver.AdaptationService, "__init__", make_init)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        for owner, name, raw, own in reversed(self._patches):
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)
        self._restored.extend(self._patches)
        self._patches.clear()

    def owners(self) -> set[type]:
        """Classes this tracer has patched (while or since installed)."""
        return {owner for owner, *_rest in self._patches + self._restored}

    def leftovers(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        missing = object()
        wrong = []
        for owner, name, raw, own in self._restored + self._patches:
            current = owner.__dict__.get(name, missing)
            if (current is not raw) if own else (current is not missing):
                wrong.append(f"{owner.__name__}.{name}")
        return wrong

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- readings ----------------------------------------------------------

    def network_totals(self) -> dict[str, int]:
        """Message and request counters of every network/transport seen."""
        return {
            "delivered": sum(n.messages_delivered for n in self.networks.values()),
            "dropped": sum(n.messages_dropped for n in self.networks.values()),
            "timeouts": sum(t.timeouts for t in self.transports.values()),
            "dup_requests": sum(t.duplicate_requests for t in self.transports.values()),
        }

    def median_us(self, boundary: str) -> float:
        values = self.samples.get(boundary)
        return statistics.median(values) * 1e6 if values else 0.0

    def mean_us(self, boundary: str) -> float:
        calls = self.boundary_calls[boundary]
        return self.boundary_s[boundary] / calls * 1e6 if calls else 0.0
