"""The traced run: per-layer counts and self times for one workload.

Untraced and traced repetitions of the same seed alternate until the
run's seconds are spent.  Each traced repetition gets a fresh
:class:`~tracer.Tracer`, installed before set-up and removed right
after, so the untraced repetitions measure unwrapped code.  A traced
repetition must reproduce its untraced twin's digest, and every
wrapped attribute must hold its original object afterwards.

Every metric is a mean per traced repetition, in host seconds (not
scaled by the host-speed yardstick).  ``trace.wall_s`` is the traced
repetition's set-up plus drive time, ``trace.overhead_s`` that minus
the untraced twin's; the ``*.self_s`` metrics plus
``trace.unattributed_s`` add up to ``trace.wall_s``.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any

from tracer import Tracer
from workloads import outcome, run_rep

#: Layers reported with their own ``<layer>.self_s``; every other layer
#: (core, extensions, resilience, faults, supervision, store, the
#: benchmark's own callbacks, ...) is summed into ``other.self_s``.
REPORTED = (
    "sim", "net", "midas.base", "midas.receiver", "midas", "vetting", "aop",
    "leasing", "discovery", "telemetry", "scenarios", "util", "fleet", "workloads",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, plain: Any, traced: Any, wall: float, unattributed: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    t = tracer
    split_dispatch(t)
    selfs = t.self_s
    network = t.network_totals()
    events = t.boundary_calls["callback"]
    offers = t.boundary_calls["midas.receiver:midas.offer"]
    installs = t.counts["midas.receiver.installs"]
    m: dict[str, tuple[float, str]] = {
        "sim.events": (events, "count"),
        "sim.self_s": (selfs["sim"], "s"),
        "sim.ns_per_event": (_ratio(selfs["sim"], events) * 1e9, "ns"),
        "sim.cancel_ratio": (_ratio(t.counts["sim.canceled"], t.counts["sim.scheduled"]), "ratio"),
        "net.msgs": (network["delivered"], "count"),
        "net.dropped": (network["dropped"], "count"),
        "net.self_s": (selfs["net"], "s"),
        "net.us_per_msg": (_ratio(selfs["net"], network["delivered"]) * 1e6, "us"),
        "net.timeouts": (network["timeouts"], "count"),
        "net.dup_requests": (network["dup_requests"], "count"),
        "midas.base.calls": (t.calls["midas.base"], "count"),
        "midas.base.self_s": (selfs["midas.base"], "s"),
        "midas.base.us_per_call": (_ratio(selfs["midas.base"], t.calls["midas.base"]) * 1e6, "us"),
        "midas.receiver.offers": (offers, "count"),
        "midas.receiver.installs": (installs, "count"),
        "midas.receiver.withdrawals": (t.counts["midas.receiver.withdrawals"], "count"),
        "midas.receiver.rollbacks": (t.counts["midas.receiver.rollbacks"], "count"),
        "midas.receiver.accept_ratio": (_ratio(installs, offers), "ratio"),
        "midas.receiver.self_s": (selfs["midas.receiver"], "s"),
        "midas.envelope.open_us": (t.mean_us("midas.envelope.open"), "us"),
        "midas.trust.verify_us": (t.mean_us("midas.trust.verify"), "us"),
        "midas.self_s": (selfs["midas"], "s"),
        "vetting.calls": (t.calls["vetting"], "count"),
        "vetting.self_s": (selfs["vetting"], "s"),
        "aop.self_s": (selfs["aop"], "s"),
        "aop.insert_us_p50": (t.median_us("aop.insert"), "us"),
        "aop.withdraw_us_p50": (t.median_us("aop.withdraw"), "us"),
        "aop.load_class_us": (t.mean_us("aop.load_class"), "us"),
        "leasing.grants": (t.boundary_calls["leasing.grant"], "count"),
        "leasing.renewals": (t.boundary_calls["leasing.renew"], "count"),
        "leasing.self_s": (selfs["leasing"], "s"),
        "discovery.calls": (t.calls["discovery"], "count"),
        "discovery.self_s": (selfs["discovery"], "s"),
        "telemetry.records": (
            sum(n for b, n in t.boundary_calls.items() if b.startswith("telemetry.record.")),
            "count",
        ),
        "telemetry.self_s": (selfs["telemetry"], "s"),
        "scenarios.monitor_ticks": (t.boundary_calls["scenarios.monitor.tick"], "count"),
        "scenarios.monitor_s": (t.boundary_s["scenarios.monitor.tick"], "s"),
        "scenarios.self_s": (selfs["scenarios"], "s"),
        "util.ids": (t.boundary_calls["util.ids.next"], "count"),
        "util.ids_s": (t.boundary_s["util.ids.next"], "s"),
        "util.self_s": (selfs["util"], "s"),
        "fleet.build_s": (t.boundary_s["fleet.build"], "s"),
        "fleet.epoch_ms": (t.mean_us("fleet.run_epoch") / 1e3, "ms"),
        "fleet.sweep_ns_per_leaf": (
            _ratio(t.boundary_s["fleet.sweep_range"], t.counts["fleet.sweep_range.leaves"]) * 1e9,
            "ns",
        ),
        "fleet.handoffs": (traced.info.get("handoffs", 0), "count"),
        "fleet.self_s": (selfs["fleet"], "s"),
        "workloads.self_s": (selfs["workloads"], "s"),
        "other.self_s": (sum(v for k, v in selfs.items() if k not in REPORTED), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - plain.wall_s, "s"),
        "trace.unattributed_s": (unattributed, "s"),
    }
    return m


def split_dispatch(tracer: Tracer) -> None:
    """Charge ``aop`` its share of the app-hooks iteration spans.

    The hooked and advised classes run the same kernel code as the
    pristine ones, interleaved in the same repetition; what a hooked or
    advised iteration costs beyond the median pristine iteration is the
    hooks' and advice's time, and moves from ``workloads`` to ``aop``.
    """
    pristine = tracer.samples.get("app-hooks.pristine")
    if not pristine:
        return
    baseline = statistics.median(pristine)
    for mode in ("hooked", "advised"):
        boundary = f"app-hooks.{mode}"
        extra = tracer.boundary_s[boundary] - tracer.boundary_calls[boundary] * baseline
        tracer.self_s["workloads"] -= extra
        tracer.self_s["aop"] += extra


def aop_dispatch(workload: Any, plain: Any) -> dict:
    """Per-call hook and advice cost on app-hooks, from the untraced
    twin's interleaved timings and the join points one iteration runs."""
    info = plain.info
    if "hooked_ms" not in info:
        return {
            "aop.calls_per_iter": (0, "count"),
            "aop.stub_ns_per_call": (0.0, "ns"),
            "aop.advised_ns_per_call": (0.0, "ns"),
            "aop.app_slowdown": (0.0, "ratio"),
            "aop.advised_slowdown": (0.0, "ratio"),
        }
    calls, advised = workload.joinpoints_per_iteration(info["compress_seed"])
    stub_ms = info["hooked_ms"] - info["pristine_ms"]
    advice_ms = info["advised_ms"] - info["hooked_ms"]
    return {
        "aop.calls_per_iter": (calls, "count"),
        "aop.stub_ns_per_call": (_ratio(stub_ms, calls) * 1e6, "ns"),
        "aop.advised_ns_per_call": (_ratio(advice_ms, advised) * 1e6, "ns"),
        "aop.app_slowdown": (info["app_slowdown"], "ratio"),
        "aop.advised_slowdown": (info["advised_slowdown"], "ratio"),
    }


def run_traced(workload: Any, seed: int, seconds: float, problems: list[str]):
    """Alternate untraced/traced repetitions; mean per-layer metrics."""
    rows, reps = [], []
    started = perf_counter()
    while not rows or perf_counter() - started < seconds:
        plain = run_rep(workload, seed)
        with Tracer() as tracer:
            traced, covered = tracer.root(lambda: run_rep(workload, seed, tracer))
        leftovers = tracer.leftovers()
        if leftovers:
            problems.append(f"attributes not restored after tracing: {leftovers}")
        if traced.digest != plain.digest:
            problems.append(
                f"traced digest {traced.digest[:16]} != untraced {plain.digest[:16]}"
            )
        problems.extend(plain.problems + traced.problems)
        reps += [plain, traced]
        row = layer_metrics(tracer, plain, traced, traced.wall_s, traced.wall_s - covered)
        row.update(aop_dispatch(workload, plain))
        rows.append(row)
    metrics = {
        name: (statistics.fmean(row[name][0] for row in rows), unit)
        for name, (_value, unit) in rows[0].items()
    }
    return (metrics, {"traced_repetitions": len(rows)}) + outcome(reps, problems)
