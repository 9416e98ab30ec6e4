"""The repository benchmark: one workload per process, host-cost metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload roam-storm --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
timings are scaled to a nominal host speed (see ``hostspeed.py``).
``--trace 1`` alternates untraced and traced repetitions of the same
seed and reports per-layer counts and self times (see ``layers.py``).
``--workload all`` runs every workload in its own fresh process, one
after another, and exits non-zero if any of them fails.

Every run first drives a reference repetition (seed 7) whose output
digest must equal the one pinned in ``pinned.json``; every measured
repetition must then reproduce one digest for the given seed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines above it stamp the environment
and print every metric by name and unit.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import platform as _platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import NOMINAL_S, Yardstick, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: The workloads, in the order ``--workload all`` runs them.
WORKLOAD_NAMES = ("roam-storm", "app-hooks", "adapt-churn", "fleet-lifecycle")

#: Set-ups made per run at least; the median is reported as ``setup_s``.
MIN_SETUPS = 15


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """Where a result came from; results of different stamps never compare."""
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "nproc": os.cpu_count(),
    }


def git_commit() -> str | None:
    """HEAD's commit id read from ``.git`` (None outside a work tree)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (statistics' exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def per_rep(samples: list[list[float]], q: int) -> float:
    """The median over repetitions of each repetition's ``q``-th percentile.

    A burst of host noise disturbs a few repetitions; the median over
    repetitions drops them, where a percentile pooled over the run
    would take their slow operations into its tail.
    """
    return statistics.median(quantile(values, q) for values in samples)


def measure(workload, seed: int, seconds: float) -> tuple[list, list[float]]:
    """Repetitions of ``seed`` until ``seconds`` have passed, plus extra
    set-ups until :data:`MIN_SETUPS` set-up times are in hand."""
    from workloads import run_rep

    reps = []
    started = perf_counter()
    while not reps or perf_counter() - started < seconds:
        reps.append(run_rep(workload, seed))
    setups = [scaled([rep.setup], rep.probes, NOMINAL_S)[0] for rep in reps]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        pace = Yardstick()
        pace.probe(3)
        began = perf_counter()
        world = workload.setup(seed)
        setup = (began, perf_counter() - began)
        pace.probe(3)
        setups.append(scaled([setup], pace.probes, NOMINAL_S)[0])
        workload.teardown(world)
        del world
    return reps, setups


def end_to_end(workload, reps: list, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the workload's own figures for the report.

    Timings are in nominal host seconds (see ``hostspeed``); the raw
    host figures are kept in the report for comparison.
    """
    ops = [scaled(rep.ops, rep.probes, NOMINAL_S) for rep in reps]
    raw_ops = [[seconds for _start, seconds in rep.ops] for rep in reps]
    rates = [rep.work / sum(scaled(rep.segments, rep.probes, NOMINAL_S)) for rep in reps]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (per_rep(ops, 50) * 1e3, "ms"),
        "op_ms_p95": (per_rep(ops, 95) * 1e3, "ms"),
    }
    pooled = [seconds for values in ops for seconds in values]
    figures = {
        "raw_work_per_s": statistics.median(r.work / r.busy_s for r in reps),
        "raw_op_ms_p50": per_rep(raw_ops, 50) * 1e3,
        "raw_op_ms_p95": per_rep(raw_ops, 95) * 1e3,
        # Pooled over the run: p99 needs more operations than one
        # repetition holds.
        "op_ms_p99": quantile(pooled, 99) * 1e3,
        "yardstick_ms": statistics.median(
            seconds for rep in reps for _start, seconds in rep.probes
        ) * 1e3,
        "repetitions": len(reps),
        "setups": len(setups),
        "operations": len(pooled),
        "work_unit": workload.work_unit,
        "op": workload.op_name,
    }
    for key in reps[0].info:
        values = [rep.info[key] for rep in reps]
        if all(isinstance(v, float) for v in values) and len(set(values)) > 1:
            figures[key] = statistics.median(values)
        else:
            figures[key] = values[0]
    return metrics, figures


#: Per-workload names of the generic metrics, for the report lines.
NAMED = {
    "roam-storm": {"work_per_s": "msgs_per_s"},
    "app-hooks": {"work_per_s": "hooked_iters_per_s"},
    "adapt-churn": {
        "work_per_s": "adaptations_per_s",
        "op_ms_p50": "adapt_ms_p50",
        "op_ms_p95": "adapt_ms_p95",
        "op_ms_p99": "adapt_ms_p99",
    },
    "fleet-lifecycle": {"work_per_s": "leaf_ops_per_s"},
}

#: Report-only figures printed as metric lines (not gated).
EXTRA = (("op_ms_p99", "ms"), ("app_slowdown", "ratio"), ("advised_slowdown", "ratio"))


def report_lines(name: str, metrics: dict, figures: dict, attempted: int, failed: int) -> list[str]:
    rows = list(metrics.items())
    rows += [(key, (figures[key], unit)) for key, unit in EXTRA if key in figures]
    ratio = failed / attempted if attempted else 0.0
    rows.append(("fail_ratio", (ratio, f"ratio ({failed}/{attempted})")))
    lines = []
    for key, (value, unit) in rows:
        alias = NAMED.get(name, {}).get(key)
        label = f"{alias} ({key})" if alias else key
        lines.append(f"{name:16s} {label:34s} {value:14.6g} {unit}")
    lines.append(f"# {name} figures: {json.dumps(figures, sort_keys=True, default=str)}")
    return lines


def run_untraced(workload, seed: int, seconds: float, problems: list[str]):
    from workloads import outcome

    reps, setups = measure(workload, seed, seconds)
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        problems.append(f"seed {seed} gave {len(digests)} different digests")
    for rep in reps:
        problems.extend(rep.problems)
    metrics, figures = end_to_end(workload, reps, setups)
    figures["digest"] = reps[0].digest
    return (metrics, figures) + outcome(reps, problems)


def reference_problems(workload, pinned: str) -> list[str]:
    """Drive the reference seed; its digest must equal the pinned one."""
    from workloads import REFERENCE_SEED, run_rep

    reference = run_rep(workload, REFERENCE_SEED)
    problems = list(reference.problems)
    if reference.digest != pinned:
        problems.append(
            f"reference seed {REFERENCE_SEED}: digest {reference.digest[:16]} "
            f"!= pinned {pinned[:16]}"
        )
    return problems


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SOURCE), str(HERE)]
    logging.disable(logging.WARNING)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    stamp = environment()
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {json.dumps(stamp, sort_keys=True)}")

    pinned = json.loads((HERE / "pinned.json").read_text())[workload.name]["digest"]
    problems = reference_problems(workload, pinned)

    if args.trace:
        from layers import run_traced

        metrics, figures, attempted, failed = run_traced(
            workload, args.seed, args.seconds, problems
        )
        for line in layer_lines(workload.name, metrics):
            print(line)
        print(f"# {workload.name} figures: {json.dumps(figures, sort_keys=True)}")
    else:
        metrics, figures, attempted, failed = run_untraced(
            workload, args.seed, args.seconds, problems
        )
        for line in report_lines(workload.name, metrics, figures, attempted, failed):
            print(line)
    for problem in problems:
        print(f"# WRONG OUTPUT {workload.name}: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def layer_lines(name: str, metrics: dict) -> list[str]:
    return [f"{name:16s} {key:30s} {value:16.6g} {unit}" for key, (value, unit) in metrics.items()]


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one at a time."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, check=False)
        status = status or completed.returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
