"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py          # about a minute
    python3 perfbench/selftest.py --quick  # skip the 1000-node X3 replay

Cases:

1. every workload completes at a tiny size and repeats its digest;
2. a planted wrong pinned digest fails the reference check;
3. traced layer self times plus ``trace.unattributed_s`` add up to the
   traced wall time;
4. every attribute the tracer wrapped holds its original object again
   after the traced run, and untraced code then reproduces its digest;
5. the metric names a run reports are exactly those in
   ``BENCHMARK.json``;
6. a run's attempted and failed counts are those of one replay of its
   seed, however many repetitions ran, and repetitions that disagree
   on them are a wrong output;
7. (unless ``--quick``) the sliced roam-storm loop reproduces the X3
   fingerprint of ``roaming_storm(nodes=1000, bases=3, seed=7)`` and
   the pinned fleet-lifecycle digest is the X1 fingerprint.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
logging.disable(logging.WARNING)

from layers import aop_dispatch, layer_metrics  # noqa: E402
from run import end_to_end, reference_problems  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Rep, outcome, run_rep  # noqa: E402

#: Class attributes that shrink each workload to a smoke-test size.
TINY = {
    "roam-storm": {"NODES": 12},
    "app-hooks": {"BLOCKS": 1, "ITERATIONS": 2},
    "adapt-churn": {"NODES": 4, "HORIZON": 40.0},
    "fleet-lifecycle": {"LEAVES": 3000},
}

#: X3's recorded fingerprint of roaming_storm(nodes=1000, bases=3, seed=7).
X3_FINGERPRINT = "cee9981ab395a113120e104d5ac027809050f92d7f393a37b7cd20a8d9ef4257"
#: X1's recorded fingerprint of the 100k-leaf lifecycle at seed 7.
X1_FINGERPRINT = "8022f180a9e5414680f196c0c2b0296f328cb08961a88e964f08a41df7315a51"


@contextmanager
def sized(workload, **attributes):
    """Temporarily override a workload's size knobs."""
    cls = type(workload)
    saved = {name: cls.__dict__[name] for name in attributes}
    for name, value in attributes.items():
        setattr(cls, name, value)
    try:
        yield workload
    finally:
        for name, value in saved.items():
            setattr(cls, name, value)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_tiny_runs() -> None:
    for name, workload in WORKLOADS.items():
        with sized(workload, **TINY[name]):
            first = run_rep(workload, 3)
            second = run_rep(workload, 3)
        check(not first.problems, f"{name}: {first.problems}")
        check(first.work > 0 and first.ops, f"{name}: no work measured")
        check(first.attempted >= 1, f"{name}: nothing attempted")
        check(first.digest == second.digest, f"{name}: digest not reproduced")


def test_planted_digest_fails() -> None:
    for name, workload in WORKLOADS.items():
        with sized(workload, **TINY[name]):
            honest = run_rep(workload, REFERENCE_SEED).digest
            check(not reference_problems(workload, honest), f"{name}: honest digest refused")
            planted = ("0" if honest[0] != "0" else "1") + honest[1:]
            check(reference_problems(workload, planted), f"{name}: planted digest accepted")


def traced_rep(workload, seed: int):
    with Tracer() as tracer:
        rep, covered = tracer.root(lambda: run_rep(workload, seed, tracer))
    return tracer, rep, rep.wall_s, rep.wall_s - covered


def test_self_times_add_up() -> None:
    for name, workload in WORKLOADS.items():
        with sized(workload, **TINY[name]):
            plain = run_rep(workload, 5)
            tracer, rep, wall, unattributed = traced_rep(workload, 5)
        total = sum(tracer.self_s.values()) + unattributed
        check(math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-9),
              f"{name}: layers {total} != wall {wall}")
        metrics = layer_metrics(tracer, plain, rep, wall, unattributed)
        reported = sum(v for k, (v, _u) in metrics.items() if k.endswith(".self_s"))
        check(math.isclose(reported + metrics["trace.unattributed_s"][0], wall,
                           rel_tol=1e-9, abs_tol=1e-9),
              f"{name}: reported self times do not add up to the wall")
        check(rep.digest == plain.digest, f"{name}: traced digest differs")


def test_attributes_restored() -> None:
    workload = WORKLOADS["adapt-churn"]
    with sized(workload, **TINY["adapt-churn"]):
        before = run_rep(workload, 9).digest
        probe = Tracer().install()
        probe.uninstall()
        snapshot = {owner: dict(owner.__dict__) for owner in probe.owners()}
        tracer, _rep, _wall, _unattributed = traced_rep(workload, 9)
        check(not tracer.leftovers(), f"not restored: {tracer.leftovers()}")
        for owner, attributes in snapshot.items():
            now = dict(owner.__dict__)
            check(now.keys() == attributes.keys(), f"{owner.__name__}: attributes added or lost")
            for key, value in attributes.items():
                check(now[key] is value, f"{owner.__name__}.{key} not restored")
        check(run_rep(workload, 9).digest == before, "untraced digest changed after tracing")


def test_metric_names_match_benchmark_json() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS["app-hooks"]
    with sized(workload, **TINY["app-hooks"]):
        reps = [run_rep(workload, 3) for _ in range(3)]
        metrics, _figures = end_to_end(workload, reps, [rep.setup_s for rep in reps])
        tracer, rep, wall, unattributed = traced_rep(workload, 3)
    layer = layer_metrics(tracer, reps[0], rep, wall, unattributed)
    layer.update(aop_dispatch(workload, reps[0]))
    for kind, names in (("end_to_end", metrics), ("per_layer", layer)):
        expected = {(m["name"], m["unit"]) for m in declared[kind]}
        reported = {(name, unit) for name, (_value, unit) in names.items()}
        check(reported == expected, f"{kind}: {sorted(reported ^ expected)}")


def test_counts_one_replay() -> None:
    problems: list[str] = []
    for runs in (1, 2, 7):
        counts = outcome([Rep(attempted=200, failed=3) for _ in range(runs)], problems)
        check(counts == (200, 3), f"{runs} repetitions counted as {counts}")
    check(not problems, f"agreeing repetitions flagged: {problems}")
    outcome([Rep(attempted=200, failed=3), Rep(attempted=200, failed=4)], problems)
    check(problems, "disagreeing repetitions not flagged")


def test_experiment_fingerprints() -> None:
    with sized(WORKLOADS["roam-storm"], NODES=1000) as storm:
        check(run_rep(storm, 7).digest == X3_FINGERPRINT, "X3 fingerprint not reproduced")
    pinned = json.loads((HERE / "pinned.json").read_text())
    check(pinned["fleet-lifecycle"]["digest"] == X1_FINGERPRINT,
          "pinned fleet-lifecycle digest is not the X1 fingerprint")


def main(argv: list[str]) -> int:
    tests = [test_tiny_runs, test_planted_digest_fails, test_self_times_add_up,
             test_attributes_restored, test_metric_names_match_benchmark_json,
             test_counts_one_replay]
    if "--quick" not in argv:
        tests.append(test_experiment_fingerprints)
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as error:
            failed += 1
            print(f"FAIL {test.__name__}: {error}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
