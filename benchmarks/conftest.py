"""Shared benchmark helpers.

Benchmarks measure two different things and label them clearly:

- *wall time* (what pytest-benchmark reports) — the real cost of running
  the scenario on this machine;
- *simulated time / derived metrics* — protocol latencies inside the
  discrete-event world and paper-comparison ratios, attached to each
  benchmark via ``benchmark.extra_info`` and summarized in
  EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

# Make the test-suite support module importable from benchmarks too.
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from repro.aop.vm import ProseVM  # noqa: E402


def append_bench_row(name: str, row: dict) -> Path:
    """Append one machine-readable trajectory row to ``BENCH_<name>.json``.

    The file at the repo root holds a JSON list of rows, one per recorded
    run, so derived metrics can be tracked across commits without
    scraping pytest-benchmark output.  Rows should contain only
    deterministic, simulation-derived numbers (plus explicit context like
    a git revision if the caller wants it) — not wall-clock noise.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    rows = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    rows.append(row)
    path.write_text(
        json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def interleaved_pairs(baseline, candidate, pairs: int) -> tuple[float, float, float]:
    """Median of each side's timings and the median per-pair ratio.

    ``baseline`` and ``candidate`` each time one measurement and return
    seconds.  Pairs alternate which side runs first, so both halves of a
    pair see the same machine conditions: drift cancels in the pair's
    ratio instead of biasing one side, and outlier pairs do not move
    the median.
    """
    ratios, baseline_trials, candidate_trials = [], [], []
    for pair in range(pairs):
        if pair % 2:
            candidate_s = candidate()
            baseline_s = baseline()
        else:
            baseline_s = baseline()
            candidate_s = candidate()
        baseline_trials.append(baseline_s)
        candidate_trials.append(candidate_s)
        ratios.append(candidate_s / baseline_s)
    return (
        statistics.median(baseline_trials),
        statistics.median(candidate_trials),
        statistics.median(ratios),
    )


@pytest.fixture
def bench_trajectory():
    """Fixture handle on :func:`append_bench_row` for benchmark modules."""
    return append_bench_row


@pytest.fixture
def vm():
    """A VM that restores every class it instrumented at teardown."""
    machine = ProseVM()
    yield machine
    for cls in list(machine.loaded_classes):
        machine.unload_class(cls)
