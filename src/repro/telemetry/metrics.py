"""Metric instruments: counters, gauges, and fixed-bucket histograms.

Instruments are identified by a ``name`` plus a small set of string
``labels`` (e.g. ``prose.interceptions{joinpoint=Motor.rotate}``).  The
:class:`~repro.telemetry.registry.MetricsRegistry` owns one instrument per
distinct ``(name, labels)`` pair; this module only defines the value
containers, so they stay trivially testable and serializable.

Histograms use *fixed* bucket boundaries chosen at creation time.  That
keeps ``observe`` O(log buckets) with zero allocation, and makes two
exports mergeable bucket-by-bucket — the property every telemetry
pipeline (Prometheus, OpenTelemetry) relies on.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

#: Label sets are stored as a sorted tuple of items so instruments hash
#: and compare regardless of keyword order at the call site.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets, in seconds: spans six decades, from
#: sub-microsecond advice dispatch to multi-second protocol timeouts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


def label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label mapping (values stringified)."""
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def format_labels(labels: LabelKey) -> str:
    """Render a label key as ``{k=v, ...}`` (empty string for no labels)."""
    if not labels:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def incr(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (by {amount})")
        self.value += amount

    def to_record(self) -> dict[str, Any]:
        """The exportable (JSONL) form of this counter."""
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }

    def __repr__(self) -> str:
        return f"<Counter {self.name}{format_labels(self.labels)} = {self.value}>"


class Gauge:
    """A value that can go up and down (queue depth, live tuples, ...)."""

    __slots__ = ("name", "labels", "value", "updated_at")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updated_at: float | None = None

    def set(self, value: float, now: float | None = None) -> None:
        """Record the current level of the measured quantity."""
        self.value = float(value)
        self.updated_at = now

    def to_record(self) -> dict[str, Any]:
        """The exportable (JSONL) form of this gauge."""
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "updated_at": self.updated_at,
        }

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{format_labels(self.labels)} = {self.value}>"


def bucket_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    total: int,
    q: float,
    overflow: float,
) -> float:
    """Bucket-resolution ``q``-quantile of a bucketed distribution.

    ``counts`` has one slot per upper bound in ``bounds`` plus a final
    overflow slot; ``total`` is their sum.  Returns the bound of the
    bucket holding rank ``q * total`` (``overflow`` for the overflow
    bucket), 0.0 if ``total`` is zero.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0
    for index, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= rank and bucket_count:
            return bounds[index] if index < len(bounds) else overflow
    return overflow


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``buckets`` are upper bounds; an observation lands in the first bucket
    whose bound is >= the value, or in the implicit overflow bucket.  The
    exact sum/min/max are tracked alongside, so the mean is exact while
    quantiles are bucket-resolution estimates.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "total",
                 "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        #: One slot per bound plus the overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> float:
        """Exact mean of all observations (0.0 if empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution estimate of the ``q``-quantile (0 <= q <= 1).

        Returns the upper bound of the bucket containing the target rank
        (the recorded max for the overflow bucket), 0.0 if empty.
        """
        overflow = self.max if self.max is not None else 0.0
        return bucket_quantile(self.buckets, self.counts, self.count, q, overflow)

    def to_record(self) -> dict[str, Any]:
        """The exportable (JSONL) form of this histogram."""
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name}{format_labels(self.labels)} "
            f"n={self.count} mean={self.mean():.3g}>"
        )
