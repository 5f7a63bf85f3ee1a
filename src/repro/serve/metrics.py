"""Telemetry core for the sensing service: counters, gauges, histograms.

The service must answer "what is it doing right now?" without a debugger
attached: how many requests were admitted/rejected/expired, how large the
coalesced batches actually are, where the latency percentiles sit, how deep
the queue is. This module is a minimal, dependency-free metrics registry —
Prometheus-shaped (monotonic counters, set-point gauges, fixed-bucket
histograms) but exporting plain JSON via :meth:`MetricsRegistry.snapshot`,
so a test, the CLI, or a log shipper can consume it directly.

All instruments are thread-safe: the scheduler mutates them from the event
loop while the worker pool's executor threads record execution timings.
Percentiles are estimated from the histogram buckets with linear
interpolation — deterministic, O(buckets), and honest about its resolution
(the bucket bounds are the measurement grid).
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections.abc import Mapping, Sequence
from typing import Any, cast

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
]

#: Default latency grid, seconds: sub-millisecond to tens of seconds.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default batch-size grid: powers of two up to a generous batch cap.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


@dataclasses.dataclass
class Counter:
    """A monotonically increasing event count."""

    name: str
    description: str = ""
    _value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


@dataclasses.dataclass
class Gauge:
    """A value that goes up and down (queue depth, in-flight requests)."""

    name: str
    description: str = ""
    _value: float = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A fixed-bucket histogram with interpolated percentile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge.
    """

    def __init__(self, name: str, bounds: Sequence[float],
                 description: str = "") -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges or any(hi <= lo for hi, lo in zip(edges[1:], edges[:-1])):
            raise ValueError(
                f"histogram {name} needs strictly increasing bucket bounds"
            )
        self.name = name
        self.description = description
        self.bounds = edges
        self._counts = [0] * (len(edges) + 1)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self._counts[index] += 1
        self._count += 1
        self._sum += value

    def merge(self, bounds: Sequence[float], counts: Sequence[int],
              total: float) -> None:
        """Add a same-``bounds`` histogram's bucket counts and sum.

        ``counts`` has one entry per bucket, the overflow bucket last.
        """
        if (tuple(float(b) for b in bounds) != self.bounds
                or len(counts) != len(self._counts)):
            raise ValueError(
                f"histogram {self.name} has bounds {list(self.bounds)}, "
                f"cannot merge buckets of {list(bounds)}"
            )
        for i, amount in enumerate(counts):
            self._counts[i] += int(amount)
        self._count += sum(int(amount) for amount in counts)
        self._sum += float(total)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) from the buckets.

        Linear interpolation inside the containing bucket; observations in
        the overflow bucket report the last finite edge (a floor, stated
        rather than invented).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            bucket = self._counts[i]
            if cumulative + bucket >= rank and bucket > 0:
                within = (rank - cumulative) / bucket
                return lower + (bound - lower) * min(max(within, 0.0), 1.0)
            cumulative += bucket
            lower = bound
        return self.bounds[-1]

    def to_dict(self) -> dict[str, object]:
        buckets = [
            {"le": bound, "count": self._counts[i]}
            for i, bound in enumerate(self.bounds)
        ]
        buckets.append({"le": "inf", "count": self._counts[-1]})
        return {
            "description": self.description,
            "count": self._count,
            "sum": self._sum,
            "buckets": buckets,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named instruments behind one lock, exported as one JSON document."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name, description)
            return self._counters[name]

    def gauge(self, name: str, description: str = "") -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name, description)
            return self._gauges[name]

    def histogram(self, name: str, bounds: Sequence[float],
                  description: str = "") -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, bounds, description)
            return self._histograms[name]

    def inc(self, name: str, amount: int = 1) -> None:
        """Shorthand: increment (auto-creating) the counter ``name``."""
        counter = self.counter(name)
        with self._lock:
            counter.inc(amount)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        """Shorthand: observe into (auto-creating) the histogram ``name``."""
        histogram = self.histogram(name, bounds)
        with self._lock:
            histogram.observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Shorthand: set (auto-creating) the gauge ``name``."""
        gauge = self.gauge(name)
        with self._lock:
            gauge.set(value)

    def growth_since(self, before: Mapping[str, Any]) -> dict[str, Any]:
        """Counter and histogram growth since ``before``, an earlier snapshot.

        The result is what :meth:`merge` adds into another registry: the
        experiment runner's worker processes ship it back to the parent.
        It carries the counters and histograms that grew or were created;
        gauges are set-points with nothing to add, so they are not carried.
        """
        after = self.snapshot()
        counters = cast("dict[str, int]", after["counters"])
        histograms = cast("dict[str, dict[str, Any]]", after["histograms"])
        growth: dict[str, Any] = {"counters": {}, "histograms": {}}
        for name, value in counters.items():
            amount = value - before["counters"].get(name, 0)
            if amount or name not in before["counters"]:
                growth["counters"][name] = amount
        for name, data in histograms.items():
            prior = before["histograms"].get(name)
            counts = [bucket["count"] for bucket in data["buckets"]]
            if prior is not None:
                counts = [count - bucket["count"] for count, bucket
                          in zip(counts, prior["buckets"])]
            if any(counts) or prior is None:
                growth["histograms"][name] = {
                    "bounds": [bucket["le"] for bucket in data["buckets"][:-1]],
                    "counts": counts,
                    "sum": data["sum"] - (prior["sum"] if prior else 0.0),
                }
        return growth

    def merge(self, growth: Mapping[str, Any]) -> None:
        """Add a :meth:`growth_since` result into this registry."""
        for name, amount in growth["counters"].items():
            self.inc(name, amount)
        for name, data in growth["histograms"].items():
            histogram = self.histogram(name, data["bounds"])
            with self._lock:
                histogram.merge(data["bounds"], data["counts"], data["sum"])

    def snapshot(self, *, now: float | None = None,
                 sequence: int | None = None) -> dict[str, object]:
        """A point-in-time JSON-serializable view of every instrument.

        ``now``/``sequence`` are caller-supplied context keys (the
        ``SessionStore`` ``now=`` convention: the registry never reads a
        clock), so snapshots appended to an audit ledger are
        deterministic and replayable — the same instrument state with
        the same stamps serializes to the same bytes.
        """
        with self._lock:
            snapshot: dict[str, object] = {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value
                    for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }
        if now is not None:
            snapshot["now"] = float(now)
        if sequence is not None:
            snapshot["sequence"] = int(sequence)
        return snapshot

    def to_json(self, *, indent: int | None = 2, now: float | None = None,
                sequence: int | None = None) -> str:
        """The snapshot as a JSON document (same ``now``/``sequence`` keys)."""
        return json.dumps(self.snapshot(now=now, sequence=sequence),
                          indent=indent, sort_keys=True)
