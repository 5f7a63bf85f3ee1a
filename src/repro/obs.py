"""Telemetry: counters, gauges and fixed-bucket histograms in one registry.

:class:`MetricsRegistry` is Prometheus-shaped (monotonic counters,
set-point gauges, fixed-bucket histograms) but exports plain JSON
(:meth:`MetricsRegistry.snapshot`), so a test, the CLI or a log shipper
reads it directly. Percentiles are interpolated within the buckets: the
bucket bounds are the measurement grid. Every registry is thread-safe.

The process registry (:func:`process_metrics`) is created when this
module is imported, so no first observation can race its creation. The
program records into it: ``stages.<stage>.wall_s`` per stage of the
Sec. 9.1 chain, ``nn.<op>.wall_s`` per LSTM scan, BPTT pass and cGAN
step, ``synth.*`` synthesis counts and ``tracker.*`` track births and
retirements. A sensing service keeps a registry of its own. This module
imports only the standard library, so recording loads no other layer.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping, Sequence
from typing import Any

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "observe_wall",
    "process_metrics",
]

#: Wall-time grid of the process registry, seconds: from tens of
#: microseconds (subtract on a cropped cube, one LSTM cell) to seconds (a
#: long sweep's synthesis, a paper-scale training step), finer than the
#: serving latency grid.
TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default latency grid, seconds: sub-millisecond to tens of seconds.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default batch-size grid: powers of two up to a generous batch cap.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


class Histogram:
    """A fixed-bucket histogram with interpolated percentile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge.
    """

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges or any(hi <= lo for hi, lo in zip(edges[1:], edges[:-1])):
            raise ValueError(
                f"histogram {name} needs strictly increasing bucket bounds"
            )
        self.name = name
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
        buckets: list[dict[str, object]] = [
            {"le": bound, "count": self._counts[i]}
            for i, bound in enumerate(self.bounds)
        ]
        buckets.append({"le": "inf", "count": self._counts[-1]})
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": buckets,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock.

    Each instrument is created by its first record. Counters and gauges
    are plain numbers by name; a histogram keeps the bucket bounds it was
    created with.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``; counters never decrease."""
        if amount < 0:
            raise ValueError(f"counter {name} cannot decrease")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        """Observe ``value`` into the histogram ``name``.

        ``bounds`` are the bucket edges of a histogram this observation
        creates; an existing histogram keeps its own.
        """
        with self._lock:
            self._histogram(name, bounds).observe(value)

    def _histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        """The histogram ``name``, created with ``bounds``; hold the lock."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def growth_since(self, before: Mapping[str, Any]) -> dict[str, Any]:
        """Counter and histogram growth since ``before``, an earlier snapshot.

        The result is what :meth:`merge` adds into another registry: the
        experiment runner's worker processes ship it back to the parent.
        It carries the counters and histograms that grew or were created;
        gauges are set-points with nothing to add, so they are not carried.
        """
        after = self.snapshot()
        growth: dict[str, Any] = {"counters": {}, "histograms": {}}
        for name, value in after["counters"].items():
            amount = value - before["counters"].get(name, 0)
            if amount or name not in before["counters"]:
                growth["counters"][name] = amount
        for name, data in after["histograms"].items():
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
            with self._lock:
                self._histogram(name, data["bounds"]).merge(
                    data["bounds"], data["counts"], data["sum"])

    def snapshot(self, *, now: float | None = None,
                 sequence: int | None = None) -> dict[str, Any]:
        """A point-in-time JSON-serializable view of every instrument.

        ``now``/``sequence`` are caller-supplied context keys (the
        ``SessionStore`` ``now=`` convention: the registry never reads a
        clock), so snapshots appended to an audit ledger are
        deterministic and replayable — the same instrument state with
        the same stamps serializes to the same bytes.
        """
        with self._lock:
            snapshot: dict[str, Any] = {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
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


_PROCESS = MetricsRegistry()


def process_metrics() -> MetricsRegistry:
    """The process registry: stage and nn timings, synthesis and tracker counts."""
    return _PROCESS


def observe_wall(name: str, started: float) -> None:
    """Observe the wall time since ``started`` into the process histogram ``name``.

    ``started`` is a :func:`time.perf_counter` reading; the histogram uses
    :data:`TIME_BUCKETS`.
    """
    _PROCESS.observe(name, time.perf_counter() - started, TIME_BUCKETS)
