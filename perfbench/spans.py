"""In-memory spans for the benchmark's traced runs.

A span records a name, start and end (``time.perf_counter`` seconds, one
clock for the parent and its child processes on Linux), the span that
caused it, and the request it belongs to. Spans stay in memory and are
written out once, when the run ends. A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import threading
import time
from collections.abc import Iterator
from pathlib import Path

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


class Tracer:
    """Collects spans when ``enabled``; every call is a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int | None,
                               str | None]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, *,
             request: str | None = None) -> Iterator[int | None]:
        """Record the enclosed block as a child of the innermost open span.

        Open spans are tracked per context, so each asyncio task sees its
        own, and a span opened in a worker thread is a root.
        """
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.add(name, start, end, parent=parent, request=request,
                     span_id=span_id)

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, request: str | None = None,
            span_id: int | None = None) -> int:
        """Record a span measured elsewhere (a child process, say)."""
        if span_id is None:
            span_id = next(self._ids)
        with self._lock:
            self.spans.append((span_id, name, start, end, parent, request))
        return span_id

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total duration, and total self time."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        summary: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            covered = _covered(start, end, children.get(span_id, []))
            entry = summary.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
        return summary

    def write(self, path: Path, extra: dict[str, object]) -> None:
        """Write every span plus the self-time summary as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            **extra,
            "self_times": self.self_times(),
            "spans": [
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "request": request}
                for span_id, name, start, end, parent, request in self.spans
            ],
        }
        path.write_text(json.dumps(document, indent=1, sort_keys=True),
                        encoding="utf-8")


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total

