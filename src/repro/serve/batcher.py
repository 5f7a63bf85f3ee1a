"""The dynamic micro-batching core: pure, synchronous, event-driven.

This is the scheduler's brain, deliberately free of asyncio, clocks, and
I/O: callers push ``(key, item)`` pairs with explicit timestamps and poll
for due flushes. Keeping the policy pure makes it exhaustively testable —
``tests/test_serve_property.py`` drives it with hypothesis-generated
arrival patterns and proves the conservation laws (nothing lost, nothing
duplicated, no batch over size, homogeneous keys, bounded holding time)
without a single sleep.

Policy, matching the classic dynamic-batching recipe (flush on *max batch
size* or *max latency*, whichever comes first):

- each distinct key has at most one **open batch**;
- an arrival joins its key's open batch (creating it if absent, stamping
  the batch's window from the *first* arrival);
- a batch flushes immediately when it reaches ``max_batch_size``
  (reason ``"size"``), or at the first ``poll`` whose ``now`` is past
  ``opened_at + window_s`` (reason ``"window"``);
- ``drain`` flushes everything regardless of age (service shutdown).
"""

from __future__ import annotations

import dataclasses
from typing import Generic, Hashable, TypeVar

from repro.errors import ConfigurationError

__all__ = ["Batch", "MicroBatcher"]

K = TypeVar("K", bound=Hashable)
T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class Batch(Generic[K, T]):
    """One flushed batch: a key-homogeneous group of items.

    Attributes:
        key: the compatibility key every item shares.
        items: the items in admission order.
        opened_at: timestamp of the first arrival (the window anchor).
        flushed_at: timestamp of the flush decision.
        reason: ``"size"``, ``"window"``, or ``"drain"``.
    """

    key: K
    items: tuple[T, ...]
    opened_at: float
    flushed_at: float
    reason: str

    def __len__(self) -> int:
        return len(self.items)


@dataclasses.dataclass
class _OpenBatch(Generic[T]):
    opened_at: float
    items: list[T]


class MicroBatcher(Generic[K, T]):
    """Groups arrivals by key; flushes on size or window expiry."""

    def __init__(self, max_batch_size: int, window_s: float) -> None:
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if window_s < 0:
            raise ConfigurationError(
                f"window_s must be >= 0, got {window_s}"
            )
        self.max_batch_size = max_batch_size
        self.window_s = window_s
        # Insertion-ordered: ties between simultaneously due groups flush
        # in first-opened order, keeping the scheduler deterministic for a
        # given arrival sequence.
        self._open: dict[K, _OpenBatch[T]] = {}

    def pending_count(self) -> int:
        """Items currently held in open (unflushed) batches."""
        return sum(len(open_batch.items) for open_batch in self._open.values())

    def add(self, key: K, item: T, now: float) -> Batch[K, T] | None:
        """Admit one item; returns the flushed batch if it filled up.

        A ``window_s`` of zero means "no coalescing": every arrival flushes
        its (singleton or size-capped) batch immediately.
        """
        open_batch = self._open.get(key)
        if open_batch is None:
            open_batch = _OpenBatch(opened_at=now, items=[])
            self._open[key] = open_batch
        open_batch.items.append(item)
        if len(open_batch.items) >= self.max_batch_size:
            return self._flush(key, now, "size")
        if self.window_s == 0.0:
            return self._flush(key, now, "window")
        return None

    def due(self, now: float) -> list[Batch[K, T]]:
        """Flush every open batch whose latency window has expired."""
        expired = [
            key for key, open_batch in self._open.items()
            if now - open_batch.opened_at >= self.window_s
        ]
        return [self._flush(key, now, "window") for key in expired]

    def drain(self, now: float) -> list[Batch[K, T]]:
        """Flush everything immediately (shutdown path)."""
        return [self._flush(key, now, "drain") for key in list(self._open)]

    def _flush(self, key: K, now: float, reason: str) -> Batch[K, T]:
        open_batch = self._open.pop(key)
        return Batch(key=key, items=tuple(open_batch.items),
                     opened_at=open_batch.opened_at, flushed_at=now,
                     reason=reason)
