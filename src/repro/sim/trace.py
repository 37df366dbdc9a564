"""Bounded event log for simulations.

A :class:`Tracer` is handed typed events (domain entered, fault detected,
rewind performed, service down/up, ...) with their virtual timestamps and
keeps two things about them:

* exact per-kind counts, however many events a run records — the figures
  ``telemetry.consistency_check`` balances against domain stats and obs
  counters; and
* a fixed-size ring of the most recent events, for test assertions and for
  printing what just happened.

Memory is bounded by construction: a long-running service records millions
of events, and the runtime's own bookkeeping must not be what grows. The
ring holds raw ``(timestamp, kind, details)`` tuples; :class:`TraceEvent`
objects are built only when a subscriber is attached or the ring is read.
The ring is not a history: a quantity over a whole run (downtime, say) is
accumulated by whoever emits the events, or read off the counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

#: Ring size of a :class:`Tracer` built without an explicit capacity.
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped, typed event with free-form details."""

    timestamp: float
    kind: str
    details: dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        detail = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.timestamp:.9f}] {self.kind} {detail}".rstrip()


class Tracer:
    """Counts events by kind exactly and retains the most recent ones."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if not isinstance(capacity, int) or capacity < 0:
            raise ValueError(
                f"tracer capacity must be a non-negative int, got {capacity!r}"
            )
        self._events: deque[tuple[float, str, dict[str, object]]] = deque(
            maxlen=capacity
        )
        self._counts: dict[str, int] = {}
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    def record(self, timestamp: float, kind: str, **details: object) -> None:
        # ``details`` is already a fresh dict built for this call — no copy.
        self._events.append((timestamp, kind, details))
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if self._subscribers:
            event = TraceEvent(timestamp, kind, details)
            for subscriber in self._subscribers:
                subscriber(event)

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke ``callback`` on every future event (live monitoring)."""
        self._subscribers.append(callback)

    @property
    def capacity(self) -> int:
        """How many of the most recent events the ring retains."""
        return self._events.maxlen

    @property
    def recorded(self) -> int:
        """Exact number of events ever recorded, retained or not."""
        return sum(self._counts.values())

    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return [TraceEvent(*raw) for raw in self._events]

    def __len__(self) -> int:
        """Number of retained events (at most ``capacity``)."""
        return len(self._events)

    def of_kind(self, *kinds: str) -> Iterator[TraceEvent]:
        """Retained events of ``kinds``, oldest first. The iterator runs
        over a copy, so recording while iterating is safe."""
        wanted = set(kinds)
        return iter([TraceEvent(*raw) for raw in self._events if raw[1] in wanted])

    def count(self, kind: str) -> int:
        """Exact number of ``kind`` events ever recorded."""
        return self._counts.get(kind, 0)

    def first(self, kind: str) -> Optional[TraceEvent]:
        """Oldest retained ``kind`` event, if any."""
        for raw in self._events:
            if raw[1] == kind:
                return TraceEvent(*raw)
        return None

    def last(self, kind: str) -> Optional[TraceEvent]:
        """Most recent ``kind`` event, if any."""
        for raw in reversed(self._events):
            if raw[1] == kind:
                return TraceEvent(*raw)
        return None
