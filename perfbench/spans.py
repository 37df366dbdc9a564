"""In-memory spans around the public methods of the layers under test.

The benchmark records spans from its own files: it replaces public methods
on the instances it built with wrappers that open a span on entry and close
it on return or raise. Spans nest by call order (one thread, one call
outstanding), so each span's parent is the innermost span open when it
started, and the root span of a client call identifies that request.

A span's *self time* is its duration minus the durations of its direct
children. Self times of all spans therefore sum to the durations of the
root spans, and the wall time of a traced run splits exactly into the
per-span self times plus the *residual* spent outside any span (the
benchmark loop itself).
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns
from typing import Callable

import numpy as np


class SpanRecorder:
    """Keeps every span in typed arrays until written out."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.duration = array("q")
        self.self_time = array("q")
        self.parent = array("q")
        # [span index, summed duration of closed direct children]
        self._stack: list[list[int]] = []

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> None:
        stack = self._stack
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(stack[-1][0] if stack else -1)
        self.duration.append(0)
        self.self_time.append(0)
        stack.append([index, 0])
        # The clock is read last so the bookkeeping above is not inside
        # the span.
        self.start.append(self.clock())

    def close(self, name_id: int = -1) -> None:
        """Close the innermost span, optionally renaming it (``-1`` keeps it)."""
        end = self.clock()
        stack = self._stack
        index, children = stack.pop()
        duration = end - self.start[index]
        self.duration[index] = duration
        self.self_time[index] = duration - children
        if name_id >= 0:
            self.name_id[index] = name_id
        if stack:
            stack[-1][1] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        name_id = self.name_index(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def summary(self, wall_ns: int) -> dict[str, float]:
        """Per-span ``calls``/``self_us_p50``/``self_share`` and the residual.

        ``wall_ns`` is the wall time of the traced phase; every span must be
        closed.
        """
        if self._stack:
            raise ValueError(f"{len(self._stack)} span(s) still open")
        if wall_ns <= 0:
            raise ValueError(f"wall time must be positive, got {wall_ns}")
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        selfs = np.frombuffer(self.self_time, dtype=np.int64)
        out: dict[str, float] = {}
        for index, name in enumerate(self.names):
            mine = selfs[ids == index]
            out[f"{name}.calls"] = int(mine.size)
            out[f"{name}.self_us_p50"] = (
                float(np.median(mine)) / 1e3 if mine.size else 0.0
            )
            out[f"{name}.self_share"] = float(mine.sum()) / wall_ns
        roots = sum(d for d, p in zip(self.duration, self.parent) if p < 0)
        out["trace.residual_share"] = (wall_ns - roots) / wall_ns
        return out

    def write(self, path: str, **meta: object) -> None:
        """Write every span, and ``meta``, to ``path`` as a NumPy ``.npz``."""
        np.savez(
            path,
            **meta,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            duration_ns=np.frombuffer(self.duration, dtype=np.int64),
            self_ns=np.frombuffer(self.self_time, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
