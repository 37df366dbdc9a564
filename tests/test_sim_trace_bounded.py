"""The tracer's memory is bounded however long a service runs.

Counts stay exact past the ring's capacity; the ring keeps the most recent
events; and a memcached server driven through faults and rewinds retains
no more memory after 4N requests than after N.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.apps.memcached_server import MemcachedServer
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import consistency_check, snapshot
from repro.sim.trace import DEFAULT_CAPACITY, Tracer

ATTACK_LONG_KEY = b"get " + b"K" * 270 + b"\r\n"
ATTACK_LENGTH_LIE = b"set pwn 0 0 4\r\n" + b"Z" * 400 + b"\r\n"


class TestRing:
    def test_counts_exact_past_capacity(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record(float(i), "even" if i % 2 == 0 else "odd")
        assert len(tracer) == 4
        assert tracer.recorded == 10
        assert tracer.count("even") == 5
        assert tracer.count("odd") == 5
        assert tracer.count("missing") == 0

    def test_ring_keeps_most_recent(self):
        tracer = Tracer(capacity=3)
        for i in range(7):
            tracer.record(float(i), "e", n=i)
        assert [e.details["n"] for e in tracer.events] == [4, 5, 6]
        assert tracer.first("e").timestamp == 4.0
        assert tracer.last("e").timestamp == 6.0

    def test_zero_capacity_only_counts(self):
        tracer = Tracer(capacity=0)
        tracer.record(0.0, "x")
        assert len(tracer) == 0 and tracer.events == []
        assert tracer.count("x") == 1

    @pytest.mark.parametrize("capacity", [None, -1, 2.5])
    def test_capacity_must_be_finite(self, capacity):
        with pytest.raises(ValueError):
            Tracer(capacity=capacity)

    def test_default_capacity(self):
        assert Tracer().capacity == DEFAULT_CAPACITY
        assert SdradRuntime().tracer.capacity == DEFAULT_CAPACITY

    def test_of_kind_survives_recording_while_iterating(self):
        tracer = Tracer(capacity=8)
        tracer.record(0.0, "a")
        tracer.record(1.0, "a")
        for event in tracer.of_kind("a"):
            tracer.record(event.timestamp + 10, "a")
        assert tracer.count("a") == 4


def _requests(count: int):
    """A benign set/get mix over 32 keys, with both exploits every 15th."""
    for i in range(count):
        key = b"k%d" % (i % 32)
        if i % 15 == 7:
            yield ATTACK_LONG_KEY
        elif i % 15 == 14:
            yield ATTACK_LENGTH_LIE
        elif i % 4 == 0:
            yield b"set " + key + b" 0 0 5\r\nvalue\r\n"
        else:
            yield b"get " + key + b"\r\n"


def _drive(server: MemcachedServer, count: int) -> None:
    clients = server.connected_clients
    for i, raw in enumerate(_requests(count)):
        server.handle(clients[i % len(clients)], raw)


class TestBoundedMemory:
    N = 1500
    #: Retained-bytes ceiling after warm-up, whatever the request count.
    #: An event log that keeps every event retains hundreds of bytes per
    #: request, so it crosses this within a few hundred requests.
    CEILING = 64 * 1024

    def test_retained_bytes_do_not_grow_with_requests(self):
        runtime = SdradRuntime()
        server = MemcachedServer(runtime)
        for name in ("alice", "bob", "mallory"):
            server.connect(name)
        tracemalloc.start()
        try:
            _drive(server, self.N)  # warm-up: store, tickets, ring all full
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            _drive(server, self.N)
            gc.collect()
            after_n = tracemalloc.get_traced_memory()[0] - base
            _drive(server, 3 * self.N)
            gc.collect()
            after_4n = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert after_n < self.CEILING
        assert after_4n < self.CEILING

        tracer = runtime.tracer
        assert len(tracer) <= tracer.capacity < tracer.recorded
        totals = snapshot(runtime)["totals"]
        assert totals["rewinds"] > 2 * tracer.capacity
        assert tracer.count("domain.rewind") == totals["rewinds"]
        assert tracer.count("domain.fault") == totals["faults"]
        assert consistency_check(runtime) == []
