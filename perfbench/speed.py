"""Host speed, measured beside the program, and host times scaled by it.

The benchmark runs on a few shared cores whose speed drifts by tens of per
cent over tens of seconds: a fixed pure-Python loop runs about 40 % faster
while a co-tenant is idle than while it is busy. A run that lands in a fast
stretch would read as an optimisation. So the timed phase is cut into
slices of a fixed number of calls, and after each slice a fixed reference
kernel, which imports nothing from the package under test, is timed.

The kernel mixes the request path's two kinds of work: interpreter-bound
parsing, and lookups that miss the caches in a large table. The host's
drift moves the first far more than the second (in 30 s recordings parsing
ranged over 0.6-1.1x of its median, lookups over 0.85-1.1x), so each
workload sets the share of the two that best tracks its own slices.

A slice's host time is multiplied by the kernel's nominal time over the
running median of the nearby kernel times, so every host-time metric reads
as if the host ran the kernel in exactly its nominal time. A change that
makes the program slower makes its slices slower and not the kernel, so it
shows in full; the host's drift slows both and cancels. The raw host
figures are kept in the run manifest.

A kernel pass evicts some of the program's cache lines, so the first call of
each slice runs slower (by about a fifth, in the median, on the nominal
host). How many calls that touches is fixed by each workload's slice length,
the same on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

#: Host time of one parsing round and of one table lookup on the nominal
#: host (a 2-vCPU x86-64 VM under CPython 3.11, in its usual, slower
#: state), inside a timed phase. They only set the scale: scaled times read
#: close to that host's raw times.
PARSE_ROUND_NS = 1_400
LOOKUP_NS = 920

#: Slices on each side of a slice whose kernel times set its scale.
HALF_WINDOW = 8

_LINES = tuple(
    b"set key:%06d 0 0 %d\r\n%s\r\n" % (i * 7919 % 1_000_000, 1 + i % 23, b"v" * (1 + i % 23))
    for i in range(64)
)
_SCRATCH: dict = {}

#: Entries of the lookup table: tens of MB, far more than the caches hold.
TABLE_KEYS = 400_000
#: Lookups step through the table by this stride (coprime with its size).
STRIDE = 7919
_KEYS = [b"key:%07d" % i for i in range(TABLE_KEYS)]
_TABLE = {key: key for key in _KEYS}
_cursor = 0


def parse_kernel(rounds: int) -> int:
    """Interpreter-bound request parsing: split, slice, convert, store."""
    scratch = _SCRATCH
    total = 0
    for i in range(rounds):
        head, _, body = _LINES[i & 63].partition(b"\r\n")
        parts = head.split(b" ")
        key = parts[1]
        if int(parts[4]) == len(body) - 2:
            scratch[key] = body[:-2]
        total += len(scratch.get(key, b""))
        if len(scratch) > 48:
            scratch.clear()
    scratch.clear()
    return total


def lookup_kernel(rounds: int) -> int:
    """Lookups of scattered keys in a table far larger than the caches.

    Each pass goes on where the last one stopped, so it meets cold lines.
    """
    global _cursor
    table, keys, n = _TABLE, _KEYS, TABLE_KEYS
    start = _cursor
    total = 0
    for i in range(start, start + rounds):
        total += len(table[keys[i * STRIDE % n]])
    _cursor = (start + rounds) % n
    return total


@dataclass(frozen=True)
class ReferenceKernel:
    """A fixed amount of parsing and lookups, about a millisecond in all."""

    parse_rounds: int
    lookups: int

    @property
    def nominal_ns(self) -> int:
        return self.parse_rounds * PARSE_ROUND_NS + self.lookups * LOOKUP_NS

    def time(self) -> int:
        """Host nanoseconds of one pass."""
        started = perf_counter_ns()
        parse_kernel(self.parse_rounds)
        lookup_kernel(self.lookups)
        return perf_counter_ns() - started

    def factor(self, passes: int) -> float:
        """Scale factor from the median of ``passes`` passes, now."""
        return self.nominal_ns / float(np.median([self.time() for _ in range(passes)]))

    def scale_factors(self, reference_ns) -> np.ndarray:
        """Per-slice factor turning host time into reference-speed time.

        Each slice's factor is the nominal time over the median of the
        kernel times of the slices within ``HALF_WINDOW`` of it, so one pass
        that an interrupt stretched does not skew its slice.
        """
        ref = np.asarray(reference_ns, dtype=np.float64)
        if not ref.size:
            return ref
        smooth = np.array(
            [np.median(ref[max(0, j - HALF_WINDOW) : j + HALF_WINDOW + 1]) for j in range(ref.size)]
        )
        return self.nominal_ns / smooth
