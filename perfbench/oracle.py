"""Reference model for judging the server's responses.

The model is a plain dict holding the last value set for each key. The
workload generators run it over the generated inputs *before* set-up, so
every GET carries the value a hit must return and the timed loop only
compares bytes. A hit must match the model exactly. A miss on a key the
model holds is wrong unless the workload allows misses (its store evicts,
or a shard restarts empty).

Every value is stored with flags 0, the only flags the generators use.
"""

from __future__ import annotations

from typing import Optional, Sequence

END = b"END\r\n"
STORED = b"STORED\r\n"
#: The server's answer to a request whose domain faulted and was rewound.
CONTAINMENT_ERROR = b"SERVER_ERROR domain fault (request discarded)\r\n"


def hit_response(key: bytes, value: bytes) -> bytes:
    """The single-key GET response for a hit."""
    return b"VALUE %s 0 %d\r\n%s\r\nEND\r\n" % (key, len(value), value)


def get_ok(
    key: bytes, expected: Optional[bytes], response: bytes, misses_allowed: bool
) -> bool:
    """Whether ``response`` is a correct answer to ``get key``."""
    if response == END:
        return expected is None or misses_allowed
    return expected is not None and response == hit_response(key, expected)


def multiget_ok(
    keys: Sequence[bytes],
    expected: Sequence[Optional[bytes]],
    response: bytes,
    misses_allowed: bool,
) -> bool:
    """Whether ``response`` is a correct answer to ``get k1 k2 ...``.

    Hits come back as ``VALUE`` blocks in request-key order, one per
    requested key that hit (duplicates included), then ``END``.
    """
    offset = 0
    for key, value in zip(keys, expected):
        if response.startswith(b"VALUE %s " % key, offset):
            if value is None:
                return False
            block = b"VALUE %s 0 %d\r\n%s\r\n" % (key, len(value), value)
            if not response.startswith(block, offset):
                return False
            offset += len(block)
        elif value is not None and not misses_allowed:
            return False
    return response[offset:] == END
