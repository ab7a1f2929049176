"""Fixture: header dtypes that drifted from their structs (POSITIVE, 4 findings).

A structured view that writes or parses every header of a batch at once is
only correct while it mirrors the struct byte for byte: an offset that
forgot a field's width, a field read at the wrong type, an itemsize that is
a bare number, and a dtype left behind when the struct gained a field.
"""

import struct

import numpy as np

_RECORD_HEADER = struct.Struct("<BqdI")
RECORD_HEADER_BYTES = 21

_RECORD_HEADER_DTYPE = np.dtype(
    {
        "names": ["type", "client_id", "value", "count"],
        "formats": ["u1", "<i8", "<f4", "<u4"],  # finding: d is <f8
        "offsets": [0, 1, 9, 13],  # finding: calcsize('<Bqd') is 17
        "itemsize": 21,  # finding: must name RECORD_HEADER_BYTES
    }
)

# The struct grew a trailing u4 field; the dtype still has three.
_PAIR_HEADER = struct.Struct("<BqI")
PAIR_HEADER_BYTES = 13

_PAIR_HEADER_DTYPE = np.dtype(  # finding: 2 formats for 3 fields
    {
        "names": ["type", "client_id"],
        "formats": ["u1", "<i8"],
        "offsets": [0, 1],
        "itemsize": PAIR_HEADER_BYTES,
    }
)


def parse(buffer: bytes) -> tuple:
    return (np.frombuffer(buffer, dtype=_RECORD_HEADER_DTYPE),
            np.frombuffer(buffer, dtype=_PAIR_HEADER_DTYPE))


def pack(kind: int, client_id: int, value: float, count: int) -> bytes:
    return _RECORD_HEADER.pack(kind, client_id, value, count) + _PAIR_HEADER.pack(kind, 0, 0)
