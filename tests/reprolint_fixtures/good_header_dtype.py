"""Fixture: a header dtype that mirrors its struct (NEGATIVE).

The shape of ``messages.py``'s ``_STEP_HEADER_DTYPE``: every offset is the
``calcsize`` of the struct prefix before its field, every field format is
the struct code's NumPy spelling (a single byte needs no byte order), and
the itemsize names the declared size constant.
"""

import struct

import numpy as np

_RECORD_HEADER = struct.Struct("<BqdI")
RECORD_HEADER_BYTES = 21

_RECORD_HEADER_DTYPE = np.dtype(
    {
        "names": ["type", "client_id", "value", "count"],
        "formats": ["u1", "<i8", "<f8", "<u4"],
        "offsets": [0, 1, 9, 17],
        "itemsize": RECORD_HEADER_BYTES,
    }
)


def parse(buffer: bytes) -> np.ndarray:
    return np.frombuffer(buffer, dtype=_RECORD_HEADER_DTYPE)


def pack(kind: int, client_id: int, value: float, count: int) -> bytes:
    return _RECORD_HEADER.pack(kind, client_id, value, count)
