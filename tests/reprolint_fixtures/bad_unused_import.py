"""Fixture: five imports nothing reads — each must be flagged."""

from __future__ import annotations

import json  # finding: never read
import os.path  # finding: binds ``os``, which nothing reads
import struct
from typing import Dict, List  # finding: ``List`` only; ``Dict`` is read below
import queue as channels  # finding: flagged under its full spelling


def header_size(rows: Dict[str, int]) -> int:
    return struct.calcsize("<I") * len(rows)


def encode(rows: Dict[str, int]) -> bytes:
    import struct  # finding: read at module level, but never in this function

    return bytes(len(rows))
