"""Fixture: every import here is used, exported or exempt — must be clean."""

from __future__ import annotations

import os.path
import struct as wire
from typing import TYPE_CHECKING, Optional

from collections import OrderedDict  # exported through __all__ below

if TYPE_CHECKING:
    from decimal import Decimal  # read only inside a string annotation

__all__ = ["OrderedDict", "join_under"]


def join_under(root: str, name: Optional[str]) -> str:
    return os.path.join(root, name or "")  # ``import os.path`` binds ``os``


def header_size(fmt: str) -> int:
    import zlib  # a function-local import read inside its own function

    return wire.calcsize(fmt) + zlib.crc32(b"") * 0


def as_price(value: "Decimal") -> str:
    return str(value)
