"""Length-prefixed frame protocol of the tcp transport.

A frame is a fixed :data:`FRAME_HEADER_BYTES` header — magic, version,
kind (:data:`KIND_HELLO` handshake or :data:`KIND_BATCH` packed message
batch), destination rank, body length — followed by the body.  The header
is padded to 16 bytes so a packed batch written behind it in the sender's
scratch stays 8-aligned.
"""

from __future__ import annotations

import struct
from typing import Tuple, Union

from repro.utils.exceptions import ReproError

Buffer = Union[bytes, bytearray, memoryview]


class FrameError(ReproError):
    """Raised for a frame that violates the wire protocol."""


FRAME_MAGIC = b"RTCF"
FRAME_VERSION = 2

# magic, version, kind, rank, 1 pad byte, body_len, 4 pad bytes.
_FRAME_HEADER = struct.Struct("<4sBBBxI4x")
FRAME_HEADER_BYTES = 16

KIND_HELLO = 0
KIND_BATCH = 1

# client_id, epoch (the client's restart count at connect time).
_HELLO_BODY = struct.Struct("<qq")
HELLO_BODY_BYTES = 16

#: Upper bound on one frame body.  A header declaring more than this is
#: treated as stream corruption, not an allocation request — without the cap
#: a single garbage length field would make the server try to buffer 4 GiB.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def pack_header(kind: int, rank: int, body_len: int) -> bytes:
    """Build one frame header."""
    return _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, kind, rank, body_len)


def pack_header_into(
    buffer: Union[bytearray, memoryview], offset: int, kind: int, rank: int, body_len: int
) -> None:
    """Write one frame header into ``buffer`` at ``offset`` (zero-copy path)."""
    _FRAME_HEADER.pack_into(buffer, offset, FRAME_MAGIC, FRAME_VERSION, kind, rank, body_len)


def parse_header(header: Buffer) -> Tuple[int, int, int]:
    """Validate and split a header; returns (kind, rank, body_len)."""
    magic, version, kind, rank, body_len = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame body of {body_len} bytes exceeds the frame cap")
    return kind, rank, body_len


def encode_frame(payload: Buffer, rank: int = 0, kind: int = KIND_BATCH) -> bytes:
    """Encode one whole frame (header + body) into bytes.

    Convenience for handshakes and tests; the transport's hot path frames
    straight out of its pack scratch instead (see
    ``repro.parallel.tcp_transport``).
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame body of {len(payload)} bytes exceeds the frame cap")
    return pack_header(kind, rank, len(payload)) + bytes(payload)


def encode_hello(client_id: int, epoch: int) -> bytes:
    """Encode the connection handshake frame."""
    return encode_frame(_HELLO_BODY.pack(client_id, epoch), kind=KIND_HELLO)


def decode_hello(body: Buffer) -> Tuple[int, int]:
    """Split a hello body into (client_id, epoch)."""
    if len(body) != HELLO_BODY_BYTES:
        raise FrameError(f"hello body of {len(body)} bytes, expected {HELLO_BODY_BYTES}")
    client_id, epoch = _HELLO_BODY.unpack(body)
    return client_id, epoch
