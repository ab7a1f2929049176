"""Length-prefixed frame protocol of the tcp transport.

A frame is a fixed 16-byte header followed by a body:

* ``magic`` (4s) — ``b"RTCF"``; a connection that opens with anything else is
  a protocol violation and is dropped.
* ``version`` (u8) — wire protocol version, bumped on layout changes.
* ``kind`` (u8) — :data:`KIND_HELLO` (connection handshake: client id +
  dedup epoch) or :data:`KIND_BATCH` (one packed message batch,
  :func:`repro.parallel.messages.pack_many` layout).
* ``flags`` (u8) — body compression codec (:data:`_FLAG_ZLIB` /
  :data:`_FLAG_LZ4`; 0 means uncompressed).
* ``rank`` (u8) — destination server rank of a batch frame.
* ``body_len`` (u32) — bytes following the header on the wire (compressed
  size when a codec flag is set).
* ``raw_len`` (u32) — decompressed body size; equals ``body_len`` when the
  body is uncompressed, and lets the decoder verify the inflate.

Compression is decided **per batch**: the sender tries the configured codec
and falls back to an uncompressed body whenever compression does not shrink
the payload (tiny batches, already-dense float fields), so a stream may mix
compressed and uncompressed frames freely.  ``zlib`` is stdlib and always
available; ``lz4`` is optional and gated behind :func:`lz4_available`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple, Union

from repro.utils.exceptions import ReproError

try:  # optional codec: only ``compression="lz4"`` needs the lz4 package
    import lz4.frame as _lz4
except ImportError:  # the container image may not ship lz4; zlib always works
    _lz4 = None

Buffer = Union[bytes, bytearray, memoryview]


class FrameError(ReproError):
    """Raised for a frame that violates the wire protocol."""


FRAME_MAGIC = b"RTCF"
FRAME_VERSION = 1

# magic, version, kind, flags, rank, body_len, raw_len.
_FRAME_HEADER = struct.Struct("<4sBBBBII")
FRAME_HEADER_BYTES = 16

KIND_HELLO = 0
KIND_BATCH = 1

_FLAG_ZLIB = 0x01
_FLAG_LZ4 = 0x02

# client_id, epoch (the client's restart count at connect time).
_HELLO_BODY = struct.Struct("<qq")
HELLO_BODY_BYTES = 16

#: Upper bound on one frame body.  A header declaring more than this is
#: treated as stream corruption, not an allocation request — without the cap
#: a single garbage length field would make the server try to buffer 4 GiB.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Bodies below this size skip the compression attempt outright: the codec
#: call costs more than the handful of bytes it could save, and control
#: messages (hello, finished) all land here.
MIN_COMPRESS_BYTES = 512


def lz4_available() -> bool:
    """Whether the optional lz4 codec can be used in this interpreter."""
    return _lz4 is not None


def compress_body(payload: Buffer, compression: str | None) -> Tuple[Buffer, int]:
    """Compress ``payload`` per the configured codec; returns ``(body, flags)``.

    The codec is applied only when it actually shrinks the body — otherwise
    the original payload is returned with ``flags == 0``, so a stream mixes
    compressed and uncompressed frames as the data dictates.
    """
    raw_len = len(payload)
    if compression is None or raw_len < MIN_COMPRESS_BYTES:
        return payload, 0
    if compression == "zlib":
        # Level 1: the transport trades ratio for speed; the win over a NIC
        # comes from halving the bytes, not from squeezing the last percent.
        body: bytes = zlib.compress(bytes(payload), 1)
        flag = _FLAG_ZLIB
    elif compression == "lz4":
        if _lz4 is None:
            raise FrameError(
                "compression='lz4' requested but the lz4 package is not "
                "installed; use 'zlib' or None"
            )
        body = _lz4.compress(bytes(payload))
        flag = _FLAG_LZ4
    else:
        raise FrameError(f"unknown compression codec {compression!r}")
    if len(body) >= raw_len:
        return payload, 0
    return body, flag


def decode_body(body: Buffer, flags: int, raw_len: int) -> bytes:
    """Inflate a frame body back into packed-batch bytes, verifying its size."""
    if flags == 0:
        data = body if isinstance(body, bytes) else bytes(body)
    elif flags == _FLAG_ZLIB:
        try:
            data = zlib.decompress(body)
        except zlib.error as exc:
            raise FrameError(f"zlib frame body failed to inflate: {exc}") from exc
    elif flags == _FLAG_LZ4:
        if _lz4 is None:
            raise FrameError("received an lz4 frame but the lz4 package is not installed")
        try:
            data = _lz4.decompress(bytes(body))
        except Exception as exc:  # noqa: BLE001 - lz4 raises library-specific errors
            raise FrameError(f"lz4 frame body failed to inflate: {exc}") from exc
    else:
        raise FrameError(f"unknown frame flags 0x{flags:02x}")
    if len(data) != raw_len:
        raise FrameError(
            f"frame body decoded to {len(data)} bytes but the header declared {raw_len}"
        )
    return data


def pack_header(kind: int, flags: int, rank: int, body_len: int, raw_len: int) -> bytes:
    """Build one 16-byte frame header."""
    return _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, kind, flags, rank, body_len, raw_len)


def pack_header_into(
    buffer: Union[bytearray, memoryview],
    offset: int,
    kind: int,
    flags: int,
    rank: int,
    body_len: int,
    raw_len: int,
) -> None:
    """Write one frame header into ``buffer`` at ``offset`` (zero-copy path)."""
    _FRAME_HEADER.pack_into(
        buffer, offset, FRAME_MAGIC, FRAME_VERSION, kind, flags, rank, body_len, raw_len
    )


def parse_header(header: Buffer) -> Tuple[int, int, int, int, int]:
    """Validate and split a header; returns (kind, flags, rank, body_len, raw_len)."""
    magic, version, kind, flags, rank, body_len, raw_len = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if body_len > MAX_FRAME_BYTES or raw_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame body of {max(body_len, raw_len)} bytes exceeds the frame cap")
    return kind, flags, rank, body_len, raw_len


def encode_frame(
    payload: Buffer,
    rank: int = 0,
    kind: int = KIND_BATCH,
    compression: str | None = None,
) -> bytes:
    """Encode one whole frame (header + possibly compressed body) into bytes.

    Convenience for handshakes and tests; the transport's hot path frames
    straight out of its pack scratch instead (see
    ``repro.parallel.tcp_transport``).
    """
    raw_len = len(payload)
    if raw_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame body of {raw_len} bytes exceeds the frame cap")
    body, flags = compress_body(payload, compression)
    return pack_header(kind, flags, rank, len(body), raw_len) + bytes(body)


def decode_frame(frame: Buffer) -> Tuple[int, int, bytes]:
    """Decode one whole frame; returns (kind, rank, body bytes after inflate).

    The inverse of :func:`encode_frame` for exactly one complete frame —
    test and tooling convenience, the server reads header and body in two
    stream reads instead.
    """
    view = memoryview(frame)
    if len(view) < FRAME_HEADER_BYTES:
        raise FrameError(f"frame of {len(view)} bytes is shorter than a header")
    kind, flags, rank, body_len, raw_len = parse_header(view[:FRAME_HEADER_BYTES])
    if len(view) != FRAME_HEADER_BYTES + body_len:
        raise FrameError(
            f"frame of {len(view)} bytes does not match its declared body of {body_len}"
        )
    return kind, rank, decode_body(view[FRAME_HEADER_BYTES:], flags, raw_len)


def encode_hello(client_id: int, epoch: int) -> bytes:
    """Encode the connection handshake frame (always uncompressed)."""
    return encode_frame(_HELLO_BODY.pack(client_id, epoch), kind=KIND_HELLO)


def decode_hello(body: Buffer) -> Tuple[int, int]:
    """Split a hello body into (client_id, epoch)."""
    if len(body) != HELLO_BODY_BYTES:
        raise FrameError(f"hello body of {len(body)} bytes, expected {HELLO_BODY_BYTES}")
    client_id, epoch = _HELLO_BODY.unpack(body)
    return client_id, epoch
