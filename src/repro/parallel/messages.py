"""Message types exchanged between clients and the training server.

The real framework serialises these over ZeroMQ; here they are plain dataclass
payloads carried by a :class:`repro.parallel.transport.Transport` backend.  The
wire-format concerns the paper cares about are preserved: each time-step
message carries the client (simulation) id, the time-step index, the input
parameters and the float32 field, so the server can deduplicate after a client
restart and build training samples without any additional lookup.

The module also defines the packed batch wire format used by the
multi-process transport backend (:func:`pack_many` / :func:`unpack_many`).
One batch serialises to **one** contiguous buffer::

    +--------------+------------------+-----+------------------+------+
    | batch header | message header 0 | ... | f64 params block | f32  |
    | (32 bytes)   | (per-type size)  |     | (all messages)   | block|
    +--------------+------------------+-----+------------------+------+

instead of one pickle per message: the per-message headers carry only scalars
and lengths, while every parameter tuple and every field payload is
concatenated into two contiguous numeric blocks at the end of the buffer.
``unpack_many`` reads both blocks with a single zero-copy ``np.frombuffer``
each and hands out array *views* into the batch buffer (or, with
``copy_payloads=True``, views into a single privately owned copy of the
payload block, so the batch buffer can be recycled at once).

Packing is zero-copy on the write side as well: :func:`plan_many` computes
the exact packed size without producing bytes, and :func:`pack_many_into`
writes the batch directly into a caller-provided buffer — the shm ring
transport packs straight into the acquired ring slot, the mp backend into a
reusable scratch buffer.  :func:`pack_many` is the standalone-buffer
convenience wrapper over the same writer.

The columnar drain goes one step further than :func:`unpack_many`: since the
wire layout already *is* columnar (one f64 params block, one f32 payload
block, fixed-stride step headers), :func:`unpack_columns` turns a
homogeneous packed batch into a single
:class:`~repro.buffers.columns.ColumnBatch` — a structured ``np.frombuffer``
parses every header at once and the payload block is copied exactly once
into the targets matrix the batch owns — without materialising any
per-message Python object.  :func:`columnize` produces the same chunk shape
from message objects: for transports that carry them by reference and for
the rare mixed wire batch (control + steps) that :func:`unpack_many`
decoded.  A ``ColumnBatch`` is the only form in which samples leave a
transport; a step run whose widths disagree is rejected with
:class:`WireFormatError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.buffers.columns import ColumnBatch
from repro.utils.exceptions import ReproError

Array = np.ndarray


@dataclass
class Message:
    """Base class of every client→server message."""

    client_id: int

    def nbytes(self) -> int:
        """Approximate payload size in bytes (used by throughput accounting)."""
        return 0


@dataclass
class ClientHello(Message):
    """First message of a client: announces itself and its metadata."""

    parameters: Tuple[float, ...] = ()
    num_time_steps: int = 0
    field_shape: Tuple[int, ...] = ()
    restart_count: int = 0

    def nbytes(self) -> int:
        return 8 * len(self.parameters) + 24


@dataclass
class TimeStepMessage(Message):
    """One simulation time step streamed to a server rank.

    Attributes
    ----------
    client_id:
        Identifier of the simulation instance (ensemble member).
    time_step:
        Index ``t`` of the field in the simulation's time series.
    time_value:
        Physical time corresponding to ``time_step``.
    parameters:
        The simulation input vector ``X`` (initial + boundary temperatures).
    payload:
        The flattened field ``u_t_X`` in float32 (already gathered on the
        client's rank 0 and down-converted, as in the paper).
    sequence_number:
        Per-client monotonically increasing counter used by the server's
        message log for deduplication after client restarts.
    """

    time_step: int = 0
    time_value: float = 0.0
    parameters: Tuple[float, ...] = ()
    payload: Array = field(default_factory=lambda: np.zeros(0, dtype=np.float32))
    sequence_number: int = 0

    def nbytes(self) -> int:
        return int(self.payload.nbytes) + 8 * len(self.parameters) + 32

    def __eq__(self, other: object) -> bool:
        """Field-wise equality with exact (dtype + bytes) payload comparison."""
        if not isinstance(other, TimeStepMessage):
            return NotImplemented
        return (
            self.client_id == other.client_id
            and self.time_step == other.time_step
            and self.time_value == other.time_value
            and self.parameters == other.parameters
            and self.sequence_number == other.sequence_number
            and self.payload.dtype == other.payload.dtype
            and np.array_equal(self.payload, other.payload)
        )


@dataclass
class ClientFinished(Message):
    """Last message of a client: no more data will be sent."""

    total_sent: int = 0

    def nbytes(self) -> int:
        return 16


# --------------------------------------------------------------------------
# Packed batch wire format.
# --------------------------------------------------------------------------

class WireFormatError(ReproError):
    """Raised when a buffer does not parse as a packed message batch."""


WIRE_MAGIC = b"RPRO"
WIRE_VERSION = 1

#: magic, version, flags, message count, header-region bytes (incl. padding),
#: total f64 parameters, total f32 payload elements.
_BATCH_HEADER = struct.Struct("<4sHHIIQQ")

_T_HELLO = 0
_T_STEP = 1
_T_FINISHED = 2
# Type code 3 is retired (a client-clocked heartbeat): a buffer carrying it
# fails to decode like any other unknown type.

#: type, client_id, n_params, num_time_steps, restart_count, ndim
#: (followed by ``ndim`` little-endian int64 shape extents).
_HELLO_HEADER = struct.Struct("<BqIqqB")
_SHAPE_DIM = struct.Struct("<q")
#: type, client_id, time_step, time_value, sequence_number, n_params, payload_len
_STEP_HEADER = struct.Struct("<BqqdqIQ")
#: type, client_id, total_sent
_FINISHED_HEADER = struct.Struct("<Bqq")

# Declared wire sizes of the packed headers above.  These are the numbers a
# reader on the other side of the ring hard-codes its offsets against;
# ``tools/reprolint`` (wire-layout rule) cross-checks each one against
# ``calcsize`` of its struct, so widening a field without bumping the declared
# size is a lint error instead of a torn batch.
BATCH_HEADER_BYTES = 32
HELLO_HEADER_BYTES = 30
STEP_HEADER_BYTES = 45
FINISHED_HEADER_BYTES = 17


class BatchPlan:
    """Precomputed layout of one packed batch (see :func:`plan_many`).

    Planning and writing are split so callers can learn the exact packed
    size *before* committing an output buffer — the shm ring transport picks
    (and, if needed, splits toward) a ring slot from ``nbytes`` alone, then
    packs straight into the slot's memoryview with :meth:`write_into`.
    """

    __slots__ = ("count", "header_bytes", "params", "payloads", "total_payload", "nbytes")

    def __init__(self, count: int, header_bytes: bytes, params: List[float],
        payloads: List[Array], total_payload: int) -> None:
        self.count = count
        self.header_bytes = header_bytes  # per-type headers, padded to 8 B
        self.params = params
        self.payloads = payloads
        self.total_payload = total_payload
        self.nbytes = (_BATCH_HEADER.size + len(header_bytes) + 8 * len(params) + 4 * total_payload)

    def write_into(self, buf, offset: int = 0) -> int:
        """Write the packed batch at ``buf[offset:]``; returns bytes written.

        ``buf`` is any writable buffer (bytearray, shared-memory memoryview).
        The caller is responsible for bounds — :func:`pack_many_into` is the
        checked public entry point.
        """
        _BATCH_HEADER.pack_into(
            buf, offset,
            WIRE_MAGIC, WIRE_VERSION, 0,
            self.count, len(self.header_bytes),
            len(self.params), self.total_payload,
        )
        cursor = offset + _BATCH_HEADER.size
        end = cursor + len(self.header_bytes)
        buf[cursor:end] = self.header_bytes
        if self.params:
            struct.pack_into(f"<{len(self.params)}d", buf, end, *self.params)
            end += 8 * len(self.params)
        if self.total_payload:
            payload_out = np.frombuffer(buf, dtype=np.float32,
                                        count=self.total_payload, offset=end)
            if len(self.payloads) == 1:
                payload_out[:] = self.payloads[0]
            else:
                np.concatenate(self.payloads, out=payload_out)
        return self.nbytes


def plan_many(messages: Sequence[Message]) -> BatchPlan:
    """Lay out a batch for packing: headers now, numeric blocks on write.

    All parameter tuples are concatenated into a single float64 block and all
    time-step payloads into a single float32 block, so a batch costs one
    output buffer regardless of its length.  Payloads are converted to flat
    float32 (the client-side preprocessing contract) if they are not already.

    """
    headers: List[bytes] = []
    params_flat: List[float] = []
    payload_parts: List[Array] = []
    total_payload = 0

    step_pack = _STEP_HEADER.pack
    for message in messages:
        kind = type(message)
        if kind is TimeStepMessage:
            payload = message.payload
            if payload.dtype != np.float32 or payload.ndim != 1 or not payload.flags.c_contiguous:
                payload = np.ascontiguousarray(payload, dtype=np.float32).ravel()
            headers.append(
                step_pack(
                    _T_STEP,
                    message.client_id,
                    message.time_step,
                    message.time_value,
                    message.sequence_number,
                    len(message.parameters),
                    payload.size,
                )
            )
            params_flat.extend(message.parameters)
            payload_parts.append(payload)
            total_payload += payload.size
        elif kind is ClientHello:
            headers.append(
                _HELLO_HEADER.pack(
                    _T_HELLO,
                    message.client_id,
                    len(message.parameters),
                    message.num_time_steps,
                    message.restart_count,
                    len(message.field_shape),
                )
                + b"".join(_SHAPE_DIM.pack(dim) for dim in message.field_shape)
            )
            params_flat.extend(message.parameters)
        elif kind is ClientFinished:
            headers.append(_FINISHED_HEADER.pack(_T_FINISHED, message.client_id,
                    message.total_sent))
        else:
            raise WireFormatError(f"cannot pack message of type {kind.__name__}")

    header_bytes = b"".join(headers)
    padding = (-len(header_bytes)) % 8  # align the numeric blocks for frombuffer
    if padding:
        header_bytes += b"\x00" * padding
    return BatchPlan(len(messages), header_bytes, params_flat, payload_parts, total_payload)


def pack_many_into(messages: Sequence[Message], buf, offset: int = 0) -> int:
    """Serialise a batch directly into ``buf[offset:]``; returns bytes written.

    The zero-copy counterpart of :func:`pack_many`: the batch header, the
    per-type message headers and both numeric blocks are written straight
    into the caller-provided buffer (a ring-slot memoryview, a reusable
    scratch bytearray), skipping the intermediate ``bytes`` object entirely.
    The written region is byte-for-byte identical to ``pack_many(messages)``.

    Raises :class:`ValueError` when the buffer is too small — callers size
    buffers from :func:`plan_many` (``plan.nbytes``) to avoid the double
    planning pass.
    """
    plan = plan_many(messages)
    room = len(buf) - offset
    if offset < 0 or room < plan.nbytes:
        raise ValueError(
            f"packed batch needs {plan.nbytes} bytes, buffer has {max(room, 0)} "
            f"(offset {offset})"
        )
    return plan.write_into(buf, offset)


def pack_many(messages: Sequence[Message]) -> bytes:
    """Serialise a batch of messages into one contiguous buffer.

    Delegates to the same planner/writer as :func:`pack_many_into`; kept as
    the convenience entry point for callers that want a standalone immutable
    buffer (tests, the control-queue path).
    """
    plan = plan_many(messages)
    out = bytearray(plan.nbytes)
    plan.write_into(out, 0)
    return bytes(out)


def unpack_many(buffer, copy_payloads: bool = False) -> List[Message]:
    """Deserialise a buffer produced by :func:`pack_many` / `pack_many_into`.

    ``buffer`` is any bytes-like object, including a *borrowed* memoryview of
    a shared-memory ring slot.  The two numeric blocks are read with one
    zero-copy ``np.frombuffer`` each; every ``TimeStepMessage.payload`` is a
    float32 view into the payload block, so unpacking performs no per-message
    payload copies.

    Ownership contract: with ``copy_payloads=False`` the payload views
    *borrow* the caller's buffer — they are valid only for as long as the
    caller keeps the buffer alive and unmodified (a ring slot is reused as
    soon as the read cursor advances).  With ``copy_payloads=True`` the
    payload block is copied **once** into a freshly allocated array the
    returned messages collectively own; the buffer can then be released or
    overwritten immediately (what the transports do before
    :func:`columnize` regroups a mixed batch).
    """
    if len(buffer) < _BATCH_HEADER.size:
        raise WireFormatError(f"buffer too short for batch header ({len(buffer)} bytes)")
    magic, version, _flags, count, header_nbytes, total_params, total_payload = (
        _BATCH_HEADER.unpack_from(buffer, 0)
    )
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    params_offset = _BATCH_HEADER.size + header_nbytes
    payload_offset = params_offset + 8 * total_params
    expected = payload_offset + 4 * total_payload
    if len(buffer) < expected:
        raise WireFormatError(
            f"truncated batch: {len(buffer)} bytes, header promises {expected}"
        )
    # One list conversion for the whole batch: tuple slicing off a plain
    # Python list is far cheaper than one ndarray slice + tolist per message.
    params_list = np.frombuffer(buffer, dtype=np.float64, count=total_params,
                                offset=params_offset).tolist()
    payload_block = np.frombuffer(buffer, dtype=np.float32, count=total_payload,
        offset=payload_offset)
    if copy_payloads:
        payload_block = payload_block.copy()  # one memcpy adopts every payload

    messages: List[Message] = []
    append = messages.append
    make_step = TimeStepMessage
    step_size = _STEP_HEADER.size
    params_cursor = 0
    payload_cursor = 0
    offset = _BATCH_HEADER.size
    step_unpack = _STEP_HEADER.unpack_from
    for _ in range(count):
        kind = buffer[offset]
        if kind == _T_STEP:
            (_, client_id, time_step, time_value, sequence_number,
                n_params, payload_len) = step_unpack(buffer, offset)
            offset += step_size
            parameters = tuple(params_list[params_cursor:params_cursor + n_params])
            params_cursor += n_params
            payload = payload_block[payload_cursor:payload_cursor + payload_len]
            payload_cursor += payload_len
            # Positional construction: keyword binding costs ~2x on this, the
            # only per-message allocation of the hot unpack loop.  Field
            # order: client_id, time_step, time_value, parameters, payload,
            # sequence_number.
            append(make_step(client_id, time_step, time_value, parameters,
                    payload, sequence_number))
        elif kind == _T_HELLO:
            (_, client_id, n_params, num_time_steps, restart_count, ndim) = (
                _HELLO_HEADER.unpack_from(buffer, offset)
            )
            offset += _HELLO_HEADER.size
            shape = tuple(
                _SHAPE_DIM.unpack_from(buffer, offset + index * _SHAPE_DIM.size)[0]
                for index in range(ndim)
            )
            offset += ndim * _SHAPE_DIM.size
            parameters = tuple(params_list[params_cursor:params_cursor + n_params])
            params_cursor += n_params
            messages.append(
                ClientHello(
                    client_id=client_id,
                    parameters=parameters,
                    num_time_steps=num_time_steps,
                    field_shape=shape,
                    restart_count=restart_count,
                )
            )
        elif kind == _T_FINISHED:
            _, client_id, total_sent = _FINISHED_HEADER.unpack_from(buffer, offset)
            offset += _FINISHED_HEADER.size
            messages.append(ClientFinished(client_id=client_id, total_sent=total_sent))
        else:
            raise WireFormatError(f"unknown message type code {kind} at offset {offset}")
    return messages


# --------------------------------------------------------------------------
# Columnar decode: packed batch -> ColumnBatch, no per-message objects.
# --------------------------------------------------------------------------

#: Vectorized view of a homogeneous run of step headers: one structured
#: ``np.frombuffer`` parses every header of a batch at once (the columnar
#: drain path).  Field offsets mirror ``_STEP_HEADER`` (``<BqqdqIQ``) byte
#: for byte, and the itemsize is pinned to ``STEP_HEADER_BYTES`` so the
#: wire-layout lint's calcsize cross-check on the struct keeps guarding the
#: layout this dtype shadows.
_STEP_HEADER_DTYPE = np.dtype(
    {
        "names": [
            "type",
            "client_id",
            "time_step",
            "time_value",
            "sequence_number",
            "n_params",
            "payload_len",
        ],
        "formats": ["u1", "<i8", "<i8", "<f8", "<i8", "<u4", "<u8"],
        "offsets": [0, 1, 9, 17, 25, 33, 37],
        "itemsize": STEP_HEADER_BYTES,
    }
)


def unpack_columns(buffer) -> Optional[ColumnBatch]:
    """Deserialise a packed batch straight into one :class:`ColumnBatch`.

    The columnar fast path of the drain: a batch that is a homogeneous run
    of time-step messages with uniform parameter and payload lengths parses
    with **no per-message loop** — one structured ``np.frombuffer`` reads
    every header, the f64 params block reshapes into the inputs matrix (the
    time value lands in the last column, completing the ``(X, t)`` training
    input per row), and the f32 payload block is copied once into the
    targets matrix the returned batch owns.  That copy is the adoption copy
    of ``unpack_many(copy_payloads=True)``: the caller's buffer (a ring
    slot about to be recycled) can be released the moment this returns.

    Returns ``None`` for mixed or ragged batches — callers regroup those
    with ``columnize(unpack_many(buffer))``, which rejects the ragged ones.
    Raises :class:`WireFormatError` for buffers that do not parse as a
    packed batch at all, exactly like :func:`unpack_many`.
    """
    if len(buffer) < _BATCH_HEADER.size:
        raise WireFormatError(f"buffer too short for batch header ({len(buffer)} bytes)")
    magic, version, _flags, count, header_nbytes, total_params, total_payload = (
        _BATCH_HEADER.unpack_from(buffer, 0)
    )
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    params_offset = _BATCH_HEADER.size + header_nbytes
    payload_offset = params_offset + 8 * total_params
    expected = payload_offset + 4 * total_payload
    if len(buffer) < expected:
        raise WireFormatError(
            f"truncated batch: {len(buffer)} bytes, header promises {expected}"
        )
    if not count or header_nbytes != (count * _STEP_HEADER.size + 7) // 8 * 8:
        return None
    headers = np.frombuffer(buffer, dtype=_STEP_HEADER_DTYPE, count=count,
                            offset=_BATCH_HEADER.size)
    if count <= 128:
        # Small-batch fast path: ``tolist`` + ``list.count`` run ~10x faster
        # than three ``(field == x).all()`` reductions at the paper's batch
        # size of 10, where numpy dispatch overhead dominates the check.
        kinds = headers["type"].tolist()
        if kinds.count(_T_STEP) != count:
            return None  # mixed batch whose header region size merely collides
        n_params_list = headers["n_params"].tolist()
        width = n_params_list[0]
        payload_len_list = headers["payload_len"].tolist()
        field_len = payload_len_list[0]
        if (n_params_list.count(width) != count
                or payload_len_list.count(field_len) != count):
            return None  # ragged run: columnize rejects it
    else:
        if not (headers["type"] == _T_STEP).all():
            return None  # mixed batch whose header region size merely collides
        n_params = headers["n_params"]
        width = int(n_params[0])
        payload_len = headers["payload_len"]
        field_len = int(payload_len[0])
        if not ((n_params == width).all() and (payload_len == field_len).all()):
            return None  # ragged run: columnize rejects it
    if total_params != count * width or total_payload != count * field_len:
        return None
    inputs = np.empty((count, width + 1), dtype=np.float64)
    if width:
        inputs[:, :width] = np.frombuffer(
            buffer, dtype=np.float64, count=total_params, offset=params_offset
        ).reshape(count, width)
    inputs[:, width] = headers["time_value"]
    targets = np.empty((count, field_len), dtype=np.float32)
    if field_len:
        # The one adoption copy: payload block -> owned targets matrix.
        targets[:] = np.frombuffer(
            buffer, dtype=np.float32, count=total_payload, offset=payload_offset
        ).reshape(count, field_len)
    return ColumnBatch(
        inputs=inputs,
        targets=targets,
        source_ids=headers["client_id"].astype(np.int64),
        time_steps=headers["time_step"].astype(np.int64),
        sequence_numbers=headers["sequence_number"].astype(np.int64),
    )


def _columnize_run(run: List[TimeStepMessage]) -> ColumnBatch:
    """One consecutive step run as a :class:`ColumnBatch`.

    Raises :class:`WireFormatError` for a ragged run: every step must carry
    as many parameters and as long a flat payload as the first one.
    """
    first = run[0]
    width = len(first.parameters)
    field_len = first.payload.size
    for message in run:
        if len(message.parameters) != width or message.payload.shape != (field_len,):
            raise WireFormatError(
                f"ragged step run: client {message.client_id} step {message.time_step} "
                f"has {len(message.parameters)} parameters and payload shape "
                f"{message.payload.shape}, the run started with {width} and ({field_len},)"
            )
    count = len(run)
    inputs = np.empty((count, width + 1), dtype=np.float64)
    if width:
        inputs[:, :width] = [message.parameters for message in run]
    inputs[:, width] = [message.time_value for message in run]
    targets = np.empty((count, field_len), dtype=np.float32)
    for index, message in enumerate(run):
        targets[index] = message.payload
    return ColumnBatch(
        inputs=inputs,
        targets=targets,
        source_ids=np.fromiter((m.client_id for m in run), np.int64, count),
        time_steps=np.fromiter((m.time_step for m in run), np.int64, count),
        sequence_numbers=np.fromiter((m.sequence_number for m in run), np.int64, count),
    )


def columnize(messages: Sequence[Message]) -> list:
    """Group consecutive time-step runs into :class:`ColumnBatch` chunks.

    The message-object counterpart of :func:`unpack_columns`: the
    in-process router and mixed wire batches deliver their step runs in the
    same columnar shape as the homogeneous wire batches, so the aggregator
    has a single sample representation.  Control messages pass through
    unchanged, in order; payloads are cast to float32 on the way into the
    targets matrix.  A ragged run (mixed parameter or payload lengths)
    raises :class:`WireFormatError`.
    """
    out: list = []
    run: List[TimeStepMessage] = []
    for message in messages:
        if type(message) is TimeStepMessage:
            run.append(message)
            continue
        if run:
            out.append(_columnize_run(run))
            run = []
        out.append(message)
    if run:
        out.append(_columnize_run(run))
    return out

