"""Message types exchanged between clients and the training server.

The real framework serialises these over ZeroMQ; here they are plain dataclass
payloads carried by a :class:`repro.parallel.transport.Transport` backend.  The
wire-format concerns the paper cares about are preserved: each time step
carries the client (simulation) id, the time-step index, the input parameters
and the float32 field, so the server can deduplicate after a client restart
and build training samples without any additional lookup.  A client's steps
travel as a :class:`StepBlock` (one row per ``ClientAPI.send``); a
``TimeStepMessage`` is the decoded form of one step.

The packed batch wire format every wire backend carries serialises one batch
to **one** contiguous buffer::

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
the exact packed size without producing bytes, and
:meth:`BatchPlan.write_into` writes the batch directly into a caller-provided
buffer — the shm ring slot, the mp/tcp scratch buffer.

The columnar drain goes one step further than :func:`unpack_many`: since the
wire layout already *is* columnar (one f64 params block, one f32 payload
block, fixed-stride step headers), :func:`unpack_columns` turns a
homogeneous packed batch into a single
:class:`~repro.buffers.columns.ColumnBatch` — a structured ``np.frombuffer``
parses every header at once and the payload block is copied exactly once
into the targets matrix the batch owns — without materialising any
per-message Python object.  :func:`columnize` produces the same chunk shape
from the blocks the in-process router hands over by reference and from a
rare mixed wire batch (control + steps) that :func:`unpack_many` decoded.
A ``ColumnBatch`` is the only form in which samples leave a transport; a
step run whose widths disagree is rejected with :class:`WireFormatError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import groupby
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

#: Every step header of a batch as one structured array: the block encoder
#: writes them through it and :func:`unpack_columns` parses them with it.
#: Field offsets mirror ``_STEP_HEADER`` (``<BqqdqIQ``) byte for byte; the
#: wire-layout lint checks each offset and format against the struct and the
#: itemsize against ``STEP_HEADER_BYTES``.
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


class StepBlock:
    """One client's time steps for one rank as columns, one row per step.

    Every row has ``width`` parameters and ``field_len`` flat float32 values;
    payloads stay views of the clients' fields until encoded or joined.
    """

    __slots__ = ("client_id", "width", "field_len", "time_steps", "time_values",
                 "sequence_numbers", "params", "payloads")

    def __init__(self, client_id: int, width: int, field_len: int) -> None:
        self.client_id = client_id
        self.width = width
        self.field_len = field_len
        self.time_steps: List[int] = []
        self.time_values: List[float] = []
        self.sequence_numbers: List[int] = []
        self.params: List[float] = []  # row-major, ``width`` per row
        self.payloads: List[Array] = []

    def __len__(self) -> int:
        return len(self.time_steps)

    def append(self, time_step: int, time_value: float, sequence_number: int,
               parameters: Sequence[float], payload: Array) -> None:
        """Add one row; a row of another shape raises and changes nothing."""
        if len(parameters) != self.width or payload.size != self.field_len:
            raise ValueError(
                f"client {self.client_id} step {time_step} has {len(parameters)} "
                f"parameters and {payload.size} field values, but its pending block "
                f"holds rows of {self.width} parameters and {self.field_len} field values"
            )
        self.time_steps.append(time_step)
        self.time_values.append(time_value)
        self.sequence_numbers.append(sequence_number)
        self.params.extend(parameters)
        self.payloads.append(payload)

    def __getitem__(self, index: slice) -> "StepBlock":
        """Rows ``index`` as a new block sharing the payload views."""
        start, stop, _ = index.indices(len(self))
        part = StepBlock(self.client_id, self.width, self.field_len)
        part.time_steps = self.time_steps[start:stop]
        part.time_values = self.time_values[start:stop]
        part.sequence_numbers = self.sequence_numbers[start:stop]
        part.params = self.params[start * self.width:stop * self.width]
        part.payloads = self.payloads[start:stop]
        return part

    def nbytes(self) -> int:
        """Traffic accounting: the sum of the rows' ``TimeStepMessage.nbytes``."""
        return len(self) * (4 * self.field_len + 8 * self.width + 32)


def batch_parts(batch) -> list:
    """A block, or a sequence of messages and blocks, as a list of blocks and
    control messages: consecutive ``TimeStepMessage`` objects of one client
    and shape become one block (payloads made flat float32)."""
    if type(batch) is StepBlock:
        return [batch]
    parts: list = []
    block: Optional[StepBlock] = None
    for message in batch:
        if type(message) is not TimeStepMessage:
            parts.append(message)
            block = None
            continue
        payload = np.asarray(message.payload, dtype=np.float32).ravel()
        width = len(message.parameters)
        if (block is None or block.client_id != message.client_id
                or block.width != width or block.field_len != payload.size):
            block = StepBlock(message.client_id, width, payload.size)
            parts.append(block)
        block.append(message.time_step, message.time_value, message.sequence_number,
                     message.parameters, payload)
    return parts


def message_count(parts: Sequence) -> int:
    """Wire messages in ``parts`` (a block counts its rows)."""
    return sum(len(part) if type(part) is StepBlock else 1 for part in parts)


class BatchPlan:
    """Precomputed layout of one packed batch (see :func:`plan_many`).

    Planning and writing are split so callers can learn the exact packed
    size *before* committing an output buffer — the shm ring transport picks
    (and, if needed, splits toward) a ring slot from ``nbytes`` alone, then
    packs straight into the slot's memoryview with :meth:`write_into`.
    ``parts`` holds step blocks and the packed ``(header, parameters)`` of
    control messages, in batch order.
    """

    __slots__ = ("count", "parts", "header_region", "total_params", "total_payload", "nbytes")

    def __init__(self, count: int, parts: list, header_bytes: int,
                 total_params: int, total_payload: int) -> None:
        self.count = count
        self.parts = parts
        self.header_region = -(-header_bytes // 8) * 8  # numeric blocks start 8-aligned
        self.total_params = total_params
        self.total_payload = total_payload
        self.nbytes = (_BATCH_HEADER.size + self.header_region
                       + 8 * total_params + 4 * total_payload)

    def write_into(self, buf, offset: int = 0) -> int:
        """Write the packed batch at ``buf[offset:]``; returns bytes written.

        ``buf`` is any writable buffer (bytearray, shared-memory memoryview).
        A block's step headers are written in one pass through
        ``_STEP_HEADER_DTYPE``; the params and payload blocks are copied once
        each, the payloads straight from the clients' fields.  The caller is
        responsible for bounds — :func:`pack_many_into` is the checked public
        entry point.
        """
        _BATCH_HEADER.pack_into(
            buf, offset,
            WIRE_MAGIC, WIRE_VERSION, 0,
            self.count, self.header_region,
            self.total_params, self.total_payload,
        )
        cursor = offset + _BATCH_HEADER.size
        params_at = cursor + self.header_region
        params: List[float] = []
        payloads: List[Array] = []
        for part in self.parts:
            if type(part) is not StepBlock:
                header, part_params = part
                buf[cursor:cursor + len(header)] = header
                cursor += len(header)
                params += part_params
                continue
            headers = np.frombuffer(buf, _STEP_HEADER_DTYPE, len(part), cursor)
            headers["type"] = _T_STEP
            headers["client_id"] = part.client_id
            headers["time_step"] = part.time_steps
            headers["time_value"] = part.time_values
            headers["sequence_number"] = part.sequence_numbers
            headers["n_params"] = part.width
            headers["payload_len"] = part.field_len
            cursor += len(part) * STEP_HEADER_BYTES
            params += part.params
            payloads += part.payloads
        buf[cursor:params_at] = bytes(params_at - cursor)  # header padding
        if params:
            struct.pack_into(f"<{len(params)}d", buf, params_at, *params)
        if self.total_payload:
            np.concatenate(payloads, out=np.frombuffer(
                buf, np.float32, self.total_payload, params_at + 8 * len(params)))
        return self.nbytes


def plan_many(batch) -> BatchPlan:
    """Lay out a batch for packing: sizes now, every byte on write.

    ``batch`` is a :class:`StepBlock` or a sequence of messages and blocks
    (see :func:`batch_parts`).  All parameters are concatenated into one
    float64 block and all time-step payloads into one float32 block, so a
    batch costs one output buffer regardless of its length.
    """
    parts: list = []
    count = header_bytes = total_params = total_payload = 0
    for part in batch_parts(batch):
        kind = type(part)
        if kind is StepBlock:
            rows = len(part)
            count += rows
            header_bytes += rows * STEP_HEADER_BYTES
            total_params += rows * part.width
            total_payload += rows * part.field_len
            parts.append(part)
            continue
        if kind is ClientHello:
            header = _HELLO_HEADER.pack(
                _T_HELLO,
                part.client_id,
                len(part.parameters),
                part.num_time_steps,
                part.restart_count,
                len(part.field_shape),
            ) + b"".join(_SHAPE_DIM.pack(dim) for dim in part.field_shape)
            parameters = part.parameters
        elif kind is ClientFinished:
            header = _FINISHED_HEADER.pack(_T_FINISHED, part.client_id, part.total_sent)
            parameters = ()
        else:
            raise WireFormatError(f"cannot pack message of type {kind.__name__}")
        count += 1
        header_bytes += len(header)
        total_params += len(parameters)
        parts.append((header, parameters))
    return BatchPlan(count, parts, header_bytes, total_params, total_payload)


def pack_many_into(messages: Sequence[Message], buf, offset: int = 0) -> int:
    """Bounds-checked :meth:`BatchPlan.write_into`; returns bytes written.

    Raises :class:`ValueError` when the buffer is too small.
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
    """Serialise a batch into one standalone immutable buffer."""
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

def unpack_columns(buffer) -> Optional[ColumnBatch]:
    """Deserialise a packed batch straight into one :class:`ColumnBatch`.

    The columnar fast path of the drain: a batch that is a homogeneous run
    of time-step messages with uniform parameter and payload lengths parses
    with **no per-message loop** — one structured ``np.frombuffer`` reads
    every header, the f64 params block is rounded once into the float32
    inputs matrix (the time value lands in the last column, completing the
    ``(X, t)`` training input per row), and the f32 payload block is copied
    once into the targets matrix the returned batch owns.  That copy is the
    adoption copy of ``unpack_many(copy_payloads=True)``: the caller's
    buffer (a ring slot about to be recycled) can be released the moment
    this returns.

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
    inputs = np.empty((count, width + 1), dtype=np.float32)
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


def join_blocks(blocks: Sequence[StepBlock]) -> ColumnBatch:
    """A run of step blocks as one :class:`ColumnBatch`: the by-reference
    counterpart of :func:`unpack_columns`, one payload copy per run.

    Raises :class:`WireFormatError` for a ragged run: every block must carry
    as many parameters and as long a flat payload as the first one.
    """
    width, field_len = blocks[0].width, blocks[0].field_len
    for block in blocks:
        if block.width != width or block.field_len != field_len:
            raise WireFormatError(
                f"ragged step run: client {block.client_id} step {block.time_steps[0]} "
                f"has {block.width} parameters and payload shape ({block.field_len},), "
                f"the run started with {width} and ({field_len},)"
            )

    def joined(column: str) -> list:
        return [value for block in blocks for value in getattr(block, column)]

    count = sum(len(block) for block in blocks)
    inputs = np.empty((count, width + 1), dtype=np.float32)
    inputs[:, :width] = np.reshape(joined("params"), (count, width))
    inputs[:, width] = joined("time_values")
    targets = np.empty((count, field_len), dtype=np.float32)
    np.concatenate(joined("payloads"), out=targets.reshape(-1))
    return ColumnBatch(
        inputs=inputs,
        targets=targets,
        source_ids=np.repeat(np.array([block.client_id for block in blocks], np.int64),
                             [len(block) for block in blocks]),
        time_steps=np.array(joined("time_steps"), dtype=np.int64),
        sequence_numbers=np.array(joined("sequence_numbers"), dtype=np.int64),
    )


def columnize(items: Sequence) -> list:
    """Join consecutive step runs — blocks or messages — into :class:`ColumnBatch` chunks.

    What the in-process router does with the blocks it hands over by
    reference, and what the wire backends do with a rare mixed batch that
    :func:`unpack_many` decoded: the aggregator sees one sample
    representation.  Control messages pass through unchanged, in order.  A
    ragged run (mixed parameter or payload lengths) raises
    :class:`WireFormatError`.
    """
    out: list = []
    for is_block, run in groupby(batch_parts(items), key=lambda part: type(part) is StepBlock):
        if is_block:
            out.append(join_blocks(list(run)))
        else:
            out.extend(run)
    return out
