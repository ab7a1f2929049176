"""Columnar ingestion: wire decoding and adoption semantics.

The SoA data plane carries :class:`ColumnBatch` chunks from the wire to the
forward pass, with no per-sample object anywhere.  These tests pin how a
chunk is decoded (from a packed batch or from message objects) and that an
adopted chunk is copied **exactly once** into the column store.
"""

import numpy as np
import pytest

from repro.buffers import FIFOBuffer
from repro.buffers import columns
from repro.buffers.columns import ColumnBatch, ColumnStore
from repro.nn import MLPConfig, build_mlp
from repro.parallel.messages import (
    ClientFinished,
    ClientHello,
    TimeStepMessage,
    WireFormatError,
    batch_parts,
    columnize,
    pack_many,
    unpack_columns,
    unpack_many,
)

FIELD_LEN = 6


def make_steps(count, client_id=0, start=0, field_len=FIELD_LEN):
    return [
        TimeStepMessage(
            client_id=client_id,
            time_step=start + index,
            time_value=(start + index) * 0.5,
            parameters=(1.5, -2.0),
            payload=np.arange(field_len, dtype=np.float32) * (start + index + 1),
            sequence_number=100 + start + index,
        )
        for index in range(count)
    ]


# ------------------------------------------------------------ wire decoding
def test_unpack_columns_matches_unpack_many_fieldwise():
    wire = pack_many(make_steps(9, client_id=3))
    chunk = unpack_columns(wire)
    messages = unpack_many(wire)
    assert chunk is not None and len(chunk) == len(messages)
    for row, message in enumerate(messages):
        assert chunk.source_ids[row] == message.client_id
        assert chunk.time_steps[row] == message.time_step
        assert chunk.sequence_numbers[row] == message.sequence_number
        np.testing.assert_array_equal(chunk.targets[row], message.payload)
        np.testing.assert_array_equal(
            chunk.inputs[row], [*message.parameters, message.time_value]
        )


def test_unpack_columns_owns_its_memory():
    wire = pack_many(make_steps(4))
    chunk = unpack_columns(wire)
    wire_bytes = np.frombuffer(wire, dtype=np.uint8)
    for column in (chunk.inputs, chunk.targets, chunk.source_ids, chunk.time_steps):
        assert not np.shares_memory(column, wire_bytes)
    assert chunk.inputs.dtype == np.float32
    assert chunk.targets.dtype == np.float32


def test_unpack_columns_declines_control_and_ragged_batches():
    steps = make_steps(3)
    assert unpack_columns(pack_many([ClientHello(client_id=0)])) is None
    assert unpack_columns(pack_many([*steps, ClientFinished(client_id=0)])) is None
    ragged = steps + make_steps(1, start=3, field_len=FIELD_LEN + 2)
    assert unpack_columns(pack_many(ragged)) is None


def test_columnize_matches_the_wire_decode_of_the_same_run():
    steps = make_steps(5, client_id=2)
    mixed = [ClientHello(client_id=2), *steps, ClientFinished(client_id=2)]
    items = columnize(mixed)
    assert isinstance(items[0], ClientHello)
    assert isinstance(items[1], ColumnBatch) and len(items[1]) == 5
    assert isinstance(items[2], ClientFinished)
    wire = unpack_columns(pack_many(steps))
    for column in ("inputs", "targets", "source_ids", "time_steps", "sequence_numbers"):
        grouped, decoded = getattr(items[1], column), getattr(wire, column)
        assert grouped.dtype == decoded.dtype
        np.testing.assert_array_equal(grouped, decoded)


def test_columnize_rejects_a_ragged_run():
    ragged = make_steps(3) + make_steps(1, start=3, field_len=FIELD_LEN + 2)
    with pytest.raises(WireFormatError, match=r"\(8,\).*\(6,\)"):
        columnize(ragged)
    wide = make_steps(2)
    wide[1].parameters = (1.5, -2.0, 3.0)
    with pytest.raises(WireFormatError, match="3 parameters"):
        columnize(wide)


# ---------------------------------------------------------------- ColumnBatch
def test_column_batch_slices_are_views_not_copies():
    chunk = unpack_columns(pack_many(make_steps(8)))
    part = chunk[2:6]
    assert len(part) == 4
    assert np.shares_memory(part.inputs, chunk.inputs)
    assert np.shares_memory(part.targets, chunk.targets)
    np.testing.assert_array_equal(part.time_steps, [2, 3, 4, 5])


def test_column_batch_compress_and_concat():
    chunk = unpack_columns(pack_many(make_steps(6)))
    keep = np.array([True, False, True, True, False, True])
    kept = chunk.compress(keep)
    np.testing.assert_array_equal(kept.time_steps, [0, 2, 3, 5])
    rejoined = ColumnBatch.concat([kept[:2], kept[2:]])
    np.testing.assert_array_equal(rejoined.time_steps, kept.time_steps)
    np.testing.assert_array_equal(rejoined.targets, kept.targets)
    assert chunk.compatible_with(kept)


# ----------------------------------------------------------------- ColumnStore
def test_store_insert_copies_the_chunk_exactly_once():
    """put_many(ColumnBatch) adopts by one vectorized copy into the columns;
    mutating the source afterwards must not reach the stored rows."""
    buffer = FIFOBuffer(capacity=16)
    chunk = unpack_columns(pack_many(make_steps(6)))
    assert buffer.put_many(chunk) == 6
    store = buffer._store
    assert not np.shares_memory(store.targets, chunk.targets)
    assert not np.shares_memory(store.inputs, chunk.inputs)
    chunk.targets[:] = -1.0  # the store must hold its own copy
    batch = buffer.get_batch_columns(6, timeout=1.0)
    np.testing.assert_array_equal(
        batch.targets[2], np.arange(FIELD_LEN, dtype=np.float32) * 3
    )


def test_gathered_batches_survive_slot_recycling():
    """A drawn batch owns its rows: refilling the freed slots cannot corrupt
    batches already handed to the trainer."""
    buffer = FIFOBuffer(capacity=4)
    buffer.put_many(unpack_columns(pack_many(make_steps(4))))
    first = buffer.get_batch_columns(4, timeout=1.0)
    snapshot = first.targets.copy()
    buffer.put_many(unpack_columns(pack_many(make_steps(4, start=50))))
    buffer.get_batch_columns(4, timeout=1.0)
    np.testing.assert_array_equal(first.targets, snapshot)


def test_a_failed_column_allocation_leaves_the_store_unallocated(monkeypatch):
    """A ``MemoryError`` on the second column leaves no column half-built:
    the retry allocates all four, instead of a later ``gather`` failing on
    a ``None`` column with an unrelated ``TypeError``."""
    store = ColumnStore(capacity=8)
    allocate = np.empty
    calls = []

    def failing_second_empty(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("injected")
        return allocate(*args, **kwargs)

    monkeypatch.setattr(columns.np, "empty", failing_second_empty)
    with pytest.raises(MemoryError, match="injected"):
        store.ensure_columns((3,), (5,))
    assert (store.inputs, store.targets, store.source_ids, store.time_steps) == (None,) * 4
    store.ensure_columns((3,), (5,))
    assert store.inputs.shape == (8, 3) and store.targets.shape == (8, 5)
    assert store.source_ids.shape == store.time_steps.shape == (8,)


# ------------------------------------------------------------ the sample dtype
def wire_inputs(messages):
    """The float64 ``(X, t)`` rows the wire carries for ``messages``."""
    return np.array([[*m.parameters, m.time_value] for m in messages], dtype=np.float64)


def test_sample_inputs_are_the_wire_parameters_rounded_once_to_float32():
    """Every door a sample enters by yields float32 inputs equal to the
    float64 wire values rounded once: the wire decode, the by-reference join
    of blocks, the join of a mixed batch's decoded messages, and a gather
    from the store.  A float32 model
    then computes the bits its own cast of the float64 rows would give."""
    steps = make_steps(7, client_id=4)
    for message in steps:  # values float32 cannot hold exactly
        message.parameters = (0.1 * message.time_step + 1 / 3, 1e-9 + 2.0**30)
        message.time_value = 0.01 * message.time_step + 1e-12
    expected = wire_inputs(steps).astype(np.float32)
    assert not np.array_equal(expected, wire_inputs(steps))  # rounding happened

    (joined_blocks,) = columnize(batch_parts(steps))
    (decoded_messages,) = columnize(unpack_many(pack_many(steps)))
    buffer = FIFOBuffer(capacity=16)
    buffer.put_many(unpack_columns(pack_many(steps)))
    gathered = buffer.get_batch_columns(7, timeout=1.0)
    for batch in (unpack_columns(pack_many(steps)), joined_blocks, decoded_messages, gathered):
        assert batch.inputs.dtype == np.float32
        np.testing.assert_array_equal(batch.inputs, expected)
    assert buffer._store.inputs.dtype == np.float32

    model = build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=4,
                                dtype=np.float32))
    assert np.array_equal(model.forward(gathered.inputs), model.forward(wire_inputs(steps)))


def test_store_allocates_every_column_with_the_first_sample():
    """An empty store holds no column memory, key columns included; a gather
    from it is an empty float32 batch, and the first put allocates all four."""
    buffer = FIFOBuffer(capacity=1000)
    store = buffer._store
    assert (store.inputs, store.targets, store.source_ids, store.time_steps) == (None,) * 4
    buffer.signal_reception_over()
    empty = buffer.get_batch_columns(10, timeout=0)
    assert len(empty) == 0 and empty.inputs.dtype == np.float32
    assert empty.source_ids.dtype == empty.time_steps.dtype == np.int64
    buffer.put_many(unpack_columns(pack_many(make_steps(3))))
    assert store.source_ids.shape == store.time_steps.shape == (1000,)
    assert store.inputs.shape == (1000, 3) and store.targets.shape == (1000, FIELD_LEN)
