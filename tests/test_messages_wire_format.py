"""Property-based round-trip tests of the packed batch wire format.

For every :class:`Message` subclass, hypothesis generates random shapes,
dtypes and parameter tuples and asserts ``unpack_many(pack_many(msgs))``
reproduces the messages byte-for-byte — including empty parameter tuples,
empty payload fields and 0-step clients.  Re-packing the unpacked batch must
reproduce the exact same buffer (the format is canonical).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel.messages import (
    BATCH_HEADER_BYTES,
    ClientFinished,
    ClientHello,
    Message,
    TimeStepMessage,
    WireFormatError,
    pack_many,
    pack_many_into,
    plan_many,
    unpack_columns,
    unpack_many,
)

# Finite doubles survive the float64 parameter block bit-for-bit; NaN is
# excluded only because NaN != NaN would break the equality assertions.
finite_floats = st.floats(allow_nan=False, allow_infinity=True, width=64)
parameter_tuples = st.lists(finite_floats, min_size=0, max_size=8).map(tuple)
client_ids = st.integers(min_value=0, max_value=2**40)

#: The composite message strategies discard a large share of their draws for
#: min_size >= 1 lists, which can trip the filter_too_much health check on an
#: unlucky seed even though generation succeeds — suppress just that check.
_lenient = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
        HealthCheck.too_slow])


@st.composite
def hello_messages(draw):
    return ClientHello(
        client_id=draw(client_ids),
        parameters=draw(parameter_tuples),
        num_time_steps=draw(st.integers(min_value=0, max_value=2**31)),
        field_shape=tuple(draw(st.lists(st.integers(0, 4096), max_size=4))),
        restart_count=draw(st.integers(min_value=0, max_value=64)),
    )


@st.composite
def time_step_messages(draw, dtype=np.float32):
    size = draw(st.integers(min_value=0, max_value=64))
    if np.issubdtype(np.dtype(dtype), np.floating):
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                    width=32), min_size=size, max_size=size))
    else:
        values = draw(st.lists(st.integers(-2**15, 2**15), min_size=size, max_size=size))
    return TimeStepMessage(
        client_id=draw(client_ids),
        time_step=draw(st.integers(min_value=0, max_value=2**31)),
        time_value=draw(finite_floats),
        parameters=draw(parameter_tuples),
        payload=np.asarray(values, dtype=dtype),
        sequence_number=draw(st.integers(min_value=0, max_value=2**31)),
    )


@st.composite
def finished_messages(draw):
    return ClientFinished(client_id=draw(client_ids), total_sent=draw(st.integers(0, 2**31)))


def any_message():
    return st.one_of(hello_messages(), time_step_messages(), finished_messages())


# ------------------------------------------------------------- per-subclass
@settings(max_examples=60, deadline=None)
@given(message=hello_messages())
def test_hello_round_trip(message):
    assert unpack_many(pack_many([message])) == [message]


@settings(max_examples=60, deadline=None)
@given(message=time_step_messages())
def test_time_step_round_trip_byte_for_byte(message):
    (restored,) = unpack_many(pack_many([message]))
    assert restored == message
    assert restored.payload.dtype == np.float32
    assert restored.payload.tobytes() == message.payload.tobytes()


@settings(max_examples=60, deadline=None)
@given(message=finished_messages())
def test_finished_round_trip(message):
    assert unpack_many(pack_many([message])) == [message]


def test_retired_heartbeat_type_code_is_rejected():
    """Type code 3 (the retired client-clocked heartbeat) no longer decodes:
    a buffer carrying it fails like any unknown type, columnar path included."""
    buffer = bytearray(pack_many([ClientFinished(client_id=7)]))
    buffer[BATCH_HEADER_BYTES] = 3  # the first message's type byte
    with pytest.raises(WireFormatError, match="unknown message type code 3"):
        unpack_many(buffer)
    assert unpack_columns(buffer) is None  # not a step batch: no fast path either


# ------------------------------------------------------------ mixed batches
@settings(max_examples=40, deadline=None)
@given(messages=st.lists(any_message(), min_size=0, max_size=20))
def test_mixed_batch_round_trip_and_canonical_repack(messages):
    buffer = pack_many(messages)
    restored = unpack_many(buffer)
    assert restored == messages
    # The format is canonical: re-packing the unpacked batch reproduces the
    # exact buffer, so equality above really is byte-for-byte.
    assert pack_many(restored) == buffer


@settings(max_examples=20, deadline=None)
@given(messages=st.lists(time_step_messages(dtype=np.float64), min_size=1, max_size=8))
def test_non_float32_payloads_are_canonicalised(messages):
    """Random payload dtypes: the wire always carries float32 (client contract)."""
    restored = unpack_many(pack_many(messages))
    for out, original in zip(restored, messages, strict=True):
        assert out.payload.dtype == np.float32
        np.testing.assert_array_equal(out.payload, original.payload.astype(np.float32))


def test_zero_step_client_conversation_round_trips():
    """A client that produces no time steps still announces and finishes."""
    conversation = [
        ClientHello(client_id=9, parameters=(), num_time_steps=0, field_shape=()),
        ClientFinished(client_id=9, total_sent=0),
    ]
    assert unpack_many(pack_many(conversation)) == conversation


def test_empty_payload_and_empty_batch():
    empty = TimeStepMessage(client_id=1, payload=np.zeros(0, dtype=np.float32))
    assert unpack_many(pack_many([empty])) == [empty]
    assert unpack_many(pack_many([])) == []


def test_unpacked_payload_is_zero_copy_view():
    message = TimeStepMessage(client_id=0, payload=np.arange(32, dtype=np.float32))
    (restored,) = unpack_many(pack_many([message]))
    assert not restored.payload.flags.writeable  # view into the batch buffer
    assert restored.payload.base is not None


def test_2d_payload_is_flattened_like_the_client_api():
    message = TimeStepMessage(client_id=0, payload=np.ones((4, 4), dtype=np.float32))
    (restored,) = unpack_many(pack_many([message]))
    assert restored.payload.shape == (16,)


# -------------------------------------------------------- pack-into a buffer
@_lenient
@given(messages=st.lists(any_message(), min_size=0, max_size=20),
    offset=st.integers(min_value=0, max_value=64),
    slack=st.integers(min_value=0, max_value=32))
def test_pack_many_into_is_byte_identical_at_any_offset(messages, offset, slack):
    """Zero-copy packing writes exactly the ``pack_many`` bytes, wherever the
    caller points it inside a larger buffer (ring slots start mid-segment)."""
    reference = pack_many(messages)
    sentinel = 0xAB
    buf = bytearray([sentinel]) * (offset + len(reference) + slack)
    written = pack_many_into(messages, buf, offset=offset)
    assert written == len(reference) == plan_many(messages).nbytes
    assert bytes(buf[offset : offset + written]) == reference
    # Bytes outside the written window are untouched.
    assert all(b == sentinel for b in buf[:offset])
    assert all(b == sentinel for b in buf[offset + written :])


@_lenient
@given(messages=st.lists(any_message(), min_size=1, max_size=12),
    shortfall=st.integers(min_value=1, max_value=64))
def test_pack_many_into_rejects_undersized_buffer(messages, shortfall):
    need = plan_many(messages).nbytes
    buf = bytearray(max(need - shortfall, 0))
    with pytest.raises(ValueError, match="buffer"):
        pack_many_into(messages, buf)


@_lenient
@given(messages=st.lists(time_step_messages(), min_size=1, max_size=16),
    pieces=st.integers(min_value=2, max_value=4))
def test_split_runs_unpack_to_the_original_sequence(messages, pieces):
    """The ring transport splits oversized runs into sub-batches; packing the
    halves separately (the wraparound/slot-split case) must reproduce the
    original message sequence on concatenated unpack."""
    bounds = sorted({(i * len(messages)) // pieces for i in range(1, pieces)})
    chunks, start = [], 0
    for bound in [*bounds, len(messages)]:
        if bound > start:
            chunks.append(messages[start:bound])
            start = bound
    restored = []
    for chunk in chunks:
        buf = bytearray(plan_many(chunk).nbytes)
        nbytes = pack_many_into(chunk, buf)
        restored.extend(unpack_many(bytes(buf[:nbytes]), copy_payloads=True))
    assert restored == messages


@_lenient
@given(messages=st.lists(any_message(), min_size=0, max_size=16))
def test_copy_payloads_adopts_and_detaches_from_the_buffer(messages):
    """``copy_payloads=True`` returns equal messages whose payloads no longer
    reference the wire buffer (one shared privately owned block instead)."""
    buffer = pack_many(messages)
    borrowed = unpack_many(buffer)
    adopted = unpack_many(buffer, copy_payloads=True)
    assert adopted == borrowed == messages
    wire = np.frombuffer(buffer, dtype=np.uint8)
    for message in adopted:
        if isinstance(message, TimeStepMessage):
            assert not np.shares_memory(message.payload, wire)


def test_pack_many_into_writable_memoryview_target():
    """Ring slots hand out memoryviews, not bytearrays."""
    messages = [TimeStepMessage(client_id=3, time_step=1,
                                payload=np.arange(8, dtype=np.float32))]
    backing = bytearray(1024)
    view = memoryview(backing)[128:]
    written = pack_many_into(messages, view)
    assert bytes(view[:written]) == pack_many(messages)


# ------------------------------------------------------------------- errors
def test_unpack_rejects_bad_magic():
    buffer = pack_many([ClientFinished(client_id=0)])
    with pytest.raises(WireFormatError, match="magic"):
        unpack_many(b"XXXX" + buffer[4:])


def test_unpack_rejects_unknown_version():
    buffer = bytearray(pack_many([ClientFinished(client_id=0)]))
    buffer[4] = 99
    with pytest.raises(WireFormatError, match="version"):
        unpack_many(bytes(buffer))


def test_unpack_rejects_truncated_buffer():
    buffer = pack_many([TimeStepMessage(client_id=0,
                                        payload=np.ones(8, dtype=np.float32))])
    with pytest.raises(WireFormatError, match="truncated|too short"):
        unpack_many(buffer[: len(buffer) - 5])
    with pytest.raises(WireFormatError):
        unpack_many(buffer[:3])


def test_pack_rejects_unknown_message_type():
    class Rogue(Message):
        pass

    with pytest.raises(WireFormatError, match="Rogue"):
        pack_many([Rogue(client_id=0)])
