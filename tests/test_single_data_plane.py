"""One data plane: samples leave every transport as ``ColumnBatch`` chunks.

``Transport.poll_batches`` is the one server-side drain.  On every backend —
by reference (inproc), over a queue (mp), a ring (shm), a socket (tcp) and
on the shard that owns the client behind the sharded front, which its
aggregators drain — it yields column chunks and control messages in arrival
order and never a ``TimeStepMessage``; input whose widths disagree is
rejected at the boundary (dropped and counted by the transport, refused with
``ValueError`` by the buffer) instead of travelling further.  The aggregator
thread reports a failure instead of dying silently.
"""

import time

import numpy as np
import pytest

from repro.buffers import make_buffer
from repro.buffers.columns import ColumnBatch
from repro.client.api import ClientAPI
from repro.parallel.messages import ClientFinished, ClientHello, TimeStepMessage
from repro.parallel.transport import PackedDrainMixin, TransportConfig, make_transport
from repro.server.server import ServerConfig, TrainingServer
from repro.server.sharding import HashRing, ShardedTransport

FIELD_LEN = 6
BACKENDS = ["inproc", "mp", "shm", "tcp", "sharded"]


def make_steps(count, client_id=0, start=0, field_len=FIELD_LEN, parameters=(1.5, -2.0)):
    return [
        TimeStepMessage(
            client_id=client_id,
            time_step=start + index,
            time_value=(start + index) * 0.5,
            parameters=parameters,
            payload=np.full(field_len, start + index, dtype=np.float32),
            sequence_number=start + index,
        )
        for index in range(count)
    ]


@pytest.fixture(params=BACKENDS)
def transport(request):
    if request.param == "sharded":
        shards = [make_transport("shm", 1, max_concurrent_clients=2) for _ in range(2)]
        transport = ShardedTransport(shards, HashRing(2))
    else:
        transport = make_transport(request.param, 1, max_concurrent_clients=2)
    yield transport
    transport.shutdown()


def endpoint_of(transport, client_id=0):
    """The transport a client's batches enter and a server drains: the owning
    shard behind the sharded front, the transport itself otherwise."""
    return transport.connect(client_id).transport


def drain(transport, expected, max_messages=64):
    """Poll until ``expected`` messages (a chunk counts its rows) arrived."""
    items = []
    deadline = time.monotonic() + 10.0
    while sum(len(i) if isinstance(i, ColumnBatch) else 1 for i in items) < expected:
        assert time.monotonic() < deadline, f"only got {items}"
        polled = transport.poll_batches(0, max_messages=max_messages, timeout=0.1)
        assert sum(len(i) if isinstance(i, ColumnBatch) else 1 for i in polled) <= max_messages
        items.extend(polled)
    return items


def test_every_backend_drains_through_the_one_drain(transport):
    """No backend overrides the budgeted drain; each only pops a batch."""
    for endpoint in getattr(transport, "shards", [transport]):
        assert type(endpoint).poll_batches is PackedDrainMixin.poll_batches


def test_poll_batches_yields_only_chunks_and_control_messages(transport):
    """Homogeneous runs, one mixed batch and a budget that splits a chunk."""
    endpoint = endpoint_of(transport)
    endpoint.push_many(0, make_steps(5))
    endpoint.push_many(0, make_steps(4, start=5))
    items = drain(endpoint, 9, max_messages=7)  # 7 < 9: some chunk is split
    assert all(isinstance(item, ColumnBatch) for item in items)
    assert max(len(item) for item in items) <= 7
    polled = ColumnBatch.concat(items)
    assert polled.time_steps.tolist() == list(range(9))
    assert polled.source_ids.tolist() == [0] * 9
    np.testing.assert_array_equal(polled.targets[:, 0], np.arange(9, dtype=np.float32))
    np.testing.assert_array_equal(polled.inputs[3], [1.5, -2.0, 1.5])

    # One mixed batch: the steps between two control messages still arrive
    # as a chunk, in order (at the parent commit they came back per message).
    mixed = [ClientHello(client_id=0), *make_steps(3, start=20), ClientFinished(client_id=0)]
    endpoint.push_many(0, mixed)
    items = drain(endpoint, 5)
    assert not any(isinstance(item, TimeStepMessage) for item in items)
    # One ordered channel per client on every backend: send order survives.
    assert [type(item) for item in items] == [ClientHello, ColumnBatch, ClientFinished]
    chunk = items[1]
    assert chunk.time_steps.tolist() == [20, 21, 22]
    assert transport.stats.dropped_messages == 0


def test_ragged_run_is_dropped_and_counted_once(transport):
    endpoint = endpoint_of(transport)
    endpoint.push_many(0, make_steps(3) + make_steps(1, start=3, field_len=FIELD_LEN + 2))
    deadline = time.monotonic() + 10.0
    while transport.stats.dropped_messages == 0:
        assert time.monotonic() < deadline, "the ragged run was never rejected"
        assert endpoint.poll_batches(0, timeout=0.05) == []
    # The well-formed batch behind the ragged one is delivered as usual.
    endpoint.push_many(0, make_steps(2, start=10))
    items = drain(endpoint, 2)
    assert [type(item) for item in items] == [ColumnBatch]
    assert items[0].time_steps.tolist() == [10, 11]
    assert transport.stats.dropped_messages == 1
    assert endpoint.poll_batches(0, timeout=0.05) == []


def send_nine_steps(backend):
    """9 steps, ``send_batch_size=4``, 2 ranks: each rank's drained columns.

    Rank 0 receives steps 1, 3, 5, 7 as one pushed block and step 9 as a
    second one flushed by the finished marker; rank 1 receives 2, 4, 6, 8.
    """
    transport = make_transport(backend, 2, max_concurrent_clients=1)
    try:
        api = ClientAPI(transport, client_id=0, send_batch_size=4)
        api.init_communication((1.5, -2.0), num_time_steps=9, field_shape=(FIELD_LEN,))
        for step in range(1, 10):
            api.send(step, step * 0.5, (1.5, -2.0), np.full(FIELD_LEN, step, np.float32))
        assert api.undelivered_steps() == [9]
        api.finalize_communication()
        per_rank = []
        for rank in range(2):
            items, deadline = [], time.monotonic() + 10.0
            while not (items and isinstance(items[-1], ClientFinished)):
                assert time.monotonic() < deadline, f"{backend}: rank {rank} got {items}"
                items.extend(transport.poll_batches(rank, timeout=0.1))
            per_rank.append(ColumnBatch.concat([i for i in items if isinstance(i, ColumnBatch)]))
        return per_rank
    finally:
        transport.shutdown()


def test_blocks_drain_to_the_same_columns_on_every_backend():
    """A ``ClientAPI`` stream is one set of columns whichever backend carries
    it: by reference (inproc) or encoded (shm, tcp, mp)."""
    drained = {backend: send_nine_steps(backend) for backend in ("inproc", "shm", "tcp", "mp")}
    reference = drained["inproc"]
    assert reference[0].time_steps.tolist() == [1, 3, 5, 7, 9]
    assert reference[1].time_steps.tolist() == [2, 4, 6, 8]
    assert reference[0].sequence_numbers.tolist() == [0, 2, 4, 6, 8]
    np.testing.assert_array_equal(reference[1].inputs[0], [1.5, -2.0, 1.0])
    for backend, ranks in drained.items():
        for got, want in zip(ranks, reference, strict=True):
            for column in ("inputs", "targets", "source_ids", "time_steps", "sequence_numbers"):
                assert getattr(got, column).dtype == getattr(want, column).dtype, backend
                np.testing.assert_array_equal(getattr(got, column), getattr(want, column),
                                              err_msg=f"{backend} {column}")


def column_batch(count, target_width, source_id):
    return ColumnBatch(
        np.ones((count, 3)),
        np.ones((count, target_width), np.float32),
        np.full(count, source_id, np.int64),
        np.arange(count, dtype=np.int64),
    )


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_width_mismatched_put_is_refused_before_anything_is_inserted(kind):
    """A batch of other widths, or anything that is not a ``ColumnBatch``, is
    refused before the policy takes a slot."""
    buffer = make_buffer(kind, capacity=16, threshold=0, seed=0)
    assert buffer.put_many(column_batch(2, 4, source_id=0)) == 2
    before = buffer.snapshot()
    with pytest.raises(ValueError, match=r"\(6,\).*\(4,\)"):
        buffer.put_many(column_batch(2, 6, source_id=1))
    with pytest.raises(ValueError, match=r"\(6,\).*\(4,\)"):
        buffer.put_many(column_batch(1, 6, source_id=1))
    with pytest.raises(TypeError, match="ColumnBatch"):
        buffer.put_many([column_batch(1, 4, source_id=1)])
    assert buffer.snapshot() == before  # the policy state is untouched
    assert len(buffer) == buffer.total_put == 2
    buffer.signal_reception_over()
    assert buffer.get_batch_columns(4, timeout=1.0).targets.shape == (2, 4)


def test_aggregator_failure_ends_the_server_run_with_its_cause(tiny_surrogate_case):
    """A chunk the buffer refuses kills the aggregator, which fails the
    transport; ``run`` must raise the original error promptly instead of
    timing out on an empty buffer."""
    case = tiny_surrogate_case
    transport = make_transport(TransportConfig(), 1)
    server = TrainingServer(
        ServerConfig(buffer_kind="fifo", buffer_capacity=64, buffer_threshold=0,
                     expected_clients=1),
        model_factory=case.model_factory,
        router=transport,
    )
    parameters = (300.0,) * (case.input_size - 1)
    # The hello separates the two runs, so each is a well-formed chunk and
    # the second one reaches the buffer with the wrong target width.
    transport.push_many(0, [
        *make_steps(4, field_len=case.field_size, parameters=parameters),
        ClientHello(client_id=1),
        *make_steps(2, client_id=1, field_len=case.field_size + 1, parameters=parameters),
    ])
    began = time.monotonic()
    with pytest.raises(ValueError, match="do not match the buffer's columns") as failure:
        server.run()
    assert time.monotonic() - began < 5.0
    assert transport.failure is failure.value



def test_negative_time_step_fails_the_server_run_at_the_dedup_log(tiny_surrogate_case):
    """A step the dedup log cannot hold (a negative one would alias the end
    of the client's byte map) fails the aggregator, closes its buffer and
    ends ``run`` with the ``ValueError``."""
    case = tiny_surrogate_case
    transport = make_transport(TransportConfig(), 1)
    server = TrainingServer(
        ServerConfig(buffer_kind="fifo", buffer_capacity=64, buffer_threshold=0,
                     expected_clients=1),
        model_factory=case.model_factory,
        router=transport,
    )
    parameters = (300.0,) * (case.input_size - 1)
    transport.push_many(0, make_steps(4, start=-2, field_len=case.field_size,
                                      parameters=parameters))
    with pytest.raises(ValueError, match="time step -2") as failure:
        server.run()
    assert transport.failure is failure.value
    assert server.buffers[0].closed
    assert len(server.buffers[0]) == 0
