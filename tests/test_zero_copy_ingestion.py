"""The view-based ingestion chain: adopt once, read in place everywhere else.

Pins the copy-ownership contract end to end for the columnar data plane:
``unpack_columns`` adopts a packed batch's payload block with one copy, the
aggregator hands the chunk to the buffer whose column store copies it exactly
once more (the insert), and ``TrainingWorker._stack_batch`` passes a drawn
:class:`ColumnBatch` to the forward pass **as-is** — its two matrices, no
per-record objects, no copy at all.
"""

import numpy as np

from repro.buffers import FIFOBuffer, FIROBuffer
from repro.buffers.columns import ColumnBatch
from repro.parallel.messages import TimeStepMessage, pack_many, unpack_columns
from repro.parallel.transport import MessageRouter
from repro.server.aggregator import DataAggregator
from repro.server.fault import MessageLog

FIELD_LEN = 12


def make_steps(count, client_id=0, start=0):
    return [
        TimeStepMessage(
            client_id=client_id,
            time_step=start + index,
            time_value=(start + index) * 0.1,
            parameters=(1.0, 2.0, 3.0),
            payload=np.arange(FIELD_LEN, dtype=np.float32) + start + index,
            sequence_number=start + index,
        )
        for index in range(count)
    ]


def make_aggregator(buffer):
    router = MessageRouter(num_server_ranks=1)
    return DataAggregator(
        rank=0, router=router, buffer=buffer, expected_clients=1, message_log=MessageLog()
    )


# ----------------------------------------------------------------- adoption
def test_adopted_chunk_flows_to_the_store_with_one_copy():
    """wire -> ColumnBatch -> store: the chunk owns its block, the insert
    copies it exactly once into the preallocated columns."""
    buffer = FIFOBuffer(capacity=64)
    aggregator = make_aggregator(buffer)
    wire = pack_many(make_steps(10))
    chunk = unpack_columns(wire)
    assert chunk is not None and len(chunk) == 10

    # The adoption copy: the chunk's columns are private, not wire views.
    wire_bytes = np.frombuffer(wire, dtype=np.uint8)
    assert not np.shares_memory(chunk.targets, wire_bytes)
    assert not np.shares_memory(chunk.inputs, wire_bytes)

    aggregator._handle_items([chunk])
    assert aggregator.stats.samples_received == 10
    # The insert copied the rows into the store; the chunk was not adopted
    # by reference (its columns may be sliced leftovers of a shared block).
    assert not np.shares_memory(buffer._store.targets, chunk.targets)
    assert not np.shares_memory(buffer._store.inputs, chunk.inputs)

    batch = buffer.get_batch_columns(10, timeout=1.0)
    np.testing.assert_array_equal(batch.time_steps, np.arange(10))
    for index in range(10):
        np.testing.assert_array_equal(
            batch.targets[index], np.arange(FIELD_LEN, dtype=np.float32) + index
        )
        # The float64 wire parameters, rounded once to the float32 sample dtype.
        np.testing.assert_array_equal(
            batch.inputs[index], np.array([1.0, 2.0, 3.0, index * 0.1], dtype=np.float32)
        )


def test_dedup_and_control_bookkeeping_survive_the_columnar_path():
    buffer = FIFOBuffer(capacity=64)
    aggregator = make_aggregator(buffer)
    wire = pack_many(make_steps(6))
    aggregator._handle_items([unpack_columns(wire)])
    aggregator._handle_items([unpack_columns(wire)])  # a restarted client resends
    assert aggregator.stats.samples_received == 6
    assert aggregator.stats.duplicates_discarded == 6
    assert buffer.total_put == 6


# -------------------------------------------------------------- stack batch
def _worker_stub():
    from repro.server.trainer import TrainerConfig, TrainingWorker

    worker = TrainingWorker.__new__(TrainingWorker)
    worker.config = TrainerConfig(batch_size=4)
    return worker


def test_stack_batch_passes_columns_through_untouched():
    """A drawn ColumnBatch IS the stacked batch: identity, not just aliasing."""
    buffer = FIROBuffer(capacity=64, threshold=0, seed=3)
    aggregator = make_aggregator(buffer)
    buffer.signal_reception_over()  # random draw order: irrelevant to columns
    aggregator._handle_items([unpack_columns(pack_many(make_steps(8)))])
    batch = buffer.get_batch_columns(4, timeout=1.0)

    inputs, targets = _worker_stub()._stack_batch(batch)
    assert inputs is batch.inputs
    assert targets is batch.targets
    assert inputs.shape == (4, 4) and targets.shape == (4, FIELD_LEN)


def test_interleaved_two_client_chunk_reaches_put_many_uncopied():
    """Two concurrent clients' chunks are merged per drain before dedup; when
    nothing is a duplicate the merged chunk must reach ``put_many`` as it is
    — no keep-mask, no ``compress`` copy of a chunk that lost no row."""
    buffer = FIFOBuffer(capacity=64)
    aggregator = make_aggregator(buffer)
    merged = ColumnBatch.concat([
        unpack_columns(pack_many(make_steps(4, client_id=0))),
        unpack_columns(pack_many(make_steps(4, client_id=1))),
        unpack_columns(pack_many(make_steps(4, client_id=0, start=4))),
    ])
    handed_over = []
    put_many = buffer.put_many

    def spy(batch, timeout=None):
        handed_over.append(batch)
        return put_many(batch, timeout)

    buffer.put_many = spy
    aggregator._handle_items([merged])
    assert aggregator.stats.samples_received == 12
    assert aggregator.stats.duplicates_discarded == 0
    assert len(handed_over) == 1 and len(handed_over[0]) == 12
    assert np.shares_memory(handed_over[0].targets, merged.targets)
    assert np.shares_memory(handed_over[0].inputs, merged.inputs)
