"""Shared message fixture of the transport benchmarks.

Both the wire-format benchmark (`test_bench_transport.py`) and the shm ring
benchmark (`test_bench_shm_ring.py`) must measure the *same* payloads or
their cross-backend speedups stop being comparable; the batch shape lives
here once.
"""

from collections import Counter

import numpy as np

from repro.buffers.columns import ColumnBatch
from repro.parallel.messages import TimeStepMessage

BATCH_SIZE = 10
NUM_BATCHES = 300
FIELD_SIZE = 256  # scaled-down flattened field, same order as the tiny studies
REPEATS = 7


def make_batch(start_step: int, client_id: int = 0):
    return [
        TimeStepMessage(
            client_id=client_id,
            time_step=start_step + index,
            time_value=(start_step + index) * 0.01,
            parameters=(100.0, 200.0, 300.0, 400.0, 500.0),
            payload=np.arange(FIELD_SIZE, dtype=np.float32),
            sequence_number=start_step + index,
        )
        for index in range(BATCH_SIZE)
    ]


BATCHES = [make_batch(batch * BATCH_SIZE) for batch in range(NUM_BATCHES)]


def drain_samples(transport, total: int, timeout: float = 5.0) -> Counter:
    """Drain ``total`` samples from rank 0 the way the server does.

    Returns the number of rows drained per client id, read off the chunks'
    ``source_ids`` column, so callers assert delivery per stream; control
    messages (a ``ClientAPI`` client's hello) are skipped.
    """
    per_client: Counter = Counter()
    drained = 0
    while drained < total:
        items = transport.poll_batches(0, max_messages=256, timeout=timeout)
        assert items, "transport stalled while draining"
        for chunk in items:
            if isinstance(chunk, ColumnBatch):
                per_client.update(chunk.source_ids.tolist())
                drained += len(chunk)
    return per_client
