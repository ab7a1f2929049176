"""``--layers`` mode: each layer's public calls alone, at one workload's shapes.

Run by ``run.py --layers`` in a fresh process.  Every call is driven from a
single thread with nothing else running, so the figures are the per-call
*busy* cost of each layer; what a traced study shows on top of them is
waiting (for data, for room, for the interpreter lock, for a core).  The last
rows are the plain baseline: the same ensemble through the in-process
transport with a single thread client.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from typing import Callable, List

from bootstrap import prepare_process

#: Seconds spent on each timed call (at least ``MIN_CALLS`` calls).
BUDGET_SECONDS = 0.25
MIN_CALLS = 20


def measure(call: Callable[[], object], scale: float,
            prepare: Callable[[], object] = lambda: None) -> tuple:
    """(median per-call time in ``scale`` units, number of calls); ``prepare``
    runs untimed before every call."""
    samples: List[int] = []
    end = time.perf_counter() + BUDGET_SECONDS
    while len(samples) < MIN_CALLS or time.perf_counter() < end:
        prepare()
        began = time.perf_counter_ns()
        call()
        samples.append(time.perf_counter_ns() - began)
    return statistics.median(samples) * scale, len(samples)


def layer_rows(workload, seed: int) -> List[dict]:
    import numpy as np

    from repro.buffers import make_buffer
    from repro.buffers.columns import ColumnBatch
    from repro.core.study import OnlineStudy
    from repro.nn.losses import MSELoss
    from repro.nn.optim import Adam
    from repro.parallel.messages import TimeStepMessage, plan_many, unpack_columns
    from repro.parallel.transport import make_transport
    from repro.server.sharding import HashRing

    rows: List[dict] = []

    def row(name: str, unit: str, value: float, n: int) -> None:
        rows.append({"name": name, "unit": unit, "value": float(value), "n": int(n)})

    case = workload.build_case(seed)
    config = workload.build_config(seed)
    parameters = case.sample_parameters(1)[0]
    rng = np.random.default_rng(seed)

    # solvers: one step of the workload's solver (replay: zero compute).
    steps = case.solver_factory().iter_steps(case.parameters_to_solver(parameters))
    count = min(workload.num_steps, 200)
    began = time.perf_counter_ns()
    for _ in range(count):
        next(steps)
    row("solvers.step_ms", "ms", (time.perf_counter_ns() - began) * 1e-6 / count, count)

    # parallel.messages: one client batch at the workload's field size.
    width = workload.send_batch_size
    payload = rng.standard_normal(case.field_size).astype(np.float32)
    params = tuple(float(p) for p in parameters)
    batch = [
        TimeStepMessage(client_id=0, time_step=step, time_value=0.01 * step,
                        parameters=params, payload=payload, sequence_number=step)
        for step in range(1, width + 1)
    ]
    scratch = bytearray(plan_many(batch).nbytes)
    row("parallel.pack_us_per_batch", "us",
        *measure(lambda: plan_many(batch).write_into(scratch, 0), 1e-3))
    row("parallel.unpack_us_per_batch", "us", *measure(lambda: unpack_columns(scratch), 1e-3))
    row("parallel.bytes_per_batch", "bytes", len(scratch), 1)

    # parallel transport: push -> poll round trip of that batch, one process.
    transport = make_transport(config.transport_config.for_shard(0), 1,
                               max_concurrent_clients=config.max_concurrent_clients)
    try:
        transport.connect(0, batch_size=width)

        def round_trip() -> None:
            transport.push_many(0, batch)
            received = 0
            while received < width:
                for item in transport.poll_batches(0, max_messages=width, timeout=1.0):
                    received += len(item) if isinstance(item, ColumnBatch) else 1

        row(f"parallel.{workload.transport}.round_trip_us_per_batch", "us",
            *measure(round_trip, 1e-3))
    finally:
        transport.shutdown()

    # buffers: put_many of one drained chunk, get_batch_columns of one batch.
    chunk = unpack_columns(scratch)
    buffer = make_buffer(config.buffer_kind, capacity=config.buffer_capacity,
                         threshold=0, seed=seed)

    def make_room() -> None:
        # A Reservoir only evicts samples that were drawn at least once.
        while buffer.snapshot()["num_unseen"] + width > config.buffer_capacity:
            buffer.get_batch_columns(max(width, config.batch_size), timeout=0.0)

    value, n = measure(lambda: buffer.put_many(chunk, timeout=0.0), 1e-3 / width, make_room)
    row("buffers.put_us_per_sample", "us", value, n)
    row("buffers.get_us_per_batch", "us",
        *measure(lambda: buffer.get_batch_columns(config.batch_size, timeout=0.0), 1e-3))

    # nn: forward / backward / optimizer step on one training batch.
    model = case.model_factory()
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    loss = MSELoss()
    # The buffer hands the trainer float64 inputs and float32 targets.
    inputs = rng.uniform(100, 500, (config.batch_size, case.input_size))
    targets = rng.uniform(100, 500, (config.batch_size, case.field_size)).astype(np.float32)
    row("nn.forward_ms", "ms", *measure(lambda: model.forward(inputs), 1e-6))
    loss.forward(model.forward(inputs), targets)
    gradient = loss.backward()

    def backward() -> None:
        model.zero_grad()
        model.backward(gradient)

    row("nn.backward_ms", "ms", *measure(backward, 1e-6))
    row("nn.optim_ms", "ms", *measure(optimizer.step, 1e-6))

    # server.sharding: one ring lookup.
    ring = HashRing(max(workload.num_shards, 2))
    row("server.sharding.route_us", "us", *measure(lambda: ring.shard_for(12345), 1e-3))

    # Plain baseline: the same ensemble, in-process transport, one thread client.
    plain = replace(workload, transport="inproc", num_shards=1)
    plain_config = plain.build_config(seed)
    plain_config.max_concurrent_clients = 1
    result = OnlineStudy(plain.build_case(seed), plain_config).run()
    row("baseline.inproc_1client.study_wall_s", "s", result.total_elapsed, 1)
    row("baseline.inproc_1client.train_samples_per_s", "samples/s", result.total_throughput, 1)
    return rows


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    prepare_process()  # before numpy is imported, in layer_rows
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    print(json.dumps({"workload": workload.name, "rows": layer_rows(workload, args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
