"""Ablation: round-robin client->server-rank distribution vs single-rank streaming.

The paper distributes each client's time steps round-robin over all server
ranks (offset by the client id) "to limit having all clients sending the same
time step to the same GPU" and to balance the data received per rank.  This
benchmark measures the per-rank balance and the time-step mixing achieved by
round-robin compared with sending every message of a client to one rank.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.buffers.columns import ColumnBatch
from repro.client.api import ClientAPI
from repro.experiments.reporting import format_rows
from repro.parallel.messages import TimeStepMessage
from repro.parallel.transport import MessageRouter


def _simulate_distribution(num_ranks: int, num_clients: int, steps: int, round_robin: bool):
    router = MessageRouter(num_ranks, max_queue_size=1_000_000)
    field = np.zeros(1, dtype=np.float32)
    apis = [ClientAPI(router, cid) for cid in range(num_clients)]
    for api in apis:
        api.init_communication((), num_time_steps=steps, field_shape=field.shape)
    for step in range(1, steps + 1):
        for cid, api in enumerate(apis):
            if round_robin:
                api.send(step, 0.0, (), field)
            else:
                router.push(cid % num_ranks,
                            TimeStepMessage(client_id=cid, time_step=step, payload=field))
    # Balance metric: samples per rank; mixing metric: how many distinct
    # time-step indices each rank received.
    per_rank_counts, per_rank_steps = [], []
    for rank in range(num_ranks):
        samples, seen = 0, set()
        while True:
            items = router.poll_batches(rank, max_messages=4096, timeout=None)
            if not items:
                break
            for chunk in items:
                if isinstance(chunk, ColumnBatch):
                    samples += len(chunk)
                    seen.update(chunk.time_steps.tolist())
        per_rank_counts.append(samples)
        per_rank_steps.append(len(seen))
    return per_rank_counts, per_rank_steps


def test_distribution_ablation(benchmark):
    num_ranks, num_clients, steps = 4, 6, 40

    def run():
        return {
            "round_robin": _simulate_distribution(num_ranks, num_clients, steps, True),
            "per_client_rank": _simulate_distribution(num_ranks, num_clients, steps, False),
        }

    results = run_once(benchmark, run)
    rows = []
    for mode, (counts, distinct_steps) in results.items():
        rows.append({
            "mode": mode,
            "per_rank_samples": str(counts),
            "imbalance": max(counts) - min(counts),
            "min_distinct_time_steps": min(distinct_steps),
        })
    print()
    print(format_rows(rows, title="Ablation — client->rank data distribution"))

    rr_counts, rr_steps = results["round_robin"]
    single_counts, single_steps = results["per_client_rank"]
    # Round-robin balances sample counts at least as well...
    assert max(rr_counts) - min(rr_counts) <= max(single_counts) - min(single_counts)
    # ...and exposes every rank to (nearly) the full range of time steps,
    # which reduces the intra-simulation bias of each rank's buffer.
    assert min(rr_steps) >= min(single_steps)
    assert min(rr_steps) >= steps * 0.75
