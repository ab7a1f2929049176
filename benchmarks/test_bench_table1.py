"""Benchmark reproducing Table 1: buffers x GPU counts (MSE, throughput, hours).

Paper result (250 simulations, 25 000 unique samples): online buffers remove
the separate generation phase; the Reservoir reaches the lowest validation MSE
of the online settings and is the only one whose throughput grows with the
number of GPUs (147 -> 476 samples/s from 1 to 4 GPUs), while offline training
is an order of magnitude slower end to end.
"""

from benchmarks.conftest import run_once
from repro.experiments.reporting import format_rows
from repro.experiments.table1 import run_table1


def test_table1(benchmark, bench_scale):
    rows = run_once(benchmark, run_table1, bench_scale, gpu_counts=(1, 2),
                    settings=("offline", "fifo", "firo", "reservoir"))

    print()
    print(format_rows([row.as_dict() for row in rows],
            title="Table 1 — training and throughput per buffer and GPU count"))

    by_key = {(row.buffer, row.gpus): row for row in rows}
    # Online settings have no separate generation phase.
    for (buffer_kind, _gpus), row in by_key.items():
        if buffer_kind != "offline":
            assert row.generation_hours == 0.0
    # Offline pays generation + I/O-bound training: lowest throughput of all.
    for gpus in (1, 2):
        reservoir = by_key[("reservoir", gpus)].mean_throughput
        assert by_key[("offline", gpus)].mean_throughput < reservoir
        assert reservoir >= by_key[("fifo", gpus)].mean_throughput
    # Reservoir throughput grows with the GPU count (FIFO's does not have to).
    assert by_key[("reservoir", 2)].mean_throughput > by_key[("reservoir", 1)].mean_throughput * 1.1
