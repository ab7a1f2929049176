"""End-to-end smoke test: a tiny online study over the shm ring backend.

Same acceptance bar as the mp-backend smoke: clients as real OS processes
streaming packed batches through the shared-memory rings must train to
completion and deliver exactly the same sample counts as the in-process
backend — with no drops and no torn batches on the healthy path.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import ExperimentScale, build_case, run_online_with_buffer
from repro.parallel.transport import TransportConfig


@pytest.fixture(scope="module")
def smoke_scale() -> ExperimentScale:
    return replace(
        ExperimentScale(),
        nx=8,
        ny=8,
        num_steps=8,
        num_simulations=2,
        hidden_sizes=(8, 8),
        buffer_capacity=32,
        buffer_threshold=4,
        client_step_delay=0.0,
        inter_series_delay=0.0,
        batch_compute_delay=0.0,
        max_concurrent_clients=2,
    )


def test_shm_study_trains_and_matches_inproc_sample_counts(smoke_scale):
    case = build_case(smoke_scale)
    expected_unique = smoke_scale.num_simulations * smoke_scale.num_steps

    shm_result = run_online_with_buffer(
        "fifo", scale=smoke_scale, case=case, use_series=False,
        transport=TransportConfig(
            backend="shm", batch_size=4,
        ),
    )
    inproc_result = run_online_with_buffer(
        "fifo", scale=smoke_scale, case=case, use_series=False,
    )

    for result, label in ((shm_result, "shm"), (inproc_result, "inproc")):
        received = sum(s.samples_received for s in result.server.aggregator_stats)
        assert received == expected_unique, label
        assert result.launcher.clients_completed == smoke_scale.num_simulations, label
        assert result.launcher.clients_failed == 0, label
        assert np.isfinite(result.metrics.losses.final_training_loss), label

    assert shm_result.launcher.total_steps_sent == inproc_result.launcher.total_steps_sent

    # Transport accounting: every unique time step plus the hello/finished
    # control messages, nothing dropped, nothing torn; the ring actually
    # carried traffic (a non-zero depth high-water mark on some rank).
    stats = shm_result.server.transport_stats
    assert stats.messages_routed == expected_unique + 2 * smoke_scale.num_simulations
    assert stats.dropped_messages == 0
    assert stats.torn_batches == 0
    assert stats.bytes_routed > 0
    assert stats.unresponsive_kills == 0
    assert stats.ring_depth_high_water
    assert max(stats.ring_depth_high_water.values()) >= 1


def test_shm_study_with_more_simulations_than_ring_slots(smoke_scale):
    """The slot table multiplexes an ensemble larger than the ring grid.

    Six simulations stream over a grid sized for two concurrent clients:
    clients lease a ring at connect, the lease recycles when the finished
    marker lands on every rank, and the study delivers exactly the inproc
    sample counts — the paper's client counts no longer size the segment.
    """
    scale = replace(smoke_scale, num_simulations=6, max_concurrent_clients=2)
    case = build_case(scale)
    expected_unique = scale.num_simulations * scale.num_steps

    shm_result = run_online_with_buffer(
        "fifo", scale=scale, case=case, use_series=False,
        transport=TransportConfig(
            backend="shm", batch_size=4,
        ),
    )
    inproc_result = run_online_with_buffer(
        "fifo", scale=scale, case=case, use_series=False,
    )

    for result, label in ((shm_result, "shm"), (inproc_result, "inproc")):
        received = sum(s.samples_received for s in result.server.aggregator_stats)
        assert received == expected_unique, label
        assert result.launcher.clients_completed == scale.num_simulations, label
        assert result.launcher.clients_failed == 0, label

    stats = shm_result.server.transport_stats
    assert stats.messages_routed == expected_unique + 2 * scale.num_simulations
    assert stats.dropped_messages == 0
    assert stats.torn_batches == 0
