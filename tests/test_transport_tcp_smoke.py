"""End-to-end smoke test: a tiny online study over the TCP backend.

The socket deployment shape — forked client processes dialing the server's
asyncio front door and streaming length-prefixed packed frames — must train
to completion and deliver exactly the same sample counts as the in-process
backend, with nothing dropped on the loopback path.
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


def test_tcp_study_trains_and_matches_inproc_sample_counts(smoke_scale):
    case = build_case(smoke_scale)
    expected_unique = smoke_scale.num_simulations * smoke_scale.num_steps

    tcp_result = run_online_with_buffer(
        "fifo", scale=smoke_scale, case=case, use_series=False,
        transport=TransportConfig(backend="tcp", batch_size=4),
    )
    inproc_result = run_online_with_buffer(
        "fifo", scale=smoke_scale, case=case, use_series=False,
    )

    for result, label in ((tcp_result, "tcp"), (inproc_result, "inproc")):
        received = sum(s.samples_received for s in result.server.aggregator_stats)
        assert received == expected_unique, label
        assert result.launcher.clients_completed == smoke_scale.num_simulations, label
        assert result.launcher.clients_failed == 0, label
        assert np.isfinite(result.metrics.losses.final_training_loss), label

    assert tcp_result.launcher.total_steps_sent == inproc_result.launcher.total_steps_sent

    # Transport accounting: every unique time step plus the hello/finished
    # control messages crossed the sockets (counted at decode time in the
    # server process), and the loopback path dropped nothing.
    stats = tcp_result.server.transport_stats
    assert stats.messages_routed == expected_unique + 2 * smoke_scale.num_simulations
    assert stats.dropped_messages == 0
    assert stats.torn_batches == 0
    assert stats.bytes_routed > 0


def test_tcp_study_multi_rank(smoke_scale):
    """Two server ranks: frames route by the header's rank byte."""
    case = build_case(smoke_scale)
    expected_unique = smoke_scale.num_simulations * smoke_scale.num_steps

    result = run_online_with_buffer(
        "fifo", scale=smoke_scale, case=case, use_series=False, num_ranks=2,
        transport=TransportConfig(backend="tcp", batch_size=2),
    )

    received = sum(s.samples_received for s in result.server.aggregator_stats)
    assert received == expected_unique
    assert result.launcher.clients_failed == 0
    stats = result.server.transport_stats
    # Both ranks saw traffic and every message (steps + per-rank control
    # broadcasts) is accounted.
    assert set(stats.per_rank_messages) == {0, 1}
    assert stats.messages_routed == expected_unique + 2 * 2 * smoke_scale.num_simulations
    assert stats.dropped_messages == 0
