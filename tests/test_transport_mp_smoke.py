"""End-to-end smoke test: a tiny online study over the multi-process backend.

The paper's deployment shape — clients as real OS processes streaming packed
batches to the server — must train to completion and deliver exactly the
same sample counts as the in-process backend.
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


def test_mp_study_trains_and_matches_inproc_sample_counts(smoke_scale):
    case = build_case(smoke_scale)
    expected_unique = smoke_scale.num_simulations * smoke_scale.num_steps

    mp_result = run_online_with_buffer(
        "fifo", scale=smoke_scale, case=case, use_series=False,
        transport=TransportConfig(backend="mp", batch_size=4),
    )
    inproc_result = run_online_with_buffer(
        "fifo", scale=smoke_scale, case=case, use_series=False,
    )

    for result, label in ((mp_result, "mp"), (inproc_result, "inproc")):
        received = sum(s.samples_received for s in result.server.aggregator_stats)
        assert received == expected_unique, label
        assert result.launcher.clients_completed == smoke_scale.num_simulations, label
        assert result.launcher.clients_failed == 0, label
        assert np.isfinite(result.metrics.losses.final_training_loss), label

    assert mp_result.launcher.total_steps_sent == inproc_result.launcher.total_steps_sent

    # Transport accounting: both backends routed every unique time step plus
    # the hello/finished control messages, and dropped nothing.
    stats = mp_result.server.transport_stats
    assert stats.messages_routed == expected_unique + 2 * smoke_scale.num_simulations
    assert stats.dropped_messages == 0
    assert stats.bytes_routed > 0
