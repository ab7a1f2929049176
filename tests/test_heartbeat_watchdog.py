"""Heartbeat-driven unresponsive-client kill through the process launcher.

The paper's protocol: the server watches for unresponsive clients and asks
the launcher to properly kill and restart them.  Here the server side is the
:class:`HeartbeatMonitor` fed by the aggregator (any received message counts
as liveness, stamped on the server's clock) and the launcher side is the
``heartbeat_timeout`` watchdog in process client mode: a client that stops
making progress *without dying* — the failure mode a runtime cap cannot
catch promptly and process liveness cannot catch at all — is killed,
counted in ``TransportStats.unresponsive_kills``, restarted, and
deduplicated.
"""

import time
from typing import Iterator, Tuple

import numpy as np

from fault_clients import HangingClient
from repro.buffers import FIFOBuffer
from repro.client.simulation_client import SimulationClient
from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig
from repro.parallel.shm_ring import ShmRingTransport
from repro.server.aggregator import DataAggregator
from repro.server.fault import HeartbeatMonitor, MessageLog

NUM_STEPS = 8
FIELD_SIZE = 16
DEADLINE = 30.0


class TinySolver:
    """Deterministic stand-in solver: yields small fields with a step delay."""

    def __init__(self, step_delay: float = 0.01) -> None:
        self.step_delay = step_delay

    def iter_steps(self, params) -> Iterator[Tuple[int, float, np.ndarray]]:
        for step in range(1, NUM_STEPS + 1):
            time.sleep(self.step_delay)
            field = np.full(FIELD_SIZE, float(step), dtype=np.float32)
            yield step, step * 0.1, field


def make_harness(heartbeat_timeout, solver_delay=0.01, hang=False, max_restarts=2):
    """Transport + aggregator + single-client process launcher, wired up."""
    transport = ShmRingTransport(
        num_server_ranks=1, max_concurrent_clients=2, ring_slots=16, ring_slot_bytes=8192
    )
    buffer = FIFOBuffer(capacity=10 * NUM_STEPS)
    monitor = HeartbeatMonitor()
    aggregator = DataAggregator(
        rank=0,
        router=transport,
        buffer=buffer,
        expected_clients=1,
        message_log=MessageLog(),
        heartbeat_monitor=monitor,
    )

    def client_factory(spec: ClientSpec) -> SimulationClient:
        kind = HangingClient if hang else SimulationClient
        return kind(
            client_id=spec.client_id,
            parameters=(1.0, 2.0),
            solver=TinySolver(step_delay=solver_delay),
            router=transport,
            num_time_steps=NUM_STEPS,
        )

    spec = ClientSpec(client_id=0, parameters=np.asarray([1.0, 2.0]))
    launcher = Launcher(
        client_factory,
        [spec],
        LauncherConfig(
            client_mode="process",
            heartbeat_timeout=heartbeat_timeout,
            max_restarts=max_restarts,
        ),
        heartbeat_monitor=monitor,
    )
    return transport, aggregator, launcher


def run_to_completion(transport, aggregator, launcher):
    aggregator.start()
    try:
        report = launcher.run()
        deadline = time.monotonic() + DEADLINE
        while not aggregator.reception_complete and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        aggregator.stop()
        transport.shutdown()
    return report


def test_hanging_client_is_killed_restarted_and_deduplicated():
    transport, aggregator, launcher = make_harness(heartbeat_timeout=0.5, hang=True)
    report = run_to_completion(transport, aggregator, launcher)

    # The hang was detected and the client killed exactly once, then the
    # restarted incarnation (hang cleared) completed the stream.
    assert report.unresponsive_kills == 1
    assert report.restarts == 1
    assert report.clients_completed == 1
    assert report.clients_failed == 0
    assert transport.stats.unresponsive_kills == 1

    # Every unique step arrived exactly once; the resent prefix was dedup'd.
    assert aggregator.stats.samples_received == NUM_STEPS
    assert aggregator.stats.duplicates_discarded >= 1
    assert aggregator.reception_complete


def test_watchdog_spares_a_slow_but_alive_client():
    """Steady progress refreshes the deadline: no kill, no restart."""
    # Slow (8 steps x 80 ms), but never silent longer than the 0.4 s deadline.
    transport, aggregator, launcher = make_harness(heartbeat_timeout=0.4, solver_delay=0.08)
    report = run_to_completion(transport, aggregator, launcher)

    assert report.unresponsive_kills == 0
    assert report.restarts == 0
    assert report.clients_completed == 1
    assert transport.stats.unresponsive_kills == 0
    assert aggregator.stats.samples_received == NUM_STEPS
