"""Tests for the launcher (series submission, concurrency, restarts)."""

import threading

import numpy as np
import pytest

from repro.client.simulation_client import SimulationClient
from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig
from repro.buffers.columns import ColumnBatch
from repro.parallel.messages import ClientFinished
from repro.parallel.transport import MessageRouter
from repro.solvers.heat2d import HeatEquationConfig, HeatEquationSolver, HeatParameters


def build_specs(count, fail_ids=()):
    rng = np.random.default_rng(0)
    specs = []
    for client_id in range(count):
        raw = rng.uniform(100, 500, size=5)
        specs.append(
            ClientSpec(
                client_id=client_id,
                parameters=raw,
                solver_params=HeatParameters.from_array(raw),
                fail_at_step=2 if client_id in fail_ids else None,
            )
        )
    return specs


def make_factory(router, num_steps=4, step_delay=0.0):
    config = HeatEquationConfig(nx=8, ny=8, num_steps=num_steps)

    def factory(spec: ClientSpec) -> SimulationClient:
        return SimulationClient(
            client_id=spec.client_id,
            parameters=tuple(float(p) for p in spec.parameters),
            solver=HeatEquationSolver(config),
            router=router,
            num_time_steps=num_steps,
            step_delay=step_delay,
        )

    return factory


def drain_time_steps(router, rank=0):
    """Everything queued for ``rank``: control messages and step chunks."""
    items = []
    while True:
        polled = router.poll_batches(rank, timeout=0.01)
        if not polled:
            return items
        items.extend(polled)


def test_launcher_config_validation():
    with pytest.raises(ValueError):
        LauncherConfig(max_concurrent_clients=0)
    with pytest.raises(ValueError):
        LauncherConfig(max_restarts=-1)


def test_launcher_runs_all_clients():
    router = MessageRouter(1)
    specs = build_specs(5)
    launcher = Launcher(make_factory(router, num_steps=3), specs,
                        LauncherConfig(max_concurrent_clients=2))
    report = launcher.run()
    assert report.clients_completed == 5
    assert report.clients_failed == 0
    assert report.total_steps_sent == 15
    messages = drain_time_steps(router)
    finished = [m for m in messages if isinstance(m, ClientFinished)]
    assert len(finished) == 5


def recording_factory(router, events, num_steps):
    """A client factory whose clients log ``("start" | "end", client_id)``."""
    lock = threading.Lock()
    config = HeatEquationConfig(nx=8, ny=8, num_steps=num_steps)

    class RecordingClient(SimulationClient):
        def run(self, solver_params=None):
            with lock:
                events.append(("start", self.client_id))
            result = super().run(solver_params=solver_params)
            with lock:
                events.append(("end", self.client_id))
            return result

    def factory(spec: ClientSpec) -> SimulationClient:
        return RecordingClient(
            client_id=spec.client_id,
            parameters=tuple(float(p) for p in spec.parameters),
            solver=HeatEquationSolver(config),
            router=router,
            num_time_steps=num_steps,
        )

    return factory


def assert_series(events, series):
    """Every client ran once, and each series started after the one before ended."""
    assert sorted(events) == sorted((kind, cid) for group in series for cid in group
                                    for kind in ("start", "end"))
    position = {event: index for index, event in enumerate(events)}
    for earlier, later in zip(series, series[1:]):
        assert (max(position["end", cid] for cid in earlier)
                < min(position["start", cid] for cid in later))


def test_launcher_series_execute_sequentially():
    """Series i+1 only starts after series i completed (throughput-stall cause)."""
    router = MessageRouter(1)
    events = []
    launcher = Launcher(
        recording_factory(router, events, num_steps=2), build_specs(6),
        LauncherConfig(series_sizes=(3, 3), max_concurrent_clients=3, inter_series_delay=0.05),
    )
    report = launcher.run()
    assert report.clients_completed == 6
    assert_series(events, [[0, 1, 2], [3, 4, 5]])


def test_launcher_extra_clients_form_final_series():
    router = MessageRouter(1)
    events = []
    launcher = Launcher(recording_factory(router, events, num_steps=1), build_specs(5),
                        LauncherConfig(series_sizes=(2, 2), max_concurrent_clients=2))
    report = launcher.run()
    assert report.clients_completed == 5
    assert_series(events, [[0, 1], [2, 3], [4]])  # 2 + 2 + remainder


def test_launcher_restarts_failed_clients_and_server_side_dedup_possible():
    router = MessageRouter(1)
    specs = build_specs(3, fail_ids=(1,))
    launcher = Launcher(make_factory(router, num_steps=4), specs,
                        LauncherConfig(max_concurrent_clients=3, max_restarts=2))
    report = launcher.run()
    assert report.clients_completed == 3
    assert report.restarts == 1
    messages = drain_time_steps(router)
    steps = [
        step
        for chunk in messages if isinstance(chunk, ColumnBatch)
        for step in chunk.time_steps[chunk.source_ids == 1].tolist()
    ]
    # With checkpointing, the restart resumes after the failure point: 4 unique steps.
    assert sorted(steps) == [1, 2, 3, 4]


def test_launcher_gives_up_after_max_restarts():
    router = MessageRouter(1)
    specs = build_specs(2, fail_ids=(0,))

    config = HeatEquationConfig(nx=8, ny=8, num_steps=4)

    class AlwaysFailingClient(SimulationClient):
        def prepare_restart(self):
            super().prepare_restart()
            self.fail_at_step = 2  # keep failing on every attempt

    def factory(spec: ClientSpec) -> SimulationClient:
        return AlwaysFailingClient(
            client_id=spec.client_id,
            parameters=tuple(float(p) for p in spec.parameters),
            solver=HeatEquationSolver(config),
            router=router,
            num_time_steps=4,
            fail_at_step=spec.fail_at_step,
        )

    launcher = Launcher(factory, specs, LauncherConfig(max_concurrent_clients=2, max_restarts=1))
    report = launcher.run()
    assert report.clients_failed == 1
    assert report.clients_completed == 1
    assert report.restarts >= 1


def test_launcher_background_start_and_join():
    router = MessageRouter(1)
    specs = build_specs(3)
    launcher = Launcher(make_factory(router, num_steps=2, step_delay=0.005), specs,
                        LauncherConfig(max_concurrent_clients=2))
    launcher.start()
    with pytest.raises(RuntimeError):
        launcher.start()
    report = launcher.join(timeout=30.0)
    assert not launcher.running
    assert report.clients_completed == 3


def test_launcher_join_without_start_raises():
    router = MessageRouter(1)
    launcher = Launcher(make_factory(router), build_specs(1))
    with pytest.raises(RuntimeError):
        launcher.join()
