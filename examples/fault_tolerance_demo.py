#!/usr/bin/env python
"""Fault tolerance: client failures, restarts and server-side deduplication.

The paper's framework restarts failed clients, and the server keeps a
per-client log of received messages so a restarted client's duplicates are
discarded.  This example exercises both on a small ensemble: two clients fail
mid-run, the launcher restarts them from step zero, and the server drops the
steps it already has.

The paper also checkpoints the server so that a supervisor can restart it
after a crash.  That half is not reproduced: the launcher runs inside the
server process and cannot outlive it, so a failed server thread fails the
study at once, with its cause.

Run with::

    python examples/fault_tolerance_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.config import SurrogateArchitecture
from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig
from repro.client.simulation_client import SimulationClient
from repro.parallel.transport import MessageRouter
from repro.server.server import ServerConfig, TrainingServer
from repro.solvers.heat2d import HeatEquationConfig


def main() -> None:
    case = HeatSurrogateCase(
        HeatSurrogateSpec(
            solver=HeatEquationConfig(nx=12, ny=12, num_steps=12),
            architecture=SurrogateArchitecture(hidden_sizes=(32, 32)),
            seed=1,
        )
    )
    num_clients = 8
    parameters = case.sample_parameters(num_clients)

    router = MessageRouter(num_server_ranks=1, max_queue_size=100_000)

    # --- server: one rank, Reservoir buffer, per-client dedup log ----------
    server = TrainingServer(
        config=ServerConfig(
            num_ranks=1,
            buffer_kind="reservoir",
            buffer_capacity=64,
            buffer_threshold=16,
            expected_clients=num_clients,
            learning_rate=1e-3,
            lr_step_batches=200,
        ),
        model_factory=case.model_factory,
        router=router,
    )

    # --- launcher with two clients that fail mid-run -----------------------
    def client_factory(spec: ClientSpec) -> SimulationClient:
        return SimulationClient(
            client_id=spec.client_id,
            parameters=tuple(float(p) for p in np.asarray(spec.parameters).ravel()),
            solver=case.solver_factory(),
            router=router,
            num_time_steps=case.solver_config.num_steps,
            step_delay=0.002,
            checkpoint_enabled=False,   # restarts resend everything -> server deduplicates
        )

    specs = [
        ClientSpec(
            client_id=index,
            parameters=row,
            solver_params=case.parameters_to_solver(row),
            fail_at_step=6 if index in (2, 5) else None,   # inject two failures
        )
        for index, row in enumerate(parameters)
    ]
    launcher = Launcher(client_factory, specs,
                        LauncherConfig(max_concurrent_clients=4, max_restarts=2))

    launcher.start()
    result = server.run()
    report = launcher.join()

    print("=== fault-tolerant online run ===")
    print(f"clients completed          : {report.clients_completed}/{num_clients}")
    print(f"client restarts            : {report.restarts}")
    print(f"duplicate messages dropped : {result.duplicates_discarded}")
    received = sum(stats.samples_received for stats in result.aggregator_stats)
    expected = num_clients * case.solver_config.num_steps
    print(f"unique samples trained from: {received} (expected {expected})")
    assert received == expected, "deduplication must restore the exact unique-sample budget"


if __name__ == "__main__":
    main()
