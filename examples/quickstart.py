#!/usr/bin/env python
"""Quickstart: train a heat-equation surrogate online with the Reservoir buffer.

This is the smallest end-to-end use of the framework: an ensemble of
heat-equation simulations is run by the launcher, each time step is streamed
to the training server, and an MLP surrogate is trained concurrently with the
data generation — no file is ever written.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import HeatSurrogateCase, HeatSurrogateSpec, OnlineStudy, OnlineStudyConfig
from repro.core.config import SurrogateArchitecture
from repro.solvers.heat2d import HeatEquationConfig, HeatParameters


def main() -> None:
    # 1. Describe the use case: solver discretisation + surrogate architecture.
    #    (The paper uses a 1000x1000 grid and a 256x256 MLP; this quickstart is
    #    scaled down so it runs in a few seconds on a laptop.)
    case = HeatSurrogateCase(
        HeatSurrogateSpec(
            solver=HeatEquationConfig(nx=16, ny=16, num_steps=20, dt=0.01, alpha=1.0),
            architecture=SurrogateArchitecture(hidden_sizes=(64, 64)),
            sampler="latin_hypercube",
            seed=42,
        )
    )

    # 2. Generate a small held-out validation set (never seen during training).
    validation = case.generate_validation_set(num_simulations=3)

    # 3. Configure the online study: how many simulations, how they are
    #    submitted, which training buffer, how many server ranks ("GPUs").
    config = OnlineStudyConfig(
        num_simulations=24,
        series_sizes=(12, 12),        # two successive series of clients
        max_concurrent_clients=4,
        num_ranks=1,
        buffer_kind="reservoir",      # the paper's contribution
        buffer_capacity=120,
        buffer_threshold=30,
        batch_size=10,
        validation_interval=50,
        learning_rate=1e-3,
        lr_step_samples=2_000,
        seed=42,
    )

    # 4. Run: launcher + clients + server all live in this process.
    result = OnlineStudy(case, config, validation=validation).run()

    # 5. Inspect the outcome.
    print("=== online Reservoir training ===")
    print(f"simulations run           : {result.launcher.clients_completed}")
    print(f"unique samples streamed   : {result.unique_samples}")
    print(f"batches trained           : {result.total_batches}")
    print(f"total throughput          : {result.total_throughput:.1f} samples/s")
    print(f"best validation MSE       : {result.best_validation_loss:.4f}")
    print(f"total wall time           : {result.total_elapsed:.1f} s")

    # 6. Use the trained surrogate: predict the field for new parameters and a
    #    given time, and compare against the solver.
    model = result.server.model
    params = HeatParameters(t_ic=300.0, t_x1=450.0, t_y1=150.0, t_x2=250.0, t_y2=350.0)
    solver_series = case.solver_factory().run(params)
    time_value = solver_series.times[-1]
    surrogate_input = np.asarray([[*params.as_tuple(), time_value]], dtype=np.float32)
    prediction = model.forward(surrogate_input).reshape(case.solver_config.grid_shape)
    reference = solver_series.final()
    rel_error = np.linalg.norm(prediction - reference) / np.linalg.norm(reference)
    print(f"surrogate vs solver (t={time_value:.2f}s) relative L2 error: {rel_error:.3f}")


if __name__ == "__main__":
    main()
