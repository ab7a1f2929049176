"""The four workloads of the end-to-end benchmark and how each is built.

Every workload is one fixed ensemble run through ``OnlineStudy.run()`` on a
2-core box: two concurrent clients, one rank per server, closed loop (a client
blocks on a full channel or buffer — the paper's back-pressure).  The sizes
below were probed so that one study lasts a few seconds and a benchmark run
of ``run_seconds`` fits several of them; ``BENCHMARK.json`` carries the same
``why`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from loadgen import ReplayCase

from repro.core.config import OnlineStudyConfig, SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.parallel.transport import ShardOptions, TransportConfig
from repro.solvers.heat2d import HeatEquationConfig

MAX_CONCURRENT_CLIENTS = 2


@dataclass(frozen=True)
class Workload:
    """Sizes and wiring of one benchmark workload."""

    name: str
    why: str
    transport: str
    grid: int
    num_steps: int
    num_simulations: int
    hidden_sizes: Tuple[int, ...]
    buffer_capacity: int
    buffer_threshold: int
    batch_size: int = 10
    send_batch_size: int = 1
    num_shards: int = 1
    #: Bound of every rank channel (messages on inproc, batches on the wire
    #: backends): small, so a slow server back-pressures its clients.
    queue_size: int = 256
    #: ``None`` replays pre-generated fields (zero compute per step).
    linear_solver: Optional[str] = "lu"
    validation_simulations: int = 1

    @property
    def unique_samples(self) -> int:
        return self.num_simulations * self.num_steps

    def build_case(self, seed: int) -> HeatSurrogateCase:
        """The use case: seeded sampler, seeded model init, seeded replay."""
        solver = HeatEquationConfig(
            nx=self.grid,
            ny=self.grid,
            num_steps=self.num_steps,
            linear_solver=self.linear_solver or "lu",
        )
        spec = HeatSurrogateSpec(
            solver=solver,
            architecture=SurrogateArchitecture(hidden_sizes=self.hidden_sizes),
            seed=seed,
        )
        return ReplayCase(spec) if self.linear_solver is None else HeatSurrogateCase(spec)

    def build_config(self, seed: int) -> OnlineStudyConfig:
        """The study configuration; ``seed`` also seeds the buffer draws."""
        transport = TransportConfig(
            backend=self.transport,
            batch_size=self.send_batch_size,
            queue_size=self.queue_size,
            shard=ShardOptions(num_shards=self.num_shards),
        )
        return OnlineStudyConfig(
            num_simulations=self.num_simulations,
            max_concurrent_clients=MAX_CONCURRENT_CLIENTS,
            num_ranks=1,
            buffer_kind="reservoir",
            buffer_capacity=self.buffer_capacity,
            buffer_threshold=self.buffer_threshold,
            batch_size=self.batch_size,
            # One validation pass at the end of training (the ``val_mse``
            # check); periodic passes would stall the trainer at moments that
            # depend on thread timing.
            validation_interval=0,
            transport=transport,
            seed=seed,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="train_bound.inproc",
            why=(
                "thread clients + real 32x32 LU solver feed a 256x256 MLP: nn and the "
                "trainer loop do the work, the transport almost none"
            ),
            transport="inproc",
            grid=32,
            num_steps=100,
            num_simulations=40,
            hidden_sizes=(256, 256),
            buffer_capacity=2000,
            buffer_threshold=200,
        ),
        Workload(
            name="ingest_bound.shm",
            why=(
                "forked clients replay 1 KB fields over shm rings into a tiny MLP: "
                "header-bound pack/unpack, ring, aggregator and write-heavy put_many"
            ),
            transport="shm",
            grid=16,
            num_steps=10_000,
            num_simulations=16,
            hidden_sizes=(8,),
            buffer_capacity=160_000,
            buffer_threshold=160_000,
            batch_size=100,
            send_batch_size=32,
            linear_solver=None,
        ),
        Workload(
            name="serving.tcp_2shard",
            why=(
                "same replay traffic with 16 KB fields over tcp + AsyncFrontDoor into 2 "
                "hash-routed shards: bytes-bound wire, socket framing, serving/sharding"
            ),
            transport="tcp",
            grid=64,
            num_steps=400,
            num_simulations=26,
            hidden_sizes=(8,),
            buffer_capacity=4000,
            buffer_threshold=100,
            batch_size=100,
            send_batch_size=8,
            num_shards=2,
            linear_solver=None,
        ),
        Workload(
            name="solver_bound.shm_cg",
            why=(
                "the paper's regime: forked CG solvers on a 96x96 grid set the wall "
                "time while the trainer re-reads a small Reservoir (read-heavy buffer)"
            ),
            transport="shm",
            grid=96,
            num_steps=30,
            num_simulations=8,
            hidden_sizes=(32, 32),
            buffer_capacity=200,
            buffer_threshold=50,
            send_batch_size=1,
            linear_solver="cg",
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same wiring at toy size (the tier-1 smoke test, ~1 s per study)."""
    steps = 40 if workload.linear_solver is None else 6
    sims = 4
    return replace(
        workload,
        grid=min(workload.grid, 16),
        num_steps=steps,
        num_simulations=sims,
        hidden_sizes=tuple(min(h, 16) for h in workload.hidden_sizes),
        buffer_capacity=min(workload.buffer_capacity, max(sims * steps, 20)),
        buffer_threshold=10,
        batch_size=min(workload.batch_size, 10),
    )
