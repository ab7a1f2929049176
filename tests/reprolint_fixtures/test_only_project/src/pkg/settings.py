"""Settings the ``test-only`` rule must flag, and the calls that keep the rest."""

from dataclasses import dataclass
from typing import ClassVar, Optional


@dataclass(frozen=True)
class RunConfig:
    size: int = 4  # alive: ``benchmarks/bench.py`` passes it in its position
    retry_timeout: float = 1.0  # flagged: only ``tests/uses.py`` passes it
    seed: int = 0  # alive: ``benchmarks/bench.py`` passes it to ``replace``
    deadline: Optional[float] = None  # carved out: off unless asked for
    host: str = "127.0.0.1"  # carved out: a deployment setting
    port: int = 0  # carved out: a deployment setting
    LIMIT: ClassVar[int] = 8  # a class constant, not a setting


class Engine:
    def __init__(self, config, spin=0.001):  # ``spin`` flagged: no call passes it
        self.config = config
        self.spin = spin


class Pool:
    def __init__(self, workers=2):  # alive: ``benchmarks/bench.py`` splats ``**`` into Pool
        self.workers = workers


class Buffer:
    def __init__(self, capacity, threshold=1):  # alive: ``Fifo`` passes it to ``super()``
        self.capacity = capacity
        self.threshold = threshold


class Fifo(Buffer):
    def __init__(self, capacity):
        super().__init__(capacity, threshold=0)


def describe(engine, pool, fifo):
    config = engine.config
    return (config.size, config.retry_timeout, config.seed, config.deadline, config.host,
            config.port, config.LIMIT, engine.spin, pool.workers, fifo.capacity,
            fifo.threshold)
