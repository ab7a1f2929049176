"""Map-style dataset over a :class:`SimulationStore`.

Equivalent of the PyTorch ``Dataset`` the paper wraps around its files: every
item is one ``((X, t), u_t_X)`` pair addressed by a global index, loaded
lazily through the store's memory-mapped files.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.offline.storage import SimulationStore, StoredSimulation

Array = np.ndarray


class SimulationDataset:
    """Index of every (simulation, time-step) pair of a store."""

    def __init__(self, store: SimulationStore) -> None:
        self.store = store
        self._index: List[Tuple[StoredSimulation, int]] = []
        for simulation in store:
            for step_index in range(simulation.num_steps):
                self._index.append((simulation, step_index))
        if not self._index:
            raise ValueError("the simulation store is empty")
        self._field_cache: dict[int, Array] = {}

    def __len__(self) -> int:
        return len(self._index)

    @property
    def field_size(self) -> int:
        return self._index[0][0].field_size

    @property
    def input_size(self) -> int:
        """Surrogate input dimension: parameters + time."""
        return len(self._index[0][0].parameters) + 1

    def _fields_for(self, simulation: StoredSimulation) -> Array:
        cached = self._field_cache.get(simulation.simulation_id)
        if cached is None:
            cached = self.store.load_fields(simulation, mmap=True)
            self._field_cache[simulation.simulation_id] = cached
        return cached

    def __getitem__(self, index: int) -> Tuple[Array, Array]:
        """Return ``(inputs, target)`` for the global sample ``index``."""
        simulation, step_index = self._index[index]
        fields = self._fields_for(simulation)
        target = np.asarray(fields[step_index], dtype=np.float32)
        inputs = np.asarray(
            [*simulation.parameters, simulation.times[step_index]], dtype=np.float32
        )
        return inputs, target

    def sample_identity(self, index: int) -> Tuple[int, int]:
        """(simulation_id, time_step index) of a global sample (for bookkeeping)."""
        simulation, step_index = self._index[index]
        return simulation.simulation_id, step_index
