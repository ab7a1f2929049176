"""File-backed storage of generated simulations.

One ``.npy`` file per simulation holds the stacked flattened fields (float32,
``num_steps x field_size``) and a JSON sidecar holds the parameters and time
values, mirroring the paper's "one binary file per simulation" layout.  Fields
are read back with ``numpy.memmap`` so a single time step can be loaded
without reading the whole file (the paper relies on ``mmap`` the same way).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

import numpy as np

Array = np.ndarray

_INDEX_FILE = "index.json"


@dataclass(frozen=True)
class StoredSimulation:
    """Metadata of one stored simulation."""

    simulation_id: int
    parameters: Tuple[float, ...]
    times: Tuple[float, ...]
    field_size: int
    path: str

    @property
    def num_steps(self) -> int:
        return len(self.times)

    @property
    def nbytes(self) -> int:
        """Size of the stored field data in bytes (float32)."""
        return self.num_steps * self.field_size * 4


class SimulationStore:
    """Directory of simulation files with an index for fast lookup."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._simulations: List[StoredSimulation] = []
        index_path = self.directory / _INDEX_FILE
        if index_path.exists():
            self._load_index()

    # ------------------------------------------------------------------ write
    def add_simulation(
        self,
        simulation_id: int,
        parameters: Sequence[float],
        times: Sequence[float],
        fields: Array,
    ) -> StoredSimulation:
        """Write one simulation to disk and register it in the index.

        ``fields`` is ``(num_steps, field_size)`` (or any shape whose first
        axis is the time dimension; trailing axes are flattened).
        """
        fields = np.asarray(fields, dtype=np.float32)
        fields = fields.reshape(fields.shape[0], -1)
        if fields.shape[0] != len(times):
            raise ValueError(
                f"fields have {fields.shape[0]} steps but {len(times)} time values were given"
            )
        filename = f"simulation_{simulation_id:06d}.npy"
        np.save(self.directory / filename, fields)
        record = StoredSimulation(
            simulation_id=int(simulation_id),
            parameters=tuple(float(p) for p in parameters),
            times=tuple(float(t) for t in times),
            field_size=int(fields.shape[1]),
            path=filename,
        )
        self._simulations.append(record)
        self._write_index()
        return record

    def _write_index(self) -> None:
        payload = [
            {
                "simulation_id": sim.simulation_id,
                "parameters": list(sim.parameters),
                "times": list(sim.times),
                "field_size": sim.field_size,
                "path": sim.path,
            }
            for sim in self._simulations
        ]
        (self.directory / _INDEX_FILE).write_text(json.dumps(payload))

    def _load_index(self) -> None:
        payload = json.loads((self.directory / _INDEX_FILE).read_text())
        self._simulations = [
            StoredSimulation(
                simulation_id=int(item["simulation_id"]),
                parameters=tuple(item["parameters"]),
                times=tuple(item["times"]),
                field_size=int(item["field_size"]),
                path=item["path"],
            )
            for item in payload
        ]

    # ------------------------------------------------------------------- read
    def __len__(self) -> int:
        return len(self._simulations)

    def __iter__(self) -> Iterator[StoredSimulation]:
        return iter(self._simulations)

    @property
    def simulations(self) -> List[StoredSimulation]:
        return list(self._simulations)

    def load_fields(self, simulation: StoredSimulation, mmap: bool = True) -> Array:
        """Load the ``(num_steps, field_size)`` field array of a simulation."""
        path = self.directory / simulation.path
        return np.load(path, mmap_mode="r" if mmap else None)

    # ------------------------------------------------------------- statistics
    @property
    def total_samples(self) -> int:
        """Total number of (simulation, time step) samples stored."""
        return sum(sim.num_steps for sim in self._simulations)

    @property
    def total_bytes(self) -> int:
        """Raw size of the stored field data."""
        return sum(sim.nbytes for sim in self._simulations)
