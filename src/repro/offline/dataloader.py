"""Shuffling, rank-sharded batch source of the offline baseline.

The paper's offline baseline reads its file dataset through the PyTorch
``DataLoader``, epoch after epoch.  Here the loader stands where the online
training loop has its buffer: :class:`repro.server.trainer.TrainingWorker`
draws from it with the buffer's consumer call ``get_batch_columns(n,
timeout)``, so the online study and the baseline train through the same loop
and differ only in where the data comes from.  The per-sample cost of reading
the paper's full-size fields from a parallel filesystem is modelled by
``io_delay_per_sample``, slept inside the loader.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.buffers.columns import ColumnBatch
from repro.offline.dataset import SimulationDataset
from repro.utils.seeding import derive_rng

Array = np.ndarray


class DataLoader:
    """Shuffled mini-batches of a :class:`SimulationDataset` for ``num_epochs``.

    Parameters
    ----------
    dataset:
        The map-style dataset.
    num_epochs:
        Passes over the dataset; the sample order is reshuffled every epoch.
    seed:
        Seed of the shuffling RNG (the same on every rank, so the ranks'
        shards of an epoch never overlap).
    rank, world_size:
        Data-parallel sharding: the loader only yields the subset of samples
        assigned to ``rank`` (equivalent of a DistributedSampler).
    io_delay_per_sample:
        Seconds slept per sample read, emulating the filesystem's I/O cost.
    """

    def __init__(
        self,
        dataset: SimulationDataset,
        num_epochs: int = 1,
        seed: int = 0,
        rank: int = 0,
        world_size: int = 1,
        io_delay_per_sample: float = 0.0,
    ) -> None:
        if num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        if world_size <= 0 or not 0 <= rank < world_size:
            raise ValueError("invalid rank/world_size combination")
        self.dataset = dataset
        self.num_epochs = int(num_epochs)
        self.seed = int(seed)
        self.rank = int(rank)
        self.world_size = int(world_size)
        self.io_delay_per_sample = float(io_delay_per_sample)
        self._epoch = 0
        self._order: Array = np.empty(0, dtype=np.int64)
        self._cursor = 0

    # ---------------------------------------------------------------- indices
    def _epoch_indices(self) -> Array:
        indices = np.arange(len(self.dataset))
        rng = derive_rng("dataloader-shuffle", self.seed, self._epoch)
        rng.shuffle(indices)
        # Shard across data-parallel ranks, truncating so every shard has the
        # same length (ranks must execute the same number of batches or the
        # gradient all-reduce would deadlock).
        if self.world_size > 1:
            per_rank = len(indices) // self.world_size
            indices = indices[self.rank :: self.world_size][:per_rank]
        return indices

    def _collate(self, indices: Array) -> ColumnBatch:
        dataset = self.dataset
        inputs = np.empty((len(indices), dataset.input_size), dtype=np.float32)
        targets = np.empty((len(indices), dataset.field_size), dtype=np.float32)
        source_ids = np.empty(len(indices), dtype=np.int64)
        time_steps = np.empty(len(indices), dtype=np.int64)
        for row, index in enumerate(indices.tolist()):
            inputs[row], targets[row] = dataset[index]
            source_ids[row], time_steps[row] = dataset.sample_identity(index)
        return ColumnBatch(inputs, targets, source_ids, time_steps)

    # ---------------------------------------------------------------- consume
    def get_batch_columns(self, n: int, timeout: Optional[float] = None) -> ColumnBatch:
        """The next ``n`` samples of this rank's shard, as a :class:`ColumnBatch`.

        An epoch's last batch holds the remainder of its shard; the next call
        starts a freshly shuffled epoch.  Once ``num_epochs`` are read the
        result is empty, the training loop's stop signal.  ``timeout`` is
        accepted for the buffer's signature: reading never waits for data.
        """
        if n <= 0:
            raise ValueError("batch size must be positive")
        if self._cursor >= len(self._order) and self._epoch < self.num_epochs:
            self._order = self._epoch_indices()
            self._epoch += 1
            self._cursor = 0
        chunk = self._order[self._cursor : self._cursor + n]
        self._cursor += len(chunk)
        if self.io_delay_per_sample > 0 and len(chunk):
            time.sleep(self.io_delay_per_sample * len(chunk))
        return self._collate(chunk)
