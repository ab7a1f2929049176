"""Offline data pipeline (the paper's baseline).

In the offline setting the ensemble data is first generated and written to
disk (one binary file per simulation, as in the paper's 95.5 GB compressed
dataset), then read back epoch after epoch.  This package provides the
storage layer, the memory-mapped dataset and the shuffling dataloader.  The
training itself is the online loop: :class:`repro.core.study.OfflineStudy`
runs one :class:`repro.server.trainer.TrainingWorker` per rank with the
dataloader as its data source.
"""

from repro.offline.storage import SimulationStore, StoredSimulation
from repro.offline.dataset import SimulationDataset
from repro.offline.dataloader import DataLoader

__all__ = [
    "SimulationStore",
    "StoredSimulation",
    "SimulationDataset",
    "DataLoader",
]
