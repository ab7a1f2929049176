"""A small NumPy neural-network library used as the training substrate.

The paper trains its surrogates with PyTorch/TensorFlow; this package provides
exactly what the paper's experiments train — one fully connected ReLU network
(:func:`build_mlp`) fitted with Adam on an MSE objective under a step
learning-rate schedule — plus the flat parameter arena that data-parallel
gradient averaging works on, all implemented from scratch on NumPy with
explicit backpropagation.
"""

from repro.nn.activations import ReLU
from repro.nn.containers import Sequential
from repro.nn.linear import Linear
from repro.nn.losses import Loss, MSELoss
from repro.nn.mlp import MLPConfig, build_mlp
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, Optimizer
from repro.nn.schedulers import LRScheduler, StepLR

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "Sequential",
    "Loss",
    "MSELoss",
    "Optimizer",
    "Adam",
    "LRScheduler",
    "StepLR",
    "MLPConfig",
    "build_mlp",
]
