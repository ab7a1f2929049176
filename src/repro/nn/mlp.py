"""The paper's surrogate architecture: a ReLU multilayer perceptron.

The paper's deep surrogate is a direct model: input ``(X, t)`` with
``X = (T_IC, T_x1, T_y1, T_x2, T_y2)`` (6 scalars total), two hidden layers of
256 ReLU neurons and an output layer producing the flattened temperature field
(1e6 neurons at full scale, configurable here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.containers import Sequential
from repro.nn.linear import Linear
from repro.utils.seeding import derive_rng


@dataclass
class MLPConfig:
    """Architecture description for :func:`build_mlp`.

    Attributes
    ----------
    in_features:
        Input dimension (6 for the heat-equation surrogate: 5 temperatures + t).
    hidden_sizes:
        Width of each hidden layer (the paper uses ``(256, 256)``).
    out_features:
        Output dimension (number of grid points of the temperature field).
    seed:
        Seed controlling the weight initialisation (the paper seeds it).
    dtype:
        Parameter dtype.
    """

    in_features: int = 6
    hidden_sizes: Sequence[int] = field(default_factory=lambda: (256, 256))
    out_features: int = 1_000_000
    seed: int = 0
    dtype: np.dtype = np.float64

    def __post_init__(self) -> None:
        if self.in_features <= 0 or self.out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        if any(h <= 0 for h in self.hidden_sizes):
            raise ValueError("hidden layer sizes must be positive")


def build_mlp(config: MLPConfig) -> Sequential:
    """Build the MLP ``Linear, ReLU, ..., Linear`` an :class:`MLPConfig` describes.

    Every layer draws its weights, in layer order, from one generator derived
    from ``config.seed``: replicas built from the same config are identical.
    """
    rng = derive_rng("mlp-init", config.seed)
    layers = []
    previous = config.in_features
    for width in config.hidden_sizes:
        layers += [Linear(previous, width, rng=rng, dtype=config.dtype), ReLU()]
        previous = width
    layers.append(Linear(previous, config.out_features, rng=rng, dtype=config.dtype))
    return Sequential(*layers)
