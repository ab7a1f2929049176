"""Tests for the MLP builder and its initialisation."""

import numpy as np
import pytest

from repro.core.config import SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.nn import Linear, MLPConfig, ReLU, build_mlp
from repro.solvers.heat2d import HeatEquationConfig
from repro.utils.seeding import derive_rng


def test_mlp_config_validation():
    with pytest.raises(ValueError):
        MLPConfig(in_features=0)
    with pytest.raises(ValueError):
        MLPConfig(hidden_sizes=(0,))


def test_build_mlp_shapes():
    config = MLPConfig(in_features=6, hidden_sizes=(32, 16), out_features=100, seed=1)
    model = build_mlp(config)
    out = model.forward(np.random.default_rng(0).random((4, 6)))
    assert out.shape == (4, 100)


def test_build_mlp_reproducible_by_seed():
    a = build_mlp(MLPConfig(in_features=4, hidden_sizes=(8,), out_features=3, seed=5))
    b = build_mlp(MLPConfig(in_features=4, hidden_sizes=(8,), out_features=3, seed=5))
    c = build_mlp(MLPConfig(in_features=4, hidden_sizes=(8,), out_features=3, seed=6))
    assert all(np.array_equal(p.data, q.data)
               for p, q in zip(a.parameters(), b.parameters(), strict=True))
    assert not np.array_equal(a.layers[0].weight.data, c.layers[0].weight.data)


def test_surrogate_mlp_matches_paper_architecture():
    """Paper: input 6, two hidden layers of 256 ReLU, output = grid points."""
    model = build_mlp(MLPConfig(out_features=1000, dtype=np.float32))
    assert [type(layer) for layer in model.layers] == [Linear, ReLU, Linear, ReLU, Linear]
    sizes = [layer.in_features for layer in model.layers if hasattr(layer, "in_features")]
    outs = [layer.out_features for layer in model.layers if hasattr(layer, "out_features")]
    assert sizes == [6, 256, 256]
    assert outs == [256, 256, 1000]
    assert all(p.dtype == np.float32 for p in model.parameters())


@pytest.mark.parametrize("seed", [0, 3])
def test_surrogate_initialisation_is_the_textbook_he_normal_draw(seed):
    """The surrogate the studies train (6 -> 256 -> 256 -> 1024 here) starts
    from one seeded generator: every Linear, in layer order, draws its weights
    N(0, 2 / fan_in) and casts them to float32; every bias starts at zero."""
    spec = HeatSurrogateSpec(
        solver=HeatEquationConfig(nx=32, ny=32, num_steps=2),
        architecture=SurrogateArchitecture(hidden_sizes=(256, 256)),
        seed=seed,
    )
    model = HeatSurrogateCase(spec).model_factory()
    rng = derive_rng("mlp-init", seed)
    expected = []
    for fan_in, fan_out in ((6, 256), (256, 256), (256, 1024)):
        weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        expected += [weight.astype(np.float32), np.zeros(fan_out, dtype=np.float32)]
    actual = [param.data for param in model.parameters()]
    assert [a.dtype for a in actual] == [np.float32] * 6
    for got, want in zip(actual, expected, strict=True):
        assert np.array_equal(got, want)


def test_paper_scale_parameter_count():
    """The full-scale surrogate has hundreds of millions of parameters.

    The architecture described in the paper (6 -> 256 -> 256 -> 1e6) counts
    ~257M trainable parameters; the paper quotes 514M, which matches the same
    layer sizes counted in both weights and Adam first moments (or an output
    of 2e6 values).  We assert the analytic count of the described layers and
    that it lies in the same order of magnitude as the quoted figure.
    """
    expected = 6 * 256 + 256 + 256 * 256 + 256 + 256 * 1_000_000 + 1_000_000
    assert expected == 257_067_584
    assert 2.5e8 < expected < 5.2e8
    assert expected * 2 == pytest.approx(5.14e8, rel=0.01)
