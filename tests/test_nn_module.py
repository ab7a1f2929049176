"""Tests for the Module/Parameter base machinery."""

import numpy as np

from repro.nn import Linear, ReLU, Sequential
from repro.nn.module import Parameter


def build_net(seed: int = 0) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng))


def test_parameter_shapes_and_zero_grad():
    param = Parameter(np.ones((3, 2)))
    assert param.shape == (3, 2)
    assert param.size == 6
    param.grad += 5.0
    param.zero_grad()
    assert np.all(param.grad == 0.0)


def test_named_parameters_and_count():
    net = build_net()
    names = [name for name, _ in net.named_parameters()]
    assert names == ["layers.0.weight", "layers.0.bias", "layers.2.weight", "layers.2.bias"]
    assert net.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3


def test_flat_gradients_roundtrip():
    net = build_net()
    x = np.random.default_rng(0).random((5, 4))
    out = net.forward(x)
    net.backward(np.ones_like(out))
    flat = net.flat_gradients()
    assert flat.shape == (net.num_parameters(),)
    net2 = build_net()
    net2.flat_gradients()[...] = flat
    assert np.allclose(net2.flat_gradients(), flat)


def test_astype_converts_parameters():
    net = build_net().astype(np.float32)
    assert all(param.dtype == np.float32 for param in net.parameters())


def test_zero_grad_clears_all():
    net = build_net()
    x = np.random.default_rng(0).random((2, 4))
    out = net.forward(x)
    net.backward(np.ones_like(out))
    assert any(np.any(param.grad != 0) for param in net.parameters())
    net.zero_grad()
    assert all(np.all(param.grad == 0) for param in net.parameters())
