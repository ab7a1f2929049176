"""The float32-resident train step: dtype contract, parameter arena, flat Adam.

:class:`repro.nn.optim.Adam` updates two flat vectors in place; the reference
here is the textbook per-parameter formula, written out with temporaries, and
stays the specification the flat code is held to.
"""

import numpy as np
import pytest

from nn_reference import gradient_check
from repro.nn import Adam, Linear, MLPConfig, MSELoss, Sequential, build_mlp, optim
from repro.nn.arena import ParameterArena
from repro.nn.module import Parameter
from repro.server.validation import ValidationSet, Validator

# Tolerances fixed from the dtype before measuring: the flat kernels reorder a
# few scalar multiplications, which moves results by a few ulp per step.  The
# absolute term covers elements that cancel towards zero and so carry the
# rounding of their O(0.1) history (weights here are O(0.1-1)).
RTOL = {np.float32: 1e-5, np.float64: 1e-12}
ATOL = {np.float32: 1e-7, np.float64: 1e-14}


def small_mlp(dtype, seed=0):
    return build_mlp(
        MLPConfig(in_features=6, hidden_sizes=(16, 12), out_features=20, seed=seed, dtype=dtype)
    )


def surrogate(out_features, hidden_sizes):
    """A float32 surrogate, as the studies build it."""
    return build_mlp(MLPConfig(hidden_sizes=hidden_sizes, out_features=out_features,
                               dtype=np.float32))


def linears(model):
    return [layer for layer in model.layers if isinstance(layer, Linear)]


# --------------------------------------------------------------- (a) dtypes
def test_float32_model_fed_float64_stays_float32_everywhere():
    rng = np.random.default_rng(0)
    model = surrogate(64, hidden_sizes=(32, 32))
    loss = MSELoss()
    inputs = rng.random((10, 6))  # float64: the first Linear casts it once
    targets = rng.random((10, 64)).astype(np.float32)

    model.zero_grad()
    predictions = model.forward(inputs)
    assert predictions.dtype == np.float32
    loss.forward(predictions, targets)
    grad = loss.backward()
    assert grad.dtype == np.float32
    grad_inputs = model.backward(grad)
    assert grad_inputs.dtype == np.float32
    assert [layer._cached_input.dtype for layer in linears(model)] == [np.float32] * 3
    assert all(param.grad.dtype == np.float32 for param in model.parameters())
    assert all(param.data.dtype == np.float32 for param in model.parameters())
    assert inputs.dtype == np.float64  # the caller's array is not converted in place


def test_float64_model_is_untouched_and_passes_gradcheck():
    rng = np.random.default_rng(1)
    model = small_mlp(np.float64)
    inputs = rng.random((5, 6))
    targets = rng.random((5, 20))
    gradient_check(model, MSELoss(), inputs, targets)
    assert model.forward(inputs).dtype == np.float64
    assert linears(model)[0]._cached_input is not None
    assert linears(model)[0]._cached_input.dtype == np.float64


def test_float32_inputs_are_cast_up_for_a_float64_model():
    model = small_mlp(np.float64)
    out = model.forward(np.ones((3, 6), dtype=np.float32))
    assert out.dtype == np.float64


# ------------------------------------------------- (b) parity with textbook
def reference_step(hp, params, grads, state, t):
    """One textbook Adam update of every parameter, in place on ``params``/``state``."""
    lr, eps = hp["lr"], hp.get("eps", 1e-8)
    beta1, beta2 = hp.get("betas", (0.9, 0.999))
    for index, (p, g) in enumerate(zip(params, grads, strict=True)):
        m, v = state.setdefault(index, [np.zeros_like(p), np.zeros_like(p)])
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


OPTIMIZER_CASES = [
    ("adam", Adam, {"lr": 1e-2}),
    ("adam", Adam, {"lr": 1e-3, "betas": (0.8, 0.99), "eps": 1e-6}),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind,cls,hp", OPTIMIZER_CASES)
def test_flat_optimizers_match_textbook_reference(kind, cls, hp, dtype, monkeypatch):
    rng = np.random.default_rng(7)
    model = small_mlp(dtype)
    reference = [param.data.copy() for param in model.parameters()]
    monkeypatch.setattr(optim, "BETAS", hp.get("betas", optim.BETAS))
    monkeypatch.setattr(optim, "EPS", hp.get("eps", optim.EPS))
    optimizer = cls(model.parameters(), lr=hp["lr"])
    state = {}
    for t in range(1, 51):
        grads = [rng.standard_normal(p.shape).astype(dtype) for p in reference]
        for param, grad in zip(model.parameters(), grads, strict=True):
            param.grad[...] = grad
        optimizer.step()
        reference_step(hp, reference, grads, state, t)
    for param, expected in zip(model.parameters(), reference, strict=True):
        assert param.data.dtype == dtype
        np.testing.assert_allclose(param.data, expected, rtol=RTOL[dtype], atol=ATOL[dtype])


def test_optimizer_state_spans_more_than_one_block(monkeypatch):
    """The blocked update is the same update: 5 elements per block, 3 blocks + tail."""
    import repro.nn.optim as optim

    monkeypatch.setattr(optim, "_BLOCK", 5)
    rng = np.random.default_rng(3)
    param = Parameter(rng.standard_normal(17))
    reference = [param.data.copy()]
    optimizer = Adam([param], lr=1e-2)
    assert len(optimizer._blocks) == 4
    state = {}
    for t in range(1, 11):
        grad = rng.standard_normal(17)
        param.grad[...] = grad
        optimizer.step()
        reference_step({"lr": 1e-2}, reference, [grad], state, t)
    np.testing.assert_allclose(param.data, reference[0], rtol=1e-12)


# ------------------------------------------------ (c) gradient accumulation
def test_gradients_accumulate_across_micro_batches_without_zero_grad():
    rng = np.random.default_rng(2)
    model = small_mlp(np.float64)
    Adam(model.parameters())  # arena-resident, as in training
    loss = MSELoss()
    batches = [(rng.random((4, 6)), rng.random((4, 20))) for _ in range(2)]

    separate = []
    for inputs, targets in batches:
        model.zero_grad()
        loss.forward(model.forward(inputs), targets)
        model.backward(loss.backward())
        separate.append(model.flat_gradients().copy())

    model.zero_grad()
    for inputs, targets in batches:
        loss.forward(model.forward(inputs), targets)
        model.backward(loss.backward())
    np.testing.assert_allclose(model.flat_gradients(), separate[0] + separate[1], rtol=1e-12)


# -------------------------------------------------- (d) the arena's layout
def test_parameters_and_gradients_are_views_of_two_flat_buffers():
    model = small_mlp(np.float32)
    optimizer = Adam(model.parameters())
    arena = optimizer._arena
    assert arena.size == model.num_parameters()
    assert arena.data.ndim == arena.grad.ndim == 1
    for param in model.parameters():
        assert np.shares_memory(param.data, arena.data)
        assert np.shares_memory(param.grad, arena.grad)
        assert param.arena is arena
    assert np.shares_memory(model.flat_gradients(), arena.grad)
    assert np.shares_memory(model.flat_parameters(), arena.data)
    assert model.flat_gradients() is not model.flat_gradients()  # fresh views, same memory

    model.flat_gradients()[...] = 1.0
    assert all(np.all(param.grad == 1.0) for param in model.parameters())
    model.zero_grad()
    assert not arena.grad.any()
    model.flat_gradients()[...] = np.arange(arena.size)
    assert model.parameters()[-1].grad[-1] == arena.size - 1


def test_arena_keeps_values_and_accumulated_gradients_when_it_is_built():
    param = Parameter(np.arange(6.0).reshape(2, 3))
    param.grad += 2.0
    before = param.data.copy()
    arena = ParameterArena([param])
    assert np.array_equal(param.data, before) and np.all(param.grad == 2.0)
    assert param.data.shape == (2, 3) and arena.detached() is None


def test_sub_module_and_second_optimizer_share_the_model_arena():
    model = small_mlp(np.float64)
    optimizer = Adam(model.parameters())
    head = linears(model)[-1]
    head.weight.grad += 1.0
    head.zero_grad()  # a slice of the model's arena, not a new arena
    assert not head.weight.grad.any()
    assert np.shares_memory(head.flat_gradients(), optimizer._arena.grad)
    fine_tune = Adam(head.parameters(), lr=0.1)
    assert fine_tune._arena is optimizer._arena
    second = Adam(model.parameters())
    assert second._arena is optimizer._arena
    for opt in (optimizer, fine_tune, second):
        opt.step()  # none of them detached the others


def test_arena_rejects_a_parameter_listed_twice():
    param = Parameter(np.zeros(3))
    with pytest.raises(ValueError, match="more than once"):
        Adam([param, param], lr=0.1)


# ---------------------------------------- stale optimizers fail loudly
def test_step_after_astype_raises_naming_the_parameter():
    model = small_mlp(np.float64)
    optimizer = Adam(model.parameters())
    model.astype(np.float32)
    loss = MSELoss()
    model.zero_grad()
    loss.forward(model.forward(np.ones((2, 6))), np.zeros((2, 20), dtype=np.float32))
    model.backward(loss.backward())
    with pytest.raises(RuntimeError, match=r"layers\.0\.weight.*astype"):
        optimizer.step()
    # the documented order works: convert, then build the optimizer
    rebuilt = Adam(model.parameters())
    rebuilt.step()
    assert rebuilt._m.dtype == np.float32
    assert all(param.data.dtype == np.float32 for param in model.parameters())


def test_astype_to_the_same_dtype_keeps_the_arena():
    model = small_mlp(np.float32)
    optimizer = Adam(model.parameters())
    model.astype(np.float32)
    optimizer.step()


def test_optimizer_over_a_reordered_list_detaches_the_first():
    model = small_mlp(np.float64)
    first = Adam(model.parameters(), lr=0.1)
    second = Adam(list(reversed(model.parameters())), lr=0.1)  # cannot share: new arena
    second.step()
    with pytest.raises(RuntimeError, match="no longer lives in this optimizer's arena"):
        first.step()


def test_optimizer_over_a_sub_list_follows_the_model_arena():
    """An optimizer built first over a sub-list is re-homed by the model's first
    flat operation; it follows its parameters instead of training detached copies."""
    rng = np.random.default_rng(4)
    model = small_mlp(np.float64)
    trained = model.parameters()[2:]
    optimizer = Adam(trained, lr=0.5)
    own_arena = optimizer._arena
    loss = MSELoss()
    model.zero_grad()  # builds the model's arena over all six parameters
    assert own_arena.detached() is not None
    loss.forward(model.forward(rng.random((4, 6))), rng.random((4, 20)))
    model.backward(loss.backward())
    expected = [param.data.copy() for param in model.parameters()]
    reference_step({"lr": 0.5}, expected[2:], [param.grad for param in trained], {}, 1)
    optimizer.step()
    assert optimizer._arena is model.parameters()[0].arena
    for index, (param, want) in enumerate(zip(model.parameters(), expected, strict=True)):
        if index < 2:
            assert np.array_equal(param.data, want)
        else:
            np.testing.assert_allclose(param.data, want, rtol=1e-12)


def test_rebinding_parameter_data_is_detected():
    param = Parameter(np.zeros(3))
    optimizer = Adam([param], lr=0.1)
    param.data = np.ones(3)  # breaks the ownership rule
    with pytest.raises(RuntimeError):
        optimizer.step()


# ------------------------------------------------------------- hot loop
def test_mse_backward_hands_over_its_residual_once():
    loss = MSELoss()
    predictions = np.array([[1.0, 2.0], [3.0, 5.0]])
    targets = np.array([[0.0, 2.0], [3.0, 1.0]])
    assert loss.forward(predictions, targets) == pytest.approx((1.0 + 16.0) / 4)
    np.testing.assert_allclose(loss.backward(), 2.0 * (predictions - targets) / 4)
    with pytest.raises(RuntimeError):
        loss.backward()
    assert np.array_equal(predictions, [[1.0, 2.0], [3.0, 5.0]])


def test_linear_forward_does_not_write_into_its_input_or_bias():
    layer = Linear(3, 2, rng=np.random.default_rng(0))
    layer.bias.data[...] = 1.0
    inputs = np.ones((4, 3))
    first = layer.forward(inputs)
    second = layer.forward(inputs)
    assert first is not second and np.array_equal(first, second)
    assert np.all(layer.bias.data == 1.0) and np.all(inputs == 1.0)


def test_validation_pass_does_not_pin_its_last_batch():
    dataset = ValidationSet(np.zeros((8, 6), dtype=np.float32), np.zeros((8, 64), dtype=np.float32))
    model = surrogate(64, hidden_sizes=(16,))
    validator = Validator(dataset, batch_size=4)
    validator.evaluate(model)
    assert all(layer._cached_input is None for layer in linears(model))
    assert validator.loss._diff is None


def test_sequential_append_refreshes_the_flat_view():
    rng = np.random.default_rng(0)
    model = Sequential(Linear(3, 4, rng=rng))
    assert model.flat_gradients().size == 16
    model.append(Linear(4, 2, rng=rng))
    assert model.flat_gradients().size == 16 + 10
    model.layers[1].weight.grad += 1.0
    model.zero_grad()
    assert not model.layers[1].weight.grad.any()
