"""Benchmark: the float32-resident flat train step vs the textbook step.

One training batch is ``zero_grad`` → forward → MSE → backward → Adam.  The
library runs it float32-resident on float32 inputs, as a study's batches
arrive (inputs are rounded to float32 once, at the decode), with every
parameter, gradient and Adam moment in flat vectors updated in place.  The
reference below is the same batch written the textbook way, which is also how
the library did it before: it gets the same input values as float64, which
promote every GEMM of the float32 network (each weight matrix is re-cast on
every call), and Adam walks the parameters allocating ``m_hat`` / ``v_hat`` /
update temporaries for each.

Timed at the end-to-end benchmark's three MLP shapes (`benchmarks/e2e`:
``train_bound.inproc``, ``serving.tcp_2shard``, ``ingest_bound.shm``); both
sides start from the same weights and are checked to have trained to the same
parameters before any time is reported.
"""

import time

import numpy as np
import pytest

from repro.nn import Adam, Linear, MLPConfig, MSELoss, build_mlp

# (workload whose shapes these are, batch size, hidden sizes, output size)
SHAPES = [
    ("train_bound", 10, (256, 256), 1024),
    ("serving", 100, (8,), 4096),
    ("ingest_bound", 100, (8,), 256),
]
STEPS = 100
REPEATS = 3
# Measured 3.2x / 4.3x / 2.5x on the three shapes; 1.5x is the acceptance floor.
MIN_SPEEDUP = 1.5


class TextbookStep:
    """Per-parameter reference: promoting GEMMs, allocating Adam."""

    def __init__(self, weights, biases, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]
        self.params = [p for pair in zip(self.weights, self.biases, strict=True) for p in pair]
        self.grads = [np.zeros_like(p) for p in self.params]
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0

    def __call__(self, inputs, targets):
        for grad in self.grads:
            grad[...] = 0.0
        activations, masks = [inputs], []
        hidden = inputs
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases, strict=True)):
            hidden = hidden @ weight + bias
            if index < len(self.weights) - 1:
                masks.append(hidden > 0)
                hidden = np.where(masks[-1], hidden, 0.0)
                activations.append(hidden)
        diff = hidden - targets
        loss = float(np.mean(diff**2))
        grad = 2.0 * diff / diff.size
        for index in reversed(range(len(self.weights))):
            self.grads[2 * index] += activations[index].T @ grad
            self.grads[2 * index + 1] += grad.sum(axis=0)
            grad = grad @ self.weights[index].T
            if index > 0:
                grad = np.where(masks[index - 1], grad, 0.0)
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for param, grad, m, v in zip(self.params, self.grads, self.m, self.v, strict=True):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return loss


class LibraryStep:
    """The library's train step, exactly as ``TrainingWorker._train_batch`` runs it."""

    def __init__(self, model):
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=1e-3)
        self.loss = MSELoss()

    def __call__(self, inputs, targets):
        self.model.zero_grad()
        value = self.loss.forward(self.model.forward(inputs), targets)
        self.model.backward(self.loss.backward())
        self.optimizer.step()
        return value


def build_pair(hidden, out):
    model = build_mlp(MLPConfig(hidden_sizes=hidden, out_features=out, dtype=np.float32))
    layers = [layer for layer in model.layers if isinstance(layer, Linear)]
    reference = TextbookStep(
        [layer.weight.data for layer in layers], [layer.bias.data for layer in layers]
    )
    return LibraryStep(model), reference


def best_step_seconds(step, inputs, targets):
    """Best-of-REPEATS mean seconds per step over STEPS consecutive steps."""
    best = float("inf")
    for _ in range(REPEATS):
        began = time.perf_counter()
        for _ in range(STEPS):
            step(inputs, targets)
        best = min(best, (time.perf_counter() - began) / STEPS)
    return best


def measure_shape(workload, batch, hidden, out):
    """Speedup of the library step over the textbook step at one shape."""
    rng = np.random.default_rng(0)
    inputs = rng.random((batch, 6)).astype(np.float32)  # what a study's batches carry
    reference_inputs = inputs.astype(np.float64)  # equal values; the textbook GEMMs promote
    targets = rng.uniform(100.0, 500.0, (batch, out)).astype(np.float32)

    library, reference = build_pair(hidden, out)
    for _ in range(20):  # warm-up, and the parity check that makes the timing meaningful
        library_loss = library(inputs, targets)
        reference_loss = reference(reference_inputs, targets)
    assert library_loss == pytest.approx(reference_loss, rel=1e-4)
    for param, expected in zip(library.model.parameters(), reference.params, strict=True):
        assert param.data.dtype == np.float32
        np.testing.assert_allclose(param.data, expected, rtol=1e-3, atol=1e-4)

    # Interleave the two sides so host drift hits both.
    reference_s = best_step_seconds(reference, reference_inputs, targets)
    library_s = best_step_seconds(library, inputs, targets)
    reference_s = min(reference_s, best_step_seconds(reference, reference_inputs, targets))
    library_s = min(library_s, best_step_seconds(library, inputs, targets))
    print(
        f"\n[{workload}: batch {batch}, 6->{'->'.join(map(str, hidden))}->{out}] "
        f"textbook {reference_s * 1e3:.3f} ms/step, library {library_s * 1e3:.3f} ms/step, "
        f"speedup {reference_s / library_s:.2f}x"
    )
    return reference_s, library_s


def test_train_step_faster_than_textbook_reference():
    speedups = {}
    for workload, batch, hidden, out in SHAPES:
        reference_s, library_s = measure_shape(workload, batch, hidden, out)
        speedups[workload] = reference_s / library_s
    for workload, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"train step only {speedup:.2f}x faster than the textbook reference on {workload}"
        )
