"""Unit tests for Module, Parameter and gradient flattening."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.attention import (LearnedPositionalEmbedding, MultiHeadSelfAttention,
                                TransformerEncoderLayer)
from repro.nn.conv import BatchNorm2d, Conv2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.layers import (Dropout, Embedding, Flatten, LayerNorm, Linear, MeanOverTime,
                             ReLU, SelectLast, Sigmoid, Tanh)
from repro.nn.models import ResidualBlock
from repro.nn.module import Identity, Module, Sequential
from repro.nn.rnn import LSTM, LSTMCell
from repro.nn.parameter import (
    Parameter,
    assign_flat_gradients,
    assign_flat_values,
    flatten_gradients,
    flatten_values,
    parameter_count,
)


class TestParameter:
    def test_grad_initialised_to_zero(self):
        parameter = Parameter(np.ones((2, 3)), name="w")
        assert parameter.grad.shape == (2, 3)
        assert parameter.grad.sum() == 0.0

    def test_zero_grad(self):
        parameter = Parameter(np.ones(3))
        parameter.grad += 5.0
        parameter.zero_grad()
        assert parameter.grad.sum() == 0.0

    def test_copy_from(self):
        a = Parameter(np.zeros(3))
        b = Parameter(np.ones(3))
        a.copy_from(b)
        np.testing.assert_array_equal(a.data, b.data)

    def test_copy_from_shape_mismatch(self):
        a = Parameter(np.zeros(3))
        b = Parameter(np.ones(4))
        with pytest.raises(ValueError):
            a.copy_from(b)

    def test_size_and_shape(self):
        parameter = Parameter(np.zeros((2, 5)))
        assert parameter.size == 10
        assert parameter.shape == (2, 5)


class TestFlattening:
    def _params(self):
        return [Parameter(np.arange(4.0).reshape(2, 2), "a"), Parameter(np.ones(3), "b")]

    def test_parameter_count(self):
        assert parameter_count(self._params()) == 7

    def test_flatten_values_concatenates(self):
        flat = flatten_values(self._params())
        np.testing.assert_array_equal(flat, [0, 1, 2, 3, 1, 1, 1])

    def test_flatten_empty(self):
        assert flatten_values([]).size == 0
        assert flatten_gradients([]).size == 0

    def test_assign_flat_values_round_trip(self):
        params = self._params()
        flat = flatten_values(params) * 2
        assign_flat_values(params, flat)
        np.testing.assert_array_equal(flatten_values(params), flat)

    def test_assign_flat_gradients_round_trip(self):
        params = self._params()
        grads = np.arange(7.0)
        assign_flat_gradients(params, grads)
        np.testing.assert_array_equal(flatten_gradients(params), grads)
        assert params[0].grad.shape == (2, 2)

    def test_assign_wrong_size_raises(self):
        with pytest.raises(ValueError):
            assign_flat_values(self._params(), np.zeros(5))


class _Composite(Module):
    """A module with nested children and a parameter list attribute."""

    def __init__(self):
        super().__init__()
        self.head = Linear(4, 4, rng=np.random.default_rng(0))
        self.blocks = [Linear(4, 4, rng=np.random.default_rng(1)), ReLU()]
        self.extra = Parameter(np.zeros(3), "extra")

    def forward(self, inputs):
        out = self.head(inputs)
        for block in self.blocks:
            out = block(out)
        return out

    def backward(self, grad):
        for block in reversed(self.blocks):
            grad = block.backward(grad)
        return self.head.backward(grad)


class TestModule:
    def test_parameters_found_recursively_and_in_lists(self):
        module = _Composite()
        names = {p.name for p in module.parameters()}
        assert "extra" in names
        assert len(module.parameters()) == 5  # 2 linear layers x (W, b) + extra

    def test_num_parameters(self):
        module = _Composite()
        assert module.num_parameters() == 4 * 4 + 4 + 4 * 4 + 4 + 3

    def test_modules_iterates_descendants(self):
        module = _Composite()
        assert len(list(module.modules())) == 4  # self, head, linear, relu

    def test_zero_grad_clears_all(self):
        module = _Composite()
        for parameter in module.parameters():
            parameter.grad += 1.0
        module.zero_grad()
        assert all(p.grad.sum() == 0.0 for p in module.parameters())

    def test_train_eval_propagates(self):
        module = _Composite()
        module.eval()
        assert all(not m.training for m in module.modules())
        module.train()
        assert all(m.training for m in module.modules())

    def test_copy_parameters_from(self):
        a = _Composite()
        b = _Composite()
        for parameter in b.parameters():
            parameter.data += 1.0
        a.copy_parameters_from(b)
        np.testing.assert_array_equal(flatten_values(a.parameters()),
                                      flatten_values(b.parameters()))

    def test_copy_parameters_mismatch_raises(self):
        a = _Composite()
        b = Sequential(Linear(2, 2))
        with pytest.raises(ValueError):
            a.copy_parameters_from(b)


#: Every layer that caches activations in ``forward`` (and the composites
#: built from them), with an input it takes.
_IMAGES, _SEQUENCES, _ROWS = (2, 2, 4, 4), (2, 3, 4), (2, 4)
CACHED_LAYERS = {
    "Linear": (lambda: Linear(4, 3), _ROWS),
    "ReLU": (ReLU, _ROWS),
    "Tanh": (Tanh, _ROWS),
    "Sigmoid": (Sigmoid, _ROWS),
    "Flatten": (Flatten, _IMAGES),
    "Dropout": (lambda: Dropout(0.5), _ROWS),
    "Dropout-noop": (lambda: Dropout(0.0), _ROWS),
    "Embedding": (lambda: Embedding(10, 3), "ids"),
    "LayerNorm": (lambda: LayerNorm(4), _SEQUENCES),
    "SelectLast": (SelectLast, _SEQUENCES),
    "MeanOverTime": (MeanOverTime, _SEQUENCES),
    "Conv2d": (lambda: Conv2d(2, 3, 3, padding=1), _IMAGES),
    "MaxPool2d": (lambda: MaxPool2d(2), _IMAGES),
    "GlobalAvgPool2d": (GlobalAvgPool2d, _IMAGES),
    "BatchNorm2d": (lambda: BatchNorm2d(2), _IMAGES),
    "ResidualBlock": (lambda: ResidualBlock(2, 3, stride=2), _IMAGES),
    "MultiHeadSelfAttention": (lambda: MultiHeadSelfAttention(4, 2), _SEQUENCES),
    "TransformerEncoderLayer": (lambda: TransformerEncoderLayer(4, 2), _SEQUENCES),
    "LearnedPositionalEmbedding": (lambda: LearnedPositionalEmbedding(5, 4), _SEQUENCES),
    "LSTMCell": (lambda: LSTMCell(4, 3), _ROWS),
    "LSTM": (lambda: LSTM(4, 3, num_layers=2), _SEQUENCES),
}


@pytest.mark.parametrize("name", sorted(CACHED_LAYERS))
def test_backward_needs_a_forward_of_its_own(name):
    """Backward takes the activations its forward cached: none before the
    first forward, none left after the backward that consumed them."""
    build, shape = CACHED_LAYERS[name]
    rng = np.random.default_rng(0)
    inputs = rng.integers(0, 10, size=(2, 5)) if shape == "ids" else rng.normal(size=shape)
    layer = build()
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones(3))
    grad_output = np.ones_like(layer.forward(inputs))
    assert layer.backward(grad_output).shape == inputs.shape
    assert all(module._cache is None for module in layer.modules())
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(grad_output)


class TestSequential:
    def test_forward_backward_chain(self):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(3, 5, rng=rng), ReLU(), Linear(5, 2, rng=rng))
        x = rng.normal(size=(4, 3))
        out = model(x)
        assert out.shape == (4, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_len_getitem_append(self):
        model = Sequential(Identity())
        model.append(ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)

    def test_identity_passthrough(self):
        layer = Identity()
        x = np.arange(4.0)
        np.testing.assert_array_equal(layer.forward(x), x)
        np.testing.assert_array_equal(layer.backward(x), x)
