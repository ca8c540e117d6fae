"""Unit tests for dense layers, activations and normalisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    Dropout,
    Embedding,
    Flatten,
    LayerNorm,
    Linear,
    MeanOverTime,
    ReLU,
    SelectLast,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import MSELoss
from repro.nn.module import Sequential

from tests.helpers import numerical_gradient_check


def _mse(pred, target):
    return MSELoss()(pred, target)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((5, 4))).shape == (5, 3)

    def test_forward_is_affine(self):
        layer = Linear(2, 1, rng=np.random.default_rng(0))
        layer.weight.data[...] = [[1.0], [2.0]]
        layer.bias.data[...] = [3.0]
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(6.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        model = Sequential(Linear(6, 4, rng=rng), Linear(4, 2, rng=rng))
        x = rng.normal(size=(5, 6))
        y = rng.normal(size=(5, 2))
        assert numerical_gradient_check(model, x, _mse, y) < 1e-6

    def test_input_gradient_shape(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.random.default_rng(1).normal(size=(5, 4)))
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == (5, 4)

    def test_handles_sequence_inputs(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((2, 7, 4)))
        assert out.shape == (2, 7, 3)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == (2, 7, 4)

    def test_no_bias_option(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0), bias=False)
        assert layer.bias is None
        assert len([p for p in layer.parameters()]) == 1

    def test_gradients_accumulate(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        x = np.ones((1, 2))
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)


class TestActivations:
    @pytest.mark.parametrize("activation", [ReLU, Tanh, Sigmoid])
    def test_gradient_check(self, activation):
        rng = np.random.default_rng(2)
        model = Sequential(Linear(5, 5, rng=rng), activation(), Linear(5, 2, rng=rng))
        x = rng.normal(size=(4, 5))
        y = rng.normal(size=(4, 2))
        assert numerical_gradient_check(model, x, _mse, y) < 1e-6

    def test_relu_zeroes_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_blocks_gradient_for_negatives(self):
        relu = ReLU()
        relu.forward(np.array([-1.0, 2.0]))
        grad = relu.backward(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(grad, [0.0, 1.0])

    def test_sigmoid_range(self):
        out = Sigmoid().forward(np.array([-100.0, 0.0, 100.0]))
        assert out[0] < 1e-6 and out[1] == pytest.approx(0.5) and out[2] > 1 - 1e-6


class TestFlattenAndSelectors:
    def test_flatten_round_trip(self):
        flatten = Flatten()
        x = np.arange(24.0).reshape(2, 3, 4)
        out = flatten.forward(x)
        assert out.shape == (2, 12)
        grad = flatten.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_select_last(self):
        select = SelectLast()
        x = np.arange(24.0).reshape(2, 3, 4)
        out = select.forward(x)
        np.testing.assert_array_equal(out, x[:, -1, :])
        grad = select.backward(np.ones((2, 4)))
        assert grad[:, :-1, :].sum() == 0
        assert grad[:, -1, :].sum() == 8

    def test_mean_over_time(self):
        mean = MeanOverTime()
        x = np.arange(24.0).reshape(2, 3, 4)
        out = mean.forward(x)
        np.testing.assert_allclose(out, x.mean(axis=1))
        grad = mean.backward(np.ones((2, 4)))
        np.testing.assert_allclose(grad, np.full((2, 3, 4), 1 / 3))


class TestDropout:
    def test_eval_mode_is_identity(self):
        dropout = Dropout(0.5, seed=0)
        dropout.training = False
        x = np.random.default_rng(0).normal(size=(10, 10))
        np.testing.assert_array_equal(dropout.forward(x), x)

    def test_training_mode_zeroes_and_scales(self):
        dropout = Dropout(0.5, seed=0)
        x = np.ones((100, 100))
        out = dropout.forward(x)
        dropped = (out == 0).mean()
        assert 0.4 < dropped < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_backward_uses_same_mask(self):
        dropout = Dropout(0.5, seed=1)
        x = np.ones((20, 20))
        out = dropout.forward(x)
        grad = dropout.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_zero_probability_is_identity(self):
        dropout = Dropout(0.0)
        x = np.ones((5, 5))
        np.testing.assert_array_equal(dropout.forward(x), x)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestEmbedding:
    def test_lookup_shape(self):
        embedding = Embedding(10, 4, rng=np.random.default_rng(0))
        out = embedding.forward(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_lookup_values(self):
        embedding = Embedding(10, 4, rng=np.random.default_rng(0))
        out = embedding.forward(np.array([[7]]))
        np.testing.assert_array_equal(out[0, 0], embedding.weight.data[7])

    def test_backward_accumulates_per_token(self):
        embedding = Embedding(10, 2, rng=np.random.default_rng(0))
        embedding.forward(np.array([[1, 1, 2]]))
        embedding.backward(np.ones((1, 3, 2)))
        np.testing.assert_allclose(embedding.weight.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(embedding.weight.grad[2], [1.0, 1.0])
        np.testing.assert_allclose(embedding.weight.grad[3], [0.0, 0.0])

    def test_out_of_range_token_rejected(self):
        embedding = Embedding(10, 2)
        with pytest.raises(ValueError):
            embedding.forward(np.array([[10]]))


class TestLayerNorm:
    def test_output_is_normalised(self):
        norm = LayerNorm(8)
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(4, 8))
        out = norm.forward(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        model = Sequential(Linear(6, 6, rng=rng), LayerNorm(6), Linear(6, 2, rng=rng))
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 2))
        assert numerical_gradient_check(model, x, _mse, y) < 1e-6

    def test_works_on_sequences(self):
        norm = LayerNorm(4)
        x = np.random.default_rng(1).normal(size=(2, 3, 4))
        out = norm.forward(x)
        assert out.shape == x.shape
        grad = norm.backward(np.ones_like(out))
        assert grad.shape == x.shape
