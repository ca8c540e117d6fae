"""Recurrent layers: LSTM cell and unrolled multi-step LSTM.

The paper's Cases 5 and 6 train 2-layer LSTM models for text classification
(IMDB) and language modelling (PTB).  The :class:`LSTM` layer consumes a
``(N, T, input_dim)`` sequence and produces the full ``(N, T, hidden_dim)``
hidden-state sequence; classification heads select the last step, language
models project every step to the vocabulary.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .initializers import orthogonal, xavier_uniform, zeros
from .module import Module
from .parameter import Parameter

__all__ = ["LSTMCell", "LSTM"]


def _sigmoid(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-values))


class LSTMCell(Module):
    """A single LSTM step.

    Gate layout in the fused weight matrices is ``[input, forget, cell,
    output]``; the forget-gate bias is initialised to one, the usual trick
    for stable training from scratch.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None, name: str = "lstm_cell") -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_input = Parameter(xavier_uniform(rng, (input_dim, 4 * hidden_dim)),
                                 name=f"{name}.w_input")
        self.w_hidden = Parameter(orthogonal(rng, (hidden_dim, 4 * hidden_dim)),
                                  name=f"{name}.w_hidden")
        bias = zeros((4 * hidden_dim,))
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.bias = Parameter(bias, name=f"{name}.bias")

    # The cell exposes functional step/step-backward methods so the unrolled
    # LSTM layer can manage the per-timestep caches itself.
    def step(self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, tuple]:
        """One forward step; returns ``(h, c, cache)``."""
        gates = x @ self.w_input.data + h_prev @ self.w_hidden.data + self.bias.data
        hd = self.hidden_dim
        i = _sigmoid(gates[:, 0:hd])
        f = _sigmoid(gates[:, hd:2 * hd])
        g = np.tanh(gates[:, 2 * hd:3 * hd])
        o = _sigmoid(gates[:, 3 * hd:4 * hd])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache = (x, h_prev, c_prev, i, f, g, o, c, tanh_c)
        return h, c, cache

    def step_backward(self, grad_h: np.ndarray, grad_c: np.ndarray, cache: tuple
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward of one step; returns ``(grad_x, grad_h_prev, grad_c_prev)``
        and accumulates the parameter gradients."""
        x, h_prev, c_prev, i, f, g, o, c, tanh_c = cache
        grad_o = grad_h * tanh_c
        grad_c_total = grad_c + grad_h * o * (1.0 - tanh_c ** 2)
        grad_i = grad_c_total * g
        grad_f = grad_c_total * c_prev
        grad_g = grad_c_total * i
        grad_c_prev = grad_c_total * f

        d_gates = np.concatenate([
            grad_i * i * (1.0 - i),
            grad_f * f * (1.0 - f),
            grad_g * (1.0 - g ** 2),
            grad_o * o * (1.0 - o),
        ], axis=1)

        self.w_input.grad += x.T @ d_gates
        self.w_hidden.grad += h_prev.T @ d_gates
        self.bias.grad += d_gates.sum(axis=0)

        grad_x = d_gates @ self.w_input.data.T
        grad_h_prev = d_gates @ self.w_hidden.data.T
        return grad_x, grad_h_prev, grad_c_prev

    # Module interface (single step with fresh zero state); mainly for tests.
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        batch = inputs.shape[0]
        h0 = np.zeros((batch, self.hidden_dim))
        c0 = np.zeros((batch, self.hidden_dim))
        h, _, self._cache = self.step(inputs, h0, c0)
        return h

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_c = np.zeros_like(grad_output)
        grad_x, _, _ = self.step_backward(grad_output, grad_c, self._release())
        return grad_x


class LSTM(Module):
    """Unrolled (possibly multi-layer) LSTM over ``(N, T, input_dim)`` input.

    Returns the hidden sequence of the top layer, shape ``(N, T, hidden_dim)``.
    """

    def __init__(self, input_dim: int, hidden_dim: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None, name: str = "lstm") -> None:
        super().__init__()
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.cells: List[LSTMCell] = [
            LSTMCell(input_dim if layer == 0 else hidden_dim, hidden_dim, rng=rng,
                     name=f"{name}.cell{layer}")
            for layer in range(num_layers)
        ]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        batch, steps, _ = inputs.shape
        layer_input = inputs
        layer_caches: List[List[tuple]] = []
        for cell in self.cells:
            h = np.zeros((batch, self.hidden_dim))
            c = np.zeros((batch, self.hidden_dim))
            outputs = np.zeros((batch, steps, self.hidden_dim))
            caches: List[tuple] = []
            for t in range(steps):
                h, c, cache = cell.step(layer_input[:, t, :], h, c)
                outputs[:, t, :] = h
                caches.append(cache)
            layer_caches.append(caches)
            layer_input = outputs
        self._cache = (inputs.shape, layer_caches)
        return layer_input

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        (batch, steps, _), layer_caches = self._release()
        grad_layer = grad_output
        for layer in reversed(range(self.num_layers)):
            cell = self.cells[layer]
            caches = layer_caches[layer]
            in_dim = cell.input_dim
            grad_input = np.zeros((batch, steps, in_dim))
            grad_h = np.zeros((batch, self.hidden_dim))
            grad_c = np.zeros((batch, self.hidden_dim))
            for t in reversed(range(steps)):
                grad_h_total = grad_h + grad_layer[:, t, :]
                grad_x, grad_h, grad_c = cell.step_backward(grad_h_total, grad_c, caches[t])
                grad_input[:, t, :] = grad_x
            grad_layer = grad_input
        return grad_layer
