"""Dense, activation, normalisation, embedding and utility layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .initializers import normal_init, xavier_uniform, zeros
from .module import Module
from .parameter import Parameter

__all__ = [
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "SelectLast",
    "MeanOverTime",
]


class Linear(Module):
    """Affine layer ``y = x W + b`` over the last axis of the input.

    Accepts inputs of shape ``(..., in_features)``; leading axes are treated
    as batch axes (so the same layer serves per-token projections in sequence
    models).
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None, bias: bool = True,
                 name: str = "linear") -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform(rng, (in_features, out_features)),
                                name=f"{name}.weight")
        self.bias = Parameter(zeros((out_features,)), name=f"{name}.bias") if bias else None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs
        output = inputs @ self.weight.data
        if self.bias is not None:
            output = output + self.bias.data
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        inputs = self._release()
        flat_in = inputs.reshape(-1, self.in_features)
        flat_grad = grad_output.reshape(-1, self.out_features)
        self.weight.grad += flat_in.T @ flat_grad
        if self.bias is not None:
            self.bias.grad += flat_grad.sum(axis=0)
        return (flat_grad @ self.weight.data.T).reshape(inputs.shape)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs > 0
        return inputs * self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._release()


class Tanh(Module):
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = np.tanh(inputs)
        return self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._release() ** 2)


class Sigmoid(Module):
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = 1.0 / (1.0 + np.exp(-inputs))
        return self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        output = self._release()
        return grad_output * output * (1.0 - output)


class Flatten(Module):
    """Reshape ``(N, ...)`` to ``(N, -1)``."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._release())


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        super().__init__()
        if not 0 <= p < 1:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        # The cache is ``(mask,)``; ``(None,)`` is the no-op pass.
        if not self.training or self.p == 0.0:
            self._cache = (None,)
            return inputs
        keep = 1.0 - self.p
        mask = (self._rng.random(inputs.shape) < keep) / keep
        self._cache = (mask,)
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask, = self._release()
        if mask is None:
            return grad_output
        return grad_output * mask


class Embedding(Module):
    """Token embedding lookup: int ids ``(N, T)`` -> vectors ``(N, T, dim)``."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None, name: str = "embedding") -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(normal_init(rng, (num_embeddings, embedding_dim), std=0.05),
                                name=f"{name}.weight")

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        ids = np.asarray(inputs, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.num_embeddings:
            raise ValueError("token id out of range of the embedding table")
        self._cache = ids
        return self.weight.data[ids]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        ids = self._release()
        grads = grad_output.reshape(-1, self.embedding_dim)
        np.add.at(self.weight.grad, ids.reshape(-1), grads)
        # Token ids are not differentiable; return a zero gradient of the id shape.
        return np.zeros(ids.shape, dtype=np.float64)


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5, name: str = "ln") -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_dim), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(normalized_dim), name=f"{name}.beta")

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        mean = inputs.mean(axis=-1, keepdims=True)
        var = inputs.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalised = (inputs - mean) * inv_std
        self._cache = (normalised, inv_std)
        return normalised * self.gamma.data + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalised, inv_std = self._release()
        dim = normalised.shape[-1]
        axes = tuple(range(grad_output.ndim - 1))
        self.gamma.grad += (grad_output * normalised).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)
        grad_norm = grad_output * self.gamma.data
        # Standard layer-norm backward over the last axis.
        grad_input = (grad_norm
                      - grad_norm.mean(axis=-1, keepdims=True)
                      - normalised * (grad_norm * normalised).mean(axis=-1, keepdims=True))
        return grad_input * inv_std


class SelectLast(Module):
    """Select the last timestep of a ``(N, T, D)`` sequence."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs.shape
        return inputs[:, -1, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.zeros(self._release(), dtype=np.float64)
        grad[:, -1, :] = grad_output
        return grad


class MeanOverTime(Module):
    """Average a ``(N, T, D)`` sequence over its time axis."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs.shape
        return inputs.mean(axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, t, d = self._release()
        return np.repeat(grad_output[:, None, :], t, axis=1) / t
