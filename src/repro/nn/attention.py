"""Self-attention and Transformer encoder blocks (the BERT-style substrate).

The paper's Case 7 pre-trains BERT on Wikipedia; this module provides a
scaled-down Transformer encoder — multi-head self-attention, a position-wise
feed-forward network and pre-layer-norm residual blocks — sufficient for a
masked-language-modelling workload with the same gradient structure.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .layers import Dropout, LayerNorm, Linear, ReLU
from .module import Module
from .parameter import Parameter
from .initializers import normal_init

__all__ = ["softmax", "MultiHeadSelfAttention", "TransformerEncoderLayer",
           "LearnedPositionalEmbedding"]


def softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = values - values.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads.

    Input and output have shape ``(N, T, model_dim)``.
    """

    def __init__(self, model_dim: int, num_heads: int,
                 rng: Optional[np.random.Generator] = None, name: str = "mha") -> None:
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.query = Linear(model_dim, model_dim, rng=rng, name=f"{name}.query")
        self.key = Linear(model_dim, model_dim, rng=rng, name=f"{name}.key")
        self.value = Linear(model_dim, model_dim, rng=rng, name=f"{name}.value")
        self.output = Linear(model_dim, model_dim, rng=rng, name=f"{name}.output")

    # ------------------------------------------------------------------
    def _split_heads(self, tensor: np.ndarray) -> np.ndarray:
        n, t, _ = tensor.shape
        return tensor.reshape(n, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, tensor: np.ndarray) -> np.ndarray:
        n, h, t, d = tensor.shape
        return tensor.transpose(0, 2, 1, 3).reshape(n, t, h * d)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        queries = self._split_heads(self.query(inputs))
        keys = self._split_heads(self.key(inputs))
        values = self._split_heads(self.value(inputs))

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = np.matmul(queries, keys.transpose(0, 1, 3, 2)) * scale
        attention = softmax(scores, axis=-1)
        context = np.matmul(attention, values)

        merged = self._merge_heads(context)
        self._cache = (queries, keys, values, attention, scale)
        return self.output(merged)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        queries, keys, values, attention, scale = self._release()
        grad_merged = self.output.backward(grad_output)
        n, t, _ = grad_merged.shape
        grad_context = grad_merged.reshape(n, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        grad_attention = np.matmul(grad_context, values.transpose(0, 1, 3, 2))
        grad_values = np.matmul(attention.transpose(0, 1, 3, 2), grad_context)

        # Softmax backward: dS = A * (dA - sum(dA * A))
        weighted = (grad_attention * attention).sum(axis=-1, keepdims=True)
        grad_scores = attention * (grad_attention - weighted)
        grad_scores *= scale

        grad_queries = np.matmul(grad_scores, keys)
        grad_keys = np.matmul(grad_scores.transpose(0, 1, 3, 2), queries)

        grad_input = self.query.backward(self._merge_heads(grad_queries))
        grad_input = grad_input + self.key.backward(self._merge_heads(grad_keys))
        grad_input = grad_input + self.value.backward(self._merge_heads(grad_values))
        return grad_input


class TransformerEncoderLayer(Module):
    """Pre-layer-norm Transformer encoder block.

    ``x + MHA(LN(x))`` followed by ``x + FFN(LN(x))``.
    """

    def __init__(self, model_dim: int, num_heads: int, hidden_dim: Optional[int] = None,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None,
                 seed: int = 0, name: str = "encoder") -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        hidden_dim = hidden_dim or 4 * model_dim
        self.norm_attention = LayerNorm(model_dim, name=f"{name}.ln1")
        self.attention = MultiHeadSelfAttention(model_dim, num_heads, rng=rng,
                                                name=f"{name}.mha")
        self.dropout_attention = Dropout(dropout, seed=seed)
        self.norm_ffn = LayerNorm(model_dim, name=f"{name}.ln2")
        self.ffn_in = Linear(model_dim, hidden_dim, rng=rng, name=f"{name}.ffn_in")
        self.ffn_act = ReLU()
        self.ffn_out = Linear(hidden_dim, model_dim, rng=rng, name=f"{name}.ffn_out")
        self.dropout_ffn = Dropout(dropout, seed=seed + 1)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        attended = self.dropout_attention(self.attention(self.norm_attention(inputs)))
        residual = inputs + attended
        transformed = self.ffn_out(self.ffn_act(self.ffn_in(self.norm_ffn(residual))))
        return residual + self.dropout_ffn(transformed)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_ffn = self.dropout_ffn.backward(grad_output)
        grad_ffn = self.ffn_in.backward(self.ffn_act.backward(self.ffn_out.backward(grad_ffn)))
        grad_residual = grad_output + self.norm_ffn.backward(grad_ffn)

        grad_attention = self.dropout_attention.backward(grad_residual)
        grad_attention = self.attention.backward(grad_attention)
        return grad_residual + self.norm_attention.backward(grad_attention)


class LearnedPositionalEmbedding(Module):
    """Adds a learned position embedding to a ``(N, T, dim)`` sequence."""

    def __init__(self, max_length: int, model_dim: int,
                 rng: Optional[np.random.Generator] = None, name: str = "pos") -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.max_length = max_length
        self.weight = Parameter(normal_init(rng, (max_length, model_dim), std=0.02),
                                name=f"{name}.weight")

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        steps = inputs.shape[1]
        if steps > self.max_length:
            raise ValueError(f"sequence length {steps} exceeds max_length {self.max_length}")
        self._cache = steps
        return inputs + self.weight.data[None, :steps, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.weight.grad[:self._release()] += grad_output.sum(axis=0)
        return grad_output
