"""Trainable parameters.

A :class:`Parameter` is a named NumPy array with an accumulated gradient of
the same shape.  The distributed trainer flattens all parameters' gradients
into the single dense vector that the communication algorithms synchronise,
so the helpers for flattening and un-flattening live here as well.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "parameter_count",
    "flatten_values",
    "flatten_gradients",
    "assign_flat_values",
    "assign_flat_gradients",
]


class Parameter:
    """A trainable array together with its accumulated gradient."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def copy_from(self, other: "Parameter") -> None:
        """Copy another parameter's values (used to clone model replicas)."""
        if other.data.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch copying parameter {self.name!r}: "
                f"{other.data.shape} vs {self.data.shape}"
            )
        self.data[...] = other.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


# ---------------------------------------------------------------------------
# flattening helpers
# ---------------------------------------------------------------------------
def parameter_count(parameters: Iterable[Parameter]) -> int:
    """Total number of scalar parameters."""
    return sum(p.size for p in parameters)


def flatten_values(parameters: Sequence[Parameter]) -> np.ndarray:
    """Concatenate all parameter values into one dense vector."""
    if not parameters:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([p.data.reshape(-1) for p in parameters])


def flatten_gradients(parameters: Sequence[Parameter],
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Concatenate all parameter gradients into one dense vector (into
    ``out`` when given, which must have exactly that many elements)."""
    if not parameters:
        return np.zeros(0, dtype=np.float64) if out is None else out
    return np.concatenate([p.grad.reshape(-1) for p in parameters], out=out)


def _assign(parameters: Sequence[Parameter], flat: np.ndarray, attribute: str) -> None:
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    expected = parameter_count(parameters)
    if flat.shape[0] != expected:
        raise ValueError(f"flat vector has {flat.shape[0]} elements, expected {expected}")
    offset = 0
    for parameter in parameters:
        chunk = flat[offset:offset + parameter.size].reshape(parameter.shape)
        getattr(parameter, attribute)[...] = chunk
        offset += parameter.size


def assign_flat_values(parameters: Sequence[Parameter], flat: np.ndarray) -> None:
    """Write a flat vector back into the parameters' values."""
    _assign(parameters, flat, "data")


def assign_flat_gradients(parameters: Sequence[Parameter], flat: np.ndarray) -> None:
    """Write a flat vector back into the parameters' gradients."""
    _assign(parameters, flat, "grad")
