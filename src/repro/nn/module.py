"""Module base class and containers.

The deep-learning substrate follows a layer-graph design: every
:class:`Module` implements ``forward`` (caching whatever it needs in
``_cache``) and ``backward`` (taking that cache with :meth:`Module._release`,
consuming the gradient of its output, accumulating parameter gradients and
returning the gradient of its input).  Composite modules —
:class:`Sequential`, residual blocks, attention blocks — compose their
children's ``forward``/``backward`` explicitly, which keeps the whole
substrate free of any autograd machinery while remaining easy to verify with
finite differences.
"""

from __future__ import annotations

from typing import Any, Iterator, List

import numpy as np

from .parameter import Parameter

__all__ = ["Module", "Sequential", "Identity"]


class Module:
    """Base class of every layer and model."""

    #: What the last ``forward`` left for its ``backward`` (``None``: no
    #: backward pending).
    _cache: Any = None

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _release(self) -> Any:
        """Take the cache of the last ``forward`` for this ``backward``.
        The layer keeps no reference, so activations die with the backward
        that consumes them instead of living on through synchronisation
        and update; a backward with no forward of its own raises."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError("backward called before forward")
        return cache

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # ------------------------------------------------------------------
    # parameter and child discovery
    # ------------------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        """Direct sub-modules, in attribute definition order (lists and
        tuples of modules are traversed as well)."""
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        """This module and every descendant."""
        yield self
        for child in self.children():
            yield from child.modules()

    def parameters(self) -> List[Parameter]:
        """Every trainable parameter of this module and its descendants."""
        found: List[Parameter] = []
        for module in self.modules():
            for value in module.__dict__.values():
                if isinstance(value, Parameter):
                    found.append(value)
                elif isinstance(value, (list, tuple)):
                    found.extend(item for item in value if isinstance(item, Parameter))
        return found

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def copy_parameters_from(self, other: "Module") -> None:
        """Copy another (structurally identical) module's parameter values."""
        mine = self.parameters()
        theirs = other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("modules have different numbers of parameters")
        for target, source in zip(mine, theirs):
            target.copy_from(source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(params={self.num_parameters()})"


class Identity(Module):
    """Pass-through module (useful as a default branch in composites)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return inputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: List[Module] = list(layers)

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for layer in self.layers:
            output = layer.forward(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
