"""Convolutional layers: Conv2d, pooling and batch normalisation.

All image tensors use the ``(N, C, H, W)`` layout.  The convolution is
implemented with the classic im2col / col2im transformation so the forward
and backward passes are single matrix multiplications, which keeps the
scaled-down VGG / ResNet cases trainable on CPU in the tests and benchmarks.
The unfold and fold themselves run on the compiled kernels of
:mod:`repro.sparse.ckernels` when they are built, bit for bit like the
NumPy statements here.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..sparse.ckernels import get_kernels
from .initializers import he_normal, zeros
from .module import Module
from .parameter import Parameter

__all__ = ["Conv2d", "MaxPool2d", "GlobalAvgPool2d", "BatchNorm2d", "im2col", "col2im"]


def _out_size(image_shape: Tuple[int, ...], kernel_h: int, kernel_w: int,
              stride: int, padding: int) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a convolution over ``(N, C, H, W)`` images;
    ``ValueError`` unless the kernel fits the padded image at least once."""
    h, w = image_shape[2:]
    if (stride < 1 or padding < 0
            or h + 2 * padding < kernel_h or w + 2 * padding < kernel_w):
        raise ValueError(
            f"cannot convolve a {h}x{w} image with a {kernel_h}x{kernel_w} "
            f"kernel at stride {stride}, padding {padding}")
    return ((h + 2 * padding - kernel_h) // stride + 1,
            (w + 2 * padding - kernel_w) // stride + 1)


def im2col(images: np.ndarray, kernel_h: int, kernel_w: int,
           stride: int, padding: int) -> np.ndarray:
    """Unfold image patches into a C-contiguous matrix of shape
    ``(N * out_h * out_w, C * kernel_h * kernel_w)``.

    ``float64`` images go through the compiled gather, which reads any
    strides; the NumPy statements below are its bit-for-bit reference."""
    out_h, out_w = _out_size(images.shape, kernel_h, kernel_w, stride, padding)
    kernels = get_kernels()
    if kernels is not None and images.dtype == np.float64:
        return kernels.im2col(images, kernel_h, kernel_w, stride, padding, out_h, out_w)
    n, c, h, w = images.shape
    padded = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    columns = np.zeros((n, c, kernel_h, kernel_w, out_h, out_w), dtype=images.dtype)
    for y in range(kernel_h):
        y_max = y + stride * out_h
        for x in range(kernel_w):
            x_max = x + stride * out_w
            columns[:, :, y, x, :, :] = padded[:, :, y:y_max:stride, x:x_max:stride]
    return columns.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, c * kernel_h * kernel_w)


def col2im(columns: np.ndarray, image_shape: Tuple[int, int, int, int],
           kernel_h: int, kernel_w: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: overlapping patches are summed, every
    pixel from ``+0.0`` in ascending kernel offset — the order of the NumPy
    statements below, which the compiled fold of ``float64`` columns keeps."""
    n, c, h, w = image_shape
    out_h, out_w = _out_size(image_shape, kernel_h, kernel_w, stride, padding)
    padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
    kernels = get_kernels()
    if kernels is not None and columns.dtype == np.float64:
        padded = kernels.col2im(columns, padded_shape, kernel_h, kernel_w, stride,
                                out_h, out_w)
    else:
        columns = columns.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
        padded = np.zeros(padded_shape, dtype=columns.dtype)
        for y in range(kernel_h):
            y_max = y + stride * out_h
            for x in range(kernel_w):
                x_max = x + stride * out_w
                padded[:, :, y:y_max:stride, x:x_max:stride] += columns[:, :, y, x, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:padding + h, padding:padding + w]


class Conv2d(Module):
    """2-D convolution with square stride and zero padding."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: Optional[np.random.Generator] = None, bias: bool = True,
                 name: str = "conv") -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(he_normal(rng, shape), name=f"{name}.weight")
        self.bias = Parameter(zeros((out_channels,)), name=f"{name}.bias") if bias else None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        n, c, h, w = inputs.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        out_h, out_w = _out_size(inputs.shape, self.kernel_size, self.kernel_size,
                                 self.stride, self.padding)
        columns = im2col(inputs, self.kernel_size, self.kernel_size, self.stride, self.padding)
        kernel = self.weight.data.reshape(self.out_channels, -1).T
        output = columns @ kernel
        if self.bias is not None:
            output = output + self.bias.data
        self._cache = (inputs.shape, columns)
        return output.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape, columns = self._release()
        n, out_c, out_h, out_w = grad_output.shape
        flat_grad = grad_output.transpose(0, 2, 3, 1).reshape(-1, out_c)
        self.weight.grad += (columns.T @ flat_grad).T.reshape(self.weight.shape)
        if self.bias is not None:
            self.bias.grad += flat_grad.sum(axis=0)
        grad_columns = flat_grad @ self.weight.data.reshape(self.out_channels, -1)
        return col2im(grad_columns, input_shape, self.kernel_size, self.kernel_size,
                      self.stride, self.padding)


class MaxPool2d(Module):
    """Max pooling with a square window."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        n, c, h, w = inputs.shape
        out_h, out_w = _out_size(inputs.shape, self.kernel_size, self.kernel_size,
                                 self.stride, 0)
        columns = im2col(inputs.reshape(n * c, 1, h, w), self.kernel_size, self.kernel_size,
                         self.stride, 0)
        argmax = columns.argmax(axis=1)
        output = columns[np.arange(columns.shape[0]), argmax]
        self._cache = (inputs.shape, argmax, columns.shape)
        return output.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape, argmax, col_shape = self._release()
        n, c, h, w = input_shape
        grad_columns = np.zeros(col_shape, dtype=np.float64)
        grad_columns[np.arange(col_shape[0]), argmax] = grad_output.reshape(-1)
        grad = col2im(grad_columns, (n * c, 1, h, w), self.kernel_size, self.kernel_size,
                      self.stride, 0)
        return grad.reshape(input_shape)


class GlobalAvgPool2d(Module):
    """Average each channel over its spatial extent: ``(N, C, H, W) -> (N, C)``."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs.shape
        return inputs.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape = self._release()
        n, c, h, w = shape
        scale = 1.0 / (h * w)
        return np.broadcast_to(grad_output[:, :, None, None], shape) * scale


class BatchNorm2d(Module):
    """Per-channel batch normalisation for image tensors.

    Uses batch statistics in training mode, running statistics in evaluation
    mode.  Running statistics are part of the module state but not trainable
    parameters, so they do not enter the synchronised gradient vector.
    """

    def __init__(self, num_channels: int, momentum: float = 0.9, eps: float = 1e-5,
                 name: str = "bn") -> None:
        super().__init__()
        self.num_channels = num_channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_channels), name=f"{name}.beta")
        self.running_mean = np.zeros(num_channels)
        self.running_var = np.ones(num_channels)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if self.training:
            mean = inputs.mean(axis=(0, 2, 3))
            var = inputs.var(axis=(0, 2, 3))
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalised = (inputs - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (normalised, inv_std, inputs.shape)
        return normalised * self.gamma.data[None, :, None, None] + self.beta.data[None, :, None, None]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalised, inv_std, shape = self._release()
        n, c, h, w = shape
        count = n * h * w
        self.gamma.grad += (grad_output * normalised).sum(axis=(0, 2, 3))
        self.beta.grad += grad_output.sum(axis=(0, 2, 3))
        grad_norm = grad_output * self.gamma.data[None, :, None, None]
        if not self.training:
            return grad_norm * inv_std[None, :, None, None]
        sum_grad = grad_norm.sum(axis=(0, 2, 3), keepdims=True)
        sum_grad_norm = (grad_norm * normalised).sum(axis=(0, 2, 3), keepdims=True)
        grad_input = (grad_norm - sum_grad / count - normalised * sum_grad_norm / count)
        return grad_input * inv_std[None, :, None, None]
