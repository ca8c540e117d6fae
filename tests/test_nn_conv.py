"""Unit tests for convolution, pooling and batch normalisation.

``im2col`` / ``col2im`` run compiled for ``float64`` arrays when the kernels
are built; the NumPy statements in ``repro.nn.conv`` are the reference leg,
reached here by patching ``conv.get_kernels`` (``numpy_leg()``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.comm import make_transport
from repro.nn import conv
from repro.nn.conv import BatchNorm2d, Conv2d, GlobalAvgPool2d, MaxPool2d, col2im, im2col
from repro.nn.layers import Flatten, Linear
from repro.nn.losses import MSELoss
from repro.nn.module import Sequential
from repro.nn.parameter import flatten_values
from repro.sparse.ckernels import get_kernels
from repro.training.cases import get_case
from repro.training.trainer import DistributedTrainer, TrainerConfig

from tests.helpers import numerical_gradient_check

compiled_only = pytest.mark.skipif(get_kernels() is None,
                                   reason="compiled kernels unavailable")


def numpy_leg():
    return mock.patch.object(conv, "get_kernels", lambda: None)


def leg(name):
    """Context manager running ``name``'s leg: ``compiled`` (as built) or
    ``numpy``."""
    if name == "compiled" and get_kernels() is None:
        pytest.skip("compiled kernels unavailable")
    return numpy_leg() if name == "numpy" else contextlib.nullcontext()


def _mse(pred, target):
    return MSELoss()(pred, target)


class TestIm2Col:
    def test_shapes(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        cols = im2col(x, 3, 3, stride=1, padding=1)
        assert cols.shape == (2 * 8 * 8, 3 * 3 * 3)

    @pytest.mark.parametrize("name", ["compiled", "numpy"])
    @pytest.mark.parametrize("kernel, stride, padding", [(3, 1, 1), (3, 2, 1), (1, 2, 0), (2, 2, 2)])
    def test_col2im_is_adjoint_of_im2col(self, name, kernel, stride, padding):
        """<im2col(x), y> == <x, col2im(y)> (the defining adjoint property)."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 7, 6))
        with leg(name):
            cols = im2col(x, kernel, kernel, stride=stride, padding=padding)
            y = rng.normal(size=cols.shape)
            folded = col2im(y, x.shape, kernel, kernel, stride=stride, padding=padding)
        lhs = float((cols * y).sum())
        rhs = float((x * folded).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_stride_reduces_output(self):
        x = np.zeros((1, 1, 8, 8))
        cols = im2col(x, 2, 2, stride=2, padding=0)
        assert cols.shape == (16, 4)

    @pytest.mark.parametrize("name", ["compiled", "numpy"])
    @pytest.mark.parametrize("shape, kernel, stride, padding", [
        ((1, 1, 2, 2), 5, 1, 0),   # out size -2: used to be "negative dimensions"
        ((1, 1, 4, 4), 5, 2, 0),   # out size 0: used to be an empty output
        ((2, 3, 1, 6), 4, 1, 1),   # fits the width, not the height
        ((1, 1, 4, 4), 3, 0, 1),   # no stride
    ])
    def test_a_kernel_that_does_not_fit_is_a_value_error(self, name, shape, kernel,
                                                         stride, padding):
        h, w = shape[2:]
        message = (f"{h}x{w} image with a {kernel}x{kernel} kernel "
                   f"at stride {stride}, padding {padding}")
        with leg(name):
            with pytest.raises(ValueError, match=message):
                im2col(np.zeros(shape), kernel, kernel, stride, padding)
            with pytest.raises(ValueError, match=message):
                col2im(np.zeros((1, kernel * kernel)), shape, kernel, kernel, stride, padding)
            with pytest.raises(ValueError, match=message):
                Conv2d(shape[1], 2, kernel, stride=stride, padding=padding).forward(np.zeros(shape))
            if padding == 0 and stride > 0:
                with pytest.raises(ValueError, match=message):
                    MaxPool2d(kernel, stride).forward(np.zeros(shape))


#: Entries of the images and columns the two legs are compared on.
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.5, 5e-324, 1e300, -1e300]


@st.composite
def geometries(draw):
    """``(shape, kernel_h, kernel_w, stride, padding)`` with a kernel that
    fits the padded image; odd sizes and ``n = 0`` included."""
    kernel_h, kernel_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kernel_h - 2 * padding), 7))
    w = draw(st.integers(max(1, kernel_w - 2 * padding), 7))
    shape = (draw(st.integers(0, 3)), draw(st.integers(1, 4)), h, w)
    return shape, kernel_h, kernel_w, stride, padding


def _values(draw, size):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size)
    special = rng.random(size) < draw(st.sampled_from([0.0, 0.3]))
    return np.where(special, rng.choice(SPECIAL, size=size), values)


#: How an image reaches ``im2col``: as built, as the NCHW view of an NHWC
#: buffer (what Conv2d -> BatchNorm2d -> ReLU hands on), sliced out of a
#: larger array, or read backwards.
LAYOUTS = ["contiguous", "nhwc", "sliced", "reversed"]


def _laid_out(values, shape, layout):
    n, c, h, w = shape
    if layout == "nhwc":
        return np.ascontiguousarray(values.reshape(n, c, h, w).transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "sliced":
        big = np.full((n, c + 1, h + 1, 2 * w), 7.0)
        big[:, 1:, :h, ::2] = values.reshape(shape)
        return big[:, 1:, :h, ::2]
    if layout == "reversed":
        return np.ascontiguousarray(values.reshape(shape)[..., ::-1])[..., ::-1]
    return values.reshape(shape)


def _assert_same_bits(a, b, nan_as_nan=False):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    if nan_as_nan:  # two NaNs meeting in a sum keep either payload
        assert np.array_equal(np.isnan(a), np.isnan(b))
        a, b = np.where(np.isnan(a), 0.0, a), np.where(np.isnan(b), 0.0, b)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@compiled_only
class TestCompiledLegEqualsNumPyLeg:
    """The compiled unfold is a pure gather and the fold adds in the NumPy
    statement's order, so both legs agree on every bit — zeros' sign bits
    included; a NaN only on being NaN where sums meet two of them."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_im2col(self, data):
        shape, kernel_h, kernel_w, stride, padding = data.draw(geometries())
        images = _laid_out(_values(data.draw, int(np.prod(shape))), shape,
                           data.draw(st.sampled_from(LAYOUTS)))
        images.flags.writeable = False
        before = images.copy()
        compiled = im2col(images, kernel_h, kernel_w, stride, padding)
        with numpy_leg():
            reference = im2col(images, kernel_h, kernel_w, stride, padding)
        assert compiled.flags.c_contiguous
        _assert_same_bits(compiled, np.ascontiguousarray(reference))
        _assert_same_bits(images, before)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_col2im(self, data):
        shape, kernel_h, kernel_w, stride, padding = data.draw(geometries())
        out_h, out_w = conv._out_size(shape, kernel_h, kernel_w, stride, padding)
        rows, width = shape[0] * out_h * out_w, shape[1] * kernel_h * kernel_w
        values = _values(data.draw, rows * width).reshape(rows, width)
        if data.draw(st.booleans()):  # a non-contiguous matrix
            values = np.asfortranarray(values)
        values.flags.writeable = False
        before = values.copy()
        compiled = col2im(values, shape, kernel_h, kernel_w, stride, padding)
        with numpy_leg(), np.errstate(invalid="ignore", over="ignore"):
            reference = col2im(values, shape, kernel_h, kernel_w, stride, padding)
        assert compiled.strides == reference.strides  # same view of a padded image
        _assert_same_bits(compiled, reference, nan_as_nan=True)
        _assert_same_bits(values, before)

    def test_the_fold_refuses_positions_outside_the_padded_image(self):
        kernels = get_kernels()
        columns = np.ones((4, 9))
        assert kernels.col2im(columns, (1, 1, 4, 4), 3, 3, 1, 2, 2).sum() == 36.0
        for out_h, out_w in ((3, 2), (2, 3), (0, 2)):
            with pytest.raises(ValueError, match="must fit the padded image"):
                kernels.col2im(columns, (1, 1, 4, 4), 3, 3, 1, out_h, out_w)

    def test_maxpool_and_stride_two_conv_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 7, 7))
        for layer in (MaxPool2d(2), MaxPool2d(3, 2), Conv2d(2, 3, 3, stride=2, padding=1, rng=rng),
                      Conv2d(2, 3, 1, stride=2, rng=rng)):
            out = layer.forward(x)
            compiled = (out, layer.backward(np.ones_like(out)))
            with numpy_leg():
                out = layer.forward(x)
                reference = (out, layer.backward(np.ones_like(out)))
            for a, b in zip(compiled, reference):
                _assert_same_bits(np.ascontiguousarray(a), np.ascontiguousarray(b))


def training_digests():
    """SHA-256 of the parameters after two epochs of ``sim:2`` training of
    cases 1, 3 and 4 (3x3, stride-2 and 1x1 convolutions, pooling)."""
    digests = {}
    for case_id in (1, 3, 4):
        case = get_case(case_id)
        with make_transport("sim:2") as cluster:
            trainer = DistributedTrainer(
                cluster, api.make_factory("spardl?density=0.01"), case.build_model,
                *case.build_datasets(num_samples=64, seed=0),
                config=TrainerConfig(batch_size=8, seed=0, learning_rate=case.learning_rate,
                                     momentum=case.momentum),
                compute_profile=case.compute_profile)
            trainer.train(num_epochs=2)
            parameters = flatten_values(trainer.global_model.parameters())
        digests[case_id] = hashlib.sha256(parameters.tobytes()).hexdigest()
    return digests


def test_training_is_identical_on_the_other_kernel_leg():
    """Two epochs of three CNN cases in a child process with
    ``REPRO_DISABLE_CKERNELS`` flipped end on the same parameters."""
    env = dict(os.environ)
    if get_kernels() is not None:
        env["REPRO_DISABLE_CKERNELS"] = "1"
    else:
        env.pop("REPRO_DISABLE_CKERNELS", None)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + env.get("PYTHONPATH", "").split(os.pathsep))
    child = subprocess.run([sys.executable, __file__], env=env, check=True,
                           capture_output=True, text=True, timeout=300)
    other = json.loads(child.stdout)
    if other["compiled"] == (get_kernels() is not None):
        pytest.skip("no C compiler: both processes ran the NumPy kernels")
    assert {int(case): digest for case, digest in other["digests"].items()} == training_digests()


class TestConv2d:
    def test_output_shape_same_padding(self):
        conv = Conv2d(3, 8, 3, stride=1, padding=1, rng=np.random.default_rng(0))
        out = conv.forward(np.zeros((2, 3, 16, 16)))
        assert out.shape == (2, 8, 16, 16)

    def test_output_shape_stride_two(self):
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = conv.forward(np.zeros((2, 3, 16, 16)))
        assert out.shape == (2, 4, 8, 8)

    def test_known_convolution_value(self):
        conv = Conv2d(1, 1, 3, stride=1, padding=0, rng=np.random.default_rng(0))
        conv.weight.data[...] = np.ones((1, 1, 3, 3))
        conv.bias.data[...] = 0.0
        x = np.ones((1, 1, 3, 3))
        assert conv.forward(x)[0, 0, 0, 0] == pytest.approx(9.0)

    def test_wrong_channel_count_rejected(self):
        conv = Conv2d(3, 4, 3)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 2, 8, 8)))

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        model = Sequential(
            Conv2d(2, 3, 3, stride=1, padding=1, rng=rng),
            Flatten(),
            Linear(3 * 6 * 6, 2, rng=rng),
        )
        x = rng.normal(size=(2, 2, 6, 6))
        y = rng.normal(size=(2, 2))
        assert numerical_gradient_check(model, x, _mse, y) < 1e-6


class TestPooling:
    def test_maxpool_selects_maximum(self):
        pool = MaxPool2d(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_gradient_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad[0, 0, 1, 1] == 1.0  # position of value 5
        assert grad[0, 0, 0, 0] == 0.0
        assert grad.sum() == 4.0

    def test_maxpool_gradient_check(self):
        rng = np.random.default_rng(3)
        model = Sequential(
            Conv2d(1, 2, 3, padding=1, rng=rng),
            MaxPool2d(2),
            Flatten(),
            Linear(2 * 3 * 3, 2, rng=rng),
        )
        x = rng.normal(size=(2, 1, 6, 6))
        y = rng.normal(size=(2, 2))
        assert numerical_gradient_check(model, x, _mse, y) < 1e-6

    def test_global_avg_pool(self):
        pool = GlobalAvgPool2d()
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        out = pool.forward(x)
        np.testing.assert_allclose(out, [[1.5, 5.5]])
        grad = pool.backward(np.ones((1, 2)))
        np.testing.assert_allclose(grad, np.full((1, 2, 2, 2), 0.25))


class TestBatchNorm2d:
    def test_training_normalises_batch(self):
        norm = BatchNorm2d(3)
        x = np.random.default_rng(0).normal(loc=2.0, scale=4.0, size=(8, 3, 5, 5))
        out = norm.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated_in_training_only(self):
        norm = BatchNorm2d(2, momentum=0.5)
        x = np.random.default_rng(1).normal(loc=3.0, size=(4, 2, 4, 4))
        norm.forward(x)
        mean_after_train = norm.running_mean.copy()
        norm.eval()
        norm.forward(x)
        np.testing.assert_array_equal(norm.running_mean, mean_after_train)

    def test_eval_uses_running_stats(self):
        norm = BatchNorm2d(1, momentum=0.0)
        x = np.full((2, 1, 2, 2), 4.0)
        norm.forward(x + np.random.default_rng(0).normal(scale=0.1, size=x.shape))
        norm.eval()
        out = norm.forward(x)
        assert np.isfinite(out).all()

    def test_gradient_check_in_training_mode(self):
        rng = np.random.default_rng(4)
        conv = Conv2d(1, 2, 3, padding=1, rng=rng)
        norm = BatchNorm2d(2)
        model = Sequential(conv, norm, Flatten(), Linear(2 * 4 * 4, 2, rng=rng))
        x = rng.normal(size=(3, 1, 4, 4))
        y = rng.normal(size=(3, 2))

        # Keep batch-norm in training mode (batch statistics) for the check.
        model.train()
        outputs = model.forward(x)
        _, grad_output = _mse(outputs, y)
        model.zero_grad()
        model.backward(grad_output)
        analytic = norm.gamma.grad.copy()

        eps = 1e-6
        numeric = np.zeros_like(analytic)
        for index in range(analytic.size):
            norm.gamma.data[index] += eps
            loss_plus, _ = _mse(model.forward(x), y)
            norm.gamma.data[index] -= 2 * eps
            loss_minus, _ = _mse(model.forward(x), y)
            norm.gamma.data[index] += eps
            numeric[index] = (loss_plus - loss_minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


if __name__ == "__main__":  # the child of test_training_is_identical_on_the_other_kernel_leg
    print(json.dumps({"compiled": get_kernels() is not None, "digests": training_digests()}))
