"""The conv and BatchNorm kernels against a plain reference formulation.

The reference layers below are the straightforward formulations: every
convolution goes through ``im2col`` and ``np.einsum``, every input
gradient through ``col2im``, and BatchNorm takes its batch variance
from ``x.var``. The production layers compute the same floats with far
fewer copies. These tests hold them to the reference at every shape a
Table I network trains (stem, depthwise at stride 1 and 2, pointwise,
SSD heads, BN in train and eval mode) and in the three memory layouts
the network feeds its layers.

The comparison uses a tolerance, not a hash of trained weights: BLAS
kernels differ across machines and numpy versions, so bit patterns are
only reproducible on one machine (see ``docs/determinism.md``). A
tolerance of 1e-12 still catches any wrong tap, stride or fold, which
moves results by many orders of magnitude more.
"""

import numpy as np
import pytest

from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.functional import col2im, im2col
from repro.nn.norm import BatchNorm2d

TOL = dict(rtol=1e-12, atol=1e-12)


class ReferenceConv2d(Conv2d):
    def forward(self, x):
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, out_h, out_w = im2col(x, k, k, s, p)
        n = x.shape[0]
        flat = cols.reshape(n, self.in_channels * k * k, out_h * out_w)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        out = np.einsum("oc,ncl->nol", w2d, flat, optimize=True)
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        self._cache = (x.shape, flat)
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_out):
        x_shape, flat = self._cache
        n, _, out_h, out_w = grad_out.shape
        g = grad_out.reshape(n, self.out_channels, out_h * out_w)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += np.einsum("nol,ncl->oc", g, flat, optimize=True).reshape(
            self.weight.data.shape
        )
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))
        grad_cols = np.einsum("oc,nol->ncl", w2d, g, optimize=True)
        k = self.kernel_size
        grad_cols = grad_cols.reshape(n, self.in_channels, k, k, out_h, out_w)
        return col2im(grad_cols, x_shape, k, k, self.stride, self.padding)


class ReferenceDepthwiseConv2d(DepthwiseConv2d):
    def forward(self, x):
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, out_h, out_w = im2col(x, k, k, s, p)
        flat = cols.reshape(x.shape[0], self.channels, k * k, out_h * out_w)
        wflat = self.weight.data.reshape(self.channels, k * k)
        out = np.einsum("nckl,ck->ncl", flat, wflat, optimize=True)
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        self._cache = (x.shape, flat)
        return out.reshape(x.shape[0], self.channels, out_h, out_w)

    def backward(self, grad_out):
        x_shape, flat = self._cache
        n, _, out_h, out_w = grad_out.shape
        k = self.kernel_size
        g = grad_out.reshape(n, self.channels, out_h * out_w)
        wflat = self.weight.data.reshape(self.channels, k * k)
        self.weight.grad += np.einsum("nckl,ncl->ck", flat, g, optimize=True).reshape(
            self.weight.data.shape
        )
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))
        grad_cols = np.einsum("ck,ncl->nckl", wflat, g, optimize=True)
        grad_cols = grad_cols.reshape(n, self.channels, k, k, out_h, out_w)
        return col2im(grad_cols, x_shape, k, k, self.stride, self.padding)


class ReferenceBatchNorm2d(BatchNorm2d):
    def forward(self, x):
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )
        self._cache = (x_hat, inv_std)
        return out

    def backward(self, grad_out):
        x_hat, inv_std = self._cache
        n, _, h, w = grad_out.shape
        m = n * h * w
        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        g = grad_out * self.gamma.data[None, :, None, None]
        if not self.training:
            return g * inv_std[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        return inv_std[None, :, None, None] * (g - sum_g / m - x_hat * sum_gx / m)


#: Memory orders the network hands its layers: the axis order of the
#: underlying buffer, outermost first. A conv's output is a transposed
#: view, so the next layer sees NHWC or CNHW memory, not NCHW.
LAYOUTS = {"nchw": (0, 1, 2, 3), "nhwc": (0, 2, 3, 1), "cnhw": (1, 0, 2, 3)}


def make_input(rng, shape, layout="nchw"):
    """A normal ``shape`` array whose memory runs in ``layout`` order."""
    order = LAYOUTS[layout]
    buf = rng.normal(size=tuple(shape[a] for a in order))
    return buf.transpose(np.argsort(order))


def assert_layers_match(new, ref, x, rng):
    """One forward and backward through both layers; every result must match."""
    out_new, out_ref = new.forward(x), ref.forward(x.copy())
    np.testing.assert_allclose(out_new, out_ref, **TOL)
    grad_out = rng.normal(size=out_ref.shape)
    new.zero_grad()
    ref.zero_grad()
    np.testing.assert_allclose(new.backward(grad_out.copy()), ref.backward(grad_out), **TOL)
    params_ref = dict(ref.named_parameters())
    for name, p in new.named_parameters():
        np.testing.assert_allclose(p.grad, params_ref[name].grad, **TOL, err_msg=name)
    buffers_ref = dict(ref.named_buffers())
    for name, b in new.named_buffers():
        np.testing.assert_allclose(b, buffers_ref[name], **TOL, err_msg=name)


def pair(cls, ref_cls, *args, **kwargs):
    seed = 7
    return (
        cls(*args, rng=np.random.default_rng(seed), **kwargs),
        ref_cls(*args, rng=np.random.default_rng(seed), **kwargs),
    )


#: Feature-map sizes a Table I network trains on (input 48x64).
SIZES = [(24, 32), (12, 16), (6, 8), (3, 4)]
BATCHES = [8, 2]


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_stem_3x3_stride2(batch, layout):
    rng = np.random.default_rng(1)
    new, ref = pair(Conv2d, ReferenceConv2d, 3, 16, 3, stride=2, padding=1, bias=False)
    assert_layers_match(new, ref, make_input(rng, (batch, 3, 48, 64), layout), rng)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("hw", SIZES)
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_depthwise(batch, hw, stride, layout):
    rng = np.random.default_rng(2)
    new, ref = pair(
        DepthwiseConv2d, ReferenceDepthwiseConv2d, 24, 3, stride=stride, padding=1
    )
    assert_layers_match(new, ref, make_input(rng, (batch, 24, *hw), layout), rng)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("bias", [False, True])
def test_depthwise_bias(batch, stride, bias):
    rng = np.random.default_rng(3)
    new, ref = pair(
        DepthwiseConv2d, ReferenceDepthwiseConv2d, 16, 3, stride=stride, padding=1, bias=bias
    )
    assert_layers_match(new, ref, make_input(rng, (batch, 16, 7, 10)), rng)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("hw", SIZES)
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_pointwise(batch, hw, bias, layout):
    rng = np.random.default_rng(4)
    new, ref = pair(Conv2d, ReferenceConv2d, 24, 32, 1, bias=bias)
    assert_layers_match(new, ref, make_input(rng, (batch, 24, *hw), layout), rng)


@pytest.mark.parametrize("batch", BATCHES)
def test_pointwise_stride2(batch):
    rng = np.random.default_rng(5)
    new, ref = pair(Conv2d, ReferenceConv2d, 16, 24, 1, stride=2, bias=True)
    assert_layers_match(new, ref, make_input(rng, (batch, 16, 12, 16), "nhwc"), rng)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("hw", [(6, 8), (3, 4)])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_ssd_head_3x3(batch, hw, layout):
    rng = np.random.default_rng(6)
    new, ref = pair(Conv2d, ReferenceConv2d, 32, 12, 3, padding=1, bias=True)
    assert_layers_match(new, ref, make_input(rng, (batch, 32, *hw), layout), rng)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("hw", SIZES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm(batch, hw, layout, training):
    rng = np.random.default_rng(8)
    new, ref = BatchNorm2d(24), ReferenceBatchNorm2d(24)
    for bn in (new, ref):
        bn.gamma.data[:] = np.linspace(0.5, 1.5, 24)
        bn.beta.data[:] = np.linspace(-0.2, 0.2, 24)
        bn.running_mean[:] = np.linspace(-0.1, 0.1, 24)
        bn.running_var[:] = np.linspace(0.8, 1.2, 24)
        bn.train(training)
    x = make_input(rng, (batch, 24, *hw), layout) * 2.0 + 0.5
    assert_layers_match(new, ref, x, rng)


def test_batchnorm_repeated_steps_track_running_stats():
    rng = np.random.default_rng(9)
    new, ref = BatchNorm2d(8), ReferenceBatchNorm2d(8)
    for _ in range(3):
        assert_layers_match(new, ref, make_input(rng, (8, 8, 6, 8), "nhwc"), rng)


def test_make_input_layouts():
    x = make_input(np.random.default_rng(0), (2, 3, 4, 5), "nhwc")
    assert x.shape == (2, 3, 4, 5)
    assert x.strides == (3 * 4 * 5 * 8, 8, 5 * 3 * 8, 3 * 8)
    assert make_input(np.random.default_rng(0), (2, 3, 4, 5), "cnhw").strides[1] == 2 * 20 * 8
