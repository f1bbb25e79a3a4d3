"""Standard and depthwise 2-D convolutions with backprop.

MobileNetV2 only needs these two flavours: dense convolutions (the stem
and every 1x1 pointwise conv) and 3x3 depthwise convolutions. Each
forward pass and each weight gradient is one ``np.matmul`` over columns
of input taps.

The kernels compute the same floats as the plain formulation (im2col,
an einsum contraction, col2im) with far fewer copies. A matmul's summation order
depends on the shapes and memory layouts of its operands, and the
BatchNorm that follows a conv sums in the memory order of the array the
conv returns. So every matmul gets the C-contiguous operands ``einsum``
would build, and every returned array keeps the layout the plain
formulation returns: a dense conv returns an NHWC-ordered view, a
depthwise conv a CNHW-ordered view, and input gradients are NCHW.
The copies saved:

- A stride-1 1x1 conv reads its rows straight from ``x``, without any
  copy when ``x``'s memory is NHWC (a previous conv's output).
- Depthwise columns are written once, directly in the layout the
  matmul reads.
- The depthwise input gradient is folded into the padded image tap by
  tap, without a 9x product buffer or :func:`~repro.nn.functional.col2im`.

See ``docs/determinism.md`` ("Training numerics") for the guarantee.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.seeding import DEFAULT_INIT_SEED
from repro.nn.module import Module, Parameter


def _he_init(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialization, appropriate for ReLU-family activations."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


class Conv2d(Module):
    """Dense 2-D convolution over NCHW inputs.

    Args:
        in_channels: input channel count.
        out_channels: output channel count.
        kernel_size: square kernel edge.
        stride: spatial stride.
        padding: symmetric zero padding.
        bias: add a per-channel bias (disabled when a BatchNorm follows).
        rng: initializer RNG; defaults to a fixed seed for reproducibility.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ShapeError("conv dimensions must be positive")
        rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _he_init((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._cache = None

    def macs(self, out_h: int, out_w: int) -> int:
        """Multiply-accumulate count for one image at this output size."""
        k = self.kernel_size
        return self.out_channels * self.in_channels * k * k * out_h * out_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.padding
        n, c, h, w = x.shape
        # One C-contiguous row of input taps per output pixel.
        if k == 1 and s == 1 and p == 0:
            # A free view when x's memory is NHWC, as a conv's output is.
            rows = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * w, c)
            out_h, out_w = h, w
        else:
            cols, out_h, out_w = im2col(x, k, k, s, p)
            rows = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, c * k * k)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        out = np.matmul(rows, w2d.T).reshape(n, out_h, out_w, self.out_channels)
        out = out.transpose(0, 3, 1, 2)
        if self.bias is not None:
            out += self.bias.data[None, :, None, None]
        self._cache = (x.shape, rows)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward")
        x_shape, rows = self._cache
        n, _, out_h, out_w = grad_out.shape
        g = grad_out.reshape(n, self.out_channels, out_h * out_w)
        g_rows = g.transpose(0, 2, 1).reshape(n * out_h * out_w, self.out_channels)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += np.matmul(np.ascontiguousarray(rows.T), g_rows).T.reshape(
            self.weight.data.shape
        )
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))
        k = self.kernel_size
        grad_cols = np.matmul(g_rows, w2d).reshape(
            n, out_h, out_w, self.in_channels, k, k
        )
        grad_cols = grad_cols.transpose(0, 3, 4, 5, 1, 2)
        return col2im(grad_cols, x_shape, k, k, self.stride, self.padding)


class DepthwiseConv2d(Module):
    """Depthwise 3x3 (or kxk) convolution: one filter per channel.

    Args:
        channels: input = output channel count.
        kernel_size: square kernel edge.
        stride: spatial stride.
        padding: symmetric zero padding.
        bias: add a per-channel bias.
        rng: initializer RNG.
    """

    def __init__(
        self,
        channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if channels <= 0 or kernel_size <= 0:
            raise ShapeError("conv dimensions must be positive")
        rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = kernel_size * kernel_size
        self.weight = Parameter(
            _he_init((channels, kernel_size, kernel_size), fan_in, rng)
        )
        self.bias = Parameter(np.zeros(channels)) if bias else None
        self._cache = None

    def macs(self, out_h: int, out_w: int) -> int:
        """Multiply-accumulate count for one image at this output size."""
        k = self.kernel_size
        return self.channels * k * k * out_h * out_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"DepthwiseConv2d expects (N, {self.channels}, H, W), got {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.padding
        n, c, h, w = x.shape
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        # cols[c, i, j, n, y, x] = padded x[n, c, s*y + i, s*x + j]
        padded = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=x.dtype)
        padded[:, :, p : p + h, p : p + w] = x.transpose(1, 0, 2, 3)
        cols = np.empty((c, k, k, n, out_h, out_w), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                cols[:, i, j] = padded[:, :, i : i + s * out_h : s, j : j + s * out_w : s]
        cols = cols.reshape(c, k * k, n * out_h * out_w)
        out = np.matmul(self.weight.data.reshape(c, 1, k * k), cols)
        out = out.reshape(c, n, out_h, out_w).transpose(1, 0, 2, 3)
        if self.bias is not None:
            out += self.bias.data[None, :, None, None]
        self._cache = (x.shape, cols)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward")
        x_shape, cols = self._cache
        n, c, out_h, out_w = grad_out.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        g = grad_out.reshape(n, c, out_h * out_w)
        g_rows = g.transpose(1, 0, 2).reshape(c, 1, n * out_h * out_w)
        # A C-contiguous (c, n*l, k*k) copy: the vector-matrix product over
        # the transposed view of cols would run another BLAS kernel.
        taps = np.ascontiguousarray(cols.transpose(0, 2, 1))
        self.weight.grad += np.matmul(g_rows, taps).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))
        # Fold w[c, i, j] * g into the padded image tap by tap, in (i, j)
        # order: the products and their summation order are col2im's over
        # the full 9x product columns, which are never built.
        h, w = x_shape[2:]
        image = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
        product = np.empty(grad_out.shape, dtype=grad_out.dtype)
        for i in range(k):
            for j in range(k):
                np.multiply(grad_out, self.weight.data[:, i, j, None, None], out=product)
                image[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += product
        return image[:, :, p : p + h, p : p + w]
