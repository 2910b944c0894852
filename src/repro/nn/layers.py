"""Neural-network layers for the numpy deep-learning substrate.

Includes everything MSDnet needs: dilated convolution, batch
normalisation, ReLU family, dropout with a Monte-Carlo-inference switch
(the mechanism behind the paper's Bayesian runtime monitor), pooling and
bilinear upsampling.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init as init_schemes
from repro.nn.module import Module, Parameter
from repro.utils.rng import ensure_rng

__all__ = [
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Dropout",
    "SpatialDropout2d",
    "MaxPool2d",
    "Upsample",
    "Identity",
    "set_mc_dropout",
    "mc_dropout_enabled",
    "collect_dropout_layers",
]


class Conv2d(Module):
    """2-D convolution with stride, zero padding and dilation.

    Dilation is the defining ingredient of MSDnet's multi-scale blocks:
    parallel branches with dilations 1/2/4/8 observe growing receptive
    fields at constant resolution.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int = 3, stride: int = 1, padding: int = 0,
                 dilation: int = 1, bias: bool = True, rng=None):
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride,
               dilation) < 1:
            raise ValueError("channels, kernel, stride, dilation must be >=1")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        rng = ensure_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        weight_shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init_schemes.he_normal(weight_shape, rng),
                                name="weight")
        self.bias = (Parameter(init_schemes.zeros(out_channels), name="bias")
                     if bias else None)
        self._cache = None

    @staticmethod
    def same_padding(kernel_size: int, dilation: int = 1) -> int:
        """Padding that preserves spatial size at stride 1."""
        return dilation * (kernel_size - 1) // 2

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(
                f"Conv2d expects NCHW input, got shape {np.shape(x)}")
        bias = self.bias.data if self.bias is not None else None
        if self.training:
            y, self._cache = F.conv2d_forward(
                x, self.weight.data, bias, self.stride, self.padding,
                self.dilation)
        else:
            # Inference engine: blocked im2col into pooled scratch
            # buffers, no column matrix retained (backward is a
            # training-mode operation).
            self._cache = None
            y = F.conv2d_infer(
                x, self.weight.data, bias, self.stride, self.padding,
                self.dilation)
        return y

    def forward_indexed(self, planes: np.ndarray,
                        index: np.ndarray) -> np.ndarray:
        """Inference forward of ``planes[index, arange(C)]``.

        Bit-identical to ``forward`` on the materialised input, without
        packing each sample's columns (see :func:`F.conv2d_infer`).
        """
        bias = self.bias.data if self.bias is not None else None
        self._cache = None
        return F.conv2d_infer(planes, self.weight.data, bias, self.stride,
                              self.padding, self.dilation, index=index)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                "backward called before forward (inference-mode "
                "forwards do not retain the im2col cache)")
        dx, dw, db = F.conv2d_backward(grad, self._cache)
        self.weight.grad += dw
        if self.bias is not None:
            self.bias.grad += db
        return dx


class BatchNorm2d(Module):
    """Per-channel batch normalisation with running statistics.

    In eval mode the normalisation uses the running statistics only, so
    it is per-element and batch-size-invariant — a property the batched
    MC-dropout engine (:mod:`repro.segmentation.bayesian`) relies on:
    an image tiled ``T`` times along the batch axis normalises exactly
    as ``T`` single-image forwards.
    """

    def __init__(self, num_channels: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        if num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        self.num_channels = num_channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init_schemes.constant(num_channels, 1.0),
                               name="gamma")
        self.beta = Parameter(init_schemes.zeros(num_channels), name="beta")
        self.running_mean = np.zeros(num_channels, dtype=np.float64)
        self.running_var = np.ones(num_channels, dtype=np.float64)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.num_channels:
            raise ValueError(
                f"expected {self.num_channels} channels, got {x.shape[1]}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = (x - mean[None, :, None, None]) \
                * inv_std[None, :, None, None]
            y = (self.gamma.data[None, :, None, None] * x_hat
                 + self.beta.data[None, :, None, None])
            self._cache = (x_hat, inv_std, x.shape)
            return y
        # Eval: running statistics are constants, so normalisation and
        # the affine transform fuse into one per-channel scale/shift —
        # two full-size passes (multiply, add) instead of four, no
        # materialised x_hat, and no cache retained (inference never
        # calls backward; see Conv2d).
        mean = self.running_mean.astype(x.dtype)
        var = self.running_var.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        scale = self.gamma.data * inv_std
        shift = self.beta.data - mean * scale
        y = x * scale[None, :, None, None]
        y += shift[None, :, None, None]
        self._cache = None
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                "backward called before forward (inference-mode "
                "forwards do not retain normalisation caches)")
        x_hat, inv_std, x_shape = self._cache
        n, _, h, w = x_shape
        m = n * h * w
        self.beta.grad += grad.sum(axis=(0, 2, 3))
        self.gamma.grad += (grad * x_hat).sum(axis=(0, 2, 3))
        g = grad * self.gamma.data[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (inv_std[None, :, None, None] / m
              * (m * g - sum_g - x_hat * sum_gx))
        return dx


class ReLU(Module):
    """Rectified linear unit.

    Inference forwards run as a single fused ``np.maximum`` pass and
    retain no mask (inference never calls backward; see Conv2d).
    """

    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._mask = x > 0
            return x * self._mask
        self._mask = None
        return np.maximum(x, 0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(
                "backward called before forward (inference-mode "
                "forwards do not retain the activation mask)")
        return grad * self._mask


class LeakyReLU(Module):
    """Leaky rectified linear unit."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, self.negative_slope * grad)


class Dropout(Module):
    """Inverted elementwise dropout with a Monte-Carlo-inference switch.

    In standard operation, dropout is active only in training mode.  The
    paper's monitor (Sec. V-B) instead *keeps dropout active at inference
    time* — Monte-Carlo dropout (Gal & Ghahramani, 2016) — so repeated
    stochastic passes sample an approximate posterior.  Setting
    ``mc_mode = True`` (via :func:`set_mc_dropout`) enables exactly that
    behaviour without touching the training flag of other layers.

    Batch contract: the mask is drawn with one ``rng.random(x.shape)``
    call, so every batch element gets an independent mask and — because
    one ``(T, ...)`` draw consumes the generator stream exactly like
    ``T`` successive ``(1, ...)`` draws — a ``T``-tiled batch forward
    reproduces ``T`` sequential forwards bit for bit on the same seed.
    The batched MC-dropout engine is built on this contract.
    """

    def __init__(self, p: float = 0.5, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self.mc_mode = False
        self.rng = ensure_rng(rng)
        self._mask = None

    def _active(self) -> bool:
        return (self.training or self.mc_mode) and self.p > 0.0

    def _draw_mask(self, shape, dtype) -> np.ndarray:
        """One inverted-dropout mask of ``shape``.

        The mask is built in the input's dtype: a {0, 1/keep}-valued
        float32 array for float32 activations, with 1/keep computed in
        float64 and rounded once — bit-identical to the historical
        float64-mask-then-cast, without the full-size float64
        intermediate and per-forward astype copy.  One ``rng.random``
        call per mask keeps the batch contract (see class docstring).
        """
        scale = self._mask_scale(dtype)
        return (self.rng.random(shape) < 1.0 - self.p).astype(
            scale.dtype) * scale

    def _mask_scale(self, dtype) -> np.ndarray:
        """The kept-unit mask value ``1/keep`` as a 0-d array.

        Computed in float64 and rounded once to ``dtype`` (float32 for
        non-floating dtypes); every mask value is ``0`` or exactly this.
        """
        return np.asarray(1.0 / (1.0 - self.p), dtype=dtype
                          if np.issubdtype(dtype, np.floating)
                          else np.float32)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self._active():
            self._mask = None
            return x
        self._mask = self._draw_mask(x.shape, x.dtype)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        if self._mask.dtype == grad.dtype:
            return grad * self._mask
        return grad * self._mask.astype(grad.dtype)


class SpatialDropout2d(Dropout):
    """Channel dropout: zeroes whole feature maps.

    More effective than elementwise dropout for convolutional features
    (adjacent pixels are correlated), and the variant used between MSD
    blocks in our scaled MSDnet.  The ``(N, C, 1, 1)`` mask draw obeys
    the same per-batch-element independence contract as
    :class:`Dropout`, so batched MC inference stays exact.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self._active():
            self._mask = None
            return x
        n, c = x.shape[:2]
        # Broadcast view: the (N, C, 1, 1) mask multiplies the full map
        # without ever materialising an (N, C, H, W) mask array.
        self._mask = np.broadcast_to(
            self._draw_mask((n, c, 1, 1), x.dtype), x.shape)
        return x * self._mask


class MaxPool2d(Module):
    """Non-overlapping max pooling (stride equals kernel)."""

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, self._cache = F.maxpool2d_forward(x, self.kernel_size)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return F.maxpool2d_backward(grad, self._cache)


class Upsample(Module):
    """Upsample by an integer scale factor (bilinear or nearest)."""

    def __init__(self, scale: int, mode: str = "bilinear"):
        super().__init__()
        if scale < 1:
            raise ValueError("scale must be >= 1")
        if mode not in ("bilinear", "nearest"):
            raise ValueError(f"unknown mode {mode!r}")
        self.scale = scale
        self.mode = mode
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out_h = x.shape[-2] * self.scale
        out_w = x.shape[-1] * self.scale
        if self.mode == "bilinear":
            y, self._cache = F.resize_bilinear_forward(x, out_h, out_w)
        else:
            y, self._cache = F.resize_nearest_forward(x, out_h, out_w)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if self.mode == "bilinear":
            return F.resize_bilinear_backward(grad, self._cache)
        return F.resize_nearest_backward(grad, self._cache)


class Identity(Module):
    """No-op layer (useful as a configurable placeholder)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad


def collect_dropout_layers(model: Module) -> list["Dropout"]:
    """All dropout layers of ``model`` in ``modules()`` order.

    The order matters: :func:`set_mc_dropout` seeds layers in this
    order, so callers that cache the list (the Bayesian segmenter's hot
    path does, to skip the attribute-scan walk on every MC pass) get
    the exact seeding stream of an uncached call.
    """
    return [m for m in model.modules() if isinstance(m, Dropout)]


def set_mc_dropout(model: Module, active: bool, rng=None,
                   layers: list["Dropout"] | None = None) -> int:
    """Toggle Monte-Carlo dropout on every dropout layer of ``model``.

    Returns the number of dropout layers affected.  Optionally reseeds
    the layers' generators so an MC session is reproducible.  ``layers``
    may carry a pre-collected :func:`collect_dropout_layers` result to
    skip the module walk (the lists must come from the same model).
    """
    if layers is None:
        layers = collect_dropout_layers(model)
    rng = ensure_rng(rng) if rng is not None else None
    for module in layers:
        module.mc_mode = active
        if rng is not None:
            module.rng = np.random.default_rng(
                int(rng.integers(0, 2**63 - 1)))
    return len(layers)


def mc_dropout_enabled(model: Module) -> bool:
    """True if any dropout layer of ``model`` is in MC mode."""
    return any(isinstance(m, Dropout) and m.mc_mode
               for m in model.modules())
