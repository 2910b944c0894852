"""Lightweight segmentation model — the paper's embedded-GPU future work.

The conclusion of the paper: "it will be worth investigating other
segmentation models, including lightweight ones in order to be able to
run on on-board GPUs."  This module provides such a model: a slim
encoder-decoder with **no** parallel dilation branches and narrow
trunks, several times cheaper than the scaled MSDnet at some accuracy
cost.  It keeps dropout layers, so the same Monte-Carlo monitor wraps
it unchanged — which is the architectural point: the monitor is
model-agnostic as long as the model exposes stochastic dropout.

``benchmarks/bench_ext_lightweight.py`` measures the latency/quality
trade-off against MSDnet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.utils.rng import ensure_rng

__all__ = ["LightSegNetConfig", "LightSegNet", "build_lightsegnet"]


@dataclass(frozen=True)
class LightSegNetConfig:
    """Hyper-parameters of the lightweight model."""

    num_classes: int = 8
    in_channels: int = 3
    base_channels: int = 8
    dropout: float = 0.5
    downsample_stages: int = 2

    def __post_init__(self):
        if self.base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        if self.downsample_stages < 0:
            raise ValueError("downsample_stages must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def output_stride(self) -> int:
        return 2 ** self.downsample_stages


class LightSegNet(nn.Module):
    """Slim encoder-decoder: stem -> strided convs -> head -> upsample."""

    def __init__(self, config: LightSegNetConfig | None = None, rng=None):
        super().__init__()
        config = config or LightSegNetConfig()
        rng = ensure_rng(rng)
        self.config = config
        ch = config.base_channels

        layers: list[nn.Module] = [
            nn.Conv2d(config.in_channels, ch, 3, padding=1, rng=rng),
            nn.BatchNorm2d(ch),
            nn.ReLU(),
        ]
        for _ in range(config.downsample_stages):
            layers += [
                nn.Conv2d(ch, ch, 3, stride=2, padding=1, rng=rng),
                nn.BatchNorm2d(ch),
                nn.ReLU(),
            ]
        layers += [
            nn.Conv2d(ch, ch, 3, padding=1, rng=rng),
            nn.BatchNorm2d(ch),
            nn.ReLU(),
            nn.SpatialDropout2d(config.dropout, rng=rng),
            nn.Conv2d(ch, config.num_classes, 1, rng=rng),
        ]
        if config.output_stride > 1:
            layers.append(nn.Upsample(config.output_stride,
                                      mode="bilinear"))
        self.body = nn.Sequential(*layers)
        # Index of the first stochastic (dropout) layer: the boundary of
        # the deterministic-prefix split (see forward_prefix).
        self._prefix_len = next(
            (i for i, layer in enumerate(self.body.layers)
             if isinstance(layer, nn.Dropout)), len(self.body.layers))

    def _check_input(self, x: np.ndarray) -> None:
        stride = self.config.output_stride
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {x.shape}")
        if x.shape[2] % stride or x.shape[3] % stride:
            raise ValueError(
                f"input spatial size {x.shape[2:]} must be divisible by "
                f"the output stride {stride}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        return self.body(x)

    def forward_prefix(self, x: np.ndarray) -> np.ndarray:
        """Everything upstream of the first dropout — deterministic.

        Implements the same split contract as
        :meth:`repro.segmentation.msdnet.MSDNet.forward_prefix`:
        ``forward(x) == forward_suffix(forward_prefix(x))`` with no
        stochastic layer in the prefix, so the batched MC-dropout
        engine computes it once per image instead of once per sample.
        For this architecture the prefix is the entire encoder (stem,
        strided stages and the pre-dropout conv block) — nearly the
        whole network, which is why the split matters even more here
        than for MSDnet (benchmarked in
        ``benchmarks/bench_ext_lightweight.py``).
        """
        self._check_input(x)
        y = x
        for layer in self.body.layers[:self._prefix_len]:
            y = layer(y)
        return y

    def forward_suffix(self, z: np.ndarray,
                       owners: np.ndarray | None = None) -> np.ndarray:
        """Dropout, classification head and upsampling — the remainder.

        ``owners`` (one crop index per output row) gives the same
        contract as :meth:`repro.segmentation.msdnet.MSDNet
        .forward_suffix`; the first conv after this model's dropout is
        a 1x1 head with no columns to share, so it only indexes.
        """
        y = z if owners is None else z[owners]
        for layer in self.body.layers[self._prefix_len:]:
            y = layer(y)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.body.backward(grad)

    def predict_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Softmax class scores ``(num_classes, H, W)`` for one image."""
        from repro.segmentation._inference import predict_probabilities
        return predict_probabilities(self, image)

    def predict_labels(self, image: np.ndarray) -> np.ndarray:
        """Arg-max class map ``(H, W)`` for one CHW image (taken on raw
        logits — softmax is monotone — skipping the normalisation)."""
        from repro.segmentation._inference import predict_labels
        return predict_labels(self, image)


def build_lightsegnet(num_classes: int = 8, base_channels: int = 8,
                      dropout: float = 0.5, seed: int = 0) -> LightSegNet:
    """Convenience constructor for the lightweight model."""
    return LightSegNet(LightSegNetConfig(num_classes=num_classes,
                                         base_channels=base_channels,
                                         dropout=dropout), rng=seed)
