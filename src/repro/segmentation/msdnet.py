"""Scaled-down Multi-Scale-Dilation network (MSDnet).

The paper's core function is MSDnet (Lyu et al., 2020), a semantic
segmentation CNN whose defining feature is *parallel dilated-convolution
branches* that observe multiple receptive-field scales at once.  This
module reproduces that architecture faithfully at a size a numpy
substrate can train:

``stem -> [strided downsampling] x D -> [MSD block] x B -> 1x1 head ->
bilinear upsample to input resolution``

where each MSD block runs parallel 3x3 convolutions with dilations
(1, 2, 4, 8), concatenates the branch outputs, normalises, activates,
applies dropout (the hook for Monte-Carlo inference) and adds a residual
connection.

The dropout layers use rate 0.5 as in the paper ("a dropout rate of 0.5
for all relevant MSDnet layers").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.utils.rng import ensure_rng, spawn

__all__ = ["MSDNetConfig", "MSDBlock", "MSDNet", "build_msdnet"]


@dataclass(frozen=True)
class MSDNetConfig:
    """Architecture hyper-parameters.

    ``base_channels`` must be divisible by ``len(dilations)`` so the
    parallel branches concatenate back to the trunk width.
    """

    num_classes: int = 8
    in_channels: int = 3
    base_channels: int = 16
    num_blocks: int = 2
    dilations: tuple[int, ...] = (1, 2, 4, 8)
    dropout: float = 0.5
    downsample_stages: int = 2

    def __post_init__(self):
        if self.base_channels % len(self.dilations) != 0:
            raise ValueError(
                f"base_channels ({self.base_channels}) must be divisible "
                f"by the number of dilation branches ({len(self.dilations)})")
        if self.downsample_stages < 0:
            raise ValueError("downsample_stages must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def output_stride(self) -> int:
        return 2 ** self.downsample_stages


class MSDBlock(nn.Module):
    """One multi-scale-dilation block with residual connection.

    Parallel branches ``Conv3x3(dilation=d)`` for each ``d`` produce
    ``channels / len(dilations)`` maps; their concatenation is batch-
    normalised, activated, dropped out, and added back to the input.
    """

    def __init__(self, channels: int, dilations: tuple[int, ...],
                 dropout: float, rng=None):
        super().__init__()
        rng = ensure_rng(rng)
        branch_out = channels // len(dilations)
        branch_rngs = spawn(rng, len(dilations))
        self.branches = [
            nn.Conv2d(channels, branch_out, kernel_size=3, stride=1,
                      padding=nn.Conv2d.same_padding(3, d), dilation=d,
                      rng=r)
            for d, r in zip(dilations, branch_rngs)
        ]
        self.norm = nn.BatchNorm2d(channels)
        self.act = nn.ReLU()
        self.drop = nn.SpatialDropout2d(dropout, rng=rng)
        self._split_sizes = [branch_out] * len(dilations)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_from_pre_dropout(
            self.forward_pre_dropout(x), x)

    def forward_pre_dropout(self, x: np.ndarray,
                            index: np.ndarray | None = None) -> np.ndarray:
        """Branches, concat, norm and activation — all deterministic.

        Everything before the block's dropout; under MC inference this
        part is identical for every sample of the same input, which the
        batched engine exploits (see :meth:`MSDNet.forward_prefix`).
        With ``index`` (inference only) ``x`` is a stack of candidate
        planes and the block input is ``x[index, arange(C)]``; the
        branch convs gather their columns from the planes
        (:meth:`repro.nn.Conv2d.forward_indexed`).
        """
        if index is None:
            outs = [branch(x) for branch in self.branches]
        else:
            outs = [branch.forward_indexed(x, index)
                    for branch in self.branches]
        merged = np.concatenate(outs, axis=1)
        return self.act(self.norm(merged))

    def forward_from_pre_dropout(self, activated: np.ndarray,
                                 x: np.ndarray) -> np.ndarray:
        """Dropout plus the residual connection — the stochastic tail."""
        return self.drop(activated) + x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        inner = self.norm.backward(
            self.act.backward(self.drop.backward(grad)))
        dx = grad.copy()  # residual path
        start = 0
        for branch, size in zip(self.branches, self._split_sizes):
            dx += branch.backward(inner[:, start:start + size])
            start += size
        return dx


class MSDNet(nn.Module):
    """The full scaled MSDnet segmentation model."""

    def __init__(self, config: MSDNetConfig | None = None, rng=None):
        super().__init__()
        config = config or MSDNetConfig()
        rng = ensure_rng(rng)
        self.config = config
        ch = config.base_channels

        stem_layers: list[nn.Module] = [
            nn.Conv2d(config.in_channels, ch, 3, padding=1, rng=rng),
            nn.BatchNorm2d(ch),
            nn.ReLU(),
        ]
        for _ in range(config.downsample_stages):
            stem_layers += [
                nn.Conv2d(ch, ch, 3, stride=2, padding=1, rng=rng),
                nn.BatchNorm2d(ch),
                nn.ReLU(),
            ]
        self.stem = nn.Sequential(*stem_layers)

        self.blocks = [
            MSDBlock(ch, config.dilations, config.dropout, rng=rng)
            for _ in range(config.num_blocks)
        ]
        self.head = nn.Conv2d(ch, config.num_classes, kernel_size=1,
                              rng=rng)
        self.upsample = (nn.Upsample(config.output_stride, mode="bilinear")
                         if config.output_stride > 1 else nn.Identity())

    # ------------------------------------------------------------------
    def _check_input(self, x: np.ndarray) -> None:
        stride = self.config.output_stride
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {x.shape}")
        if x.shape[2] % stride or x.shape[3] % stride:
            raise ValueError(
                f"input spatial size {x.shape[2:]} must be divisible by "
                f"the output stride {stride}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits of shape ``(N, num_classes, H, W)`` for NCHW input.

        H and W must be divisible by ``config.output_stride``.
        Computes the direct path; ``forward_suffix(forward_prefix(x))``
        must produce the identical result (the split contract, covered
        by ``tests/segmentation/test_bayesian_batched.py``).
        """
        self._check_input(x)
        y = self.stem(x)
        for block in self.blocks:
            y = block(y)
        y = self.head(y)
        return self.upsample(y)

    def forward_prefix(self, x: np.ndarray) -> np.ndarray:
        """The deterministic prefix of the network.

        Together with :meth:`forward_suffix` this implements the split
        contract of the batched MC-dropout engine
        (:class:`repro.segmentation.bayesian.BayesianSegmenter`):
        ``forward(x) == forward_suffix(forward_prefix(x))`` and the
        prefix applies **no stochastic (dropout) layer**, so under MC
        dropout it can be computed once per image instead of once per
        sample.  In MSDnet the first randomness is the *first block's*
        dropout, so the prefix covers the stem plus that block's
        branches/norm/activation; the pre-dropout activations and the
        residual input are returned concatenated along the channel axis
        for :meth:`forward_suffix` to unpack.
        """
        self._check_input(x)
        y = self.stem(x)
        if not self.blocks:
            return y
        activated = self.blocks[0].forward_pre_dropout(y)
        return np.concatenate([activated, y], axis=1)

    def forward_suffix(self, z: np.ndarray,
                       owners: np.ndarray | None = None) -> np.ndarray:
        """Dropout of block 1 onward — the (stochastic) remainder.

        With ``owners``, ``z`` holds one row per crop and the result
        equals ``forward_suffix(z[owners])`` bit for bit, drawing the
        same dropout masks.  Block 0's channel dropout multiplies each
        (sample, channel) by 0 or ``1/keep``, so channel ``c`` of every
        sample's block-1 input is one of two per-crop planes,
        ``a_c * 0 + y_c`` or ``a_c * (1/keep) + y_c``.  Those planes
        are built once per crop of the chunk and block 1's branch convs
        gather each sample's im2col columns from them instead of
        packing every sample.  Falls back to ``z[owners]`` in training
        mode, when dropout is inactive, when there is no second block,
        or when the chunk has no more tiles than planes.
        """
        y = None if owners is None else self._gathered_blocks(
            z, np.asarray(owners, dtype=np.intp))
        if y is not None:
            later = self.blocks[2:]
        else:
            if owners is not None:
                z = z[owners]
            y, later = z, self.blocks[1:]
            if self.blocks:
                ch = self.config.base_channels
                y = self.blocks[0].forward_from_pre_dropout(z[:, :ch],
                                                            z[:, ch:])
        for block in later:
            y = block(y)
        y = self.head(y)
        return self.upsample(y)

    def _gathered_blocks(self, z: np.ndarray,
                         owners: np.ndarray) -> np.ndarray | None:
        """Blocks 0-1 of ``forward_suffix(z[owners])`` built from
        per-crop planes, or ``None`` where that would save nothing."""
        crops, inverse = np.unique(owners, return_inverse=True)
        if (len(self.blocks) < 2 or self.training
                or not self.blocks[0].drop._active()
                or len(owners) <= 2 * len(crops)):
            return None
        ch = self.config.base_channels
        drop = self.blocks[0].drop
        mask = drop._draw_mask((len(owners), ch, 1, 1), z.dtype)
        # Plane 2j + v is crop j with every channel's mask value set to
        # v * (1/keep), the dropout layer's own values and arithmetic.
        values = np.arange(2, dtype=z.dtype) * drop._mask_scale(z.dtype)
        activated, y = z[crops, :ch], z[crops, ch:]
        planes = (activated[:, None] * values[:, None, None, None]
                  + y[:, None]).reshape((-1,) + activated.shape[1:])
        index = 2 * inverse[:, None] + (mask[:, :, 0, 0] != 0)
        y = planes[index, np.arange(ch, dtype=np.intp)]
        block = self.blocks[1]
        return block.forward_from_pre_dropout(
            block.forward_pre_dropout(planes, index), y)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.upsample.backward(grad)
        grad = self.head.backward(grad)
        for block in reversed(self.blocks):
            grad = block.backward(grad)
        return self.stem.backward(grad)

    # ------------------------------------------------------------------
    def predict_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Softmax class scores ``(num_classes, H, W)`` for one image.

        Deterministic standard-version inference (dropout inactive unless
        explicitly put in MC mode) — the core function of Fig. 2.
        """
        from repro.segmentation._inference import predict_probabilities
        return predict_probabilities(self, image)

    def predict_labels(self, image: np.ndarray) -> np.ndarray:
        """Arg-max class map ``(H, W)`` for one CHW image (taken on raw
        logits — softmax is monotone — skipping the normalisation)."""
        from repro.segmentation._inference import predict_labels
        return predict_labels(self, image)


def build_msdnet(num_classes: int = 8, base_channels: int = 16,
                 num_blocks: int = 2, dropout: float = 0.5,
                 seed: int = 0) -> MSDNet:
    """Convenience constructor with the reproduction's defaults."""
    config = MSDNetConfig(num_classes=num_classes,
                          base_channels=base_channels,
                          num_blocks=num_blocks, dropout=dropout)
    return MSDNet(config, rng=seed)
