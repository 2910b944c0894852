"""Tests for the inference convolution (blocked im2col).

Contracts:

* :func:`conv2d_infer` agrees with the training path
  :func:`conv2d_forward` — bit for bit when the geometry fits a single
  im2col block, to float32 reassociation tolerance when the column
  matrix is split;
* blocking depends only on per-sample geometry, so batched forwards
  equal per-sample forwards bit for bit (the batched MC engine's
  invariant), in the single- and the multi-block regime alike;
* stride-0 broadcast batches are computed once and re-broadcast.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F


def _case(rng, n, cin, cout, h, w, k=3, stride=1, padding=1, dilation=1):
    x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
    wt = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
    b = rng.normal(size=cout).astype(np.float32)
    return x, wt, b, stride, padding, dilation


#: The geometry matrix.  Every entry fits one im2col block at the
#: default budget, where the blocked engine must equal
#: ``conv2d_forward`` bit for bit.  The sweep deliberately includes the
#: degenerate corners: 1x1 spatial output, single channel in/out, batch
#: 1 vs N, kernels {1, 3, 5}, strides, paddings and dilation.
GEOMETRIES = [
    dict(n=1, cin=3, cout=8, h=24, w=32),                     # stem-like
    dict(n=1, cin=3, cout=8, h=16, w=24),
    dict(n=5, cin=3, cout=8, h=16, w=24),                     # batch N
    dict(n=2, cin=8, cout=6, h=12, w=16, k=1, padding=0),     # 1x1 kernel
    dict(n=2, cin=4, cout=6, h=8, w=8, k=1, padding=0),
    dict(n=2, cin=8, cout=6, h=12, w=16, k=5, padding=2),     # 5x5 kernel
    dict(n=3, cin=8, cout=8, h=13, w=9),                      # odd spatial
    dict(n=3, cin=8, cout=8, h=9, w=11),
    dict(n=2, cin=8, cout=8, h=12, w=16, stride=2),           # strided
    dict(n=4, cin=8, cout=8, h=24, w=32, stride=2),
    dict(n=2, cin=8, cout=8, h=12, w=16, padding=2,
         dilation=2),                                         # dilated
    dict(n=2, cin=8, cout=4, h=12, w=16, padding=4, dilation=4),
    dict(n=2, cin=1, cout=1, h=10, w=10),                     # 1 channel
    dict(n=1, cin=4, cout=4, h=3, w=3, padding=0),            # 1x1 output
    dict(n=4, cin=6, cout=3, h=8, w=8, padding=2),            # fat padding
]


def _block_rows(x, wt, s, p, d):
    """Output rows per im2col block at the current budget."""
    k = wt.shape[1] * wt.shape[2] * wt.shape[3]
    out_w = F.conv_output_size(x.shape[3], wt.shape[3], s, p, d)
    return F._BLOCK_KIB * 1024 // (k * out_w * x.dtype.itemsize)


class TestGeometryMatrix:
    @pytest.mark.parametrize("kw", GEOMETRIES)
    def test_matches_training_forward_bit_for_bit(self, kw):
        seed = sum(kw.values())  # randomized-but-seeded per geometry
        x, wt, b, s, p, d = _case(np.random.default_rng(seed), **kw)
        out_h = F.conv_output_size(x.shape[2], wt.shape[2], s, p, d)
        assert _block_rows(x, wt, s, p, d) >= out_h   # one block
        ref, _ = F.conv2d_forward(x, wt, b, s, p, d)
        out = F.conv2d_infer(x, wt, b, s, p, d)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("kw", GEOMETRIES)
    def test_batched_equals_per_sample(self, kw):
        seed = sum(kw.values()) + 1
        x, wt, b, s, p, d = _case(np.random.default_rng(seed), **kw)
        batched = F.conv2d_infer(x, wt, b, s, p, d)
        singles = np.concatenate([
            F.conv2d_infer(x[i:i + 1], wt, b, s, p, d)
            for i in range(x.shape[0])])
        assert np.array_equal(batched, singles)


class TestMultiBlock:
    """The regime where the column matrix is split into row blocks."""

    def test_default_budget_splits_wide_layers(self):
        # C_in=24, 3x3 and out_w=128 give 3-row blocks at the default
        # 384 KiB budget: several blocks with no knob touched.
        x, wt, b, s, p, d = _case(np.random.default_rng(10), n=2, cin=24,
                                  cout=8, h=12, w=128)
        assert _block_rows(x, wt, s, p, d) == 3
        ref, _ = F.conv2d_forward(x, wt, b, s, p, d)
        out = F.conv2d_infer(x, wt, b, s, p, d)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)
        singles = np.concatenate([F.conv2d_infer(x[i:i + 1], wt, b, s, p, d)
                                  for i in range(x.shape[0])])
        assert np.array_equal(out, singles)

    def test_batched_equals_per_sample_bit_for_bit(self, monkeypatch):
        # The invariant the batched MC-dropout engine builds on: the
        # block split never depends on the batch size.
        monkeypatch.setattr(F, "_BLOCK_KIB", 64)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 8, 48, 64)).astype(np.float32)
        wt = rng.normal(size=(8, 8, 3, 3)).astype(np.float32)
        assert _block_rows(x, wt, 1, 1, 1) < 48
        batched = F.conv2d_infer(x, wt, None, padding=1)
        singles = np.concatenate(
            [F.conv2d_infer(x[i:i + 1], wt, None, padding=1)
             for i in range(x.shape[0])])
        assert np.array_equal(batched, singles)

    @pytest.mark.parametrize("kib", [1, 16, 4096])
    def test_block_size_does_not_change_results_materially(
            self, monkeypatch, kib):
        x, wt, b, s, p, d = _case(np.random.default_rng(4), n=2, cin=8,
                                  cout=8, h=48, w=64)
        ref, _ = F.conv2d_forward(x, wt, b, s, p, d)
        monkeypatch.setattr(F, "_BLOCK_KIB", kib)
        out = F.conv2d_infer(x, wt, b, s, p, d)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)


class TestBroadcastAndBuffers:
    def test_broadcast_batch_computed_once(self):
        rng = np.random.default_rng(5)
        one = rng.normal(size=(1, 4, 8, 8)).astype(np.float32)
        wt = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)
        tiled = np.broadcast_to(one, (6,) + one.shape[1:])
        assert tiled.strides[0] == 0
        y = F.conv2d_infer(tiled, wt, None, padding=1)
        assert y.shape[0] == 6
        assert y.strides[0] == 0  # result is a broadcast view too
        ref = F.conv2d_infer(one, wt, None, padding=1)
        for i in range(6):
            assert np.array_equal(y[i], ref[0])

    def test_clear_conv_buffers(self):
        x, wt, b, s, p, d = _case(np.random.default_rng(7), n=1, cin=4,
                                  cout=4, h=8, w=8)
        first = F.conv2d_infer(x, wt, b, s, p, d)
        assert F._COL_BUFFERS
        F.clear_conv_buffers()
        assert not F._COL_BUFFERS
        out = F.conv2d_infer(x, wt, b, s, p, d)
        assert np.array_equal(out, first)

    def test_channel_mismatch_rejected(self):
        x, wt, b, s, p, d = _case(np.random.default_rng(8), n=1, cin=4,
                                  cout=4, h=8, w=8)
        with pytest.raises(ValueError, match="channels"):
            F.conv2d_infer(x[:, :3], wt, b, s, p, d)


class TestConvLayerDispatch:
    LAYERS = [
        dict(in_channels=3, out_channels=5, kernel_size=3, padding=1),
        dict(in_channels=4, out_channels=4, kernel_size=1),
        dict(in_channels=4, out_channels=6, kernel_size=5, padding=2),
        dict(in_channels=6, out_channels=6, kernel_size=3, padding=4,
             dilation=4),
        dict(in_channels=3, out_channels=8, kernel_size=3, padding=1,
             stride=2),
        dict(in_channels=5, out_channels=3, kernel_size=3, padding=1,
             bias=False),
    ]

    @pytest.mark.parametrize("cfg", LAYERS)
    def test_eval_forward_matches_training_forward(self, cfg):
        layer = nn.Conv2d(**cfg, rng=0)
        x = np.random.default_rng(8).normal(
            size=(2, cfg["in_channels"], 10, 12)).astype(np.float32)
        layer.train()
        y_train = layer(x)
        layer.eval()
        y_eval = layer(x)
        assert np.array_equal(y_eval, y_train)

    def test_eval_forward_retains_no_cache(self):
        layer = nn.Conv2d(3, 5, 3, padding=1, rng=0)
        layer.eval()
        layer(np.zeros((1, 3, 8, 8), dtype=np.float32))
        assert layer._cache is None
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((1, 5, 8, 8), dtype=np.float32))

    def test_training_backward_unaffected(self):
        layer = nn.Conv2d(2, 3, 3, padding=1, rng=0)
        x = np.random.default_rng(9).normal(
            size=(1, 2, 6, 6)).astype(np.float32)
        layer.train()
        y = layer(x)
        dx = layer.backward(np.ones_like(y))
        assert dx.shape == x.shape
