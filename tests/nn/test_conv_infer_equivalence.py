"""Numerical-equivalence certification of the inference conv path.

Every eval-mode convolution runs :func:`F.conv2d_infer` (blocked im2col
into pooled scratch buffers).  Its reference is the training path
:func:`F.conv2d_forward`, which materialises the whole im2col matrix and
performs one GEMM per sample.  This suite is the layer-level half of the
certification that the two agree; the monitor/decision half lives in
``tests/integration/test_conv_infer_certification.py``.

Contract (float32, machine epsilon ``eps = 2**-23``)
----------------------------------------------------
* **Single block** (the column matrix of one sample fits
  ``F._BLOCK_KIB``): the blocked engine issues exactly the reference
  GEMM, so the outputs are equal *bit for bit*.
* **Several blocks**: every output element is still one dot product of
  the same ``K = C_in * kh * kw`` terms, but the GEMM is called on a
  row slice of the columns, so BLAS may pick a different kernel and
  reassociate the sum.  The deviation is bounded by the float32
  reassociation envelope below, anchored to the output scale so it is
  scale invariant (certified over six orders of input magnitude).
* In both regimes the block split depends only on per-sample geometry,
  so a batched forward equals per-sample forwards bit for bit (the
  batched MC-dropout engine's invariant).
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F

#: Float32 reassociation envelope for the multi-block regime.
MAXNORM_REL = 1e-5
RTOL = 2e-5
ATOL = 1e-5


def assert_reassociation_equivalent(out: np.ndarray,
                                    ref: np.ndarray) -> None:
    """Assert the multi-block accuracy contract against ``ref``."""
    assert out.shape == ref.shape
    assert out.dtype == ref.dtype
    scale = float(np.abs(ref).max())
    if scale == 0.0:
        assert np.abs(out).max() == 0.0
        return
    dev = float(np.abs(out - ref).max())
    assert dev <= MAXNORM_REL * scale, (
        f"max-norm deviation {dev:.3e} exceeds the envelope "
        f"{MAXNORM_REL:.0e} * scale ({scale:.3e})")
    np.testing.assert_allclose(out, ref, rtol=RTOL, atol=ATOL * scale)


def _training_forward(x, weight, bias, stride=1, padding=0, dilation=1):
    """``conv2d_forward`` with ``conv2d_infer``'s signature."""
    return F.conv2d_forward(x, weight, bias, stride, padding, dilation)[0]


def _single_block(x, wt, stride, padding, dilation):
    """Whether one im2col block covers the output at the current budget."""
    k = wt.shape[1] * wt.shape[2] * wt.shape[3]
    out_h = F.conv_output_size(x.shape[2], wt.shape[2], stride, padding,
                               dilation)
    out_w = F.conv_output_size(x.shape[3], wt.shape[3], stride, padding,
                               dilation)
    rows = F._BLOCK_KIB * 1024 // (k * out_w * x.dtype.itemsize)
    return rows >= out_h


def _random_case(seed: int, min_out_h: int = 1):
    """One seeded random conv: geometry, data scale and bias.

    The draw ranges cover the repo's real layer shapes (C_in up to 24,
    feature maps up to 48x48, batch 1..4, kernels {1, 3, 5} including
    non-square ones, strides and dilations up to 3) and both blocking
    regimes at the default budget.
    """
    rng = np.random.default_rng(3000 + seed)
    while True:
        n = int(rng.integers(1, 5))
        cin = int(rng.integers(1, 25))
        cout = int(rng.integers(1, 25))
        kh = int(rng.choice([1, 3, 5]))
        kw = kh if rng.random() < 0.75 else int(rng.choice([1, 3, 5]))
        stride = int(rng.integers(1, 4))
        dilation = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 4))
        h = int(rng.integers(4, 49))
        w = int(rng.integers(4, 49))
        try:
            out_h = F.conv_output_size(h, kh, stride, padding, dilation)
            F.conv_output_size(w, kw, stride, padding, dilation)
        except ValueError:
            continue
        if out_h >= min_out_h:
            break
    scale = float(10.0 ** rng.integers(-3, 4))
    x = (rng.normal(size=(n, cin, h, w)) * scale).astype(np.float32)
    wt = rng.normal(size=(cout, cin, kh, kw)).astype(np.float32)
    b = (rng.normal(size=cout) * scale).astype(np.float32)
    return x, wt, b, stride, padding, dilation


SWEEP = list(range(32))


# ----------------------------------------------------------------------
# Randomized (seeded) shape-sweep property suite
# ----------------------------------------------------------------------
class TestShapeSweepProperty:
    """Inference path ~ training forward across a seeded shape sweep.

    Every case is seeded by its index: the sweep is random once and
    reproducible forever, so the contract doubles as a regression gate.
    """

    @pytest.mark.parametrize("seed", SWEEP)
    def test_matches_training_forward(self, seed):
        x, wt, b, s, p, d = _random_case(seed)
        ref, _ = F.conv2d_forward(x, wt, b, s, p, d)
        out = F.conv2d_infer(x, wt, b, s, p, d)
        if _single_block(x, wt, s, p, d):
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)
        else:
            assert_reassociation_equivalent(out, ref)

    @pytest.mark.parametrize("seed", SWEEP)
    def test_batched_equals_per_sample(self, seed):
        x, wt, b, s, p, d = _random_case(seed)
        batched = F.conv2d_infer(x, wt, b, s, p, d)
        singles = np.concatenate([
            F.conv2d_infer(x[i:i + 1], wt, b, s, p, d)
            for i in range(x.shape[0])])
        assert np.array_equal(batched, singles)

    @pytest.mark.parametrize("seed", SWEEP[:8])
    def test_broadcast_batch_equals_materialised(self, seed):
        """A stride-0 batch (the MC engine tiling one image) is computed
        once, and equals the same batch materialised in memory."""
        x, wt, b, s, p, d = _random_case(seed)
        tiled = np.broadcast_to(x[:1], (5,) + x.shape[1:])
        out = F.conv2d_infer(tiled, wt, b, s, p, d)
        assert out.strides[0] == 0
        dense = F.conv2d_infer(np.ascontiguousarray(tiled), wt, b, s, p, d)
        assert np.array_equal(out, dense)

    def test_envelope_catches_precision_regressions(self):
        """Meta-test: the envelope fails for the error a real precision
        regression would introduce (a half-precision GEMM is ~1e-3
        relative), so the multi-block gate is not vacuously loose."""
        x, wt, b, s, p, d = _random_case(0)
        ref, _ = F.conv2d_forward(x, wt, b, s, p, d)
        with pytest.raises(AssertionError):
            assert_reassociation_equivalent(ref * np.float32(1 + 1e-3), ref)

    def test_sweep_covers_both_regimes(self):
        """The sweep is only a certificate if it exercises both the
        bit-exact and the envelope branch of the contract."""
        regimes = set()
        for seed in SWEEP:
            x, wt, _, s, p, d = _random_case(seed)
            regimes.add(_single_block(x, wt, s, p, d))
        assert regimes == {True, False}


# ----------------------------------------------------------------------
# The multi-block regime, forced by a small budget
# ----------------------------------------------------------------------
class TestForcedMultiBlock:
    """Shrinking ``_BLOCK_KIB`` splits every sweep case into row blocks,
    from one output row per GEMM call up to all rows but one."""

    def _split(self, monkeypatch, seed):
        x, wt, b, s, p, d = _random_case(seed, min_out_h=2)
        out_h = F.conv_output_size(x.shape[2], wt.shape[2], s, p, d)
        out_w = F.conv_output_size(x.shape[3], wt.shape[3], s, p, d)
        rows = min((1, 2, 3, out_h // 2, out_h - 1)[seed % 5], out_h - 1)
        rows = max(rows, 1)
        # A budget of rows + 1/2 per-sample rows floors to ``rows``.
        row_bytes = wt[0].size * out_w * x.dtype.itemsize
        monkeypatch.setattr(F, "_BLOCK_KIB", (rows + 0.5) * row_bytes / 1024)
        assert not _single_block(x, wt, s, p, d)
        return x, wt, b, s, p, d

    @pytest.mark.parametrize("seed", SWEEP[:16])
    def test_split_within_envelope(self, monkeypatch, seed):
        x, wt, b, s, p, d = self._split(monkeypatch, seed)
        ref, _ = F.conv2d_forward(x, wt, b, s, p, d)
        assert_reassociation_equivalent(F.conv2d_infer(x, wt, b, s, p, d),
                                        ref)

    @pytest.mark.parametrize("seed", SWEEP[:16])
    def test_split_batched_equals_per_sample(self, monkeypatch, seed):
        x, wt, b, s, p, d = self._split(monkeypatch, seed)
        batched = F.conv2d_infer(x, wt, b, s, p, d)
        singles = np.concatenate([
            F.conv2d_infer(x[i:i + 1], wt, b, s, p, d)
            for i in range(x.shape[0])])
        assert np.array_equal(batched, singles)


# ----------------------------------------------------------------------
# Exact cases and buffer hygiene
# ----------------------------------------------------------------------
class TestExactCases:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_zero_input_is_exactly_bias(self, k):
        rng = np.random.default_rng(k)
        x = np.zeros((2, 6, 12, 16), dtype=np.float32)
        wt = rng.normal(size=(4, 6, k, k)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        out = F.conv2d_infer(x, wt, b, padding=k // 2)
        expected = np.broadcast_to(b[None, :, None, None], out.shape)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_delta_kernel_reproduces_input(self, dilation):
        """A centred delta kernel at 'same' padding copies every input
        channel exactly: one product by 1.0, the rest by 0.0."""
        rng = np.random.default_rng(dilation)
        x = rng.normal(size=(2, 3, 10, 14)).astype(np.float32)
        wt = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            wt[c, c, 1, 1] = 1.0
        out = F.conv2d_infer(x, wt, None, padding=dilation,
                             dilation=dilation)
        assert np.array_equal(out, x)

    VIEWS = {
        "channel_slice": lambda a: a[:, 1:4],
        "spatial_step": lambda a: a[:, :3, ::2, ::2],
        "fortran_order": lambda a: np.asfortranarray(a[:, :3]),
        "reversed_rows": lambda a: a[:, :3, ::-1],
        "batch_step": lambda a: a[::2, :3],
    }

    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_strided_input_matches_contiguous(self, view):
        rng = np.random.default_rng(21)
        base = rng.normal(size=(4, 5, 20, 24)).astype(np.float32)
        x = self.VIEWS[view](base)
        assert not x.flags.c_contiguous
        wt = rng.normal(size=(6, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)
        for padding in (0, 1):
            out = F.conv2d_infer(x, wt, b, padding=padding)
            dense = F.conv2d_infer(np.ascontiguousarray(x), wt, b,
                                   padding=padding)
            assert np.array_equal(out, dense)

    def test_output_does_not_alias_scratch_buffer(self):
        """Results outlive the pooled scratch buffer: a later conv that
        reuses the same pool entry must not change an earlier output."""
        rng = np.random.default_rng(22)
        wt = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)
        x1 = rng.normal(size=(1, 4, 8, 8)).astype(np.float32)
        first = F.conv2d_infer(x1, wt, None, padding=1)
        kept = first.copy()
        F.conv2d_infer(x1 * np.float32(-7.0), wt, None, padding=1)
        assert np.array_equal(first, kept)
        for buf in F._COL_BUFFERS.values():
            assert not np.shares_memory(first, buf)

    def test_buffer_pool_stays_bounded(self, monkeypatch):
        """Evicting pool entries never changes a result, and the pool
        never grows past its cap."""
        monkeypatch.setattr(F, "_COL_BUFFER_CAP", 3)
        F.clear_conv_buffers()
        rng = np.random.default_rng(23)
        wt = rng.normal(size=(2, 1, 1, 1)).astype(np.float32)
        for width in (1, 3, 7, 30, 100, 700, 3000, 7, 1, 100):
            x = rng.normal(size=(1, 1, 1, width)).astype(np.float32)
            ref, _ = F.conv2d_forward(x, wt, None)
            assert np.array_equal(F.conv2d_infer(x, wt, None), ref)
            assert len(F._COL_BUFFERS) <= 3
        F.clear_conv_buffers()


# ----------------------------------------------------------------------
# Layer compositions: fused batch norm, MC dropout, MSDnet
# ----------------------------------------------------------------------
def _seeded_block(seed: int, cin=8, mid=8, cout=8, dropout=0.5):
    """conv -> BN(eval, non-trivial stats) -> ReLU -> SpatialDropout
    (MC mode) -> conv."""
    rng = np.random.default_rng(seed)
    conv1 = nn.Conv2d(cin, mid, 3, padding=1, rng=1)
    bn = nn.BatchNorm2d(mid)
    bn.running_mean = rng.normal(size=mid) * 0.5
    bn.running_var = rng.uniform(0.25, 4.0, size=mid)
    bn.gamma.data = rng.uniform(0.5, 2.0, size=mid).astype(np.float32)
    bn.beta.data = rng.normal(size=mid).astype(np.float32)
    drop = nn.SpatialDropout2d(dropout, rng=99)
    conv2 = nn.Conv2d(mid, cout, 3, padding=2, dilation=2, rng=2)
    seq = nn.Sequential(conv1, bn, nn.ReLU(), drop, conv2)
    seq.eval()
    drop.mc_mode = True
    return seq, drop


def _run_both_paths(run):
    """``run()`` on the inference path, then on the training forward."""
    infer = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "conv2d_infer", _training_forward)
        ref = run()
    return infer, ref


class TestLayerCompositions:
    def test_bn_and_dropout_composition_bit_identical(self):
        image = np.random.default_rng(11).normal(
            size=(2, 8, 16, 24)).astype(np.float32)

        def run():
            seq, drop = _seeded_block(5)
            drop.rng = np.random.default_rng(42)   # identical masks
            return seq(image)

        infer, ref = _run_both_paths(run)
        assert np.array_equal(infer, ref)

    def test_dropout_masks_independent_of_conv_path(self):
        """The mask stream never depends on which conv path ran: the
        conv paths do arithmetic only and never touch RNG state."""
        image = np.random.default_rng(12).normal(
            size=(1, 8, 16, 16)).astype(np.float32)

        def run():
            seq, drop = _seeded_block(5)
            drop.rng = np.random.default_rng(7)
            seq(image)
            return np.asarray(drop._mask)

        infer, ref = _run_both_paths(run)
        assert np.array_equal(infer, ref)

    @pytest.mark.parametrize("channels,blocks,shape", [
        (16, 2, (32, 48)),
        (8, 1, (24, 24)),
        (24, 2, (48, 64)),
    ])
    def test_msdnet_forward_matches_training_forward(self, channels,
                                                     blocks, shape):
        """Whole-model check: an (untrained) MSDnet forward on the
        inference path against the same forward with every conv routed
        through the training path."""
        from repro.segmentation.msdnet import MSDNet, MSDNetConfig

        model = MSDNet(MSDNetConfig(base_channels=channels,
                                    num_blocks=blocks), rng=3)
        model.eval()
        image = np.random.default_rng(13).normal(
            size=(1, 3) + shape).astype(np.float32)
        infer, ref = _run_both_paths(lambda: model.forward(image))
        # Depth ~6 conv stages with BN renormalisation between them:
        # certify at 16x the single-layer envelope.
        scale = float(np.abs(ref).max())
        assert float(np.abs(infer - ref).max()) <= \
            16 * MAXNORM_REL * scale


# ----------------------------------------------------------------------
# Indexed input: candidate planes gathered channel by channel
# ----------------------------------------------------------------------
def _indexed_case(x, seed, planes=3, samples=7):
    """Candidate planes built from ``x`` plus an ``(N, C)`` index."""
    rng = np.random.default_rng(4000 + seed)
    c = x.shape[1]
    stack = np.concatenate(
        [x, x[:1] * np.float32(-0.5), x[-1:] + np.float32(1.0)])[:planes]
    index = rng.integers(0, stack.shape[0], size=(samples, c))
    return stack, index


def _materialised(planes, index):
    return planes[index, np.arange(planes.shape[1])]


class TestIndexedInput:
    """``conv2d_infer(planes, index=index)`` equals ``conv2d_infer`` on
    the materialised input ``planes[index, arange(C)]`` bit for bit, in
    both blocking regimes."""

    @pytest.mark.parametrize("seed", SWEEP)
    def test_sweep_bit_identical(self, seed):
        x, wt, b, s, p, d = _random_case(seed)
        planes, index = _indexed_case(x, seed)
        out = F.conv2d_infer(planes, wt, b, s, p, d, index=index)
        ref = F.conv2d_infer(_materialised(planes, index), wt, b, s, p, d)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("size", [1, 3, 4])
    def test_dilation_beyond_map_reads_only_padding(self, size):
        """Every off-centre tap of a dilation >= the map lands in the
        zero padding."""
        rng = np.random.default_rng(size)
        planes = rng.normal(size=(4, 5, size, size)).astype(np.float32)
        index = rng.integers(0, 4, size=(9, 5))
        wt = rng.normal(size=(3, 5, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        for dilation in (size, 2 * size + 1, 8):
            out = F.conv2d_infer(planes, wt, b, 1, dilation, dilation,
                                 index=index)
            ref = F.conv2d_infer(_materialised(planes, index), wt, b, 1,
                                 dilation, dilation)
            assert np.array_equal(out, ref)

    def test_non_finite_planes(self):
        rng = np.random.default_rng(31)
        planes = rng.normal(size=(4, 6, 8, 8)).astype(np.float32)
        planes[0, 1, 2, 3] = np.nan
        planes[1, 2] = np.inf
        planes[2, 0, 0, :] = -np.inf
        planes[3] = np.nan
        index = rng.integers(0, 4, size=(10, 6))
        wt = rng.normal(size=(4, 6, 3, 3)).astype(np.float32)
        for dilation in (1, 2):
            with np.errstate(invalid="ignore"):  # inf * 0 in the GEMM
                out = F.conv2d_infer(planes, wt, None, 1, dilation,
                                     dilation, index=index)
                ref = F.conv2d_infer(_materialised(planes, index), wt,
                                     None, 1, dilation, dilation)
            assert np.array_equal(out, ref, equal_nan=True)
            assert np.isnan(out).any()

    def test_multi_block_geometry(self, monkeypatch):
        rng = np.random.default_rng(32)
        planes = rng.normal(size=(3, 8, 20, 24)).astype(np.float32)
        index = rng.integers(0, 3, size=(5, 8))
        wt = rng.normal(size=(6, 8, 3, 3)).astype(np.float32)
        # Two output rows per block.
        monkeypatch.setattr(F, "_BLOCK_KIB", 2.5 * 8 * 9 * 24 * 4 / 1024)
        assert not _single_block(planes, wt, 1, 1, 1)
        out = F.conv2d_infer(planes, wt, None, 1, 1, 1, index=index)
        ref = F.conv2d_infer(_materialised(planes, index), wt, None, 1, 1, 1)
        assert np.array_equal(out, ref)

    def test_output_does_not_alias_scratch_buffers(self):
        rng = np.random.default_rng(33)
        planes = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        index = rng.integers(0, 2, size=(5, 4))
        wt = rng.normal(size=(3, 4, 3, 3)).astype(np.float32)
        first = F.conv2d_infer(planes, wt, None, padding=1, index=index)
        kept = first.copy()
        F.conv2d_infer(planes * np.float32(3.0), wt, None, padding=1,
                       index=index)
        assert np.array_equal(first, kept)
        for buf in F._COL_BUFFERS.values():
            assert not np.shares_memory(first, buf)

    def test_bad_index_rejected(self):
        planes = np.zeros((2, 4, 6, 6), dtype=np.float32)
        wt = np.zeros((3, 4, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            F.conv2d_infer(planes, wt, None, index=np.zeros((5, 3), int))
        with pytest.raises(ValueError, match="lie in"):
            F.conv2d_infer(planes, wt, None,
                           index=np.full((5, 4), 2, dtype=int))
        with pytest.raises(ValueError, match="lie in"):
            F.conv2d_infer(planes, wt, None,
                           index=np.full((5, 4), -1, dtype=int))
