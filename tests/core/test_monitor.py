"""Tests for the runtime monitor — Eq. (2) semantics and conservatism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import MonitorConfig, RuntimeMonitor
from repro.dataset.classes import NUM_CLASSES, UavidClass
from repro.segmentation.bayesian import BayesianSegmenter, PixelDistribution
from repro.utils.geometry import Box


def _distribution(mean_road=0.05, std_road=0.01, h=8, w=8):
    """Synthetic pixel distribution with controllable road scores."""
    mean = np.full((NUM_CLASSES, h, w), 0.1)
    std = np.full((NUM_CLASSES, h, w), 0.005)
    for cls in (UavidClass.ROAD, UavidClass.MOVING_CAR,
                UavidClass.STATIC_CAR):
        mean[int(cls)] = mean_road
        std[int(cls)] = std_road
    return PixelDistribution(mean=mean, std=std, num_samples=10)


class _FakeSegmenter:
    """Stands in for BayesianSegmenter in pure-rule tests."""

    def __init__(self, distribution):
        self.distribution = distribution
        self.model = None

    def predict_distribution(self, image, num_samples=None,
                             max_batch=None):
        return self.distribution


class TestEq2Rule:
    def test_confident_safe_pixels_pass(self):
        monitor = RuntimeMonitor(_FakeSegmenter(None), MonitorConfig())
        dist = _distribution(mean_road=0.02, std_road=0.005)
        # 0.02 + 3*0.005 = 0.035 <= 0.125 -> safe.
        assert not monitor.unsafe_pixels(dist).any()

    def test_high_mean_flagged(self):
        monitor = RuntimeMonitor(_FakeSegmenter(None), MonitorConfig())
        dist = _distribution(mean_road=0.2, std_road=0.0)
        assert monitor.unsafe_pixels(dist).all()

    def test_high_uncertainty_flagged(self):
        """Low mean but large sigma must still trip the monitor —
        that is the whole point of Eq. (2)."""
        monitor = RuntimeMonitor(_FakeSegmenter(None), MonitorConfig())
        dist = _distribution(mean_road=0.05, std_road=0.1)
        # 0.05 + 0.3 > 0.125.
        assert monitor.unsafe_pixels(dist).all()

    def test_boundary_exactly_tau_is_safe(self):
        monitor = RuntimeMonitor(_FakeSegmenter(None),
                                 MonitorConfig(tau=0.125))
        dist = _distribution(mean_road=0.125, std_road=0.0)
        # Eq. (2) is "<= tau" -> exactly tau passes.
        assert not monitor.unsafe_pixels(dist).any()

    def test_any_road_class_trips(self):
        monitor = RuntimeMonitor(_FakeSegmenter(None), MonitorConfig())
        dist = _distribution(mean_road=0.02, std_road=0.0)
        # Only the static-car class is uncertain.
        dist.mean[int(UavidClass.STATIC_CAR), 3, 3] = 0.5
        unsafe = monitor.unsafe_pixels(dist)
        assert unsafe[3, 3]
        assert unsafe.sum() == 1

    def test_non_road_classes_ignored(self):
        monitor = RuntimeMonitor(_FakeSegmenter(None), MonitorConfig())
        dist = _distribution(mean_road=0.02, std_road=0.0)
        dist.mean[int(UavidClass.BUILDING)] = 0.9
        assert not monitor.unsafe_pixels(dist).any()

    @given(tau_low=st.floats(0.05, 0.3), delta=st.floats(0.01, 0.3))
    @settings(max_examples=40, deadline=None)
    def test_tau_monotonicity(self, tau_low, delta):
        """Raising tau can only shrink the unsafe set."""
        rng = np.random.default_rng(0)
        mean = rng.uniform(0, 0.4, size=(NUM_CLASSES, 6, 6))
        std = rng.uniform(0, 0.1, size=(NUM_CLASSES, 6, 6))
        dist = PixelDistribution(mean=mean, std=std, num_samples=10)
        low = RuntimeMonitor(_FakeSegmenter(None),
                             MonitorConfig(tau=tau_low))
        high = RuntimeMonitor(_FakeSegmenter(None),
                              MonitorConfig(tau=min(tau_low + delta,
                                                    1.0)))
        unsafe_low = low.unsafe_pixels(dist)
        unsafe_high = high.unsafe_pixels(dist)
        assert not (unsafe_high & ~unsafe_low).any()

    @given(mult=st.floats(0.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_sigma_multiplier_monotonicity(self, mult):
        """A larger sigma multiplier is never less conservative."""
        rng = np.random.default_rng(1)
        mean = rng.uniform(0, 0.2, size=(NUM_CLASSES, 5, 5))
        std = rng.uniform(0, 0.05, size=(NUM_CLASSES, 5, 5))
        dist = PixelDistribution(mean=mean, std=std, num_samples=10)
        base = RuntimeMonitor(_FakeSegmenter(None),
                              MonitorConfig(sigma_multiplier=mult))
        stricter = RuntimeMonitor(
            _FakeSegmenter(None),
            MonitorConfig(sigma_multiplier=mult + 1.0))
        assert (base.unsafe_pixels(dist) <=
                stricter.unsafe_pixels(dist)).all()


class TestZoneVerdicts:
    def test_accepts_clean_zone(self):
        dist = _distribution(mean_road=0.01, std_road=0.001, h=16, w=16)
        monitor = RuntimeMonitor(_FakeSegmenter(dist), MonitorConfig())
        image = np.zeros((3, 16, 16), dtype=np.float32)
        verdict = monitor.check_zone(image, Box(4, 4, 8, 8))
        assert verdict.accepted
        assert verdict.unsafe_fraction == 0.0

    def test_rejects_unsafe_zone(self):
        dist = _distribution(mean_road=0.3, std_road=0.0, h=16, w=16)
        monitor = RuntimeMonitor(_FakeSegmenter(dist), MonitorConfig())
        image = np.zeros((3, 16, 16), dtype=np.float32)
        verdict = monitor.check_zone(image, Box(4, 4, 8, 8))
        assert not verdict.accepted
        assert verdict.unsafe_fraction == 1.0

    def test_max_unsafe_fraction_tolerance(self):
        dist = _distribution(mean_road=0.01, std_road=0.0, h=16, w=16)
        # One bad pixel inside the zone.
        dist.mean[int(UavidClass.ROAD), 8, 8] = 0.9
        image = np.zeros((3, 16, 16), dtype=np.float32)
        strict = RuntimeMonitor(_FakeSegmenter(dist),
                                MonitorConfig(max_unsafe_fraction=0.0))
        lenient = RuntimeMonitor(
            _FakeSegmenter(dist),
            MonitorConfig(max_unsafe_fraction=0.05))
        box = Box(4, 4, 8, 8)
        assert not strict.check_zone(image, box).accepted
        assert lenient.check_zone(image, box).accepted

    def test_empty_box_rejected(self):
        monitor = RuntimeMonitor(_FakeSegmenter(None), MonitorConfig())
        with pytest.raises(ValueError, match="empty"):
            monitor.check_zone(np.zeros((3, 8, 8), dtype=np.float32),
                               Box(0, 0, 0, 4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(tau=1.5)
        with pytest.raises(ValueError):
            MonitorConfig(sigma_multiplier=-1.0)
        with pytest.raises(ValueError):
            MonitorConfig(num_samples=0)
        with pytest.raises(ValueError):
            MonitorConfig(road_classes=())
        # A negative margin would shrink the crop inside the zone and
        # judge only part of it (fail open).
        with pytest.raises(ValueError, match="context_margin_px"):
            MonitorConfig(context_margin_px=-8)
        assert MonitorConfig(context_margin_px=0).context_margin_px == 0


class TestConfigValidation:
    """Every knob refuses the values that would break Eq. (2) or the
    crop geometry, naming itself, and keeps its boundary values (cases
    beyond ``TestZoneVerdicts.test_config_validation``)."""

    @pytest.mark.parametrize("field,value", [
        ("tau", -0.01), ("tau", float("nan")),
        ("max_unsafe_fraction", -0.01), ("max_unsafe_fraction", 1.01),
        ("max_unsafe_fraction", float("nan")),
        ("context_margin_px", -1), ("overlap_budget", 0.0),
    ])
    def test_invalid_value_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            MonitorConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("tau", 0.0), ("tau", 1.0), ("max_unsafe_fraction", 0.0),
        ("max_unsafe_fraction", 1.0), ("sigma_multiplier", 0.0),
        ("num_samples", 1), ("context_margin_px", 0),
        ("overlap_budget", 0.5),
    ])
    def test_boundary_value_kept(self, field, value):
        assert getattr(MonitorConfig(**{field: value}), field) == value


class TestBatchedZones:
    """check_zones must agree with N separate check_zone calls."""

    def _monitor(self, tiny_system, seed=5, num_samples=3):
        segmenter = BayesianSegmenter(tiny_system.model,
                                      num_samples=num_samples, rng=seed)
        return RuntimeMonitor(segmenter,
                              MonitorConfig(num_samples=num_samples))

    def test_check_zones_matches_sequential_calls(self, tiny_system):
        image = tiny_system.test_samples[0].image
        boxes = [Box(4, 4, 10, 10), Box(8, 20, 12, 12), Box(20, 40, 9, 11)]
        batched = self._monitor(tiny_system).check_zones(image, boxes)
        sequential_monitor = self._monitor(tiny_system)
        sequential = [sequential_monitor.check_zone(image, b)
                      for b in boxes]
        assert len(batched) == len(sequential) == len(boxes)
        for a, b in zip(batched, sequential):
            assert a.accepted == b.accepted
            assert a.unsafe_fraction == b.unsafe_fraction
            assert np.array_equal(a.unsafe_mask, b.unsafe_mask)
            assert np.array_equal(a.distribution.mean,
                                  b.distribution.mean)
            assert np.array_equal(a.distribution.std, b.distribution.std)

    def test_check_zones_joint_reproducible(self, tiny_system):
        image = tiny_system.test_samples[0].image
        boxes = [Box(4, 4, 10, 10), Box(8, 20, 12, 12)]
        a = self._monitor(tiny_system).check_zones(image, boxes,
                                                   joint=True)
        b = self._monitor(tiny_system).check_zones(image, boxes,
                                                   joint=True,
                                                   max_batch=2)
        for va, vb in zip(a, b):
            assert va.accepted == vb.accepted
            assert va.unsafe_fraction == vb.unsafe_fraction
            assert va.unsafe_mask.shape == (va.box.height, va.box.width)

    def test_check_zones_joint_on_unaligned_frame(self, tiny_system):
        """Regression: frames not divisible by the stride trim every
        natural crop below its grown extent; the joint path must centre
        a target-sized window rather than raise."""
        stride = tiny_system.model.config.output_stride
        image = tiny_system.test_samples[0].image[:, :stride * 2 + 2, :]
        box = Box(0, 4, image.shape[1], 12)  # full (unaligned) height
        monitor = self._monitor(tiny_system)
        single = monitor.check_zone(image, box)
        verdicts = self._monitor(tiny_system).check_zones(
            image, [box, Box(1, 20, 6, 6)], joint=True)
        assert len(verdicts) == 2
        assert verdicts[0].unsafe_mask.shape == single.unsafe_mask.shape

    def test_check_zones_empty_list(self, tiny_system):
        image = tiny_system.test_samples[0].image
        assert self._monitor(tiny_system).check_zones(image, []) == []

    def test_check_zones_rejects_empty_box(self, tiny_system):
        image = tiny_system.test_samples[0].image
        with pytest.raises(ValueError, match="empty"):
            self._monitor(tiny_system).check_zones(
                image, [Box(0, 0, 4, 4), Box(0, 0, 0, 4)])


class TestSmallFrames:
    """Frames or crops below the model stride must fail loudly (or be
    clamped), never produce a zero-extent crop (regression)."""

    def test_frame_smaller_than_stride_raises_clearly(self, tiny_system):
        stride = tiny_system.model.config.output_stride
        assert stride > 1  # the regression needs a real stride
        segmenter = BayesianSegmenter(tiny_system.model, num_samples=2,
                                      rng=0)
        monitor = RuntimeMonitor(segmenter, MonitorConfig(num_samples=2))
        tiny = np.zeros((3, stride - 1, stride - 1), dtype=np.float32)
        with pytest.raises(ValueError, match="output stride"):
            monitor.check_zone(tiny, Box(0, 0, 1, 1))
        with pytest.raises(ValueError, match="output stride"):
            monitor.full_frame_unsafe(tiny)

    def test_tiny_box_in_adequate_frame_is_clamped(self, tiny_system):
        """A 1x1 box in a frame >= one stride must yield a verdict."""
        segmenter = BayesianSegmenter(tiny_system.model, num_samples=2,
                                      rng=0)
        monitor = RuntimeMonitor(segmenter, MonitorConfig(
            num_samples=2, context_margin_px=0))
        image = tiny_system.test_samples[0].image
        verdict = monitor.check_zone(image, Box(0, 0, 1, 1))
        assert verdict.unsafe_mask.shape == (1, 1)


class TestWithRealModel:
    """Integration with the actual Bayesian segmenter."""

    def test_crop_padding_respects_stride(self, tiny_system):
        segmenter = BayesianSegmenter(tiny_system.model, num_samples=2,
                                      rng=0)
        monitor = RuntimeMonitor(segmenter, MonitorConfig(num_samples=2))
        image = tiny_system.test_samples[0].image
        # An awkward box size/position not divisible by the stride.
        verdict = monitor.check_zone(image, Box(3, 5, 9, 11))
        assert verdict.unsafe_mask.shape == (9, 11)

    def test_full_frame_unsafe_shape(self, tiny_system):
        segmenter = BayesianSegmenter(tiny_system.model, num_samples=2,
                                      rng=0)
        monitor = RuntimeMonitor(segmenter, MonitorConfig(num_samples=2))
        image = tiny_system.test_samples[0].image
        unsafe = monitor.full_frame_unsafe(image)
        assert unsafe.shape == image.shape[1:]
        assert unsafe.dtype == bool

    def test_verdict_reproducible_with_seed(self, tiny_system):
        image = tiny_system.test_samples[0].image
        box = Box(8, 8, 12, 12)
        verdicts = []
        for _ in range(2):
            segmenter = BayesianSegmenter(tiny_system.model,
                                          num_samples=4, rng=5)
            monitor = RuntimeMonitor(segmenter,
                                     MonitorConfig(num_samples=4))
            verdicts.append(monitor.check_zone(image, box))
        assert verdicts[0].unsafe_fraction == \
            pytest.approx(verdicts[1].unsafe_fraction)
