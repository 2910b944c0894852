"""Eq. (2) on non-finite statistics.

Unit-level companion of ``tests/integration/test_fail_closed.py``: the
threshold tests are written ``~(x <= tau)``, so a NaN or +inf moment
makes its pixel unsafe wherever it appears (any busy-road class, mean
or std, one crop of a stack), and a zone holding one is rejected.
"""

import numpy as np
import pytest

from repro.core.monitor import MonitorConfig, RuntimeMonitor
from repro.dataset.classes import BUSY_ROAD_CLASSES, NUM_CLASSES
from repro.segmentation.bayesian import PixelDistribution
from repro.utils.geometry import Box

NONFINITE = {"nan": np.nan, "+inf": np.inf}


def _distribution(h=8, w=8, num_samples=10):
    """A confidently safe distribution: every road upper bound is
    0.01 + 3 * 0.001, far below tau."""
    mean = np.full((NUM_CLASSES, h, w), 0.1)
    std = np.full((NUM_CLASSES, h, w), 0.005)
    for cls in BUSY_ROAD_CLASSES:
        mean[int(cls)] = 0.01
        std[int(cls)] = 0.001
    return PixelDistribution(mean=mean, std=std, num_samples=num_samples)


class _FakeSegmenter:
    """Returns a fixed distribution for any crop."""

    def __init__(self, distribution):
        self.distribution = distribution
        self.model = None

    def predict_distribution(self, image, num_samples=None,
                             max_batch=None):
        return self.distribution


def _monitor(distribution=None, **config):
    return RuntimeMonitor(_FakeSegmenter(distribution),
                          MonitorConfig(**config))


class TestEq2NonFinite:
    @pytest.mark.parametrize("stat", ["mean", "std"])
    @pytest.mark.parametrize("value", sorted(NONFINITE))
    @pytest.mark.parametrize("cls", BUSY_ROAD_CLASSES,
                             ids=lambda c: c.name.lower())
    def test_nonfinite_road_statistic_is_unsafe(self, cls, value, stat):
        dist = _distribution()
        getattr(dist, stat)[int(cls), 3, 5] = NONFINITE[value]
        with np.errstate(invalid="ignore"):
            unsafe = _monitor().unsafe_pixels(dist)
        assert unsafe[3, 5]
        assert unsafe.sum() == 1

    def test_nan_in_a_crop_stack_flags_only_its_pixel(self):
        """The joint pass evaluates the rule over a stack of crops; a NaN
        in one crop must not leak into, or be masked by, the others."""
        dist = _distribution()
        upper = np.stack([dist.upper_confidence()] * 3)
        upper[1, int(BUSY_ROAD_CLASSES[0]), 2, 6] = np.nan
        unsafe = _monitor().unsafe_from_upper(upper)
        assert unsafe.shape == (3, 8, 8)
        assert unsafe[1, 2, 6]
        assert unsafe.sum() == 1


class TestZoneVerdictNonFinite:
    @pytest.mark.parametrize("value", sorted(NONFINITE))
    def test_all_nonfinite_distribution_rejects(self, value):
        dist = _distribution(h=16, w=16)
        dist.mean[:] = NONFINITE[value]
        image = np.zeros((3, 16, 16), dtype=np.float32)
        with np.errstate(invalid="ignore"):
            verdict = _monitor(dist).check_zone(image, Box(4, 4, 8, 8))
        assert verdict.accepted is False
        assert verdict.unsafe_fraction == 1.0

    def test_one_nan_pixel_rejects_a_zero_tolerance_zone(self):
        dist = _distribution(h=16, w=16)
        dist.std[int(BUSY_ROAD_CLASSES[-1]), 8, 8] = np.nan
        image = np.zeros((3, 16, 16), dtype=np.float32)
        verdict = _monitor(dist).check_zone(image, Box(4, 4, 8, 8))
        assert verdict.accepted is False
        assert verdict.unsafe_fraction == 1 / 64

