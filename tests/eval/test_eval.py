"""Tests for the evaluation harness, monitor metrics and reporting."""

import numpy as np
import pytest

from repro.dataset.classes import UavidClass
from repro.eval import (
    HarnessConfig,
    MonitorPixelStats,
    accumulate_stats,
    format_kv,
    format_table,
    format_title,
    pixel_monitor_stats,
    scaled_drift_model,
    tau_sweep,
    zone_truly_unsafe,
)
from repro.segmentation.bayesian import PixelDistribution
from repro.utils.geometry import Box

ROAD = int(UavidClass.ROAD)
GRASS = int(UavidClass.LOW_VEGETATION)


class TestPixelMonitorStats:
    def _maps(self):
        """4x4 frame: left half road, right half grass."""
        gt = np.full((4, 4), GRASS)
        gt[:, :2] = ROAD
        pred = gt.copy()
        pred[0, 0] = GRASS          # model misses one road pixel
        monitor = np.zeros((4, 4), dtype=bool)
        monitor[0, 0] = True        # monitor catches it
        monitor[0, 3] = True        # and raises one false alarm
        return gt, pred, monitor

    def test_exact_counts(self):
        gt, pred, monitor = self._maps()
        stats = pixel_monitor_stats(gt, pred, monitor)
        assert stats.road_pixels == 8
        assert stats.model_missed_road == 1
        assert stats.monitor_caught == 1
        assert stats.false_alarms == 1
        assert stats.safe_pixels == 8
        assert stats.residual_missed == 0

    def test_rates(self):
        gt, pred, monitor = self._maps()
        stats = pixel_monitor_stats(gt, pred, monitor)
        assert stats.model_miss_rate == pytest.approx(1 / 8)
        assert stats.monitor_catch_rate == 1.0
        assert stats.false_alarm_rate == pytest.approx(1 / 8)

    def test_residual_miss(self):
        gt, pred, _ = self._maps()
        silent = np.zeros((4, 4), dtype=bool)
        stats = pixel_monitor_stats(gt, pred, silent)
        assert stats.residual_missed == 1
        assert stats.monitor_catch_rate == 0.0

    def test_nan_when_no_misses(self):
        gt = np.full((2, 2), GRASS)
        stats = pixel_monitor_stats(gt, gt, np.zeros((2, 2), dtype=bool))
        assert np.isnan(stats.monitor_catch_rate)
        assert np.isnan(stats.model_miss_rate)

    def test_merge_and_accumulate(self):
        gt, pred, monitor = self._maps()
        single = pixel_monitor_stats(gt, pred, monitor)
        total = accumulate_stats([single, single, single])
        assert total.road_pixels == 3 * single.road_pixels
        assert total.monitor_catch_rate == single.monitor_catch_rate

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pixel_monitor_stats(np.zeros((2, 2), dtype=int),
                                np.zeros((3, 3), dtype=int),
                                np.zeros((2, 2), dtype=bool))


class TestTauSweep:
    def _distribution(self):
        rng = np.random.default_rng(0)
        mean = rng.uniform(0, 0.3, size=(8, 10, 10))
        std = rng.uniform(0, 0.05, size=(8, 10, 10))
        return PixelDistribution(mean=mean, std=std, num_samples=10)

    def test_rates_decrease_with_tau(self):
        gt = np.full((10, 10), GRASS)
        gt[:5] = ROAD
        points = tau_sweep(self._distribution(), gt,
                           taus=[0.05, 0.125, 0.3, 0.6])
        tprs = [p["tpr"] for p in points]
        fprs = [p["fpr"] for p in points]
        assert tprs == sorted(tprs, reverse=True)
        assert fprs == sorted(fprs, reverse=True)

    def test_tau_zero_flags_everything(self):
        gt = np.full((10, 10), ROAD)
        points = tau_sweep(self._distribution(), gt, taus=[0.0])
        assert points[0]["tpr"] == 1.0

    def test_nan_pixel_is_flagged_like_the_runtime_monitor(self):
        """A NaN statistic counts as flagged at every tau, as the
        runtime rule ``~(upper <= tau)`` counts it as unsafe."""
        dist = self._distribution()
        dist.mean[:, 0, 0] = np.nan
        gt = np.full((10, 10), GRASS)
        points = tau_sweep(dist, gt, taus=[1.0])
        assert points[0]["fpr"] == 1 / gt.size


class TestZoneTrulyUnsafe:
    def test_detects_road_in_zone(self):
        gt = np.full((20, 20), GRASS)
        gt[10, 10] = ROAD
        assert zone_truly_unsafe(gt, Box(8, 8, 6, 6))
        assert not zone_truly_unsafe(gt, Box(0, 0, 6, 6))


class TestHarnessConfig:
    def test_cache_key_stable(self):
        assert HarnessConfig().cache_key() == HarnessConfig().cache_key()

    def test_cache_key_sensitive_to_config(self):
        a = HarnessConfig()
        b = HarnessConfig(model_channels=32)
        assert a.cache_key() != b.cache_key()

    def test_scaled_drift_model_reasonable(self):
        model = scaled_drift_model()
        # Must be satisfiable inside a 96x128 m frame.
        assert 5.0 < model.required_clearance_m() < 50.0


class TestTrainedSystemFixture:
    def test_splits_nonempty(self, tiny_system):
        assert tiny_system.train_samples
        assert tiny_system.val_samples
        assert tiny_system.test_samples

    def test_model_better_than_chance(self, tiny_system):
        from repro.segmentation import evaluate_model
        report = evaluate_model(tiny_system.model,
                                tiny_system.test_samples)
        assert report.accuracy > 0.5  # chance is ~0.125 for 8 classes

    def test_ood_samples_same_labels(self, tiny_system):
        ood = tiny_system.ood_samples()
        assert len(ood) == len(tiny_system.test_samples)
        for a, b in zip(tiny_system.test_samples, ood):
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_make_pipeline_variants(self, tiny_system):
        monitored = tiny_system.make_pipeline(monitor_enabled=True)
        plain = tiny_system.make_pipeline(monitor_enabled=False)
        assert monitored.config.monitor_enabled
        assert not plain.config.monitor_enabled

    def test_tau_defaults_to_monitor_config(self, tiny_system):
        """The paper's threshold has one source of truth: MonitorConfig."""
        from repro.core.monitor import MonitorConfig
        from repro.dataset.classes import NUM_CLASSES
        assert tiny_system.monitor_config().tau == MonitorConfig().tau
        assert tiny_system.monitor_config().tau == 1.0 / NUM_CLASSES
        pipeline = tiny_system.make_pipeline()
        assert pipeline.config.monitor.tau == MonitorConfig().tau
        # Explicit overrides still go through.
        assert tiny_system.monitor_config(tau=0.25).tau == 0.25
        assert tiny_system.make_pipeline(tau=0.25)\
            .config.monitor.tau == 0.25

    def test_timing_experiment_clamps_sub_stride_crops(self, tiny_system):
        from repro.eval.harness import timing_experiment
        stride = tiny_system.model.config.output_stride
        records = timing_experiment(tiny_system, crop_sizes=[(1, 1)],
                                    num_samples_list=[1], repeats=1)
        assert records[0]["crop_h"] == stride
        assert records[0]["crop_w"] == stride
        assert records[0]["mean_s"] > 0.0


class TestReporting:
    def test_format_table_basic(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.14159]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "3.142" in text

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_kv(self):
        text = format_kv({"key": 1.23456, "other": "v"}, title="t:")
        assert text.startswith("t:")
        assert "1.235" in text

    def test_format_title(self):
        text = format_title("hello")
        assert "hello" in text
        assert text.count("=") > 10
