"""Monitor-effectiveness metrics (the quantitative Fig. 4).

The paper's Fig. 4 result is qualitative: "the monitor seems to be able
to trigger uncertainty warnings for a large part of the road areas that
were not covered by the core model", while "no warning is raised" on a
clearly safe crop.  These metrics quantify exactly that:

* **model miss** — a busy-road pixel the deterministic model classified
  as safe (the dangerous error mode);
* **monitor catch rate** — the fraction of model misses flagged unsafe
  by Eq. (2);
* **false-alarm rate** — truly safe pixels flagged unsafe (the paper's
  conservatism: expected to be non-trivial by design);
* **residual miss rate** — road pixels that pass both the model and the
  monitor (the paper admits "many regions containing roads are missed
  by the monitor"; this measures how many).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.classes import BUSY_ROAD_CLASSES, busy_road_mask, class_mask
from repro.segmentation.bayesian import PixelDistribution
from repro.utils.geometry import Box

__all__ = [
    "MonitorPixelStats",
    "pixel_monitor_stats",
    "tau_sweep",
    "zone_truly_unsafe",
    "accumulate_stats",
]


@dataclass
class MonitorPixelStats:
    """Pixel-level confusion between model, monitor and ground truth."""

    road_pixels: int = 0
    model_missed_road: int = 0
    monitor_caught: int = 0
    safe_pixels: int = 0
    false_alarms: int = 0
    residual_missed: int = 0

    # ------------------------------------------------------------------
    @property
    def model_miss_rate(self) -> float:
        """Fraction of true busy-road pixels the core model misses."""
        return self._ratio(self.model_missed_road, self.road_pixels)

    @property
    def monitor_catch_rate(self) -> float:
        """Fraction of model misses flagged by the monitor."""
        return self._ratio(self.monitor_caught, self.model_missed_road)

    @property
    def false_alarm_rate(self) -> float:
        """Fraction of truly safe pixels flagged unsafe."""
        return self._ratio(self.false_alarms, self.safe_pixels)

    @property
    def residual_miss_rate(self) -> float:
        """Road pixels that pass both model and monitor."""
        return self._ratio(self.residual_missed, self.road_pixels)

    @staticmethod
    def _ratio(num: int, den: int) -> float:
        return num / den if den else float("nan")

    def merge(self, other: "MonitorPixelStats") -> "MonitorPixelStats":
        return MonitorPixelStats(
            road_pixels=self.road_pixels + other.road_pixels,
            model_missed_road=(self.model_missed_road
                               + other.model_missed_road),
            monitor_caught=self.monitor_caught + other.monitor_caught,
            safe_pixels=self.safe_pixels + other.safe_pixels,
            false_alarms=self.false_alarms + other.false_alarms,
            residual_missed=self.residual_missed + other.residual_missed,
        )


def pixel_monitor_stats(gt_labels: np.ndarray, pred_labels: np.ndarray,
                        monitor_unsafe: np.ndarray) -> MonitorPixelStats:
    """Compute pixel statistics for one frame.

    Parameters
    ----------
    gt_labels:
        Ground-truth class map ``(H, W)``.
    pred_labels:
        The deterministic model's arg-max map (same shape).
    monitor_unsafe:
        The monitor's Eq. (2) unsafe mask (same shape).
    """
    gt_labels = np.asarray(gt_labels)
    if pred_labels.shape != gt_labels.shape or \
            monitor_unsafe.shape != gt_labels.shape:
        raise ValueError("all three maps must share one shape")
    gt_road = busy_road_mask(gt_labels)
    pred_road = busy_road_mask(pred_labels)

    model_missed = gt_road & ~pred_road
    caught = model_missed & monitor_unsafe
    residual = model_missed & ~monitor_unsafe
    gt_safe = ~gt_road
    false_alarm = gt_safe & monitor_unsafe

    return MonitorPixelStats(
        road_pixels=int(gt_road.sum()),
        model_missed_road=int(model_missed.sum()),
        monitor_caught=int(caught.sum()),
        safe_pixels=int(gt_safe.sum()),
        false_alarms=int(false_alarm.sum()),
        residual_missed=int(residual.sum()),
    )


def accumulate_stats(stats_list: list[MonitorPixelStats]
                     ) -> MonitorPixelStats:
    """Merge per-frame statistics into corpus-level statistics."""
    total = MonitorPixelStats()
    for stats in stats_list:
        total = total.merge(stats)
    return total


def tau_sweep(distribution: PixelDistribution, gt_labels: np.ndarray,
              taus, sigma_multiplier: float = 3.0
              ) -> list[dict[str, float]]:
    """Monitor operating points over a threshold sweep (the ROC data).

    For each ``tau``: the monitor's busy-road flag is
    ``any_k not (mu_k + s*sigma_k <= tau)``; true positives are flags on
    true busy-road pixels, false positives are flags on safe pixels.
    Like the runtime rule, the flag is True for a NaN statistic, so a
    non-finite pixel scores as flagged (fails closed); on finite input
    this is ``max_k (mu_k + s*sigma_k) > tau``.
    """
    gt_road = busy_road_mask(np.asarray(gt_labels))
    upper = distribution.upper_confidence(sigma_multiplier)
    road_upper = np.stack([upper[int(c)] for c in BUSY_ROAD_CLASSES])
    max_road_upper = road_upper.max(axis=0)

    points = []
    n_road = int(gt_road.sum())
    n_safe = int((~gt_road).sum())
    for tau in taus:
        flagged = ~(max_road_upper <= tau)
        tpr = float((flagged & gt_road).sum() / n_road) if n_road else \
            float("nan")
        fpr = float((flagged & ~gt_road).sum() / n_safe) if n_safe else \
            float("nan")
        points.append({"tau": float(tau), "tpr": tpr, "fpr": fpr})
    return points


def zone_truly_unsafe(gt_labels: np.ndarray, box: Box,
                      classes=BUSY_ROAD_CLASSES) -> bool:
    """Ground truth: does the zone contain any hazardous pixel?"""
    crop = box.extract(np.asarray(gt_labels))
    return bool(class_mask(crop, classes).any())
