"""A zone verdict judges exactly the zone's pixels, on every path.

The monitor segments a crop grown by ``context_margin_px``, padded to
the model's output stride and clipped to the frame — and, on the joint
paths, grown again to a common stack shape, or merged into a shared
union window — then slices the zone back out of the crop's Eq. (2)
mask.  A slicing error there fails open (a zone pixel is never judged)
or rejects a zone for a context pixel outside it.

A segmenter whose busy-road moments *are* the crop's pixels makes the
property exact: the per-pixel rule is then a function of the frame
alone, so every verdict's ``unsafe_mask`` must equal the frame-level
Eq. (2) mask at the zone — bit for bit, for zones flush with every
frame edge, on a frame no stride divides, whatever the margin.  The
one exception is a zone wider (or taller) than the widest
stride-aligned window of such a frame: no crop can hold all of it, and
the part its crop leaves out must count as unsafe.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import EpisodeScheduler, PipelineConfig
from repro.core.monitor import MonitorConfig, RuntimeMonitor
from repro.dataset.classes import BUSY_ROAD_CLASSES, NUM_CLASSES
from repro.segmentation.bayesian import PixelDistribution
from repro.utils.geometry import Box

H, W = 30, 38
#: Zones flush with each frame edge and corner, an interior zone, a
#: full-width strip and a single pixel.
BOXES = (Box(0, 0, 7, 9), Box(11, 13, 8, 10), Box(H - 7, W - 9, 7, 9),
         Box(14, 0, 3, W), Box(5, 20, 1, 1))
PATHS = ("zone", "joint", "shared", "wave")
MARGINS = (0, 2, 9)
STRIDES = (1, 4)


class _EchoSegmenter:
    """Busy-road mean = crop channel 0, std = crop channel 1."""

    def __init__(self, stride):
        self.model = SimpleNamespace(
            config=SimpleNamespace(output_stride=stride))

    @staticmethod
    def _distribution(crop, num_samples):
        mean = np.zeros((NUM_CLASSES,) + crop.shape[1:])
        std = np.zeros_like(mean)
        for cls in BUSY_ROAD_CLASSES:
            mean[int(cls)] = crop[0]
            std[int(cls)] = crop[1]
        return PixelDistribution(mean=mean, std=std,
                                 num_samples=num_samples)

    def predict_distribution(self, image, num_samples=None,
                             max_batch=None):
        return self._distribution(image, num_samples)

    def predict_distribution_stack(self, stack, num_samples=None,
                                   max_batch=None, bases=None):
        return [self._distribution(crop, num_samples) for crop in stack]

    def predict_distribution_ragged(self, crops, num_samples=None,
                                    max_batch=None):
        return [self._distribution(crop, num_samples) for crop in crops]


def _safe_frame():
    frame = np.zeros((3, H, W), dtype=np.float32)
    frame[0] = 0.01
    frame[1] = 0.001
    return frame


def _frame(seed):
    """Safe pixels, with a seeded scatter of unsafe means, unsafe
    stds, NaN and +inf moments."""
    rng = np.random.default_rng(seed)
    frame = _safe_frame()
    draw = rng.random((H, W))
    frame[0][draw < 0.15] = 0.9
    frame[1][(draw >= 0.15) & (draw < 0.25)] = 0.2
    frame[0][(draw >= 0.25) & (draw < 0.3)] = np.nan
    frame[1][(draw >= 0.3) & (draw < 0.33)] = np.inf
    return frame


def _frame_unsafe(frame, cfg):
    """Eq. (2) per frame pixel, straight from the paper's rule."""
    with np.errstate(invalid="ignore"):
        upper = frame[0].astype(np.float64) \
            + cfg.sigma_multiplier * frame[1].astype(np.float64)
        return ~(upper <= cfg.tau)


def _fits(box, stride):
    """Whether some stride-aligned window of the frame holds ``box``
    (each such zone of ``BOXES`` is also held by its own crop)."""
    return box.height <= H - H % stride and box.width <= W - W % stride


def _verdicts(path, frames, cfg, stride, tiny_system, monkeypatch,
              boxes=BOXES):
    """One verdict per ``(frame, box)`` item, in item order."""
    segmenter = _EchoSegmenter(stride)
    monitor = RuntimeMonitor(segmenter, cfg)
    items = [(frame, box) for box in boxes for frame in frames]
    if path == "zone":
        return [monitor.check_zone(frame, box) for frame, box in items]
    if path == "wave":
        scheduler = EpisodeScheduler(tiny_system.model,
                                     PipelineConfig(monitor=cfg))
        monkeypatch.setattr(scheduler, "_joint_segmenter", segmenter)
        monkeypatch.setattr(scheduler, "_joint_monitor", monitor)
        return scheduler.check_zones_wave(items)
    shared = path == "shared"
    by_frame = [monitor.check_zones(frame, boxes, joint=True,
                                    shared=shared) for frame in frames]
    return [by_frame[f][b] for b in range(len(boxes))
            for f in range(len(frames))]


@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("margin", MARGINS)
@pytest.mark.parametrize("path", PATHS)
def test_unsafe_mask_is_the_frame_mask_at_the_zone(
        path, margin, stride, tiny_system, monkeypatch):
    cfg = MonitorConfig(context_margin_px=margin, overlap_budget=2.0,
                        num_samples=1)
    frames = [_frame(seed) for seed in (0, 1)]
    with np.errstate(invalid="ignore"):
        verdicts = _verdicts(path, frames, cfg, stride, tiny_system,
                             monkeypatch)
    # On an all-safe frame only pixels no crop saw can be flagged.
    unseen = [v.unsafe_mask for v in _verdicts(
        path, [_safe_frame()], cfg, stride, tiny_system, monkeypatch)]
    items = [(frame, box) for box in BOXES for frame in frames]
    assert len(verdicts) == len(items)
    for (frame, box), verdict in zip(items, verdicts):
        missed = unseen[BOXES.index(box)]
        assert missed.any() != _fits(box, stride), box
        expected = box.extract(_frame_unsafe(frame, cfg)) | missed
        assert verdict.box == box
        assert np.array_equal(verdict.unsafe_mask, expected), box
        assert verdict.unsafe_fraction == expected.mean()
        assert verdict.accepted == (not expected.any())


@pytest.mark.parametrize("path", PATHS)
def test_zone_no_aligned_window_holds_fails_closed(path, tiny_system,
                                                   monkeypatch):
    """A stride-4 window of the 30x38 frame is at most 28x36, so two
    rows or columns of these zones are never segmented.  On an all-safe
    frame they are the only unsafe pixels, and they reject the zone."""
    stride = 4
    boxes = [Box(14, 0, 3, W), Box(0, 5, H, 3), Box(0, 0, H, W)]
    cfg = MonitorConfig(num_samples=1)
    verdicts = _verdicts(path, [_safe_frame()], cfg, stride, tiny_system,
                         monkeypatch, boxes=boxes)
    for box, verdict in zip(boxes, verdicts):
        assert not _fits(box, stride)
        seen = min(box.height, H - H % stride) \
            * min(box.width, W - W % stride)
        assert verdict.unsafe_mask.shape == (box.height, box.width)
        assert verdict.num_unsafe_pixels == box.area - seen
        assert verdict.unsafe_fraction == (box.area - seen) / box.area
        assert verdict.accepted is False


@pytest.mark.parametrize("margin", MARGINS)
def test_shared_cases_merge_windows(margin):
    """The ``shared`` cases are not vacuous: their zone crops merge
    into fewer union windows than zones."""
    cfg = MonitorConfig(context_margin_px=margin, overlap_budget=2.0)
    for stride in STRIDES:
        monitor = RuntimeMonitor(_EchoSegmenter(stride), cfg)
        frame = _frame(0)
        crops = [monitor._padded_spans(frame, box)[0] for box in BOXES]
        assert len(monitor.plan_union_windows((H, W), crops)) < len(BOXES)


def test_every_zone_holds_safe_and_unsafe_pixels():
    """The scatter is dense enough that every zone but the single pixel
    mixes both outcomes: the masks compared above are never trivially
    all safe or all unsafe."""
    unsafe = _frame_unsafe(_frame(0), MonitorConfig())
    for box in BOXES:
        zone = box.extract(unsafe)
        if box.area > 1:
            assert zone.any() and not zone.all(), box
