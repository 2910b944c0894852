"""Property-style tests for the union-crop geometry.

The shared-context monitor stands on three geometric facts, exercised
here over seeded random case sweeps rather than hand-picked examples:

* :func:`repro.core.monitor.pad_span` — the single home of the
  stride-alignment arithmetic — produces in-frame, stride-aligned,
  non-empty spans for every (start, extent, limit, stride) it accepts;
* :meth:`RuntimeMonitor.plan_union_windows` partitions the zones, keeps
  every member crop inside its (stride-aligned, in-frame) window, and
  merges only within the overlap budget — with single-member windows
  *equal* to their natural crop box;
* moment slicing is the identity when a union window contains a single
  zone: a merge-free shared pass is bit-for-bit the per-zone
  sequential pass.

Plus the bit-for-bit contract of the joint pass's identical-crop
deduplication (duplicate windows are segmented once, no approximation).
"""

import numpy as np
import pytest

from repro.core.monitor import (
    MonitorConfig,
    RuntimeMonitor,
    pad_span,
)
from repro.utils.geometry import Box


class _StubModel:
    def __init__(self, stride):
        from types import SimpleNamespace

        self.config = SimpleNamespace(output_stride=stride)


class _StubSegmenter:
    """Geometry-only monitor host (never runs a Bayesian pass)."""

    def __init__(self, stride=4):
        self.model = _StubModel(stride)


def _geometry_monitor(stride=4, **cfg) -> RuntimeMonitor:
    return RuntimeMonitor(_StubSegmenter(stride), MonitorConfig(**cfg))


# ----------------------------------------------------------------------
# pad_span
# ----------------------------------------------------------------------
class TestPadSpan:
    def test_natural_span_properties(self, rng):
        """Random sweep: spans are aligned, in-frame and non-empty."""
        for _ in range(500):
            stride = int(rng.choice([1, 2, 4, 8]))
            limit = int(rng.integers(stride, 200))
            extent = int(rng.integers(0, limit + 1))
            start = int(rng.integers(0, limit - extent + 1))
            lo, span = pad_span(start, extent, limit, stride)
            assert span % stride == 0
            assert span >= stride
            assert 0 <= lo and lo + span <= limit

    def test_contains_extent_on_divisible_frames(self, rng):
        """On stride-divisible frames the grown span always covers the
        requested extent (nothing is ever trimmed away)."""
        for _ in range(300):
            stride = int(rng.choice([2, 4, 8]))
            limit = stride * int(rng.integers(1, 40))
            extent = int(rng.integers(1, limit + 1))
            start = int(rng.integers(0, limit - extent + 1))
            lo, span = pad_span(start, extent, limit, stride)
            assert lo <= start
            assert lo + span >= start + extent

    def test_zero_extent_clamps_to_one_stride(self):
        lo, span = pad_span(5, 0, 17, 4)
        assert span == 4
        assert 0 <= lo and lo + span <= 17

    def test_target_span_is_exact(self, rng):
        for _ in range(300):
            stride = int(rng.choice([2, 4, 8]))
            limit = int(rng.integers(stride, 160))
            want = stride * int(rng.integers(1, limit // stride + 1))
            extent = int(rng.integers(0, limit + 1))
            start = int(rng.integers(0, limit - extent + 1))
            lo, span = pad_span(start, extent, limit, stride, want=want)
            assert span == want
            assert 0 <= lo and lo + span <= limit

    def test_target_contains_extent_when_it_fits(self, rng):
        """want >= extent: the target window covers the original span."""
        for _ in range(300):
            stride = int(rng.choice([2, 4]))
            limit = stride * int(rng.integers(2, 40))
            extent = int(rng.integers(1, limit))
            want = min(limit,
                       stride * -(-extent // stride)
                       + stride * int(rng.integers(0, 4)))
            start = int(rng.integers(0, limit - extent + 1))
            lo, span = pad_span(start, extent, limit, stride, want=want)
            assert lo <= start and lo + span >= start + extent

    def test_frame_below_stride_rejected(self):
        with pytest.raises(ValueError, match="output stride"):
            pad_span(0, 2, 3, 4)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError, match="stride-aligned"):
            pad_span(0, 2, 16, 4, want=6)
        with pytest.raises(ValueError, match="fit the frame"):
            pad_span(0, 2, 16, 4, want=20)


# ----------------------------------------------------------------------
# plan_union_windows
# ----------------------------------------------------------------------
def _random_boxes(rng, h, w, n):
    boxes = []
    for _ in range(n):
        bh = int(rng.integers(1, max(2, h // 2)))
        bw = int(rng.integers(1, max(2, w // 2)))
        boxes.append(Box(int(rng.integers(0, h - bh + 1)),
                         int(rng.integers(0, w - bw + 1)), bh, bw))
    return boxes


class TestPlanUnionWindows:
    @pytest.mark.parametrize("budget", [0.8, 1.0, 1.5, 3.0])
    def test_random_sweep_invariants(self, rng, budget):
        for _ in range(120):
            stride = int(rng.choice([2, 4, 8]))
            h = int(rng.integers(stride * 2, 96))
            w = int(rng.integers(stride * 2, 96))
            monitor = _geometry_monitor(stride, overlap_budget=budget)
            boxes = _random_boxes(rng, h, w, int(rng.integers(1, 7)))
            image_shape = (h, w)
            dummy = np.zeros((1, h, w), dtype=np.float32)
            spans = [monitor._padded_spans(dummy, b) for b in boxes]
            crops = [crop for crop, _ in spans]
            windows = monitor.plan_union_windows(image_shape, crops)

            # Partition: every zone in exactly one window.
            members = sorted(i for wnd in windows for i in wnd.members)
            assert members == list(range(len(boxes)))
            for wnd in windows:
                # Aligned, in-frame, non-empty.
                assert wnd.box.height % stride == 0
                assert wnd.box.width % stride == 0
                assert not wnd.box.is_empty()
                assert wnd.box.row >= 0 and wnd.box.col >= 0
                assert wnd.box.bottom <= h and wnd.box.right <= w
                # Containment: every member crop inside the window.
                for i in wnd.members:
                    assert wnd.box.contains_box(crops[i])
                if wnd.is_single:
                    # A lone window IS its natural crop box.
                    assert wnd.box == crops[wnd.members[0]]
                else:
                    # Merged windows honour the budget.
                    area_sum = sum(crops[i].area for i in wnd.members)
                    assert wnd.box.area <= budget * area_sum + 1e-9

    def test_identical_crops_always_merge(self):
        monitor = _geometry_monitor(4, overlap_budget=0.8)
        crop = Box(8, 8, 16, 16)
        windows = monitor.plan_union_windows((48, 64), [crop, crop, crop])
        assert len(windows) == 1
        assert windows[0].members == (0, 1, 2)
        assert windows[0].box == crop

    def test_disjoint_crops_never_merge_at_unit_budget(self):
        """budget=1.0 merges only when the union saves pixels; far
        apart crops whose bounding box includes dead space stay
        separate windows."""
        monitor = _geometry_monitor(4, overlap_budget=1.0)
        a = Box(0, 0, 16, 16)
        b = Box(32, 40, 16, 16)
        windows = monitor.plan_union_windows((64, 64), [a, b])
        assert len(windows) == 2
        assert [wnd.box for wnd in windows] == [a, b]

    def test_overlapping_neighbours_merge(self):
        monitor = _geometry_monitor(4, overlap_budget=1.0)
        a = Box(0, 0, 16, 16)
        b = Box(0, 8, 16, 16)  # union 16x24 = 384 <= 512
        windows = monitor.plan_union_windows((48, 64), [a, b])
        assert len(windows) == 1
        assert windows[0].box == Box(0, 0, 16, 24)


# ----------------------------------------------------------------------
# Moment slicing: the bit-for-bit single-zone contract
# ----------------------------------------------------------------------
def _verdict_equal(a, b) -> bool:
    return (a.accepted == b.accepted
            and a.unsafe_fraction == b.unsafe_fraction
            and np.array_equal(a.unsafe_mask, b.unsafe_mask)
            and np.array_equal(a.distribution.mean, b.distribution.mean)
            and np.array_equal(a.distribution.std, b.distribution.std))


class TestSingleZoneBitForBit:
    def test_one_box_shared_equals_check_zone(self, tiny_system):
        image = tiny_system.test_samples[0].image
        box = Box(18, 20, 10, 10)
        cfg = tiny_system.monitor_config()
        v_seq = RuntimeMonitor(tiny_system.make_segmenter(rng=5),
                               cfg).check_zone(image, box)
        v_sh = RuntimeMonitor(tiny_system.make_segmenter(rng=5),
                              cfg).check_zones(image, [box], joint=True,
                                               shared=True)[0]
        assert _verdict_equal(v_seq, v_sh)

    def test_merge_free_plan_equals_joint_pass(self, tiny_system):
        """Boxes far enough apart that no windows merge, with one
        common natural crop shape: the shared pass — seeding,
        chunking, moments, verdicts — is bit-for-bit the joint pass
        (both consume one jointly seeded tile stream over the same
        crops).  Sharing only ever changes results through *merged*
        windows."""
        image = tiny_system.test_samples[1].image
        boxes = [Box(2, 2, 8, 8), Box(30, 44, 8, 8), Box(4, 44, 8, 8)]
        cfg = tiny_system.monitor_config()
        monitor = RuntimeMonitor(tiny_system.make_segmenter(rng=3), cfg)
        spans = [monitor._padded_spans(image, b) for b in boxes]
        crops = [crop for crop, _ in spans]
        assert len({(c.height, c.width) for c in crops}) == 1, \
            "test precondition: one common natural crop shape"
        windows = monitor.plan_union_windows(image.shape[1:], crops)
        assert all(wnd.is_single for wnd in windows), \
            "test precondition: plan must be merge-free"
        v_sh = monitor.check_zones(image, boxes, joint=True, shared=True)
        reference = RuntimeMonitor(tiny_system.make_segmenter(rng=3),
                                   cfg)
        v_joint = reference.check_zones(image, boxes, joint=True)
        for a, b in zip(v_joint, v_sh):
            assert _verdict_equal(a, b)

    def test_merged_zone_moments_are_window_slices(self, tiny_system):
        """For a merged window, each zone's verdict moments are exactly
        the window distribution restricted to the zone's natural crop
        box (moment slicing is per-pixel exact)."""
        image = tiny_system.test_samples[0].image
        boxes = [Box(16, 20, 10, 10), Box(16, 28, 10, 10)]
        cfg = tiny_system.monitor_config()
        monitor = RuntimeMonitor(tiny_system.make_segmenter(rng=11), cfg)
        spans = [monitor._padded_spans(image, b) for b in boxes]
        windows = monitor.plan_union_windows(
            image.shape[1:], [crop for crop, _ in spans])
        assert len(windows) == 1 and not windows[0].is_single, \
            "test precondition: the two crops must merge"
        wnd = windows[0]
        verdicts = monitor.check_zones(image, boxes, joint=True,
                                       shared=True)
        # Reproduce the window pass directly on a fresh, equally
        # seeded segmenter and slice by hand.
        seg = tiny_system.make_segmenter(rng=11)
        dist = seg.predict_distribution_ragged(
            [wnd.box.extract(image).astype(np.float32)],
            num_samples=cfg.num_samples)[0]
        for verdict, (crop_box, _) in zip(verdicts, spans):
            rel = Box(crop_box.row - wnd.box.row,
                      crop_box.col - wnd.box.col,
                      crop_box.height, crop_box.width)
            assert np.array_equal(verdict.distribution.mean,
                                  rel.extract(dist.mean))
            assert np.array_equal(verdict.distribution.std,
                                  rel.extract(dist.std))


# ----------------------------------------------------------------------
# Joint-pass deduplication of identical crop windows
# ----------------------------------------------------------------------
class TestJointDedup:
    def test_duplicate_boxes_share_one_distribution(self, tiny_system):
        image = tiny_system.test_samples[0].image
        box = Box(18, 20, 10, 10)
        other = Box(4, 40, 8, 8)
        monitor = RuntimeMonitor(tiny_system.make_segmenter(rng=2),
                                 tiny_system.monitor_config())
        seen = []
        original = monitor.segmenter.predict_distribution_stack

        def spy(stack, **kwargs):
            seen.append(stack.shape[0])
            return original(stack, **kwargs)

        monitor.segmenter.predict_distribution_stack = spy
        # shared=False pins the plain joint path (these tests cover
        # its dedup; the shared planner has its own merging story).
        verdicts = monitor.check_zones(image, [box, box, other],
                                       joint=True, shared=False)
        # Two distinct windows segmented, three verdicts returned.
        assert seen == [2]
        assert len(verdicts) == 3
        assert _verdict_equal(verdicts[0], verdicts[1])

    def test_no_duplicates_stack_is_unchanged(self, tiny_system):
        image = tiny_system.test_samples[0].image
        boxes = [Box(18, 20, 10, 10), Box(4, 40, 8, 8)]
        monitor = RuntimeMonitor(tiny_system.make_segmenter(rng=2),
                                 tiny_system.monitor_config())
        seen = []
        original = monitor.segmenter.predict_distribution_stack

        def spy(stack, **kwargs):
            seen.append(stack.shape[0])
            return original(stack, **kwargs)

        monitor.segmenter.predict_distribution_stack = spy
        monitor.check_zones(image, boxes, joint=True, shared=False)
        assert seen == [2]

    def test_coinciding_padded_windows_deduplicate(self, tiny_system):
        """Two *distinct* zone boxes whose stride-padded target crops
        coincide crop identical pixels — segmented once, verdicts per
        zone (each with its own ROI)."""
        image = tiny_system.test_samples[0].image
        # Corner boxes: frame clamping forces one padded window.
        a = Box(0, 0, 6, 6)
        b = Box(1, 1, 6, 6)
        monitor = RuntimeMonitor(tiny_system.make_segmenter(rng=2),
                                 tiny_system.monitor_config())
        spans = [monitor._padded_spans(image, a, target=(16, 16)),
                 monitor._padded_spans(image, b, target=(16, 16))]
        if spans[0][0] != spans[1][0]:
            pytest.skip("geometry changed; boxes no longer coincide")
        seen = []
        original = monitor.segmenter.predict_distribution_stack

        def spy(stack, **kwargs):
            seen.append(stack.shape[0])
            return original(stack, **kwargs)

        monitor.segmenter.predict_distribution_stack = spy
        verdicts = monitor.check_zones(image, [a, b], joint=True,
                                       shared=False)
        assert seen == [1]
        assert np.array_equal(verdicts[0].distribution.mean,
                              verdicts[1].distribution.mean)


class TestSharedEnvToggle:
    def test_env_reroutes_joint_calls_only(self, tiny_system,
                                           monkeypatch):
        """REPRO_MONITOR_SHARED=1 sends joint=True calls through the
        union planner (same result as shared=True) and leaves per-zone
        calls untouched."""
        image = tiny_system.test_samples[0].image
        boxes = [Box(18, 20, 10, 10), Box(16, 28, 10, 10)]
        cfg = tiny_system.monitor_config()

        def monitor():
            return RuntimeMonitor(tiny_system.make_segmenter(rng=5),
                                  cfg)

        monkeypatch.setenv("REPRO_MONITOR_SHARED", "1")
        via_env = monitor().check_zones(image, boxes, joint=True)
        explicit = monitor().check_zones(image, boxes, joint=True,
                                         shared=True)
        for a, b in zip(via_env, explicit):
            assert _verdict_equal(a, b)
        # Per-zone path ignores the toggle entirely.
        per_zone = monitor().check_zones(image, boxes)
        reference = monitor()
        for box, verdict in zip(boxes, per_zone):
            assert _verdict_equal(reference.check_zone(image, box),
                                  verdict)
