"""The runtime monitor: Eq. (2), ``mu + 3*sigma <= tau`` per road class.

Sec. V-B of the paper: EL is safety-critical, so misclassifying a busy
road as something else can be catastrophic.  The monitor therefore
*over-approximates* the road category: a pixel is accepted as safe only
when the upper edge of its 99.7% confidence interval — posterior mean
plus three posterior standard deviations, estimated by Monte-Carlo
dropout — stays below the threshold ``tau`` for **each of the three
UAVid classes that make up the busy-road category**.  With 8 classes
the paper picks ``tau = 0.125``, "to make sure that the road score is
lower than a random guess".  The rule fails closed: every threshold
test is written ``~(x <= tau)``, so a non-finite statistic (a NaN or
infinite frame drives the moments to NaN) counts as unsafe and its
zone is rejected.  So does a zone pixel its segmented crop does not
hold, which only a frame no stride divides can produce.

Following Fig. 2, the monitor runs on *sub-images* (the candidate zone
plus its drift buffer), not on the full frame — the full-frame Bayesian
pass would be prohibitively slow in an emergency (Sec. V-B timing,
reproduced in ``benchmarks/bench_sec5_timing.py``).

All Bayesian passes run on the segmenter's batched MC-dropout engine
(``T`` tiles per forward; see :mod:`repro.segmentation.bayesian`).
:meth:`RuntimeMonitor.check_zones` verifies several candidate zones in
one call: by default each zone keeps its own dropout seeding, so the
verdicts are bit-for-bit identical to ``N`` separate
:meth:`RuntimeMonitor.check_zone` calls; with ``joint=True`` the crops
are stride-padded to a common shape and verified in a single jointly
seeded ``(zones * T)``-batched pass — still seeded-reproducible, but on
a different (documented) RNG stream.  The joint pass is how the
decision module's speculative check-ahead
(``DecisionConfig.speculative_k > 1``, see :mod:`repro.core.decision`)
vets the top-k ranked candidates in one go.

Shared-context monitoring
-------------------------
Neighbouring candidate zones crop overlapping pixels (each crop is the
zone plus context margin plus stride padding), yet the joint pass above
still re-segments every crop from scratch.  ``check_zones(...,
shared=True)`` instead *plans union windows*: the pending crops are
greedily clustered into stride-aligned union windows
(:meth:`RuntimeMonitor.plan_union_windows`; a crop joins a window while
``union_area <= overlap_budget * sum(member_areas)``), **one** jointly
seeded Bayesian pass runs per union window
(:meth:`repro.segmentation.bayesian.BayesianSegmenter
.predict_distribution_ragged`), and each zone's per-pixel mean/std
moments are *sliced* out of its window's stacked moments — so K
overlapping zones cost one segmentation of their union instead of K
crops.  Moment slicing is exact per pixel, but the dropout masks are
drawn over window activations instead of per-crop activations, so
merged-window verdicts sit on a different (documented, seeded) RNG
stream.  A union window containing a **single** zone is that zone's
natural crop box untouched: a single-box shared call reproduces
:meth:`RuntimeMonitor.check_zone` bit for bit, and a merge-free plan
over one common crop shape reproduces the joint pass bit for bit —
sharing only ever changes results through *merged* windows (tested in
``tests/core/test_union_geometry.py``, certified system-level in
``tests/integration/test_shared_context_certification.py`` following
the PR 4 template).  ``REPRO_MONITOR_SHARED=1`` reroutes
every ``joint=True`` call through the shared-context planner — the
environment toggle ``scripts/check.sh`` uses to re-run the
monitor-touching suites under this mode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.dataset.classes import BUSY_ROAD_CLASSES, NUM_CLASSES
from repro.segmentation.bayesian import BayesianSegmenter, PixelDistribution
from repro.utils.geometry import Box
from repro.utils.validation import check_image_chw, check_probability

__all__ = ["MonitorConfig", "ZoneVerdict", "UnionWindow",
           "RuntimeMonitor", "pad_span", "check_zone_box",
           "shared_context_default"]

#: Environment toggle: ``REPRO_MONITOR_SHARED=1`` makes every
#: ``joint=True`` monitoring path run through the shared-context
#: union-crop planner instead of the per-crop joint pass.
_SHARED_ENV = "REPRO_MONITOR_SHARED"


def shared_context_default() -> bool:
    """Whether ``joint`` monitoring defaults to shared-context mode.

    Read per call (not at import), so test suites and
    ``scripts/check.sh`` can flip the mode for a whole process without
    re-importing.
    """
    return os.environ.get(_SHARED_ENV, "") == "1"


def check_zone_box(image: np.ndarray, box: Box) -> None:
    """Raise ``ValueError`` unless ``box`` is a non-empty zone that lies
    inside ``image``'s frame.

    The monitor can only judge pixels it sees.  A box that leaves the
    frame would be judged on its visible part alone, so a zone that is
    mostly unseen could be accepted (fail open).  Every monitor entry
    point, the episode engine's wave entry point and the serve broker's
    admission run this test.
    """
    if box.is_empty():
        raise ValueError("cannot check an empty zone box")
    h, w = np.shape(image)[-2:]
    if not Box(0, 0, h, w).contains_box(box):
        raise ValueError(
            f"zone box {box} is not inside the {h}x{w} frame")


def pad_span(start: int, extent: int, limit: int, stride: int,
             want: int | None = None) -> tuple[int, int]:
    """Grow one axis span to a stride-aligned window inside the frame.

    The segmentation model needs spatial extents divisible by its
    output ``stride``; this is the single home of the alignment
    arithmetic used by every crop-window and union-window computation.
    Returns ``(lo, span)`` with ``span % stride == 0``, ``span >= 1``
    stride, and ``[lo, lo + span)`` inside ``[0, limit)``, grown
    symmetrically around ``[start, start + extent)`` where the frame
    allows.  ``want`` forces the exact span (already stride-aligned, at
    most ``limit``); spans that cannot fit are centred/trimmed exactly
    as the natural path trims them.
    """
    if limit < stride:
        raise ValueError(
            f"frame extent {limit} is smaller than the model's "
            f"output stride {stride}; the Bayesian monitor "
            "cannot run on this frame")
    if want is None:
        need = (-extent) % stride
    else:
        if want % stride or want > limit:
            raise ValueError(
                f"target span {want} must be stride-aligned "
                f"({stride}) and fit the frame extent {limit}")
        if extent >= want:
            # The grown crop exceeds the target span (the frame
            # itself was not stride-divisible, so every natural
            # span got trimmed below the grown extent): centre a
            # want-sized window on it, exactly as the natural
            # path effectively does when it trims.
            lo = max(0, start + (extent - want) // 2)
            lo = min(lo, limit - want)
            return lo, want
        need = want - extent
    lo = max(0, start - need // 2)
    hi = min(limit, lo + extent + need)
    lo = max(0, hi - (extent + need))
    span = hi - lo
    span -= span % stride
    # A degenerate zero-extent span (tiny crop in a tiny frame)
    # would produce an empty crop and crash the model; clamp to
    # one full stride instead.
    if span == 0:
        span = stride
        lo = min(lo, limit - stride)
    return lo, span


@dataclass(frozen=True)
class MonitorConfig:
    """Parameters of the conservative monitor rule.

    Attributes
    ----------
    tau:
        Per-pixel probability threshold of Eq. (2); a pixel is unsafe
        when the upper confidence bound ``mu + sigma_multiplier *
        sigma`` of any busy-road class probability exceeds ``tau``.
        Default ``1/NUM_CLASSES`` (0.125), the paper's choice.
    sigma_multiplier:
        Width of the confidence bound in standard deviations — the
        "3 sigma" of Eq. (2).
    num_samples:
        MC-dropout forward passes per monitored zone (paper: 10).
    road_classes:
        Class indices pooled into the busy-road probability mass.
    max_unsafe_fraction:
        A zone is accepted iff its unsafe-pixel fraction is at or
        below this; 0.0 reproduces the paper's zero-tolerance rule.
    context_margin_px:
        Extra context (pixels, pre-stride-alignment) added around
        each zone crop before segmentation; ``>= 0``.  A negative
        margin would shrink the crop inside the zone, and the verdict
        would judge only part of it (fail open), so it is refused.
    overlap_budget:
        Shared-context union planning: a crop joins a union window
        only while ``union_area <= overlap_budget *
        sum(member_crop_areas)``.  The default of 1.0 means a merged
        window never segments more pixels than its member crops would
        separately — merging is a pure win (overlap pixels computed
        once, fewer forwards); raise it to trade extra pixels for
        fewer, larger passes.
    """

    tau: float = 1.0 / NUM_CLASSES  # 0.125, the paper's choice
    sigma_multiplier: float = 3.0   # the "3 sigma" of Eq. (2)
    num_samples: int = 10           # MC-dropout passes (paper: 10)
    road_classes: tuple = BUSY_ROAD_CLASSES
    max_unsafe_fraction: float = 0.0  # zone accepted iff <= this
    context_margin_px: int = 2      # extra context around the crop
    #: Shared-context union planning: a crop joins a union window only
    #: while ``union_area <= overlap_budget * sum(member_crop_areas)``.
    #: The default of 1.0 means a merged window never segments more
    #: pixels than its member crops would separately — merging is a
    #: pure win (overlap pixels computed once, fewer forwards); raise
    #: it to trade extra pixels for fewer, larger passes.
    overlap_budget: float = 1.0

    def __post_init__(self):
        check_probability("tau", self.tau)
        check_probability("max_unsafe_fraction", self.max_unsafe_fraction)
        if self.sigma_multiplier < 0:
            raise ValueError("sigma_multiplier must be non-negative")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.context_margin_px < 0:
            raise ValueError("context_margin_px must be >= 0")
        if not self.road_classes:
            raise ValueError("road_classes must not be empty")
        if self.overlap_budget <= 0:
            raise ValueError("overlap_budget must be positive")


@dataclass(frozen=True)
class ZoneVerdict:
    """The monitor's verdict on one candidate zone."""

    accepted: bool
    unsafe_fraction: float
    unsafe_mask: np.ndarray = field(repr=False)
    box: Box
    num_samples: int
    distribution: PixelDistribution = field(repr=False)

    @property
    def num_unsafe_pixels(self) -> int:
        return int(self.unsafe_mask.sum())


@dataclass(frozen=True)
class UnionWindow:
    """One planned union window of a shared-context monitoring pass.

    ``box`` is the stride-aligned window in frame coordinates;
    ``members`` are indices into the planned zone list whose natural
    crop boxes the window contains (a single-member window *is* that
    zone's natural crop box).
    """

    box: Box
    members: tuple[int, ...]

    @property
    def is_single(self) -> bool:
        return len(self.members) == 1


class RuntimeMonitor:
    """Checks candidate landing zones with the Bayesian model."""

    def __init__(self, segmenter: BayesianSegmenter,
                 config: MonitorConfig | None = None):
        self.segmenter = segmenter
        self.config = config or MonitorConfig()

    # ------------------------------------------------------------------
    def unsafe_pixels(self, distribution: PixelDistribution) -> np.ndarray:
        """Apply Eq. (2) to a pixel distribution.

        A pixel is *unsafe* when ``mu_k + s * sigma_k <= tau`` fails for
        any busy-road class ``k`` — the complement of the paper's safety
        condition, which requires the inequality to hold "for the three
        UAVid categories that make up the busy road category".  A NaN
        statistic fails the inequality, so it counts as unsafe.
        """
        return self.unsafe_from_upper(
            distribution.upper_confidence(self.config.sigma_multiplier))

    def unsafe_from_upper(self, upper: np.ndarray) -> np.ndarray:
        """Eq. (2)'s threshold rule on upper-confidence scores.

        ``upper`` is ``(..., C, H, W)`` — a single crop or a stack of
        crops (the episode engine's joint pass evaluates the rule over
        all stacked crops at once).  The single home of the rule: any
        change here reaches every monitoring path.  The test is written
        ``~(upper <= tau)`` rather than ``upper > tau`` so that NaN
        scores (from a non-finite frame) are unsafe: the monitor fails
        closed.
        """
        cfg = self.config
        unsafe = np.zeros(upper.shape[:-3] + upper.shape[-2:],
                          dtype=bool)
        for cls in cfg.road_classes:
            unsafe |= ~(upper[..., int(cls), :, :] <= cfg.tau)
        return unsafe

    def _model_stride(self) -> int:
        return int(getattr(
            getattr(self.segmenter.model, "config", None),
            "output_stride", 1))

    def _padded_spans(self, image: np.ndarray, box: Box,
                      target: tuple[int, int] | None = None
                      ) -> tuple[Box, Box]:
        """Stride-aligned crop window for ``box`` — geometry only.

        The segmentation model needs spatial sizes divisible by its
        output stride; the crop window is grown symmetrically (within
        frame bounds) until that holds.  Returns the crop box and the
        original box in crop coordinates (the region of interest),
        without extracting any pixels.  On a frame no stride divides,
        trimming the crop to the stride can cut off part of the zone
        (always, for a zone wider than the widest stride-aligned
        window); the region of interest then sticks out of the crop,
        and the verdict counts the part the crop lacks as unsafe
        (:meth:`_verdict_from_unsafe`).

        ``target`` forces the crop to exact ``(height, width)`` spans
        (already stride-aligned, at most the frame size) — used by
        :meth:`check_zones` with ``joint=True`` to bring several crops
        to a common shape for one stacked Bayesian pass.
        """
        cfg = self.config
        h, w = image.shape[1:]
        grown = box.expand(cfg.context_margin_px).clip_to(h, w)
        stride = self._model_stride()

        th, tw = target if target is not None else (None, None)
        r0, rh = pad_span(grown.row, grown.height, h, stride, th)
        c0, cw = pad_span(grown.col, grown.width, w, stride, tw)
        crop_box = Box(r0, c0, rh, cw)
        roi = Box(box.row - r0, box.col - c0, box.height, box.width)
        return crop_box, roi

    def _stride_padded_crop(self, image: np.ndarray, box: Box,
                            target: tuple[int, int] | None = None
                            ) -> tuple[np.ndarray, Box]:
        """:meth:`_padded_spans` plus the pixel extraction."""
        crop_box, roi = self._padded_spans(image, box, target)
        return crop_box.extract(image), roi

    # ------------------------------------------------------------------
    # Shared-context union-crop planning
    # ------------------------------------------------------------------
    def _aligned_union(self, a: Box, b: Box, h: int, w: int) -> Box:
        """Stride-aligned bounding window of two crop boxes, in-frame."""
        stride = self._model_stride()
        row = min(a.row, b.row)
        col = min(a.col, b.col)
        height = max(a.bottom, b.bottom) - row
        width = max(a.right, b.right) - col
        r0, rh = pad_span(row, height, h, stride)
        c0, cw = pad_span(col, width, w, stride)
        return Box(r0, c0, rh, cw)

    def plan_union_windows(self, image_shape: tuple[int, int],
                           crop_boxes: list[Box]) -> list[UnionWindow]:
        """Cluster natural crop boxes into stride-aligned union windows.

        Greedy merge in input (rank) order: each crop joins the first
        existing window whose stride-aligned union with it satisfies
        ``union_area <= overlap_budget * sum(member_crop_areas)`` and
        still contains every member crop (a union near the frame edge
        of a non-stride-divisible frame can be forced to trim below its
        bounding box — such a merge is rejected rather than letting a
        member stick out).  Unmerged crops become single-member windows
        that are *exactly* their natural crop box, which is what makes
        the single-zone shared pass bit-for-bit equal to the per-zone
        pass.  Geometry only — no pixels are touched.
        """
        h, w = int(image_shape[0]), int(image_shape[1])
        budget = self.config.overlap_budget
        # Mutable accumulation: [window_box, member_ids, member_area_sum]
        windows: list[list] = []
        for idx, crop in enumerate(crop_boxes):
            placed = False
            for wnd in windows:
                area_sum = wnd[2] + crop.area
                merged = self._aligned_union(wnd[0], crop, h, w)
                if merged.area > budget * area_sum:
                    continue
                if not (merged.contains_box(wnd[0])
                        and merged.contains_box(crop)):
                    continue
                wnd[0] = merged
                wnd[1].append(idx)
                wnd[2] = area_sum
                placed = True
                break
            if not placed:
                windows.append([crop, [idx], crop.area])
        return [UnionWindow(box=box, members=tuple(members))
                for box, members, _ in windows]

    def _check_zones_shared(self, image: np.ndarray, boxes: list[Box],
                            max_batch: int | None) -> list[ZoneVerdict]:
        """The shared-context joint pass (see the module docstring).

        Natural crop spans are planned into union windows; one jointly
        seeded ragged Bayesian pass covers all windows (mask stream:
        window-major, sample-minor, in planning order); each zone's
        mean/std moments and Eq. (2) mask are sliced out of its
        window's per-pixel maps.
        """
        from repro.segmentation.bayesian import PixelDistribution

        spans = [self._padded_spans(image, box) for box in boxes]
        windows = self.plan_union_windows(
            image.shape[1:], [crop_box for crop_box, _ in spans])
        crops = [wnd.box.extract(image).astype(np.float32)
                 for wnd in windows]
        distributions = self.segmenter.predict_distribution_ragged(
            crops, num_samples=self.config.num_samples,
            max_batch=max_batch)
        verdicts: list[ZoneVerdict | None] = [None] * len(boxes)
        sig = self.config.sigma_multiplier
        for wnd, dist in zip(windows, distributions):
            unsafe = self.unsafe_from_upper(dist.upper_confidence(sig))
            for idx in wnd.members:
                crop_box, roi = spans[idx]
                rel = Box(crop_box.row - wnd.box.row,
                          crop_box.col - wnd.box.col,
                          crop_box.height, crop_box.width)
                sliced = PixelDistribution(
                    mean=rel.extract(dist.mean),
                    std=rel.extract(dist.std),
                    num_samples=dist.num_samples)
                verdicts[idx] = self._verdict_from_unsafe(
                    rel.extract(unsafe), sliced, boxes[idx], roi)
        return verdicts

    def _verdict(self, distribution: PixelDistribution, box: Box,
                 roi: Box) -> ZoneVerdict:
        """Turn a crop distribution into the zone's accept/reject."""
        return self._verdict_from_unsafe(
            self.unsafe_pixels(distribution), distribution, box, roi)

    def _verdict_from_unsafe(self, unsafe_crop: np.ndarray,
                             distribution: PixelDistribution, box: Box,
                             roi: Box) -> ZoneVerdict:
        """Accept/reject from a precomputed Eq. (2) crop mask.

        The single home of the acceptance condition; the episode
        engine's joint pass calls this with masks it evaluated over a
        whole crop stack at once.  Zone pixels outside the crop were
        never segmented, so they count as unsafe (fail closed).
        """
        seen = roi.clip_to(*unsafe_crop.shape[-2:])
        unsafe_zone = seen.extract(unsafe_crop)
        if seen != roi:
            judged = unsafe_zone
            unsafe_zone = np.ones((roi.height, roi.width), dtype=bool)
            unsafe_zone[seen.row - roi.row:seen.bottom - roi.row,
                        seen.col - roi.col:seen.right - roi.col] = judged
        fraction = float(unsafe_zone.mean()) if unsafe_zone.size else 1.0
        accepted = fraction <= self.config.max_unsafe_fraction
        return ZoneVerdict(accepted=accepted, unsafe_fraction=fraction,
                           unsafe_mask=unsafe_zone, box=box,
                           num_samples=distribution.num_samples,
                           distribution=distribution)

    def check_zone(self, image: np.ndarray, box: Box,
                   max_batch: int | None = None) -> ZoneVerdict:
        """Run the Bayesian pass on the zone crop and return a verdict.

        This is the "Monitor" box of Fig. 2: image cropping -> Bayesian
        SS model -> mean and std segmentations -> zone confirmation.
        The pass runs on the batched engine (all ``T`` MC samples in
        chunked batched forwards; ``max_batch`` overrides the
        segmenter's chunk size).  A box that is empty or leaves the
        frame raises ``ValueError`` (:func:`check_zone_box`).
        """
        check_image_chw("image", image)
        check_zone_box(image, box)
        crop, roi = self._stride_padded_crop(image, box)
        cfg = self.config
        distribution = self.segmenter.predict_distribution(
            crop, num_samples=cfg.num_samples,
            max_batch=max_batch)
        return self._verdict(distribution, box, roi)

    def check_zones(self, image: np.ndarray, boxes,
                    joint: bool = False,
                    shared: bool | None = None,
                    max_batch: int | None = None) -> list[ZoneVerdict]:
        """Verify several candidate zones in one batched call.

        With ``joint=False`` (default) every zone keeps its own dropout
        seeding, so the verdicts are bit-for-bit identical to calling
        :meth:`check_zone` once per box in order — each zone still gets
        the ``T``-fold batched forward.  With ``joint=True`` all crops
        are stride-padded to a common shape (growing within the frame,
        so every crop still shows real context) and verified in a
        single jointly seeded ``(len(boxes) * T)``-batched Bayesian
        pass — seeded and reproducible, but its mask stream — and the
        extra context smaller crops gain — mean the verdicts can differ
        marginally from per-zone calls.  Exactly identical crop windows
        inside a joint pass (duplicate candidate boxes, or distinct
        boxes whose padded windows coincide) are segmented once and
        share one distribution: identical pixels get identical moments
        (no numerical approximation, and re-checking the same pixels
        is deliberately idempotent), though duplicates therefore share
        one MC estimate rather than drawing independent ones, and when
        duplicates are present the joint mask stream is consumed at
        the deduplicated positions — the joint stream is documented
        per release, never a cross-version contract.

        ``shared=True`` (implies joint) runs the shared-context
        union-crop planner instead: overlapping crops are merged into
        stride-aligned union windows, one jointly seeded pass per
        window, per-zone moments sliced from the window stack (see the
        module docstring).  ``shared=None`` (default) resolves from the
        ``REPRO_MONITOR_SHARED`` environment toggle for ``joint=True``
        calls and stays off otherwise.  In every mode a box that is
        empty or leaves the frame raises ``ValueError`` before any
        pass runs.
        """
        check_image_chw("image", image)
        boxes = list(boxes)
        for box in boxes:
            check_zone_box(image, box)
        if not boxes:
            return []
        if shared is None:
            shared = joint and shared_context_default()
        if shared:
            return self._check_zones_shared(image, boxes, max_batch)
        if not joint:
            return [self.check_zone(image, box, max_batch=max_batch)
                    for box in boxes]

        # First pass computes only the natural spans (no pixel copies);
        # the single extraction happens at the common target shape.
        spans = [self._padded_spans(image, box) for box in boxes]
        th = max(crop_box.height for crop_box, _ in spans)
        tw = max(crop_box.width for crop_box, _ in spans)
        targets = [self._padded_spans(image, box, target=(th, tw))
                   for box in boxes]
        # Identical (crop_box, target) windows crop identical pixels;
        # segment each distinct window once (first-occurrence order
        # keeps the pass seeded-deterministic) and fan the shared
        # distribution back out to every zone that uses the window.
        order: dict[Box, int] = {}
        for crop_box, _ in targets:
            order.setdefault(crop_box, len(order))
        crops = [crop_box.extract(image).astype(np.float32)
                 for crop_box in order]
        distributions = self.segmenter.predict_distribution_stack(
            np.stack(crops), num_samples=self.config.num_samples,
            max_batch=max_batch)
        return [self._verdict(distributions[order[crop_box]], box, roi)
                for box, (crop_box, roi) in zip(boxes, targets)]

    def full_frame_unsafe(self, image: np.ndarray) -> np.ndarray:
        """Eq. (2) evaluated over the whole frame.

        Used by the Fig. 4 evaluation (how much of the road area the
        monitor flags) and by the timing benchmark — *not* by the
        pipeline, which only monitors candidate crops.
        """
        check_image_chw("image", image)
        h, w = image.shape[1:]
        crop, roi = self._stride_padded_crop(image, Box(0, 0, h, w))
        distribution = self.segmenter.predict_distribution(
            crop, num_samples=self.config.num_samples)
        roi = roi.clip_to(*crop.shape[1:])
        return roi.extract(self.unsafe_pixels(distribution))
