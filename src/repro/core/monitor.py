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
zone is rejected.

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

Adaptive early-exit monitoring (sequential testing)
---------------------------------------------------
Every mode above pays all ``T`` MC samples per zone even when Eq. (2)
is statistically decided after a handful.  With
``MonitorConfig.adaptive`` (or ``REPRO_MONITOR_ADAPTIVE=1``) the
monitor instead samples in rounds of ``adaptive_check_every`` on the
segmenter's adaptive engine
(:meth:`repro.segmentation.bayesian.BayesianSegmenter
.predict_distribution_adaptive`) and stops a zone's pass as soon as a
sequential confidence bound proves that **no outcome of the remaining
samples can flip the verdict**: each pixel's remaining samples are
assumed inside a predictive interval ``mu_t -/+ adaptive_margin *
(sigma_t + floor)`` (clipped to ``[0, 1]``), and the exact extrema of
the completed ``mu_T + s * sigma_T`` over that box are evaluated by
vertex enumeration (the statistic is coordinate-wise convex, so the
box maximum sits on a vertex with ``k`` remaining samples at the top
edge and ``r - k`` at the bottom).  A zone exits early only when the
bound certifies the Eq. (2) / ``max_unsafe_fraction`` outcome *and*
the current ``t``-sample verdict already agrees with it; a shared
union window exits only when every member zone is decided.  Worst
case the pass runs all ``T`` samples, so the certified envelope is
one-sided.  Early exit truncates the mask stream (a stream change,
like shared mode), so adaptive mode is certified with the PR 5
package — ROI moment envelope plus Fig. 4 / safety-book / campaign
zero-flip gates (``tests/integration/test_adaptive_certification.py``)
— never by bit-pinning.  ``adaptive_margin=0`` disables the stopping
rule entirely and routes through the unchanged full-``T`` paths,
bit for bit.
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
           "shared_context_default", "adaptive_default"]

#: Environment toggle: ``REPRO_MONITOR_SHARED=1`` makes every
#: ``joint=True`` monitoring path run through the shared-context
#: union-crop planner instead of the per-crop joint pass.
_SHARED_ENV = "REPRO_MONITOR_SHARED"

#: Environment toggle: ``REPRO_MONITOR_ADAPTIVE=1`` makes every
#: monitoring path run in adaptive early-exit mode (sequential
#: stopping rule; see the module docstring).
_ADAPTIVE_ENV = "REPRO_MONITOR_ADAPTIVE"

#: Additive floor (probability units) on the assumed predictive
#: interval half-width ``adaptive_margin * (sigma_t + floor)``: a
#: pixel whose first samples happen to agree exactly has a zero
#: sample-sigma, and a zero-width interval would certify on no
#: evidence.  0.02 keeps confidently-safe pixels decidable at the
#: paper's T=10 / tau=0.125 operating point while never assuming the
#: remaining samples are an exact replay.
_ADAPTIVE_WIDTH_FLOOR = 0.02


def shared_context_default() -> bool:
    """Whether ``joint`` monitoring defaults to shared-context mode.

    Read per call (not at import), so test suites and
    ``scripts/check.sh`` can flip the mode for a whole process without
    re-importing.
    """
    return os.environ.get(_SHARED_ENV, "") == "1"


def adaptive_default() -> bool:
    """Whether monitoring defaults to adaptive early-exit mode.

    Read per call, exactly like :func:`shared_context_default`, so
    ``scripts/check.sh`` can re-run whole suites under the adaptive
    engine without re-importing.  Composes with the shared toggle:
    both set means shared-context planning with per-window adaptive
    sampling.
    """
    return os.environ.get(_ADAPTIVE_ENV, "") == "1"


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
        when the lower confidence bound of its busy-road probability
        exceeds ``tau``.  Default ``1/NUM_CLASSES`` (0.125), the
        paper's choice.
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
        each zone crop before segmentation.
    overlap_budget:
        Shared-context union planning: a crop joins a union window
        only while ``union_area <= overlap_budget *
        sum(member_crop_areas)``.  The default of 1.0 means a merged
        window never segments more pixels than its member crops would
        separately — merging is a pure win (overlap pixels computed
        once, fewer forwards); raise it to trade extra pixels for
        fewer, larger passes.
    adaptive:
        Run every monitoring pass in adaptive early-exit mode: a
        sequential stopping rule halts a zone's MC pass as soon as a
        confidence bound proves no outcome of the remaining samples
        can flip the Eq. (2) / ``max_unsafe_fraction`` verdict (worst
        case: all ``num_samples``, so the certified envelope is
        one-sided).  ``REPRO_MONITOR_ADAPTIVE=1`` upgrades ``False``
        at call time, mirroring the shared-context toggle.  Early
        exit changes the mask stream, so adaptive results are
        moment-envelope certified, not bit-pinned; exits are further
        gated to ``t >= num_samples / 3`` so running estimates are
        never certified on a sliver of the budget.
    adaptive_check_every:
        Checkpoint cadence of the adaptive engine, in samples: the
        stopping rule is evaluated every this many samples per
        still-active zone.  ``>= num_samples`` degenerates to one
        full-budget round — bit-for-bit the non-adaptive stream.
    adaptive_margin:
        Width multiplier of the predictive interval the stopping rule
        assumes for each remaining sample (half-width
        ``adaptive_margin * (sigma_t + 0.02)``, clipped to [0, 1]).
        Larger is more conservative (later exits); ``0`` disables the
        stopping rule entirely and routes through the unchanged
        full-``num_samples`` paths bit for bit — the certified
        reference.
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
    #: Adaptive early-exit mode (sequential stopping rule); the
    #: ``REPRO_MONITOR_ADAPTIVE=1`` toggle upgrades ``False`` per call.
    adaptive: bool = False
    adaptive_check_every: int = 2   # stopping-rule cadence, in samples
    adaptive_margin: float = 1.0    # interval width; 0 disables exits

    def __post_init__(self):
        check_probability("tau", self.tau)
        check_probability("max_unsafe_fraction", self.max_unsafe_fraction)
        if self.sigma_multiplier < 0:
            raise ValueError("sigma_multiplier must be non-negative")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not self.road_classes:
            raise ValueError("road_classes must not be empty")
        if self.overlap_budget <= 0:
            raise ValueError("overlap_budget must be positive")
        if self.adaptive_check_every < 1:
            raise ValueError("adaptive_check_every must be >= 1")
        if self.adaptive_margin < 0:
            raise ValueError("adaptive_margin must be non-negative")


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
        #: Adaptive-mode observability, mirroring the episode engine's
        #: ``last_shared_stats``: accumulated across adaptive passes
        #: until :meth:`reset_adaptive_stats`.  One entry per
        #: *segmentation unit* (crop or union window):
        #: ``samples_histogram`` maps samples-consumed -> unit count,
        #: ``early_exits``/``fallbacks`` split units by whether the
        #: stopping rule fired before the full budget, and
        #: ``samples_used``/``samples_budget`` give the aggregate
        #: saving ratio.
        self.last_adaptive_stats = self._empty_adaptive_stats()

    # ------------------------------------------------------------------
    # Adaptive-mode plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _empty_adaptive_stats() -> dict:
        return {"windows": 0, "early_exits": 0, "fallbacks": 0,
                "samples_used": 0, "samples_budget": 0,
                "samples_histogram": {}}

    def reset_adaptive_stats(self) -> None:
        """Zero the accumulated :attr:`last_adaptive_stats`."""
        self.last_adaptive_stats = self._empty_adaptive_stats()

    def _record_adaptive(self, samples_used) -> None:
        budget = int(self.config.num_samples)
        stats = self.last_adaptive_stats
        for used in samples_used:
            used = int(used)
            stats["windows"] += 1
            stats["samples_used"] += used
            stats["samples_budget"] += budget
            hist = stats["samples_histogram"]
            hist[used] = hist.get(used, 0) + 1
            if used < budget:
                stats["early_exits"] += 1
            else:
                stats["fallbacks"] += 1

    def _adaptive_active(self) -> bool:
        """Whether monitoring passes run the adaptive engine.

        ``adaptive_margin == 0`` means the stopping rule can never
        fire, so the call routes through the unchanged full-``T``
        paths instead — keeping the disabled configuration bit-for-bit
        the certified reference stream.  Duck-typed segmenter
        substitutes without the adaptive engine (test doubles) also
        fall back to the exact paths.
        """
        cfg = self.config
        return (cfg.adaptive or adaptive_default()) \
            and cfg.adaptive_margin > 0 \
            and hasattr(self.segmenter, "predict_distribution_adaptive")

    def _zone_decided(self, distribution: PixelDistribution,
                      roi: Box) -> bool:
        """The sequential stopping rule for one zone (see module docs).

        ``distribution`` is the running ``t``-sample moment snapshot of
        the zone's crop (or union window); ``roi`` is the zone's
        region of interest within it.  Returns ``True`` when no
        completion of the remaining ``T - t`` samples — each assumed
        inside the clipped predictive interval ``mu -/+
        adaptive_margin * (sigma + floor)`` per pixel — can flip the
        Eq. (2) / ``max_unsafe_fraction`` verdict, *and* the current
        ``t``-sample verdict already matches that certified outcome.

        The completed statistic ``U = mu_T + s * sigma_T`` is, per
        pixel, coordinate-wise convex in each remaining sample (its
        variance is a nonnegative quadratic in each coordinate, so
        ``sqrt`` of it is convex), hence its box maximum sits on a
        vertex; by exchangeability the vertices reduce to ``k``
        remaining samples at the top edge and ``r - k`` at the bottom,
        enumerated exactly.  The minimum is bounded below by
        ``min(mu_T) + s * min(sigma_T)`` over the box.
        """
        cfg = self.config
        t = int(distribution.num_samples)
        budget = int(cfg.num_samples)
        r = budget - t
        if r <= 0:
            return True
        # Never certify on a sliver of evidence: the running sigma of
        # fewer than two samples is degenerate, and exits before a
        # third of the budget would let the moment snapshot drift far
        # from the full-T estimate (the certified moment envelope is
        # measured under this floor).
        if t < 2 or 3 * t < budget:
            return False
        road = [int(cls) for cls in cfg.road_classes]
        mu = roi.extract(distribution.mean)[road]
        sd = roi.extract(distribution.std)[road]
        if mu.size == 0:
            # Degenerate ROI: the verdict is the constant
            # unsafe_fraction = 1.0, which no sample can change.
            return True
        s = cfg.sigma_multiplier
        tau = cfg.tau
        limit = cfg.max_unsafe_fraction
        # Every threshold test below is written ``~(x <= tau)`` so a
        # non-finite statistic counts as unsafe (fails closed).
        point_unsafe = (~(mu + s * sd <= tau)).any(axis=0)
        point_accept = float(point_unsafe.mean()) <= limit

        width = cfg.adaptive_margin * (sd + _ADAPTIVE_WIDTH_FLOOR)
        lo = np.clip(mu - width, 0.0, 1.0)
        hi = np.clip(mu + width, 0.0, 1.0)
        acc = mu * t                       # running sample sum
        acc_sq = (sd * sd + mu * mu) * t   # running sum of squares
        # Exact box maximum of U by vertex enumeration over k.
        ks = np.arange(r + 1, dtype=np.intp).reshape(-1, 1, 1, 1)
        mean_k = (acc + ks * hi + (r - ks) * lo) / budget
        sq_k = (acc_sq + ks * hi * hi + (r - ks) * lo * lo) / budget
        upper = mean_k + s * np.sqrt(
            np.maximum(sq_k - mean_k ** 2, 0.0))
        may_unsafe = (~(upper.max(axis=0) <= tau)).any(axis=0)
        if float(may_unsafe.mean()) <= limit:
            # Even if every not-provably-safe pixel ends unsafe the
            # zone is accepted; exit once the running verdict agrees.
            return point_accept
        # Lower bound on U: min mean plus s times a sigma lower bound.
        mean_lo = (acc + r * lo) / budget
        mean_hi = (acc + r * hi) / budget
        var_lb = np.maximum(
            (acc_sq + r * lo * lo) / budget - mean_hi ** 2, 0.0)
        must_unsafe = (~(mean_lo + s * np.sqrt(var_lb) <= tau)).any(
            axis=0)
        if float(must_unsafe.mean()) > limit:
            # Even if every uncertain pixel ends safe the zone is
            # rejected; exit once the running verdict agrees.
            return not point_accept
        return False

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
        region of interest *within the crop* corresponding to the
        original box, without extracting any pixels.

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
        roi = roi.clip_to(rh, cw)
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

    def _window_zone_rois(self, windows: list[UnionWindow],
                          spans) -> list[list[Box]]:
        """Per-window member-zone ROI boxes in *window* coordinates.

        ``spans[idx]`` is the ``(crop_box, roi)`` pair of zone ``idx``
        (ROI relative to its natural crop); composing with the
        window offset gives the box :meth:`_zone_decided` needs to
        read a zone out of its window's moment snapshot.
        """
        rois: list[list[Box]] = []
        for wnd in windows:
            per_window = []
            for idx in wnd.members:
                crop_box, roi = spans[idx]
                per_window.append(
                    Box(crop_box.row - wnd.box.row + roi.row,
                        crop_box.col - wnd.box.col + roi.col,
                        roi.height, roi.width))
            rois.append(per_window)
        return rois

    def _adaptive_window_pass(self, crops, member_rois: list[list[Box]],
                              max_batch: int | None, bases=None
                              ) -> list[PixelDistribution]:
        """One adaptive pass over windows, each gating on its members.

        A window drops out of the remaining sampling rounds only when
        :meth:`_zone_decided` holds for **every** member zone ROI in
        ``member_rois[i]`` — the engine-level contract for shared
        union windows.  Records :attr:`last_adaptive_stats`; also the
        entry point the episode engine's joint/shared waves use
        (``bases`` carries reused deterministic-stem activations).
        """
        cfg = self.config
        distributions, used = \
            self.segmenter.predict_distribution_adaptive(
                crops, num_samples=cfg.num_samples,
                max_batch=max_batch,
                check_every=cfg.adaptive_check_every,
                decide=lambda i, snap: all(
                    self._zone_decided(snap, roi)
                    for roi in member_rois[i]),
                bases=bases)
        self._record_adaptive(used)
        return distributions

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
        if self._adaptive_active():
            distributions = self._adaptive_window_pass(
                crops, self._window_zone_rois(windows, spans),
                max_batch)
        else:
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
        whole crop stack at once.
        """
        unsafe_zone = roi.extract(unsafe_crop)
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
        if self._adaptive_active():
            # Single-crop adaptive rounds consume the exact sequential
            # mask stream, so a pass that never exits early is
            # bit-for-bit the non-adaptive call.
            distributions, used = \
                self.segmenter.predict_distribution_adaptive(
                    [crop], num_samples=cfg.num_samples,
                    max_batch=max_batch,
                    check_every=cfg.adaptive_check_every,
                    decide=lambda _i, snap: self._zone_decided(
                        snap, roi))
            self._record_adaptive(used)
            return self._verdict(distributions[0], box, roi)
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
        cfg = self.config
        if self._adaptive_active():
            # A deduplicated window is decided only when *every* zone
            # reading its distribution is decided.
            users: list[list[Box]] = [[] for _ in order]
            for _box, (crop_box, roi) in zip(boxes, targets):
                users[order[crop_box]].append(roi)
            distributions, used = \
                self.segmenter.predict_distribution_adaptive(
                    crops, num_samples=cfg.num_samples,
                    max_batch=max_batch,
                    check_every=cfg.adaptive_check_every,
                    decide=lambda i, snap: all(
                        self._zone_decided(snap, roi)
                        for roi in users[i]))
            self._record_adaptive(used)
        else:
            distributions = self.segmenter.predict_distribution_stack(
                np.stack(crops), num_samples=cfg.num_samples,
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
        return roi.extract(self.unsafe_pixels(distribution))
