"""The streaming episode engine: many concurrent Fig. 2 episodes.

The paper evaluates its architecture one frame at a time;
:class:`repro.core.pipeline.LandingPipeline` is that single-episode
facade.  Production-shaped workloads instead look like *many concurrent
frame-stream episodes* — continuous video under named scenario
conditions (see :mod:`repro.scenarios`).  :class:`EpisodeScheduler`
runs N such episodes through the segment -> select -> monitor -> decide
stages with cross-episode batching:

* **Core segmentation** of every frame of every episode runs as one
  chunked batched forward per frame shape, across streams.
  Convolution and friends are batch-element-deterministic, so
  per-frame labels are bit-for-bit those of single-frame calls.
* **Monitoring** defaults to ``exact`` mode: each episode keeps its own
  seeded monitor RNG stream and its checks run in frame order, so the
  engine's results are bit-for-bit identical to calling
  ``LandingPipeline.run`` frame by frame per episode (tested in
  ``tests/core/test_episode_engine.py``).
* **Joint monitor batching** (``monitor_batching="joint"``): the
  pending zone checks of *all* ready episodes are stride-padded to a
  common shape and verified in jointly seeded stacked Bayesian passes
  driven through :class:`repro.core.decision.DecisionCursor` (see
  ``benchmarks/bench_episode_engine.py``), seeded and reproducible, but
  on a different (documented) RNG stream than the per-episode sequence,
  exactly like ``RuntimeMonitor.check_zones(joint=True)``.  Each pass
  is :meth:`repro.segmentation.bayesian.BayesianSegmenter
  .predict_distribution_stack` on the joint segmenter, so its moments
  are bit-identical to that call on the same seeded stack (one running
  accumulator per crop, in sample order).
* **Shared-context monitoring** (``monitor_batching="shared"``): the
  joint pass, minus the redundant pixels.  Each episode's pending crops
  are clustered into stride-aligned union windows
  (:meth:`repro.core.monitor.RuntimeMonitor.plan_union_windows`), one
  jointly seeded stacked pass runs per window *shape group* across all
  ready episodes, and every zone's mean/std moments are sliced out of
  its window's per-pixel maps — K overlapping zones cost one
  segmentation of their union.  Episodes advance frame-wavefront by
  frame-wavefront so the engine can additionally reuse the
  *deterministic-stem activations* of a window whose pixels are
  unchanged since the episode's previous frame (wind-drift streams
  re-see almost the same pixels; the expected shift comes from the
  scenario drift model via :attr:`EpisodeRequest.drift_px` and is
  verified by exact pixel comparison, so stem reuse is bit-exact and
  only the stochastic suffix is recomputed).  The fastest monitoring
  path on overlap-heavy fleets; certified against the exact engine by
  ``tests/integration/test_shared_context_certification.py`` (moment
  envelope + zero verdict/decision flips on the seeded presets).

:class:`EngineConfig` is the one documented home for the engine/monitor
performance knobs that used to be spread over two entry points
(``BayesianSegmenter(max_batch=...)`` and ``check_zones(joint=...)`` +
``DecisionConfig.speculative_k``).  Convolution has no knobs: inference
always runs :func:`repro.nn.functional.conv2d_infer`'s blocked im2col.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.decision import DecisionCursor, DecisionModule
from repro.core.landing_zone import LandingZoneSelector
from repro.core.monitor import (
    RuntimeMonitor,
    UnionWindow,
    check_zone_box,
    pad_span,
    shared_context_default,
)
from repro.core.pipeline import (
    LandingPipeline,
    PipelineConfig,
    PipelineResult,
)
from repro.segmentation.bayesian import BayesianSegmenter
from repro.utils.geometry import Box
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_image_chw, check_positive

__all__ = [
    "EngineConfig",
    "EpisodeRequest",
    "EpisodeResult",
    "EpisodeScheduler",
]

_MONITOR_BATCHING = ("exact", "joint", "shared")


@dataclass(frozen=True)
class EngineConfig:
    """All engine/monitor performance knobs, in one documented place.

    Attributes
    ----------
    max_batch:
        Chunk size of every batched forward (the
        ``BayesianSegmenter.max_batch`` knob).  Default 6 — the CPU
        cache sweet spot for full frames.
    monitor_batching:
        ``"exact"`` (default): per-episode seeded monitoring,
        bit-for-bit identical to sequential ``LandingPipeline.run``
        calls.  ``"joint"``: cross-episode jointly seeded stacked
        passes — reproducible, different RNG stream.  ``"shared"``:
        the joint pass through the shared-context union-crop planner
        plus temporal stem reuse — the fastest path when zones
        overlap (see the module docstring and
        ``benchmarks/bench_episode_engine.py``).  The
        ``REPRO_MONITOR_SHARED=1`` environment toggle upgrades
        ``"joint"`` to ``"shared"`` at run time.
    joint_max_batch:
        Chunk size for the joint cross-episode passes only.  Zone
        crops are much smaller than full frames, so their sweet spot
        is far larger (32 vs 6; measured in
        ``benchmarks/bench_episode_engine.py``).
    seg_max_batch:
        Chunk size for the cross-episode core-segmentation forwards.
        ``None`` (default) picks it from the frame size: small frames
        amortise per-forward overhead in big chunks, while full frames
        blow the cache beyond 2-3 per chunk (measured; chunking never
        changes labels either way).
    speculative_k:
        Overrides ``DecisionConfig.speculative_k`` when set (ranked
        candidates monitored per joint pass; see
        :mod:`repro.core.decision`).  Shared-context monitoring earns
        its keep when several pending crops share pixels, i.e. with
        ``speculative_k > 1``.
    overlap_budget:
        Overrides ``MonitorConfig.overlap_budget`` when set (the
        union-crop planner's merge criterion; see
        :mod:`repro.core.monitor`).
    temporal_reuse:
        Shared-context mode only: reuse the deterministic-stem
        activations of union windows whose pixels are unchanged since
        the episode's previous frame (verified by exact pixel
        comparison, so reuse is bit-exact given the same window
        stream).  On by default; ``False`` recomputes every stem — the
        reference the reuse is benchmarked and tested against.
    """

    max_batch: int = 6
    monitor_batching: str = "exact"
    joint_max_batch: int = 32
    seg_max_batch: int | None = None
    speculative_k: int | None = None
    overlap_budget: float | None = None
    temporal_reuse: bool = True

    def __post_init__(self):
        check_positive("max_batch", self.max_batch)
        check_positive("joint_max_batch", self.joint_max_batch)
        if self.seg_max_batch is not None:
            check_positive("seg_max_batch", self.seg_max_batch)
        if self.monitor_batching not in _MONITOR_BATCHING:
            raise ValueError(
                f"monitor_batching must be one of {_MONITOR_BATCHING}, "
                f"got {self.monitor_batching!r}")
        if self.speculative_k is not None:
            check_positive("speculative_k", self.speculative_k)
        if self.overlap_budget is not None and self.overlap_budget <= 0:
            raise ValueError("overlap_budget must be positive")

    # ------------------------------------------------------------------
    def effective_monitor_batching(self) -> str:
        """The batching mode after the environment toggle.

        ``REPRO_MONITOR_SHARED=1`` upgrades ``"joint"`` to ``"shared"``
        — the hook ``scripts/check.sh`` uses to re-run the
        monitor-touching suites under the shared-context engine.
        Explicit ``"exact"``/``"shared"`` choices are never rewritten.
        """
        if self.monitor_batching == "joint" and shared_context_default():
            return "shared"
        return self.monitor_batching

    def pipeline_config(self, base: PipelineConfig) -> PipelineConfig:
        """``base`` with this engine's decision/monitor overrides."""
        if self.speculative_k is not None:
            base = replace(base, decision=replace(
                base.decision, speculative_k=self.speculative_k))
        if self.overlap_budget is not None:
            base = replace(base, monitor=replace(
                base.monitor, overlap_budget=self.overlap_budget))
        return base


@dataclass(frozen=True)
class EpisodeRequest:
    """One episode: a frame stream plus its monitor seed.

    Obtained most conveniently from a scenario
    (:meth:`repro.scenarios.ScenarioSpec.episode_request`), or built
    directly from any list of CHW frames.

    ``drift_px`` is the expected per-frame image shift in pixels
    (``(rows, cols)``, frame ``t``'s content reappearing shifted in
    frame ``t+1``), derived from the scenario wind-drift model by
    :meth:`repro.scenarios.ScenarioSpec.episode_request`.  It is only a
    *hint*: the shared-context engine uses it to guess where a union
    window's pixels sat in the previous frame and always verifies the
    guess by exact pixel comparison before reusing any cached stem, so
    a wrong or missing hint costs reuse opportunities, never
    correctness.
    """

    frames: tuple
    seed: object = 0
    name: str = ""
    drift_px: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        for k, frame in enumerate(self.frames):
            check_image_chw(f"frames[{k}]", frame)
        if self.drift_px is not None:
            object.__setattr__(
                self, "drift_px",
                (int(self.drift_px[0]), int(self.drift_px[1])))


@dataclass
class EpisodeResult:
    """Per-frame pipeline results of one finished episode."""

    name: str
    results: list[PipelineResult] = field(default_factory=list)

    @property
    def landed_count(self) -> int:
        return sum(1 for r in self.results if r.landed)

    @property
    def aborted_count(self) -> int:
        return sum(1 for r in self.results if not r.landed)

    @property
    def decisions(self) -> list:
        return [r.decision for r in self.results]


@dataclass
class _JointEpisode:
    """Wavefront bookkeeping of one episode's monitor/decide stage."""

    index: int
    image: np.ndarray
    labels: np.ndarray
    candidates: list
    cursor: DecisionCursor
    timings: dict
    monitoring_s: float = 0.0
    pending: list = field(default_factory=list)
    #: Shared-context rounds only: verdicts of this round's pending
    #: zones, keyed by pending index, collected across the round's
    #: shape-grouped passes and fed to the cursor in rank order.
    round_verdicts: dict = field(default_factory=dict)


class EpisodeScheduler:
    """Runs many concurrent episodes with cross-episode batching.

    Parameters
    ----------
    model:
        The shared trained segmentation network.
    config:
        The per-episode :class:`PipelineConfig` (selector / monitor /
        decision parameters), identical for every episode in a run.
    engine:
        The :class:`EngineConfig` performance knobs.
    rng:
        Seed/generator of the *joint* monitor passes only
        (``monitor_batching="joint"``); exact mode draws exclusively
        from the per-episode streams.
    """

    def __init__(self, model, config: PipelineConfig | None = None,
                 engine: EngineConfig | None = None, rng=None):
        self.engine = engine or EngineConfig()
        self.config = self.engine.pipeline_config(
            config or PipelineConfig())
        self.model = model
        self.rng = ensure_rng(rng if rng is not None else 0)
        # Shared deterministic core-function engine (labels only; its
        # own RNG is never consumed).
        self._segmenter = BayesianSegmenter(
            model, num_samples=self.config.monitor.num_samples,
            rng=0, max_batch=self.engine.max_batch)
        # Joint-mode monitor: crop geometry + Eq. (2) verdicts on the
        # engine-seeded segmenter.
        self._joint_segmenter = BayesianSegmenter(
            model, num_samples=self.config.monitor.num_samples,
            rng=self.rng, max_batch=self.engine.joint_max_batch)
        self._joint_monitor = RuntimeMonitor(self._joint_segmenter,
                                             self.config.monitor)
        #: Shared-context bookkeeping of the most recent ``run``:
        #: zone checks served, union windows segmented, merged windows
        #: among them, and temporal stem-cache hits/misses.  Purely
        #: observational (benches and tests read it).
        self.last_shared_stats: dict[str, int] = {}

    # ------------------------------------------------------------------
    def run(self, episodes) -> list[EpisodeResult]:
        """Run all episodes to completion; one result per request."""
        episodes = [ep if isinstance(ep, EpisodeRequest)
                    else EpisodeRequest(frames=ep) for ep in episodes]
        if not episodes:
            return []
        results: list[list[PipelineResult]] = [[] for _ in episodes]
        horizon = max(len(ep.frames) for ep in episodes)
        labels, seg_s = self._segment_all(episodes)
        mode = self.engine.effective_monitor_batching()
        if mode == "joint":
            # Decisions are per frame and the joint pass draws from
            # the engine's own RNG stream, so every frame of every
            # episode can join one big wave — the largest stacks,
            # the best amortisation.
            items = [(i, episodes[i].frames[t], labels[i][t],
                      seg_s[i][t])
                     for i in range(len(episodes))
                     for t in range(len(episodes[i].frames))]
            self._wave_joint(items, results)
        elif mode == "shared":
            # Frame wavefronts in stream order, so frame t's window
            # stems are cached before frame t+1 looks for them (the
            # temporal half of shared-context monitoring).
            self.last_shared_stats = {
                "zone_checks": 0, "union_windows": 0,
                "merged_windows": 0, "stem_hits": 0,
                "stem_misses": 0}
            caches: dict[int, dict] = {}
            for t in range(horizon):
                ready = [(i, episodes[i].frames[t], labels[i][t],
                          seg_s[i][t])
                         for i in range(len(episodes))
                         if t < len(episodes[i].frames)]
                self._wave_shared(ready, results, episodes, caches)
        else:
            # Exact per-episode RNG streams: monitoring runs
            # inline through per-episode pipelines (sharing the
            # model and the engine knobs), frame order preserved.
            for i, ep in enumerate(episodes):
                pipeline = LandingPipeline(
                    self.model, self.config, rng=ep.seed,
                    engine=self.engine)
                for t in range(len(ep.frames)):
                    results[i].append(
                        pipeline._finish_episode(
                            ep.frames[t], labels[i][t],
                            seg_s[i][t]))
        return [
            EpisodeResult(name=ep.name or f"episode{i}",
                          results=results[i])
            for i, ep in enumerate(episodes)
        ]

    def run_frames(self, frames, seed=0, name="") -> list[PipelineResult]:
        """One episode over ``frames``.

        With the default exact mode this reproduces
        ``LandingPipeline(model, config, rng=seed)`` running the frames
        in order, bit for bit — while still getting the one-chunked-
        forward core segmentation.
        """
        out = self.run([EpisodeRequest(frames=list(frames), seed=seed,
                                       name=name)])
        return out[0].results if out else []

    # ------------------------------------------------------------------
    # Stage 1: core segmentation of every frame, batched across streams
    # ------------------------------------------------------------------
    #: Auto segmentation chunking targets this many activation elements
    #: (pixels x model base channels) per chunk; ``max_batch`` stays
    #: the cap.  Small frames amortise per-forward overhead in big
    #: chunks, while larger frames/models blow the cache (16ch\@48x64
    #: -> 6, 24ch\@48x64 -> 4, 24ch\@96x128 -> 1; measured in
    #: ``benchmarks/bench_episode_engine.py``).
    _SEG_ELEM_BUDGET = 300_000

    def _seg_chunk(self, shape: tuple) -> int:
        if self.engine.seg_max_batch is not None:
            return self.engine.seg_max_batch
        channels = int(getattr(
            getattr(self.model, "config", None), "base_channels", 16))
        elems = int(shape[-2]) * int(shape[-1]) * max(channels, 1)
        return max(1, min(self.engine.max_batch,
                          self._SEG_ELEM_BUDGET // max(elems, 1)))

    def _segment_all(self, episodes):
        """Labels + amortised per-frame seg time for all episode frames.

        Frames are grouped by shape (episodes may carry different
        camera geometries) and each group runs as one chunked batched
        forward — each frame's labels are bit-for-bit those of a
        single-frame ``predict_labels`` call, whatever the chunking.
        """
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for i, ep in enumerate(episodes):
            for t, frame in enumerate(ep.frames):
                groups.setdefault(np.shape(frame), []).append((i, t))
        labels = [[None] * len(ep.frames) for ep in episodes]
        seg_s = [[0.0] * len(ep.frames) for ep in episodes]
        for shape, members in groups.items():
            frames = [episodes[i].frames[t] for i, t in members]
            t0 = time.perf_counter()
            out = self._segmenter.predict_labels_batch(
                frames, max_batch=self._seg_chunk(shape))
            share = (time.perf_counter() - t0) / len(members)
            for (i, t), lab in zip(members, out):
                labels[i][t] = lab
                seg_s[i][t] = share
        return labels, seg_s

    # ------------------------------------------------------------------
    # Stage 2a: joint cross-episode monitor batching
    # ------------------------------------------------------------------
    def _prepare_wave(self, ready) -> tuple[list, int]:
        """Selector/cursor state for one wavefront of ready frames.

        Selector and decision module are stateless given the shared
        config, so one of each serves every episode (per-episode state
        lives in the cursors).
        """
        cfg = self.config
        k = max(cfg.decision.speculative_k, 1)
        selector = LandingZoneSelector(cfg.selector)
        decision_module = DecisionModule(cfg.decision)
        states = []
        for i, image, lab, s in ready:
            timings = {"segmentation_s": s}
            t0 = time.perf_counter()
            candidates = selector.propose(lab)
            timings["selection_s"] = time.perf_counter() - t0
            cursor = DecisionCursor(decision_module, candidates)
            st = _JointEpisode(index=i, image=image, labels=lab,
                               candidates=candidates, cursor=cursor,
                               timings=timings)
            if not cfg.monitor_enabled:
                cursor.accept_unmonitored()
            else:
                st.pending = cursor.next_batch(k)
            states.append(st)
        return states, k

    def _finish_wave(self, states, results, wave_t0: float,
                     passes_s: float) -> None:
        """Finalize cursors and attribute the wave's bookkeeping time.

        Cursor bookkeeping around the stacked passes is attributed
        evenly (the decision module's share, like the sequential
        path's decision_s).
        """
        overhead = max(time.perf_counter() - wave_t0 - passes_s, 0.0)
        overhead /= max(len(states), 1)
        for st in states:
            decision = st.cursor.finalize()
            st.timings["monitoring_s"] = st.monitoring_s
            st.timings["decision_s"] = overhead
            results[st.index].append(PipelineResult(
                decision=decision, predicted_labels=st.labels,
                candidates=st.candidates,
                verdicts=list(decision.verdicts),
                timings_s=st.timings))

    def _wave_joint(self, ready, results) -> None:
        """Monitor/decide one wavefront via jointly seeded passes.

        Every ready episode's pending zone checks are verified together
        (grouped by frame shape, stride-padded to a common crop shape)
        in single stacked Bayesian passes; verdicts stream back into
        each episode's :class:`DecisionCursor` until all episodes reach
        a terminal decision.
        """
        states, k = self._prepare_wave(ready)
        wave_t0 = time.perf_counter()
        passes_s = 0.0
        active = [st for st in states if st.pending]
        while active:
            # One stacked pass per frame shape present in this round.
            by_shape: dict[tuple, list] = {}
            for st in active:
                entries = by_shape.setdefault(st.image.shape[1:], [])
                entries.extend((st, cand) for cand in st.pending)
            for entries in by_shape.values():
                passes_s += self._joint_pass(entries)
            nxt = []
            for st in active:
                st.pending = st.cursor.next_batch(k)
                if st.pending:
                    nxt.append(st)
            active = nxt
        self._finish_wave(states, results, wave_t0, passes_s)

    def _stack_pass(self, stack: np.ndarray, bases=None) -> list:
        """One full-``T`` jointly seeded pass on the joint segmenter.

        ``bases`` optionally carries precomputed deterministic-stem
        activations (the shared-context engine's temporal reuse).
        """
        return self._joint_segmenter.predict_distribution_stack(
            stack, num_samples=self.config.monitor.num_samples,
            max_batch=self.engine.joint_max_batch, bases=bases)

    def _joint_pass(self, entries) -> float:
        """One jointly seeded stacked Bayesian pass over zone crops.

        ``entries`` are ``(state, candidate)`` pairs whose images share
        one frame shape.  Crops are padded to the round's common shape
        (growing within the frame, so every crop keeps real context),
        Eq. (2) is evaluated over the whole stack at once, and the wall
        time is attributed to episodes by crop count.  Returns the
        pass's wall time.
        """
        monitor = self._joint_monitor
        cfg = self.config.monitor
        t0 = time.perf_counter()
        spans = [monitor._padded_spans(st.image, cand.box)
                 for st, cand in entries]
        th = max(crop_box.height for crop_box, _ in spans)
        tw = max(crop_box.width for crop_box, _ in spans)
        boxes_rois = [
            monitor._padded_spans(st.image, cand.box, target=(th, tw))
            for st, cand in entries]
        crops = [crop_box.extract(st.image).astype(np.float32)
                 for (st, _), (crop_box, _) in zip(entries, boxes_rois)]
        distributions = self._stack_pass(np.stack(crops))
        # Eq. (2) over the whole stack at once — both the interval and
        # the threshold rule live in their single homes.
        upper = np.stack([d.upper_confidence(cfg.sigma_multiplier)
                          for d in distributions])
        unsafe = monitor.unsafe_from_upper(upper)
        pass_s = time.perf_counter() - t0
        share = pass_s / len(entries)
        fed: dict[int, list] = {}
        for (st, cand), dist, (_, roi), mask in zip(
                entries, distributions, boxes_rois, unsafe):
            st.monitoring_s += share
            verdict = monitor._verdict_from_unsafe(mask, dist,
                                                   cand.box, roi)
            fed.setdefault(id(st), [st, []])[1].append((cand, verdict))
        for st, pairs in fed.values():
            st.cursor.feed(pairs)
        return pass_s

    def validate_zone(self, image, box: Box, name: str = "image") -> None:
        """Raise ``ValueError`` unless the joint monitor can check ``box``.

        ``image`` must be a CHW float image whose sides both reach the
        model's output stride (no stride-aligned crop fits a smaller
        frame), and ``box`` a non-empty zone inside it.  The one
        admission test of a zone check: :meth:`check_zones_wave` runs
        it on every item, and the serve broker sheds a check that fails
        it before the check can join, and fail, a wave.
        """
        check_image_chw(name, image)
        check_zone_box(image, box)
        stride = self._joint_monitor._model_stride()
        h, w = np.shape(image)[-2:]
        if min(h, w) < stride:
            raise ValueError(
                f"{name} is {h}x{w}, smaller than the model's output "
                f"stride {stride}")

    def validate_episode(self, request: EpisodeRequest) -> None:
        """Raise ``ValueError`` unless core segmentation can run ``request``.

        Every frame's sides must be positive multiples of the model's
        output stride (``EpisodeRequest`` has already checked that the
        frames are CHW float images).  The serve broker sheds an
        episode that fails this before it can join, and fail, a wave.
        """
        stride = self._joint_monitor._model_stride()
        for k, frame in enumerate(request.frames):
            h, w = np.shape(frame)[-2:]
            if h % stride or w % stride or min(h, w) < stride:
                raise ValueError(
                    f"frames[{k}] is {h}x{w}; core segmentation needs "
                    f"sides that are positive multiples of the model's "
                    f"output stride {stride}")

    def check_zones_wave(self, items) -> list:
        """Verdicts for one admitted wave of ``(image, box)`` checks.

        The serving layer's entry point
        (:class:`repro.serve.ServeBroker` feeds each admitted wave
        here): zone checks from many independent clients are grouped
        by frame shape in first-occurrence order, each group's crops
        are stride-padded to the group's common shape, and every group
        runs as one jointly seeded stacked Bayesian pass on the
        scheduler's joint monitor — exactly the ``_joint_pass``
        machinery, minus the episode cursors.  Verdicts return in
        ``items`` order.

        Draws from the scheduler's *joint* RNG stream (like
        ``monitor_batching="joint"``): seeded and reproducible for a
        fixed wave sequence, independent of the engine's
        ``monitor_batching`` knob.  Raises ``ValueError`` for any item
        :meth:`validate_zone` refuses (the serve broker sheds those at
        admission).
        """
        if not items:
            return []
        for k, (image, box) in enumerate(items):
            self.validate_zone(image, box, name=f"items[{k}]")
        monitor = self._joint_monitor
        cfg = self.config.monitor
        verdicts: list = [None] * len(items)
        groups: dict[tuple, list[int]] = {}
        for k, (image, _) in enumerate(items):
            groups.setdefault(np.shape(image), []).append(k)
        for members in groups.values():
            spans = [monitor._padded_spans(items[k][0], items[k][1])
                     for k in members]
            th = max(crop_box.height for crop_box, _ in spans)
            tw = max(crop_box.width for crop_box, _ in spans)
            boxes_rois = [
                monitor._padded_spans(items[k][0], items[k][1],
                                      target=(th, tw))
                for k in members]
            crops = [crop_box.extract(items[k][0]).astype(np.float32)
                     for k, (crop_box, _) in zip(members, boxes_rois)]
            distributions = self._stack_pass(np.stack(crops))
            upper = np.stack([d.upper_confidence(cfg.sigma_multiplier)
                              for d in distributions])
            unsafe = monitor.unsafe_from_upper(upper)
            for k, dist, (_, roi), mask in zip(
                    members, distributions, boxes_rois, unsafe):
                verdicts[k] = monitor._verdict_from_unsafe(
                    mask, dist, items[k][1], roi)
        return verdicts

    # ------------------------------------------------------------------
    # Stage 2b: shared-context monitoring (union windows + stem reuse)
    # ------------------------------------------------------------------
    def _wave_shared(self, ready, results, episodes, caches) -> None:
        """Monitor/decide one frame wavefront via union-window passes.

        Each active episode's pending crops are clustered into
        stride-aligned union windows; windows are grouped *across*
        episodes by window shape and each group runs as one jointly
        seeded stacked Bayesian pass (``predict_distribution_stack``,
        like the joint path) with per-zone moments sliced from the
        window maps.  ``caches`` maps episode index to the previous frame's
        ``{window box: (pixels, stem)}`` entries; windows whose pixels
        are unchanged (same box, or the box shifted by the episode's
        ``drift_px`` hint — always verified by exact pixel comparison)
        reuse the cached deterministic stem and recompute only the
        stochastic suffix.
        """
        states, k = self._prepare_wave(ready)
        wave_t0 = time.perf_counter()
        passes_s = 0.0
        new_caches: dict[int, dict] = {st.index: {} for st in states}
        active = [st for st in states if st.pending]
        while active:
            # Plan this round's union windows per episode, then group
            # them across episodes by window shape (first-occurrence
            # order keeps the jointly seeded stream deterministic).
            # Window spans are quantised up to a coarse grid first:
            # union windows are naturally ragged, and a handful of
            # round shapes batches across episodes where exact shapes
            # would fragment into single-window passes.
            groups: dict[tuple, list] = {}
            for st in active:
                st.round_verdicts = {}
                monitor = self._joint_monitor
                spans = [monitor._padded_spans(st.image, cand.box)
                         for cand in st.pending]
                windows = monitor.plan_union_windows(
                    st.image.shape[1:],
                    [crop_box for crop_box, _ in spans])
                windows = [
                    UnionWindow(box=self._quantize_window(
                        wnd.box, st.image.shape[1:]),
                        members=wnd.members)
                    for wnd in windows]
                stats = self.last_shared_stats
                stats["zone_checks"] += len(st.pending)
                stats["union_windows"] += len(windows)
                stats["merged_windows"] += sum(
                    1 for w in windows if not w.is_single)
                for wnd in windows:
                    groups.setdefault(
                        (wnd.box.height, wnd.box.width), []).append(
                        (st, wnd, spans))
            for entries in groups.values():
                passes_s += self._shared_pass(entries, episodes, caches,
                                              new_caches)
            nxt = []
            for st in active:
                st.cursor.feed([
                    (cand, st.round_verdicts[j])
                    for j, cand in enumerate(st.pending)])
                st.pending = st.cursor.next_batch(k)
                if st.pending:
                    nxt.append(st)
            active = nxt
        # Only the *previous* frame's windows are matchable: replace
        # each episode's cache with this wavefront's entries (bounded
        # memory — one frame's windows per live episode).
        caches.update(new_caches)
        self._finish_wave(states, results, wave_t0, passes_s)

    #: Window spans are quantised up to this many model strides, so
    #: the ragged union windows of a round collapse into a handful of
    #: batchable shape groups (measured: exact shapes fragment the
    #: stacked passes badly enough to cancel the union win).
    _WINDOW_QUANTUM_STRIDES = 2

    def _quantize_window(self, box: Box,
                         frame_hw: tuple[int, int]) -> Box:
        """Grow a window to quantised spans within the frame."""
        monitor = self._joint_monitor
        stride = monitor._model_stride()
        q = self._WINDOW_QUANTUM_STRIDES * stride
        spans = []
        for start, extent, limit in (
                (box.row, box.height, frame_hw[0]),
                (box.col, box.width, frame_hw[1])):
            full = limit - limit % stride
            want = min(-(-extent // q) * q, full)
            spans.append(pad_span(start, extent, limit, stride,
                                  want=max(want, extent)))
        (r0, rh), (c0, cw) = spans
        return Box(r0, c0, rh, cw)

    def _stem_lookup(self, pixels: np.ndarray, box, drift,
                     prev_cache: dict, cur_cache: dict):
        """A cached deterministic stem for ``pixels``, or ``None``.

        Tries the same window in the current frame (retry rounds), then
        the previous frame's window at the same box and at the box
        shifted by the drift hint (both signs — the hint's orientation
        is not trusted, the pixel comparison is).  Reuse requires exact
        pixel equality, so a hit is bit-identical to recomputation.
        """
        candidates = [(cur_cache, box), (prev_cache, box)]
        if drift is not None and drift != (0, 0):
            dr, dc = drift
            for sign in (1, -1):
                candidates.append((prev_cache, Box(
                    box.row + sign * dr, box.col + sign * dc,
                    box.height, box.width)))
        for cache, key in candidates:
            if key.row < 0 or key.col < 0:
                continue
            entry = cache.get(key)
            if entry is not None and entry[0].shape == pixels.shape \
                    and np.array_equal(entry[0], pixels):
                return entry[1]
        return None

    def _shared_pass(self, entries, episodes, caches,
                     new_caches) -> float:
        """One jointly seeded stacked pass over same-shape union windows.

        ``entries`` are ``(state, window, spans)`` triples whose
        windows share one shape.  Stems come from the temporal cache
        where pixels allow, from chunked prefix forwards otherwise;
        the stochastic suffix always runs fresh.  Per-zone verdicts
        are sliced from the window moments into each state's
        ``round_verdicts`` (fed to the cursors by the caller once the
        whole round is complete, preserving rank order).
        """
        from repro.segmentation.bayesian import PixelDistribution

        monitor = self._joint_monitor
        cfg = self.config.monitor
        seg = self._joint_segmenter
        stats = self.last_shared_stats
        t0 = time.perf_counter()
        crops = [wnd.box.extract(st.image).astype(np.float32)
                 for st, wnd, _ in entries]
        stack = np.stack(crops)

        base = None
        if self.engine.temporal_reuse:
            bases = [None] * len(entries)
            misses = []
            for j, (st, wnd, _) in enumerate(entries):
                drift = episodes[st.index].drift_px
                hit = self._stem_lookup(
                    crops[j], wnd.box, drift,
                    caches.get(st.index, {}),
                    new_caches.get(st.index, {}))
                if hit is not None:
                    bases[j] = hit
                else:
                    misses.append(j)
            if len(misses) == len(entries):
                # Nothing cached: one chunked prefix pass over the
                # whole stack, no per-window restacking.
                base = seg.compute_prefix(stack,
                                          self.engine.joint_max_batch)
            elif misses:
                computed = seg.compute_prefix(
                    stack[misses], self.engine.joint_max_batch)
                if computed is not None:
                    for jj, j in enumerate(misses):
                        bases[j] = computed[jj]
                    base = np.stack(bases)
            else:
                base = np.stack(bases)
            if base is not None:
                stats["stem_hits"] += len(entries) - len(misses)
                stats["stem_misses"] += len(misses)
                for j, (st, wnd, _) in enumerate(entries):
                    new_caches[st.index][wnd.box] = (crops[j], base[j])

        distributions = self._stack_pass(stack, bases=base)
        upper = np.stack([d.upper_confidence(cfg.sigma_multiplier)
                          for d in distributions])
        unsafe = monitor.unsafe_from_upper(upper)
        pass_s = time.perf_counter() - t0
        zones = sum(len(wnd.members) for _, wnd, _ in entries)
        share = pass_s / max(zones, 1)
        for (st, wnd, spans), dist, mask in zip(entries, distributions,
                                                unsafe):
            for idx in wnd.members:
                crop_box, roi = spans[idx]
                rel = Box(crop_box.row - wnd.box.row,
                          crop_box.col - wnd.box.col,
                          crop_box.height, crop_box.width)
                sliced = PixelDistribution(
                    mean=rel.extract(dist.mean),
                    std=rel.extract(dist.std),
                    num_samples=dist.num_samples)
                st.round_verdicts[idx] = monitor._verdict_from_unsafe(
                    rel.extract(mask), sliced,
                    st.pending[idx].box, roi)
                st.monitoring_s += share
        return pass_s
