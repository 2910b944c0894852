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
  seeded monitor RNG stream and its checks run in frame order, so with
  ``workers=1`` the engine's results are bit-for-bit identical to
  calling ``LandingPipeline.run`` frame by frame per episode (tested in
  ``tests/core/test_episode_engine.py``).
* **Frame sharding** (``workers > 1``): whole episode frames of ready
  episodes are sharded over a **persistent** fork-worker pool
  (:class:`repro.serve.pool.PersistentWorkerPool`): workers fork once
  per scheduler and are reused across runs, the model ships once
  (inherited copy-on-write at fork), and frames cross the process
  boundary through shared memory as zero-copy views — no per-call
  fork, no per-task model pickle.  Each task still carries its
  episode's RNG state explicitly, so results remain identical to
  ``workers=1`` regardless of worker count or scheduling.
  :meth:`EpisodeScheduler.close` (or using the scheduler as a context
  manager) shuts the pool down
  deterministically; :attr:`EpisodeScheduler.effective_workers`
  reports the degree actually in use (1 where ``fork`` is
  unavailable).
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
import warnings
import weakref
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
    workers:
        Persistent fork-worker processes sharding whole episode frames
        — core segmentation, selection and the per-zone Bayesian
        checks all run in the worker, so concurrent episodes use every
        core.  ``1`` (default) runs inline; any value produces
        identical results because each episode's RNG state travels
        with its tasks.  Workers fork once per scheduler (model
        shipped once, frames via shared memory; see
        :class:`repro.serve.pool.PersistentWorkerPool`) and live until
        :meth:`EpisodeScheduler.close`.  Requires
        ``monitor_batching="exact"``.  Where the ``fork`` start method
        does not exist the scheduler warns and runs inline —
        :attr:`EpisodeScheduler.effective_workers` reports the real
        degree.
    deadline_ms:
        Per-task deadline (milliseconds, monotonic clock) for the
        sharded path, measured from pool submission.  ``None``
        (default) waits forever.  When a task exceeds it, the pool
        kills the worker holding it (a hung task cannot be cancelled),
        respawns a replacement and the wave raises a typed
        :class:`repro.serve.faults.CheckTimedOut` — a timed-out safety
        check fails safe, never open.  The serving layer threads
        ``ServeConfig.deadline_ms`` down into this knob.
    max_respawns:
        Supervision budget of the persistent pool: how many worker
        respawns (after crashes or deadline kills) a pool will perform
        before giving up with :class:`repro.serve.faults.
        WorkerPoolError`.  Default 3.  Respawns back off exponentially
        (capped), and each resubmitted task replays bit-for-bit from
        its shipped RNG state, so a survived crash never changes
        results.  ``0`` disables respawning entirely.
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
    workers: int = 1
    deadline_ms: float | None = None
    max_respawns: int = 3
    speculative_k: int | None = None
    overlap_budget: float | None = None
    temporal_reuse: bool = True

    def __post_init__(self):
        check_positive("max_batch", self.max_batch)
        check_positive("joint_max_batch", self.joint_max_batch)
        if self.seg_max_batch is not None:
            check_positive("seg_max_batch", self.seg_max_batch)
        check_positive("workers", self.workers)
        if self.deadline_ms is not None:
            check_positive("deadline_ms", self.deadline_ms)
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.monitor_batching not in _MONITOR_BATCHING:
            raise ValueError(
                f"monitor_batching must be one of {_MONITOR_BATCHING}, "
                f"got {self.monitor_batching!r}")
        if self.workers > 1 and self.monitor_batching != "exact":
            raise ValueError(
                "worker sharding requires monitor_batching='exact' "
                "(joint/shared batching is a single-process fast path)")
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
        # Persistent fork-worker pool (workers > 1): created lazily on
        # the first sharded run, reused across runs, shut down by
        # close(); a weakref finalizer backstops abandoned schedulers.
        self._pool = None
        self._pool_finalizer = None
        self._fork_warned = False
        # Chaos plans are armed by repro.serve.chaos.arm (tests and
        # benches only) and ride into the next pool fork; deliberately
        # not an EngineConfig knob.
        self._fault_plan = None
        # Supervision counters of every pool this scheduler has closed
        # (a broken pool is torn down and replaced, but its deaths and
        # respawns must stay on the ledger).
        self.pool_stats_total: dict[str, int] = {}

    # ------------------------------------------------------------------
    def run(self, episodes) -> list[EpisodeResult]:
        """Run all episodes to completion; one result per request."""
        episodes = [ep if isinstance(ep, EpisodeRequest)
                    else EpisodeRequest(frames=ep) for ep in episodes]
        if not episodes:
            return []
        results: list[list[PipelineResult]] = [[] for _ in episodes]
        horizon = max(len(ep.frames) for ep in episodes)

        pool = self._ensure_pool() if self.engine.workers > 1 else None
        if pool is not None:
            # Whole frames are sharded (segmentation included), so
            # the parent holds only each episode's monitor RNG and
            # never pre-segments.  Frames of one episode still
            # advance one wave at a time: frame t+1's monitor
            # stream continues frame t's returned RNG state.
            from repro.serve.faults import WorkerPoolError

            rngs = [ensure_rng(ep.seed) for ep in episodes]
            try:
                for t in range(horizon):
                    ready = [(i, episodes[i].frames[t])
                             for i in range(len(episodes))
                             if t < len(episodes[i].frames)]
                    self._wave_workers(pool, ready, rngs, results)
            except WorkerPoolError:
                # The pool is broken past its respawn budget: tear it
                # down now so the next sharded run forks a fresh one
                # (callers like the serve broker retry this wave on
                # the bit-identical inline path meanwhile).
                self.close()
                raise
            return self._collect(episodes, results)

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
        return self._collect(episodes, results)

    def _collect(self, episodes, results) -> list[EpisodeResult]:
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
    # Stage 2a: worker-sharded monitor/decide (exact semantics)
    # ------------------------------------------------------------------
    @property
    def effective_workers(self) -> int:
        """Worker processes ``run`` actually uses.

        Equals ``engine.workers`` when sharding is live, and ``1``
        when the engine is configured inline *or* the platform has no
        ``fork`` start method — in the latter case a sharded config
        degrades to inline with a ``RuntimeWarning``, and this
        property (surfaced by the serve doctor) is how operators tell
        inline-degraded apart from genuinely sharded.
        """
        from repro.serve.pool import fork_available

        if self.engine.workers <= 1 or not fork_available():
            return 1
        return self.engine.workers

    def _ensure_pool(self):
        """The scheduler's persistent worker pool, or None (inline).

        Created once, on the first sharded ``run``, and reused by
        every later run: workers fork exactly once, inheriting the
        model copy-on-write — the model is shipped once, never
        pickled per call.  ``close()`` tears the pool down.
        """
        if self._pool is not None:
            return self._pool
        if self.effective_workers <= 1:
            if not self._fork_warned:
                warnings.warn(
                    "multiprocessing 'fork' start method unavailable; "
                    "EpisodeScheduler runs workers=1 inline (see "
                    "EpisodeScheduler.effective_workers)",
                    RuntimeWarning, stacklevel=3)
                self._fork_warned = True
            return None
        from repro.serve.pool import PersistentWorkerPool

        self._pool = PersistentWorkerPool(
            self.model, self.config, self.engine, self.engine.workers,
            max_respawns=self.engine.max_respawns,
            fault_plan=self._fault_plan)
        # Backstop for abandoned schedulers; close() is the real API.
        self._pool_finalizer = weakref.finalize(
            self, PersistentWorkerPool.close, self._pool)
        return self._pool

    def close(self) -> None:
        """Shut the persistent worker pool down deterministically.

        Joins the workers and unlinks the shared-memory frame ring.
        Idempotent, and the scheduler remains usable — the next
        sharded ``run`` forks a fresh pool.  The scheduler is also a
        context manager (``with EpisodeScheduler(...) as sched:``),
        which calls this on exit.
        """
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            for key, value in self._pool.stats.items():
                self.pool_stats_total[key] = \
                    self.pool_stats_total.get(key, 0) + value
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "EpisodeScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wave_workers(self, pool, ready, rngs, results) -> None:
        """Shard one wavefront's episode frames over the pool.

        Each task ships its episode's monitor RNG state and receives
        the advanced state back, so the per-episode streams are
        exactly those of the inline path.
        """
        deadline_s = (None if self.engine.deadline_ms is None
                      else self.engine.deadline_ms / 1000.0)
        for i, image in ready:
            pool.submit(i, image, rngs[i].bit_generator.state)
        for i, result, state in pool.collect(len(ready),
                                             deadline_s=deadline_s):
            rngs[i].bit_generator.state = state
            results[i].append(result)

    # ------------------------------------------------------------------
    # Stage 2b: joint cross-episode monitor batching
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
        ``monitor_batching`` knob.  Raises
        ``ValueError`` for a malformed image or a box that is empty or
        leaves its frame (the serve broker sheds those at admission).
        """
        if not items:
            return []
        for k, (image, box) in enumerate(items):
            check_image_chw(f"items[{k}]", image)
            check_zone_box(image, box)
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
    # Stage 2c: shared-context monitoring (union windows + stem reuse)
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
