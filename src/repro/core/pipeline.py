"""The complete Fig. 2 safety architecture, assembled.

``LandingPipeline`` wires together the four boxes of the paper's
landing-zone-selection architecture:

1. **Core function** — the standard (deterministic) MSDnet segments the
   full frame and the selector proposes clearance-ranked zones.
2. **Monitor** — the Bayesian MSDnet re-examines each proposed zone crop
   with the conservative Eq. (2) rule.
3. **Decision module** — confirm -> land; reject -> retry; budgets
   exhausted -> abort (flight termination).

``run`` executes one full episode on a camera frame and reports every
intermediate artefact (segmentation, candidates, verdicts, timings) so
benches and the mission simulator can introspect the behaviour.  The
reported ``timings_s`` separate ``monitoring_s`` (wall time spent
inside per-zone Bayesian passes) from ``decision_s`` (the decision
module's own bookkeeping around them).

``LandingPipeline`` is the *single-episode facade* over the streaming
episode engine: multi-episode workloads run through
:class:`repro.core.engine.EpisodeScheduler`, which drives these same
stage implementations (``_finish_episode`` and the decision cursor)
across many concurrent frame streams with cross-episode batching.
The engine's performance knobs live in one place,
:class:`repro.core.engine.EngineConfig`, which can be handed to this
class via ``engine=``.  A multi-frame episode with one batched
core segmentation is ``EpisodeScheduler.run_frames``, which reproduces
a per-frame :meth:`LandingPipeline.run` loop bit for bit (same seeded
monitor stream).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.decision import Decision, DecisionConfig, DecisionModule
from repro.core.landing_zone import (
    LandingZoneConfig,
    LandingZoneSelector,
    ZoneCandidate,
)
from repro.core.monitor import MonitorConfig, RuntimeMonitor, ZoneVerdict
from repro.segmentation.bayesian import BayesianSegmenter
from repro.utils.validation import check_image_chw

__all__ = ["PipelineConfig", "PipelineResult", "LandingPipeline"]


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of the full landing pipeline."""

    selector: LandingZoneConfig = field(default_factory=LandingZoneConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    decision: DecisionConfig = field(default_factory=DecisionConfig)
    monitor_enabled: bool = True


@dataclass
class PipelineResult:
    """Everything one pipeline episode produced."""

    decision: Decision
    predicted_labels: np.ndarray = field(repr=False)
    candidates: list[ZoneCandidate] = field(default_factory=list)
    verdicts: list[ZoneVerdict] = field(default_factory=list)
    timings_s: dict[str, float] = field(default_factory=dict)

    @property
    def landed(self) -> bool:
        return self.decision.landed

    @property
    def selected_zone(self) -> ZoneCandidate | None:
        return self.decision.zone


class LandingPipeline:
    """End-to-end landing-zone selection with runtime monitoring."""

    def __init__(self, model, config: PipelineConfig | None = None,
                 rng=None, engine=None):
        """``model`` is a trained segmentation network (MSDNet).

        ``engine`` optionally carries a
        :class:`repro.core.engine.EngineConfig`, the single documented
        home of the performance knobs (batched-forward chunk size,
        speculative check-ahead, monitor batching); it is applied here
        so single-episode and engine-scheduled runs share one config
        path.
        """
        self.config = config or PipelineConfig()
        max_batch = None
        # ``None`` defers to the REPRO_MONITOR_SHARED environment
        # toggle at call time; an explicit shared engine forces the
        # union-crop planner for the speculative joint passes.
        self._shared_checks: bool | None = None
        if engine is not None:
            self.config = engine.pipeline_config(self.config)
            max_batch = engine.max_batch
            if engine.monitor_batching == "shared":
                self._shared_checks = True
        self.model = model
        kwargs = {} if max_batch is None else {"max_batch": max_batch}
        self.segmenter = BayesianSegmenter(
            model, num_samples=self.config.monitor.num_samples, rng=rng,
            **kwargs)
        self.selector = LandingZoneSelector(self.config.selector)
        self.monitor = RuntimeMonitor(self.segmenter, self.config.monitor)
        self.decision_module = DecisionModule(self.config.decision)

    # ------------------------------------------------------------------
    def run(self, image: np.ndarray) -> PipelineResult:
        """One full episode: segment -> propose -> verify -> decide."""
        check_image_chw("image", image)
        t0 = time.perf_counter()
        # The core function only needs the arg-max class map; the
        # labels path skips the full-frame softmax (same labels —
        # softmax is monotone).
        labels = self.segmenter.predict_labels(image)
        segmentation_s = time.perf_counter() - t0
        return self._finish_episode(image, labels, segmentation_s)

    def _finish_episode(self, image: np.ndarray, labels: np.ndarray,
                        segmentation_s: float) -> PipelineResult:
        """Selection, monitoring and decision on a segmented frame."""
        timings: dict[str, float] = {"segmentation_s": segmentation_s}

        t0 = time.perf_counter()
        candidates = self.selector.propose(labels)
        timings["selection_s"] = time.perf_counter() - t0

        monitoring_s = 0.0

        def check(candidate: ZoneCandidate) -> ZoneVerdict:
            nonlocal monitoring_s
            t1 = time.perf_counter()
            verdict = self.monitor.check_zone(image, candidate.box)
            monitoring_s += time.perf_counter() - t1
            return verdict

        def check_batch(batch: list[ZoneCandidate]) -> list[ZoneVerdict]:
            # The speculative joint pass: all crops in one jointly
            # seeded stacked Bayesian pass.  A single-candidate batch
            # degenerates to the per-zone seeding, i.e. check_zone.
            # With a shared engine (or REPRO_MONITOR_SHARED=1) the
            # pass runs through the union-crop planner instead.
            nonlocal monitoring_s
            t1 = time.perf_counter()
            out = self.monitor.check_zones(
                image, [c.box for c in batch], joint=True,
                shared=self._shared_checks)
            monitoring_s += time.perf_counter() - t1
            return out

        speculative = (self.config.monitor_enabled
                       and self.config.decision.speculative_k > 1)
        t0 = time.perf_counter()
        decision = self.decision_module.decide(
            candidates,
            check if self.config.monitor_enabled else None,
            check_zones=check_batch if speculative else None)
        loop_s = time.perf_counter() - t0
        # monitoring_s: wall time inside the per-zone Bayesian passes;
        # decision_s: the decision module's own bookkeeping around them.
        timings["monitoring_s"] = monitoring_s
        timings["decision_s"] = max(loop_s - monitoring_s, 0.0)

        # decision.verdicts holds exactly the consumed verdicts (the
        # speculative path discards over-checked ones), so monitored
        # episodes have len(verdicts) == decision.attempts.  The
        # unmonitored ablation records one attempt with no verdict.
        return PipelineResult(decision=decision, predicted_labels=labels,
                              candidates=candidates,
                              verdicts=list(decision.verdicts),
                              timings_s=timings)

    # ------------------------------------------------------------------
    def as_mission_policy(self):
        """Adapter for :func:`repro.uav.mission.simulate_mission`.

        Returns a callable mapping a camera frame to the confirmed zone
        centre in window pixels, or ``None`` when the pipeline aborts —
        which the mission simulator escalates to Flight Termination.
        """
        def policy(image: np.ndarray):
            result = self.run(image)
            if result.landed and result.selected_zone is not None:
                return result.selected_zone.center_px
            return None

        return policy
