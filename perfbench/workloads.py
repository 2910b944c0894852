"""The three workloads: what one operation is and how it is checked.

Each workload is built from the trained system and its prepared inputs
(its *construction* is part of set-up), answers one warm-up request,
then runs timed blocks.  A block returns per-operation latencies plus
the counts the traced run needs, and checks every output it sees.

* ``frame`` — one client, closed loop of ``LandingPipeline.run``; an
  operation is a frame, its latency the wall time of the call.
* ``fleet`` — repeated ``EpisodeScheduler.run`` passes over one fixed
  fleet; an operation is a frame, its latency the wall time of its
  pass, because every frame of a joint pass is decided together when
  the pass ends.
* ``serve`` — 8 closed-loop client coroutines sending zone checks to a
  ``ServeBroker``; an operation is a check, its latency the time from
  the call to the verdict.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.engine import EngineConfig, EpisodeRequest, EpisodeScheduler
from repro.core.pipeline import LandingPipeline
from repro.dataset.classes import NUM_CLASSES
from repro.serve import AdmissionRejected, ServeBroker, ServeConfig
from repro.utils.geometry import Box

from perfbench import host
from perfbench.inputs import check_boxes, stream_drift_model

__all__ = ["Block", "WORKLOADS"]

#: Ranked candidates the fleet monitors per jointly seeded pass.
FLEET_SPECULATIVE_K = 3
SERVE_CLIENTS = 8


def new_tally() -> dict:
    return {"verdicts": 0, "accepted": 0, "samples": 0, "budget": 0,
            "attempts": 0, "seg_s": 0.0, "monitor_s": 0.0,
            "rejected": 0}


@dataclass
class Block:
    """What one timed block measured."""

    #: latencies of answered operations during which no CPU steal was
    #: accounted ...
    latencies_ms: list = field(default_factory=list)
    #: ... and of those during which the host stole CPU time
    stolen_ms: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    tally: dict = field(default_factory=new_tally)
    #: serve only: ``(latency_ns, queue_ns, wave_ns)`` per traced check
    requests: list = field(default_factory=list)

    def answered(self, latency_ms: float, steal_before: int,
                 count: int = 1) -> None:
        """File ``count`` answered operations started at
        ``steal_before`` steal ticks."""
        stolen = host.cpu_times()[0] != steal_before
        (self.stolen_ms if stolen else self.latencies_ms).extend(
            [latency_ms] * count)


def _count_verdicts(tally: dict, verdicts, budget: int) -> None:
    for v in verdicts:
        tally["verdicts"] += 1
        tally["accepted"] += bool(v.accepted)
        tally["samples"] += int(v.num_samples)
        tally["budget"] += budget


def verdict_errors(v, max_unsafe: float) -> list[str]:
    """Eq. (2)'s acceptance rule must match the reported fraction."""
    if bool(v.accepted) != bool(v.unsafe_fraction <= max_unsafe):
        return [f"verdict accepted={v.accepted} with unsafe fraction "
                f"{v.unsafe_fraction} against max {max_unsafe}"]
    return []


def result_errors(result, frame, max_unsafe: float) -> list[str]:
    """Invariants every pipeline result must satisfy."""
    errors = []
    labels = np.asarray(result.predicted_labels)
    if labels.shape != tuple(frame.shape[1:]):
        errors.append(f"labels shape {labels.shape} for a "
                      f"{tuple(frame.shape[1:])} frame")
    elif labels.size and (labels.min() < 0
                          or labels.max() >= NUM_CLASSES):
        errors.append(f"labels outside [0, {NUM_CLASSES})")
    decision = result.decision
    if len(result.verdicts) != decision.attempts:
        errors.append(f"{len(result.verdicts)} verdicts for "
                      f"{decision.attempts} attempts")
    for v in result.verdicts:
        errors.extend(verdict_errors(v, max_unsafe))
    if decision.landed:
        zone = decision.zone
        if zone is None or not any(v.accepted and v.box == zone.box
                                   for v in result.verdicts):
            errors.append("landed on a zone without an accepted verdict")
    return errors


def decision_key(result) -> tuple:
    """The decision part of a result, for the digest."""
    d = result.decision
    zone = None if d.zone is None else (
        d.zone.box.row, d.zone.box.col, d.zone.box.height,
        d.zone.box.width)
    return (d.action.name, d.attempts, zone,
            tuple(bool(v.accepted) for v in result.verdicts))


def digest(keys) -> str:
    return hashlib.sha256(repr(list(keys)).encode()).hexdigest()[:16]


class _Workload:
    name = ""

    def __init__(self, system, inputs: dict, seed: int):
        self.seed = int(seed)
        base = system.pipeline_config()
        self.config = replace(base, selector=replace(
            base.selector, drift_model=stream_drift_model()))
        self.model = system.model
        self.errors: list[str] = []
        self.digest: str | None = None

    @property
    def max_unsafe(self) -> float:
        return self.config.monitor.max_unsafe_fraction

    def _error(self, messages) -> None:
        # Keep the first few: one broken invariant usually repeats.
        for m in messages:
            if len(self.errors) < 20:
                self.errors.append(m)

    def close(self) -> None:
        """Release what the workload holds; may add output errors."""


class FrameWorkload(_Workload):
    """The onboard loop: one pipeline, one frame at a time."""

    name = "frame"

    def __init__(self, system, inputs, seed):
        super().__init__(system, inputs, seed)
        self.frames = inputs["frames"]
        self.pipeline = LandingPipeline(self.model, self.config,
                                        rng=self.seed)
        self._next = 0

    def warmup(self) -> None:
        self.pipeline.run(self.frames[0])

    def prime(self) -> None:
        """One untimed pass over every frame; its decisions are the
        digest (the pipeline's RNG makes them a function of the seed)."""
        keys = []
        for frame in self.frames:
            result = self.pipeline.run(frame)
            self._error(result_errors(result, frame, self.max_unsafe))
            keys.append(decision_key(result))
        self.digest = digest(keys)

    def block(self, seconds: float, tracer=None, wave_of=None) -> Block:
        out = Block()
        budget = self.config.monitor.num_samples
        n = len(self.frames)
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            frame = self.frames[self._next % n]
            if tracer is not None:
                tracer.request = self._next
            self._next += 1
            out.ops += 1
            steal = host.cpu_times()[0]
            t0 = time.perf_counter()
            try:
                result = self.pipeline.run(frame)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                out.failed += 1
                self._error([f"pipeline.run raised {exc!r}"])
                continue
            out.answered((time.perf_counter() - t0) * 1e3, steal)
            self._error(result_errors(result, frame, self.max_unsafe))
            _count_verdicts(out.tally, result.verdicts, budget)
            out.tally["attempts"] += result.decision.attempts
            out.tally["seg_s"] += result.timings_s.get("segmentation_s", 0)
            out.tally["monitor_s"] += result.timings_s.get("monitoring_s", 0)
        out.wall_s = time.perf_counter() - start
        return out


class FleetWorkload(_Workload):
    """Offline campaign passes: one scheduler run over the whole fleet."""

    name = "fleet"

    def __init__(self, system, inputs, seed):
        super().__init__(system, inputs, seed)
        # Fig. 2's monitor crop is the zone plus its drift buffer; the
        # conservative buffer as context margin makes the dense
        # presets' neighbouring crops overlap.
        drift = stream_drift_model()
        margin = max(1, int(round(
            drift.required_clearance_m(conservative=True)
            / system.config.dataset.gsd)))
        self.config = replace(self.config, monitor=replace(
            self.config.monitor, context_margin_px=margin))
        self.engine = EngineConfig(monitor_batching="joint",
                                   speculative_k=FLEET_SPECULATIVE_K)
        self.episodes = [
            EpisodeRequest(frames=tuple(frames), seed=int(s), name=str(n),
                           drift_px=(int(d[0]), int(d[1])))
            for frames, s, n, d in zip(inputs["frames"],
                                       inputs["episode_seeds"],
                                       inputs["names"], inputs["drift_px"])]
        self._pass = 0

    def _run(self, episodes):
        # A fresh scheduler per pass: every pass is the same campaign
        # with the same seed, so every pass must decide identically.
        scheduler = EpisodeScheduler(self.model, self.config,
                                     engine=self.engine, rng=self.seed)
        return scheduler.run(episodes)

    def warmup(self) -> None:
        self._run(self.episodes[:1])

    def _check(self, out) -> list:
        keys = []
        if len(out) != len(self.episodes):
            self._error([f"{len(out)} episode results for "
                         f"{len(self.episodes)} episodes"])
        for episode, res in zip(self.episodes, out):
            if len(res.results) != len(episode.frames):
                self._error([f"{res.name}: {len(res.results)} results "
                             f"for {len(episode.frames)} frames"])
            for frame, result in zip(episode.frames, res.results):
                self._error(result_errors(result, frame, self.max_unsafe))
                keys.append(decision_key(result))
        return keys

    def prime(self) -> None:
        self.digest = digest(self._check(self._run(self.episodes)))

    def block(self, seconds: float, tracer=None, wave_of=None) -> Block:
        out = Block()
        budget = self.config.monitor.num_samples
        frames = sum(len(ep.frames) for ep in self.episodes)
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            if tracer is not None:
                tracer.request = self._pass
            self._pass += 1
            out.ops += frames
            steal = host.cpu_times()[0]
            t0 = time.perf_counter()
            try:
                passed = self._run(self.episodes)
            except Exception as exc:  # noqa: BLE001 - a failed pass
                out.failed += frames
                self._error([f"EpisodeScheduler.run raised {exc!r}"])
                continue
            out.answered((time.perf_counter() - t0) * 1e3, steal, frames)
            if digest(self._check(passed)) != self.digest:
                self._error([f"pass {self._pass} decided differently "
                             "from the first pass on the same inputs"])
            for res in passed:
                for result in res.results:
                    t = result.timings_s
                    _count_verdicts(out.tally, result.verdicts, budget)
                    out.tally["attempts"] += result.decision.attempts
                    out.tally["seg_s"] += t.get("segmentation_s", 0)
                    out.tally["monitor_s"] += t.get("monitoring_s", 0)
        out.wall_s = time.perf_counter() - start
        return out


class ServeWorkload(_Workload):
    """Closed-loop clients checking candidate zones through the broker."""

    name = "serve"

    def __init__(self, system, inputs, seed):
        super().__init__(system, inputs, seed)
        frames = inputs["frames"]
        self.checks = [(frames[i], box) for i, box in check_boxes(inputs)]
        self.loop = asyncio.new_event_loop()
        self.broker = ServeBroker(self.model, config=self.config,
                                  serve=ServeConfig(), rng=self.seed)
        self.loop.run_until_complete(self.broker.start())
        self._next = 0
        self._counts = {"sent": 0, "served": 0, "rejected": 0,
                        "errored": 0}

    async def _check(self, frame, box):
        self._counts["sent"] += 1
        try:
            verdict = await self.broker.check_zone(frame, box)
        except AdmissionRejected:
            self._counts["rejected"] += 1
            raise
        except Exception:
            self._counts["errored"] += 1
            raise
        self._counts["served"] += 1
        return verdict

    def warmup(self) -> None:
        frame, box = self.checks[0]
        self.loop.run_until_complete(self._check(frame, box))

    def prime(self) -> None:
        self.block(1.0)

    def block(self, seconds: float, tracer=None, wave_of=None) -> Block:
        return self.loop.run_until_complete(
            self._block(seconds, tracer, wave_of))

    async def _block(self, seconds, tracer, wave_of) -> Block:
        out = Block()
        budget = self.config.monitor.num_samples
        n = len(self.checks)
        start = time.perf_counter()
        deadline = start + seconds

        async def client():
            while time.perf_counter() < deadline:
                k = self._next
                self._next += 1
                frame, box = self.checks[k % n]
                # A fresh Box per request keys this check's wave span.
                box = Box(box.row, box.col, box.height, box.width)
                out.ops += 1
                steal = host.cpu_times()[0]
                t0 = time.perf_counter_ns()
                try:
                    verdict = await self._check(frame, box)
                except AdmissionRejected:
                    out.failed += 1
                    out.tally["rejected"] += 1
                    continue
                except Exception as exc:  # noqa: BLE001 - failed check
                    out.failed += 1
                    self._error([f"check_zone raised {exc!r}"])
                    continue
                latency = time.perf_counter_ns() - t0
                out.answered(latency / 1e6, steal)
                errors = verdict_errors(verdict, self.max_unsafe)
                if verdict.box != box:
                    errors.append(f"verdict for {verdict.box}, asked {box}")
                self._error(errors)
                _count_verdicts(out.tally, [verdict], budget)
                if tracer is not None:
                    wave = wave_of.pop(id(box), None)
                    queue = wave.start - t0 if wave else 0
                    span = wave.duration if wave else 0
                    tracer.record("broker.check", t0, t0 + latency,
                                  request=k)
                    out.requests.append((latency, queue, span))

        await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))
        out.wall_s = time.perf_counter() - start
        return out

    def close(self) -> None:
        """Stop the broker, then audit its ledger against the clients."""
        self.loop.run_until_complete(self.broker.stop())
        self.loop.close()
        stats, c = self.broker.stats, self._counts
        rejected = stats["rejected_queue_full"] + stats["rejected_shutdown"]
        if not (stats["admitted"] == c["served"] + c["errored"]
                and stats["zone_checks"] == c["served"]
                and rejected == c["rejected"]
                and c["sent"] == c["served"] + c["errored"] + c["rejected"]):
            self._error([f"serve ledger does not balance: broker {stats}, "
                         f"clients {c}"])


WORKLOADS = {w.name: w for w in (FrameWorkload, FleetWorkload,
                                 ServeWorkload)}
