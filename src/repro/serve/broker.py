"""Asyncio admission broker: many clients, one episode engine.

:class:`ServeBroker` is the front door of the serving layer.  Clients
submit zone checks (``await broker.check_zone(image, box)``) or whole
episode steps (``await broker.run_episode(frames, seed=...)``) from any
number of concurrent coroutines; the broker takes everything already
queued into one *wave*, closing it when arrivals stop (the queue is
empty) or at ``ServeConfig.max_wave``, so requests that arrive while
a wave runs form the next one.  It feeds each wave to a single shared
:class:`repro.core.engine.EpisodeScheduler` — zone checks as one
jointly seeded stacked pass (:meth:`EpisodeScheduler.check_zones_wave`),
episode steps as one ``scheduler.run`` — so concurrency buys stacked
batched forwards instead of contention.

**Backpressure is explicit and typed.**  The admission queue is
bounded (``ServeConfig.queue_depth``); a request that arrives while
the queue is full is shed immediately with :class:`AdmissionRejected`
(``reason="queue_full"``), and a request after shutdown began gets
``reason="shutdown"``.  A zone check whose image is not a CHW float
image, whose frame is smaller than the model's output stride, or
whose box is empty or leaves the frame, is shed before admission with
``reason="invalid"``, and so is an episode step whose frames are not
CHW float images with sides that are multiples of the stride; a shed
request never joins a wave and cannot fail the requests batched with
it.  A safety check is never silently dropped or partially answered:
every admitted request's future resolves with a verdict, an episode
result, or the wave's exception, and :meth:`ServeBroker.stop` drains
all in-flight checks before returning.

Waves execute on a dedicated single worker thread so the event loop
stays responsive for admission while numpy crunches.

**Deadlines.**  ``ServeConfig.deadline_ms`` arms per-request deadlines
on the monotonic clock.  A request that misses its deadline, whether
still queued (``scope="admission"``) or in a wave that runs too long
(``scope="wave"``), resolves with a typed
:class:`~repro.serve.faults.CheckTimedOut` whose ``verdict`` is a
conservative *reject* for zone checks (fail safe, never open); the
ledger counts it in ``timed_out``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.core.engine import (
    _MONITOR_BATCHING,
    EngineConfig,
    EpisodeRequest,
    EpisodeScheduler,
)
from repro.serve.faults import CheckTimedOut, conservative_reject
from repro.utils.validation import check_positive

__all__ = [
    "AdmissionRejected",
    "ServeBroker",
    "ServeConfig",
]

#: Admission-queue sentinel that tells the broker loop to drain + exit.
_SHUTDOWN = object()


class AdmissionRejected(RuntimeError):
    """Typed backpressure rejection — the shed half of the contract.

    Raised synchronously at submission time, never after a request was
    admitted, so a client always knows whether its safety check is in
    flight.  ``reason`` is ``"queue_full"`` (admission queue at
    ``queue_depth``), ``"shutdown"`` (broker stopping/stopped) or
    ``"invalid"`` (a request its wave could not serve: a malformed
    image, a frame the model's output stride does not fit, or a zone
    box that is empty or leaves the frame; ``detail`` says which);
    ``queue_depth`` echoes the configured bound.
    """

    def __init__(self, reason: str, queue_depth: int, detail: str = ""):
        advice = detail or "resubmit or back off"
        super().__init__(
            f"request rejected at admission ({reason}, "
            f"queue_depth={queue_depth}) — {advice}")
        self.reason = reason
        self.queue_depth = queue_depth


@dataclass(frozen=True)
class ServeConfig:
    """Admission-control and backend knobs of :class:`ServeBroker`.

    A wave takes what is queued and closes as soon as the queue is
    empty, so ``max_wave`` is the one cap on wave assembly; no timer
    holds a request back.

    Attributes
    ----------
    queue_depth:
        Bound of the admission queue — the *explicit backpressure*
        knob.  A request arriving while ``queue_depth`` requests are
        already waiting is shed with a typed
        :class:`AdmissionRejected` (``reason="queue_full"``) instead
        of queueing unboundedly or being dropped silently.  Default
        64.
    max_wave:
        Cap on requests admitted into one wave, however many are
        queued.  Default 32 — matches the joint
        pass's measured chunk sweet spot
        (``EngineConfig.joint_max_batch``); larger waves only grow
        per-wave latency without stacking better.
    monitor_batching:
        ``EngineConfig.monitor_batching`` for the broker's scheduler:
        ``"joint"`` (default; episode steps share the stacked-pass
        machinery), ``"shared"`` or ``"exact"``.  Zone-check waves
        always run jointly stacked, via
        :meth:`EpisodeScheduler.check_zones_wave`.
    deadline_ms:
        Per-request deadline in milliseconds on the monotonic clock,
        measured from admission.  ``None`` (default) disables
        deadlines.  A request that cannot be answered in time resolves
        with a typed :class:`~repro.serve.faults.CheckTimedOut` —
        carrying a conservative *reject* verdict for zone checks — so
        a timed-out safety check fails safe, never open and never
        silently.
    """

    queue_depth: int = 64
    max_wave: int = 32
    monitor_batching: str = "joint"
    deadline_ms: float | None = None

    def __post_init__(self):
        check_positive("queue_depth", self.queue_depth)
        check_positive("max_wave", self.max_wave)
        if self.monitor_batching not in _MONITOR_BATCHING:
            raise ValueError(
                f"monitor_batching must be one of {_MONITOR_BATCHING}, "
                f"got {self.monitor_batching!r}")
        if self.deadline_ms is not None:
            check_positive("deadline_ms", self.deadline_ms)

    def engine_config(self, base: EngineConfig | None = None) -> EngineConfig:
        """``base`` with this serve configuration's ``monitor_batching``."""
        return replace(base if base is not None else EngineConfig(),
                       monitor_batching=self.monitor_batching)


@dataclass
class _Pending:
    """One admitted request waiting in the broker queue."""

    kind: str  # "zone" | "episode"
    payload: object
    future: asyncio.Future = field(repr=False)
    admitted_at: float = 0.0  # monotonic clock; deadline anchor


class ServeBroker:
    """Micro-batching admission broker over one episode scheduler.

    Usage::

        async with ServeBroker(model, config=pipeline_config) as broker:
            verdict = await broker.check_zone(image, box)
            episode = await broker.run_episode(frames, seed=7)

    Construction builds the backing :class:`EpisodeScheduler` from
    ``serve.engine_config(engine)``; ``start``/``stop`` (or the async
    context manager) run the admission loop.  ``stats`` counts
    admissions, typed rejections, waves and served checks — the
    no-silent-drop ledger the serve bench audits.
    """

    def __init__(self, model, config=None, engine: EngineConfig | None = None,
                 serve: ServeConfig | None = None, rng=None):
        self.serve = serve or ServeConfig()
        self.scheduler = EpisodeScheduler(
            model, config=config, engine=self.serve.engine_config(engine),
            rng=rng)
        self.stats: dict[str, int] = {
            "admitted": 0,
            "rejected_queue_full": 0,
            "rejected_shutdown": 0,
            "rejected_invalid": 0,
            "waves": 0,
            "max_wave": 0,
            "zone_checks": 0,
            "episode_steps": 0,
            "wave_errors": 0,
            "timed_out": 0,
        }
        self._queue: asyncio.Queue | None = None
        self._runner: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._accepting = False

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._runner is not None and not self._runner.done()

    async def start(self) -> "ServeBroker":
        """Start the admission loop (idempotent while running)."""
        if self.running:
            return self
        self._queue = asyncio.Queue(maxsize=self.serve.queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-wave")
        self._accepting = True
        self._runner = asyncio.create_task(
            self._run(), name="repro-serve-broker")
        return self

    async def stop(self) -> None:
        """Graceful shutdown: reject new work, drain in-flight checks.

        Every request admitted before ``stop`` resolves (served or
        failed with its wave's exception) before this returns; later
        submissions get ``AdmissionRejected(reason="shutdown")``.
        """
        self._accepting = False
        if self._runner is not None:
            await self._queue.put(_SHUTDOWN)
            try:
                await self._runner
            finally:
                self._runner = None
                self._executor.shutdown(wait=True)
                self._executor = None

    async def __aenter__(self) -> "ServeBroker":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- client surface ------------------------------------------------
    async def check_zone(self, image, box):
        """One zone safety check; resolves to a ``ZoneVerdict``.

        Raises :class:`AdmissionRejected` (typed, immediate) when the
        admission queue is full, the broker is shutting down, or the
        request is invalid (:meth:`EpisodeScheduler.validate_zone`).
        """
        try:
            self.scheduler.validate_zone(image, box)
        except ValueError as exc:
            raise self._invalid(exc) from None
        return await self._admit("zone", (image, box))

    async def check_zones(self, image, boxes) -> list:
        """All of one frame's zones, admitted together."""
        return list(await asyncio.gather(
            *(self.check_zone(image, box) for box in boxes)))

    async def run_episode(self, frames, seed=0, name=""):
        """One full episode step; resolves to an ``EpisodeResult``.

        Raises :class:`AdmissionRejected` like :meth:`check_zone`; an
        episode is invalid when ``EpisodeRequest`` or
        :meth:`EpisodeScheduler.validate_episode` refuses it.
        """
        try:
            request = EpisodeRequest(frames=tuple(frames), seed=seed,
                                     name=name)
            self.scheduler.validate_episode(request)
        except ValueError as exc:
            raise self._invalid(exc) from None
        return await self._admit("episode", request)

    def _invalid(self, exc: ValueError) -> AdmissionRejected:
        """Count one request shed as invalid; the typed rejection."""
        self.stats["rejected_invalid"] += 1
        return AdmissionRejected("invalid", self.serve.queue_depth,
                                 detail=str(exc))

    def _admit(self, kind: str, payload) -> asyncio.Future:
        if not self._accepting or self._queue is None:
            self.stats["rejected_shutdown"] += 1
            raise AdmissionRejected("shutdown", self.serve.queue_depth)
        item = _Pending(kind, payload,
                        asyncio.get_running_loop().create_future(),
                        admitted_at=time.monotonic())
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.stats["rejected_queue_full"] += 1
            raise AdmissionRejected(
                "queue_full", self.serve.queue_depth) from None
        self.stats["admitted"] += 1
        return item.future

    # -- admission loop ------------------------------------------------
    async def _run(self) -> None:
        draining = False
        while not draining:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                break
            wave = [item]
            while len(wave) < self.serve.max_wave:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break  # arrivals stopped: close the wave
                if nxt is _SHUTDOWN:
                    draining = True
                    break
                wave.append(nxt)
            await self._serve_wave(wave)
        # Shutdown sentinel seen: serve whatever was already admitted —
        # an admitted safety check is never dropped.
        leftovers = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _SHUTDOWN:
                leftovers.append(item)
        while leftovers:
            wave = leftovers[:self.serve.max_wave]
            leftovers = leftovers[self.serve.max_wave:]
            await self._serve_wave(wave)

    async def _serve_wave(self, wave: list) -> None:
        """Serve one admitted wave: zones stacked, episodes batched.

        Zone checks run first (one ``check_zones_wave``), episode
        steps second (one ``scheduler.run``) — a fixed order, so a
        fixed request trace replays the scheduler's joint RNG stream
        identically.  Waves execute on the broker's dedicated worker
        thread; every member future resolves here, with the result, a
        typed timeout, or the wave's exception.
        """
        self.stats["waves"] += 1
        self.stats["max_wave"] = max(self.stats["max_wave"], len(wave))
        deadline_s = (None if self.serve.deadline_ms is None
                      else self.serve.deadline_ms / 1000.0)
        live = wave
        if deadline_s is not None:
            now = time.monotonic()
            live = []
            for p in wave:
                if now - p.admitted_at > deadline_s:
                    # Expired while queued: fail safe before spending
                    # any compute on an answer nobody is waiting for.
                    self._timeout(p, scope="admission")
                else:
                    live.append(p)
        zones = [p for p in live if p.kind == "zone"]
        episodes = [p for p in live if p.kind == "episode"]
        if zones:
            await self._run_wave(zones, self.scheduler.check_zones_wave,
                                 "zone_checks", deadline_s)
        if episodes:
            await self._run_wave(episodes, self.scheduler.run,
                                 "episode_steps", deadline_s)

    async def _call(self, fn, arg, timeout_s: float | None):
        """Run ``fn(arg)`` on the wave thread, deadline-bounded."""
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, fn, arg)
        if timeout_s is None:
            return await future
        return await asyncio.wait_for(future, timeout_s)

    def _wave_timeout(self, pending: list,
                      deadline_s: float | None) -> float | None:
        """Seconds until the *last* member's deadline (or None).

        The wave keeps running while any member can still be answered
        in time; on completion, late-but-computed results are
        delivered (an answer in hand beats a fabricated reject), so
        the per-request deadline is enforced at wave granularity.
        """
        if deadline_s is None:
            return None
        now = time.monotonic()
        remaining = max(p.admitted_at + deadline_s - now
                        for p in pending)
        return max(remaining, 0.005)

    async def _run_wave(self, pending: list, fn, served: str,
                        deadline_s: float | None) -> None:
        """Run ``fn`` over ``pending``'s payloads; resolve every future.

        ``served`` names the stats key counting the answered requests.
        """
        try:
            out = await self._call(fn, [p.payload for p in pending],
                                   self._wave_timeout(pending, deadline_s))
        except asyncio.TimeoutError:
            # Inline compute cannot be killed; the wave thread will
            # finish (and its late results are discarded by the done()
            # guards) while the clients fail safe now.
            for p in pending:
                self._timeout(p, scope="wave")
        except Exception as exc:  # noqa: BLE001 - resolves futures
            self.stats["wave_errors"] += 1
            self._fail(pending, exc)
        else:
            self.stats[served] += len(pending)
            for p, result in zip(pending, out):
                if not p.future.done():
                    p.future.set_result(result)

    def _timeout(self, p, scope: str) -> None:
        """Resolve one request as a typed, fail-safe timeout."""
        self.stats["timed_out"] += 1
        verdict = None
        if p.kind == "zone":
            _, box = p.payload
            verdict = conservative_reject(box)
        if not p.future.done():
            p.future.set_exception(CheckTimedOut(
                self.serve.deadline_ms or 0.0, scope, verdict))

    @staticmethod
    def _fail(pending: list, exc: BaseException) -> None:
        for p in pending:
            if not p.future.done():
                p.future.set_exception(exc)
