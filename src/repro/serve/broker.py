"""Asyncio admission broker: many clients, one episode engine.

:class:`ServeBroker` is the front door of the serving layer.  Clients
submit zone checks (``await broker.check_zone(image, box)``) or whole
episode steps (``await broker.run_episode(frames, seed=...)``) from any
number of concurrent coroutines; the broker micro-batches everything
that arrives within a short **admission window** (a few milliseconds)
into one *wave* and feeds the wave to a single shared
:class:`repro.core.engine.EpisodeScheduler` — zone checks as one
jointly seeded stacked pass (:meth:`EpisodeScheduler.check_zones_wave`),
episode steps as one ``scheduler.run`` — so concurrency buys stacked
batched forwards instead of contention.

**Backpressure is explicit and typed.**  The admission queue is
bounded (``ServeConfig.queue_depth``); a request that arrives while
the queue is full is shed immediately with :class:`AdmissionRejected`
(``reason="queue_full"``), and a request after shutdown began gets
``reason="shutdown"``.  A zone check whose image is not a CHW float
image, or whose box is empty or leaves the frame, is shed before
admission with ``reason="invalid"``, so it never joins a wave and
cannot fail the requests batched with it.  A safety check is never
silently dropped or
partially answered: every admitted request's future resolves with a
verdict, an episode result, or the wave's exception, and
:meth:`ServeBroker.stop` drains all in-flight checks before returning.

Waves execute on a dedicated single worker thread so the event loop
stays responsive for admission while numpy crunches; multi-core scaling
comes from the scheduler's persistent worker pool
(``ServeConfig.workers`` / ``REPRO_SERVE_WORKERS``), not from thread
fan-out.

**Fault tolerance.**  Execution-time faults get the same
no-silent-drop treatment as admission (see :mod:`repro.serve.faults`):

* ``deadline_ms`` arms per-request deadlines on the monotonic clock —
  a request that misses its deadline resolves with a typed
  :class:`~repro.serve.faults.CheckTimedOut` whose ``verdict`` is a
  conservative *reject* for zone checks (fail safe, never open).
* A wave that dies in the worker pool (:class:`~repro.serve.faults.
  WorkerPoolError`, i.e. worker deaths past the respawn budget) is
  re-run on the **bit-identical inline path** — the engine's sharding
  contract guarantees ``workers=N`` equals ``workers=1``, so degraded
  answers are the same answers, just slower.
* A :class:`~repro.serve.breaker.CircuitBreaker` counts consecutive
  pool faults: after ``breaker_threshold`` of them the pool path is
  bypassed entirely (every episode wave runs degraded) until
  ``breaker_cooldown_s`` elapses, then a half-open probe re-forks the
  pool and closes the breaker on success.

``broker.stats`` extends the ledger accordingly: ``timed_out``,
``pool_faults``, ``degraded_waves``, ``breaker_opens``, ``respawns``,
``worker_deaths`` and ``tasks_resubmitted``.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.engine import (
    _MONITOR_BATCHING,
    EngineConfig,
    EpisodeRequest,
    EpisodeScheduler,
)
from repro.core.monitor import check_zone_box
from repro.serve.breaker import CircuitBreaker
from repro.serve.faults import (
    CheckTimedOut,
    WorkerPoolError,
    conservative_reject,
)
from repro.utils.validation import (
    check_image_chw,
    check_non_negative,
    check_positive,
)

__all__ = [
    "AdmissionRejected",
    "ServeBroker",
    "ServeConfig",
    "serve_workers_default",
]

#: Admission-queue sentinel that tells the broker loop to drain + exit.
_SHUTDOWN = object()


def serve_workers_default() -> int | None:
    """Worker count requested via ``REPRO_SERVE_WORKERS``, or None.

    The serving layer's deployment-time sizing toggle (a sanctioned env
    read site, like the monitor toggles in :mod:`repro.core.monitor`):
    ``ServeConfig`` reads it only when its ``workers`` field is left
    unset, so explicit configuration always wins.
    """
    raw = os.environ.get("REPRO_SERVE_WORKERS", "").strip()
    if not raw:
        return None
    value = int(raw)
    if value < 1:
        raise ValueError(
            f"REPRO_SERVE_WORKERS must be >= 1, got {raw!r}")
    return value


class AdmissionRejected(RuntimeError):
    """Typed backpressure rejection — the shed half of the contract.

    Raised synchronously at submission time, never after a request was
    admitted, so a client always knows whether its safety check is in
    flight.  ``reason`` is ``"queue_full"`` (admission queue at
    ``queue_depth``), ``"shutdown"`` (broker stopping/stopped) or
    ``"invalid"`` (a malformed image, or a zone box that is empty or
    leaves the frame; ``detail`` says which); ``queue_depth`` echoes
    the configured bound.
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

    Attributes
    ----------
    admission_window_ms:
        How long (milliseconds) the broker keeps collecting requests
        into the current wave after the first one arrives.  Default
        2.0 — a couple of milliseconds buys most of the stacking win
        (a stacked pass amortises per-forward overhead) while staying
        far below a frame interval; ``0`` serves every request the
        moment it is dequeued (no batching, lowest latency).
    queue_depth:
        Bound of the admission queue — the *explicit backpressure*
        knob.  A request arriving while ``queue_depth`` requests are
        already waiting is shed with a typed
        :class:`AdmissionRejected` (``reason="queue_full"``) instead
        of queueing unboundedly or being dropped silently.  Default
        64.
    max_wave:
        Cap on requests admitted into one wave, whatever the window
        collects.  Default 32 — matches the joint pass's measured
        chunk sweet spot (``EngineConfig.joint_max_batch``); larger
        waves only grow per-wave latency without stacking better.
    monitor_batching:
        ``EngineConfig.monitor_batching`` for the broker's scheduler
        when it runs single-process: ``"joint"`` (default; episode
        steps share the stacked-pass machinery), ``"shared"`` or
        ``"exact"``.  Ignored when the resolved worker count is > 1 —
        worker sharding requires exact mode, so the broker switches to
        it (zone-check waves always run jointly stacked either way,
        via :meth:`EpisodeScheduler.check_zones_wave`).
    workers:
        Persistent worker processes for the backing scheduler
        (``EngineConfig.workers``).  ``None`` (default) defers to the
        ``REPRO_SERVE_WORKERS`` environment toggle and falls back to
        ``1``; an explicit value always wins.  See
        :attr:`ServeBroker.effective_workers` for the degree actually
        achieved on this platform.
    deadline_ms:
        Per-request deadline in milliseconds on the monotonic clock,
        measured from admission.  ``None`` (default) disables
        deadlines.  A request that cannot be answered in time resolves
        with a typed :class:`~repro.serve.faults.CheckTimedOut` —
        carrying a conservative *reject* verdict for zone checks — so
        a timed-out safety check fails safe, never open and never
        silently.  The deadline is threaded down into
        ``EngineConfig.deadline_ms`` so the pool can kill and replace
        a worker hung on a task.
    breaker_threshold:
        Consecutive pool faults (worker-pool failures or pool-path
        timeouts) that trip the circuit breaker into degraded mode.
        Default 3.
    breaker_cooldown_s:
        Seconds the breaker stays open before a half-open recovery
        probe is allowed back onto the pool path.  Default 30.
    """

    admission_window_ms: float = 2.0
    queue_depth: int = 64
    max_wave: int = 32
    monitor_batching: str = "joint"
    workers: int | None = None
    deadline_ms: float | None = None
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0

    def __post_init__(self):
        if self.admission_window_ms < 0:
            raise ValueError(
                f"admission_window_ms must be >= 0, "
                f"got {self.admission_window_ms}")
        check_positive("queue_depth", self.queue_depth)
        check_positive("max_wave", self.max_wave)
        if self.monitor_batching not in _MONITOR_BATCHING:
            raise ValueError(
                f"monitor_batching must be one of {_MONITOR_BATCHING}, "
                f"got {self.monitor_batching!r}")
        if self.workers is not None:
            check_positive("workers", self.workers)
        if self.deadline_ms is not None:
            check_positive("deadline_ms", self.deadline_ms)
        check_positive("breaker_threshold", self.breaker_threshold)
        check_non_negative("breaker_cooldown_s",
                           self.breaker_cooldown_s)

    def resolved_workers(self) -> int:
        """The worker count after the environment fallback."""
        if self.workers is not None:
            return self.workers
        return serve_workers_default() or 1

    def engine_config(self, base: EngineConfig | None = None) -> EngineConfig:
        """``base`` rewritten for this serve configuration.

        Worker sharding requires ``monitor_batching="exact"`` (the
        engine validates this), so a multi-worker broker always runs
        its scheduler in exact mode; otherwise the broker's
        ``monitor_batching`` choice is applied.
        """
        from dataclasses import replace

        base = base if base is not None else EngineConfig()
        if self.deadline_ms is not None:
            # The pool enforces the same bound per task, so a worker
            # hung on a request is killed instead of outliving it.
            base = replace(base, deadline_ms=self.deadline_ms)
        workers = self.resolved_workers()
        if workers > 1:
            return replace(base, workers=workers,
                           monitor_batching="exact")
        return replace(base, workers=1,
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
            "pool_faults": 0,
            "degraded_waves": 0,
            "breaker_opens": 0,
            "respawns": 0,
            "worker_deaths": 0,
            "tasks_resubmitted": 0,
        }
        self._model = model
        self._config = config
        self._breaker = CircuitBreaker(self.serve.breaker_threshold,
                                       self.serve.breaker_cooldown_s)
        self._fallback: EpisodeScheduler | None = None
        self._queue: asyncio.Queue | None = None
        self._runner: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._accepting = False

    @property
    def breaker_state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"``."""
        return self._breaker.state

    # -- lifecycle -----------------------------------------------------
    @property
    def effective_workers(self) -> int:
        """Worker processes the backing scheduler actually uses."""
        return self.scheduler.effective_workers

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
        if self._fallback is not None:
            self._fallback.close()
        self.scheduler.close()
        self._sync_pool_stats()

    async def __aenter__(self) -> "ServeBroker":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- client surface ------------------------------------------------
    async def check_zone(self, image, box):
        """One zone safety check; resolves to a ``ZoneVerdict``.

        Raises :class:`AdmissionRejected` (typed, immediate) when the
        admission queue is full, the broker is shutting down, or the
        request is invalid (the monitor's own image and box checks).
        """
        try:
            check_image_chw("image", image)
            check_zone_box(image, box)
        except ValueError as exc:
            self.stats["rejected_invalid"] += 1
            raise AdmissionRejected("invalid", self.serve.queue_depth,
                                    detail=str(exc)) from None
        return await self._admit("zone", (image, box))

    async def check_zones(self, image, boxes) -> list:
        """All of one frame's zones, admitted together."""
        return list(await asyncio.gather(
            *(self.check_zone(image, box) for box in boxes)))

    async def run_episode(self, frames, seed=0, name=""):
        """One full episode step; resolves to an ``EpisodeResult``."""
        request = EpisodeRequest(frames=tuple(frames), seed=seed,
                                 name=name)
        return await self._admit("episode", request)

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
        window_s = self.serve.admission_window_ms / 1000.0
        loop = asyncio.get_running_loop()
        draining = False
        while not draining:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                break
            wave = [item]
            deadline = loop.time() + window_s
            while len(wave) < self.serve.max_wave:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(),
                                                 remaining)
                except asyncio.TimeoutError:
                    break
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
            await self._zone_wave(zones, deadline_s)
        if episodes:
            await self._episode_wave(episodes, deadline_s)
        self._sync_pool_stats()

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

    async def _zone_wave(self, zones: list,
                         deadline_s: float | None) -> None:
        items = [p.payload for p in zones]
        try:
            verdicts = await self._call(
                self.scheduler.check_zones_wave, items,
                self._wave_timeout(zones, deadline_s))
        except asyncio.TimeoutError:
            # Inline compute cannot be killed; the wave thread will
            # finish (and its late results are discarded by the done()
            # guards) while the clients fail safe now.
            for p in zones:
                self._timeout(p, scope="wave")
        except Exception as exc:  # noqa: BLE001 - resolves futures
            self.stats["wave_errors"] += 1
            self._fail(zones, exc)
        else:
            self.stats["zone_checks"] += len(zones)
            for p, verdict in zip(zones, verdicts):
                if not p.future.done():
                    p.future.set_result(verdict)

    async def _episode_wave(self, episodes: list,
                            deadline_s: float | None) -> None:
        requests = [p.payload for p in episodes]
        timeout_s = self._wave_timeout(episodes, deadline_s)
        use_pool = self.effective_workers > 1
        degraded = use_pool and not self._breaker.allow()
        if degraded:
            self.stats["degraded_waves"] += 1
        runner = self._fallback_run if degraded else self.scheduler.run
        try:
            out = await self._call(runner, requests, timeout_s)
        except asyncio.TimeoutError:
            if use_pool and not degraded:
                self._pool_fault()
            for p in episodes:
                self._timeout(p, scope="wave")
        except CheckTimedOut as exc:
            # The pool's collect deadline fired: the hung worker was
            # killed and respawned; the wave's requests fail safe.
            if use_pool and not degraded:
                self._pool_fault()
            for p in episodes:
                self._timeout(p, scope=exc.scope)
        except WorkerPoolError:
            # Pool broken past its respawn budget (the scheduler has
            # already torn it down): count the fault, then serve this
            # same wave on the bit-identical inline path — degraded,
            # not dropped.
            self._pool_fault()
            self.stats["degraded_waves"] += 1
            try:
                out = await self._call(self._fallback_run, requests,
                                       timeout_s)
            except asyncio.TimeoutError:
                for p in episodes:
                    self._timeout(p, scope="wave")
            except Exception as exc:  # noqa: BLE001 - resolves futures
                self.stats["wave_errors"] += 1
                self._fail(episodes, exc)
            else:
                self._resolve_episodes(episodes, out)
        except Exception as exc:  # noqa: BLE001 - resolves futures
            self.stats["wave_errors"] += 1
            self._fail(episodes, exc)
        else:
            if use_pool and not degraded:
                self._breaker.record_success()
            self._resolve_episodes(episodes, out)

    def _resolve_episodes(self, episodes: list, out: list) -> None:
        self.stats["episode_steps"] += len(episodes)
        for p, result in zip(episodes, out):
            if not p.future.done():
                p.future.set_result(result)

    def _fallback_run(self, requests):
        """Run one episode wave on the inline (workers=1) path.

        The fallback scheduler shares the model and pipeline config
        and keeps ``monitor_batching="exact"``, so by the engine's
        sharding contract its results are bit-for-bit those the pool
        path would have produced.  Built lazily on first degradation;
        runs on the wave thread.
        """
        if self._fallback is None:
            from dataclasses import replace

            self._fallback = EpisodeScheduler(
                self._model, config=self._config,
                engine=replace(self.scheduler.engine, workers=1))
        return self._fallback.run(requests)

    def _pool_fault(self) -> None:
        self.stats["pool_faults"] += 1
        self._breaker.record_failure()
        self.stats["breaker_opens"] = self._breaker.stats["opens"]

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

    def _sync_pool_stats(self) -> None:
        """Mirror pool supervision counters into the broker ledger."""
        totals = dict(self.scheduler.pool_stats_total)
        pool = self.scheduler._pool
        if pool is not None:
            for key, value in pool.stats.items():
                totals[key] = totals.get(key, 0) + value
        self.stats["respawns"] = totals.get("respawns", 0)
        self.stats["worker_deaths"] = totals.get("worker_deaths", 0)
        self.stats["tasks_resubmitted"] = totals.get("resubmitted", 0)

    @staticmethod
    def _fail(pending: list, exc: BaseException) -> None:
        for p in pending:
            if not p.future.done():
                p.future.set_exception(exc)
