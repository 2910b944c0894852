"""Chaos suite: the supervision/deadline/degradation claims, proven.

Every fault the serving layer says it tolerates is injected here
deterministically (:mod:`repro.serve.chaos`) and checked against the
extended no-silent-drop ledger:

* a SIGKILLed worker is respawned and its task re-executed from its
  shipped RNG state — results **bit-for-bit identical** to the
  fault-free run;
* a hung task is killed at the collect deadline and surfaces as a
  typed :class:`CheckTimedOut` (conservative reject for zone checks —
  fail safe, never open);
* a torn ring ticket is a typed task failure with its (real) ticket
  reclaimed — the regression target is the pre-supervision leak where
  a dead worker's slot was never recycled;
* a pool broken past its respawn budget degrades onto the
  bit-identical inline path via the circuit breaker, and recovers
  through a half-open probe;
* ``close()`` escalates join -> terminate -> kill, so even a worker
  ignoring SIGTERM cannot wedge shutdown.
"""

import asyncio
import time
import warnings

import numpy as np
import pytest

from repro.core import EngineConfig, EpisodeScheduler, LandingPipeline
from repro.scenarios import scenario_sweep
from repro.serve import (
    CheckTimedOut,
    PersistentWorkerPool,
    ServeBroker,
    ServeConfig,
    WorkerPoolError,
    fork_available,
)
from repro.serve.chaos import ChaosError, FaultPlan, FaultSpec, arm, \
    fork_unavailable
from repro.utils.geometry import Box
from repro.utils.rng import ensure_rng

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="persistent pool requires fork")


def _episodes(system, num=1, frames=2):
    return [
        spec.with_camera(system.config.dataset.image_shape)
        .episode_request(i, num_frames=frames)
        for spec in scenario_sweep("day_nominal", "sunset_ood")
        for i in range(num)
    ]


def _assert_results_equal(a, b):
    assert np.array_equal(a.predicted_labels, b.predicted_labels)
    assert a.decision.action is b.decision.action
    assert len(a.verdicts) == len(b.verdicts)
    for va, vb in zip(a.verdicts, b.verdicts):
        assert va.accepted == vb.accepted
        assert np.array_equal(va.distribution.mean, vb.distribution.mean)
        assert np.array_equal(va.distribution.std, vb.distribution.std)


def _assert_episodes_equal(got, expected):
    assert len(got) == len(expected)
    for ep_a, ep_b in zip(got, expected):
        assert len(ep_a.results) == len(ep_b.results)
        for ra, rb in zip(ep_a.results, ep_b.results):
            _assert_results_equal(ra, rb)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("explode")
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec("kill_worker", at_task=-1)
        with pytest.raises(ValueError, match="hang_s"):
            FaultSpec("hang_task", hang_s=0.0)

    def test_trigger_matching(self):
        plan = FaultPlan.kill_worker(worker=1, at_task=2)
        assert plan.fault_for(1, 0, 2) is not None
        assert plan.fault_for(0, 0, 2) is None  # other worker
        assert plan.fault_for(1, 1, 2) is None  # respawned incarnation
        assert plan.fault_for(1, 0, 1) is None  # earlier task
        assert plan.corrupts_submit(0) is False

    def test_storm_is_seeded(self):
        a = FaultPlan.storm(seed=7, workers=2, kills=3)
        b = FaultPlan.storm(seed=7, workers=2, kills=3)
        assert a == b
        assert len(a.specs) == 3
        assert sorted(s.incarnation for s in a.specs) == [0, 1, 2]

    def test_raise_error_spec_is_typed(self, tiny_system):
        """An injected task error propagates as the usual typed
        worker-task failure, pool intact."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        plan = FaultPlan(specs=(FaultSpec("raise_error"),))
        with PersistentWorkerPool(tiny_system.model, config,
                                  EngineConfig(), workers=1,
                                  fault_plan=plan) as pool:
            pool.submit(0, frame, ensure_rng(0).bit_generator.state)
            with pytest.raises(RuntimeError, match="failed in worker"):
                pool.collect(1)
            assert pool._ring.in_flight == 0


class TestWorkerKillRecovery:
    def test_kill_mid_episode_is_bit_for_bit(self, tiny_system):
        """The headline claim: SIGKILL a worker mid-episode; the
        respawned worker re-executes the lost task from its shipped
        RNG state and the run equals the fault-free run bit for bit."""
        config = tiny_system.pipeline_config()
        episodes = _episodes(tiny_system, num=2, frames=2)
        expected = EpisodeScheduler(tiny_system.model, config).run(
            episodes)

        with EpisodeScheduler(
                tiny_system.model, config,
                engine=EngineConfig(workers=2)) as sched:
            arm(sched, FaultPlan.kill_worker(worker=0, at_task=0))
            got = sched.run(episodes)
            pool = sched._pool
            assert pool.stats["worker_deaths"] >= 1
            assert pool.stats["respawns"] >= 1
            assert pool.stats["resubmitted"] >= 1
            assert pool._ring.in_flight == 0  # ledger balanced
        _assert_episodes_equal(got, expected)

    def test_ticket_reclaimed_when_budget_exhausted(self, tiny_system):
        """Regression: a dead worker's ring ticket used to leak
        forever, pushing every later frame onto the overflow path.
        With the budget at 0 the pool gives up typed — but reclaims
        every in-flight ticket first."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        plan = FaultPlan.kill_worker(worker=0, at_task=0)
        with PersistentWorkerPool(tiny_system.model, config,
                                  EngineConfig(), workers=1,
                                  max_respawns=0,
                                  fault_plan=plan) as pool:
            pool.submit(0, frame, ensure_rng(0).bit_generator.state)
            with pytest.raises(WorkerPoolError,
                               match="respawn_budget_exhausted"):
                pool.collect(1)
            assert pool._ring.in_flight == 0
            assert pool.stats["tickets_reclaimed"] >= 1
            # The broken pool refuses new work, typed.
            with pytest.raises(WorkerPoolError):
                pool.submit(1, frame,
                            ensure_rng(0).bit_generator.state)

    def test_fork_unavailable_degrades_inline(self, tiny_system):
        """The chaos fork-unavailable context: a sharded scheduler
        warns and serves inline, results unchanged."""
        config = tiny_system.pipeline_config()
        episodes = _episodes(tiny_system, num=1, frames=1)
        expected = EpisodeScheduler(tiny_system.model, config).run(
            episodes)
        with fork_unavailable():
            with EpisodeScheduler(
                    tiny_system.model, config,
                    engine=EngineConfig(workers=2)) as sched:
                assert sched.effective_workers == 1
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got = sched.run(episodes)
        _assert_episodes_equal(got, expected)


class TestDeadlines:
    def test_hung_task_killed_and_typed_at_collect_deadline(
            self, tiny_system):
        """A hung worker is identified via its current-task slot,
        killed, and replaced; the task fails typed — and the pool
        keeps serving afterwards."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        expected = LandingPipeline(tiny_system.model, config,
                                   rng=0).run(frame)
        plan = FaultPlan.hang_task(worker=0, at_task=0, hang_s=8.0)
        with PersistentWorkerPool(tiny_system.model, config,
                                  EngineConfig(), workers=1,
                                  max_respawns=2,
                                  fault_plan=plan) as pool:
            state = ensure_rng(0).bit_generator.state
            pool.submit(0, frame, state)
            start = time.monotonic()
            with pytest.raises(CheckTimedOut) as excinfo:
                pool.collect(1, deadline_s=0.3)
            assert time.monotonic() - start < 5.0
            assert excinfo.value.scope == "task"
            assert pool.stats["tasks_timed_out"] == 1
            assert pool.stats["respawns"] == 1
            assert pool._ring.in_flight == 0
            # The respawned worker (incarnation 1: no fault) serves.
            pool.submit(1, frame, ensure_rng(0).bit_generator.state)
            ((index, result, _),) = pool.collect(1, deadline_s=5.0)
            assert index == 1
            _assert_results_equal(result, expected)

    def test_broker_zone_deadline_is_conservative_reject(
            self, tiny_system):
        """A zone check that misses its deadline fails SAFE: the typed
        exception carries a reject verdict, never an accept."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        box = Box(2, 2, 10, 10)

        async def scenario():
            serve = ServeConfig(deadline_ms=200.0,
                                admission_window_ms=0.0)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
                original = broker.scheduler.check_zones_wave

                def wedged(items):
                    time.sleep(0.8)
                    return original(items)

                broker.scheduler.check_zones_wave = wedged
                with pytest.raises(CheckTimedOut) as excinfo:
                    await broker.check_zone(frame, box)
            return excinfo.value, broker.stats

        exc, stats = asyncio.run(scenario())
        assert exc.verdict is not None
        assert exc.verdict.accepted is False
        assert exc.verdict.unsafe_fraction == 1.0
        assert exc.verdict.num_samples == 0  # a refusal, not a sample
        assert stats["timed_out"] == 1
        assert stats["zone_checks"] == 0
        assert stats["admitted"] == 1  # ledger: admitted == timed out

    def test_broker_episode_deadline_typed_through_pool(
            self, tiny_system):
        """deadline_ms threads broker -> engine -> pool: a hang in a
        worker resolves the client typed, the hung worker is killed."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image

        async def scenario():
            serve = ServeConfig(workers=2, deadline_ms=300.0,
                                admission_window_ms=0.0)
            broker = ServeBroker(tiny_system.model, config=config,
                                 serve=serve)
            assert broker.scheduler.engine.deadline_ms == 300.0
            # Both workers hang so the wave times out deterministically
            # whichever worker picks the task.
            arm(broker, FaultPlan(specs=(
                FaultSpec("hang_task", worker=0, at_task=0,
                          hang_s=8.0),
                FaultSpec("hang_task", worker=1, at_task=0,
                          hang_s=8.0))))
            async with broker:
                with pytest.raises(CheckTimedOut):
                    await broker.run_episode([frame], seed=0)
            return broker.stats

        stats = asyncio.run(scenario())
        assert stats["timed_out"] == 1
        assert stats["pool_faults"] == 1
        assert stats["admitted"] == 1


class TestCorruptTicket:
    def test_torn_ticket_is_typed_and_leak_free(self, tiny_system):
        """A corrupted shared-memory handoff fails the task typed; the
        real ticket is reclaimed and the pool keeps serving."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        expected = LandingPipeline(tiny_system.model, config,
                                   rng=0).run(frame)
        plan = FaultPlan.corrupt_ticket(at_submit=0)
        with PersistentWorkerPool(tiny_system.model, config,
                                  EngineConfig(), workers=1,
                                  fault_plan=plan) as pool:
            pool.submit(0, frame, ensure_rng(0).bit_generator.state)
            with pytest.raises(RuntimeError, match="failed in worker"):
                pool.collect(1)
            assert pool._ring.in_flight == 0  # no leaked slot
            assert pool.stats["worker_deaths"] == 0  # worker survived
            pool.submit(1, frame, ensure_rng(0).bit_generator.state)
            ((_, result, _),) = pool.collect(1)
            _assert_results_equal(result, expected)


class TestDegradedMode:
    def test_pool_fault_served_inline_then_breaker_opens(
            self, tiny_system):
        """A wave that loses its pool is re-run on the bit-identical
        inline path (degraded, not dropped); after breaker_threshold
        consecutive faults the pool path is bypassed entirely."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        reference = EpisodeScheduler(tiny_system.model, config).run(
            [_request(frame, seed) for seed in (0, 1)])

        async def scenario():
            serve = ServeConfig(workers=2, breaker_threshold=1,
                                admission_window_ms=0.0)
            broker = ServeBroker(tiny_system.model, config=config,
                                 engine=EngineConfig(max_respawns=0),
                                 serve=serve)
            # Arm both workers so the kill lands whichever one picks
            # the wave's task.
            arm(broker, FaultPlan(specs=(
                FaultSpec("kill_worker", worker=0, at_task=0),
                FaultSpec("kill_worker", worker=1, at_task=0))))
            async with broker:
                first = await broker.run_episode([frame, frame],
                                                 seed=0)
                state_after_fault = broker.breaker_state
                second = await broker.run_episode([frame, frame],
                                                  seed=1)
            return first, second, state_after_fault, broker.stats

        first, second, state_after_fault, stats = asyncio.run(
            scenario())
        assert state_after_fault == "open"
        assert stats["pool_faults"] >= 1
        assert stats["degraded_waves"] >= 2  # faulted wave + open wave
        assert stats["breaker_opens"] == 1
        assert stats["worker_deaths"] >= 1
        # Ledger: everything admitted was served, nothing dropped.
        assert stats["admitted"] == stats["episode_steps"] == 2
        _assert_episodes_equal([first, second], reference)

    def test_half_open_probe_recovers_pool_path(self, tiny_system):
        """After the cooldown, one probe re-forks a fresh pool and a
        success closes the breaker."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image

        async def scenario():
            serve = ServeConfig(workers=2, breaker_threshold=1,
                                breaker_cooldown_s=0.2,
                                admission_window_ms=0.0)
            broker = ServeBroker(tiny_system.model, config=config,
                                 engine=EngineConfig(max_respawns=0),
                                 serve=serve)
            arm(broker, FaultPlan(specs=(
                FaultSpec("kill_worker", worker=0, at_task=0),
                FaultSpec("kill_worker", worker=1, at_task=0))))
            async with broker:
                await broker.run_episode([frame], seed=0)  # fault
                opened = broker.breaker_state
                arm(broker, None)  # the "outage" ends
                await asyncio.sleep(0.25)  # cooldown elapses
                await broker.run_episode([frame], seed=1)  # probe
                closed = broker.breaker_state
            return opened, closed, broker.stats

        opened, closed, stats = asyncio.run(scenario())
        assert opened == "open"
        assert closed == "closed"
        assert stats["pool_faults"] == 1
        assert stats["admitted"] == stats["episode_steps"] == 2

    def test_fault_storm_ledger_and_bitparity(self, tiny_system):
        """Sustained kills from a seeded storm plan: every admitted
        episode step is served, bit-for-bit, zero silent drops."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        seeds = list(range(4))
        reference = EpisodeScheduler(tiny_system.model, config).run(
            [_request(frame, seed) for seed in seeds])

        async def scenario():
            serve = ServeConfig(workers=2, admission_window_ms=5.0)
            broker = ServeBroker(tiny_system.model, config=config,
                                 engine=EngineConfig(max_respawns=8),
                                 serve=serve)
            arm(broker, FaultPlan.storm(seed=0, workers=2, kills=2,
                                        tasks_per_worker=2))
            async with broker:
                out = await asyncio.gather(
                    *(broker.run_episode([frame, frame], seed=seed)
                      for seed in seeds))
            return out, broker.stats

        out, stats = asyncio.run(scenario())
        assert stats["admitted"] == stats["episode_steps"] == len(seeds)
        assert stats["timed_out"] == 0
        _assert_episodes_equal(out, reference)


def _request(frame, seed):
    from repro.core.engine import EpisodeRequest

    return EpisodeRequest(frames=(frame, frame), seed=seed,
                          name=f"ep{seed}")


class TestCloseEscalation:
    def test_close_kills_uninterruptible_worker(self, tiny_system):
        """A worker ignoring SIGTERM cannot wedge close(): the ladder
        escalates join -> terminate -> kill within bounded time."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        plan = FaultPlan.hang_task(worker=0, at_task=0, hang_s=30.0,
                                   uninterruptible=True)
        pool = PersistentWorkerPool(tiny_system.model, config,
                                    EngineConfig(), workers=1,
                                    fault_plan=plan,
                                    join_timeout_s=0.2)
        pool.submit(0, frame, ensure_rng(0).bit_generator.state)
        assert pool._assigned[0] == 0  # dispatched immediately
        # Give the worker time to enter the hang (and install its
        # SIGTERM ignore); if it has not yet, terminate() wins at the
        # first rung and close() is bounded either way.
        time.sleep(0.5)
        start = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - start
        assert elapsed < 5.0  # bounded, not hang_s
        assert all(not p.is_alive() for p in pool._procs)
        assert pool.stats["tickets_reclaimed"] == 1
