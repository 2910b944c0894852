"""ServeBroker: admission batching, typed backpressure, deadlines.

The backpressure contract under test: a safety check is either served
(its future resolves with a verdict/result), shed at admission with a
*typed* :class:`AdmissionRejected`, or failed safe with a typed
:class:`CheckTimedOut` — never silently dropped, never partially
answered, including across graceful shutdown.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EpisodeRequest,
    EpisodeScheduler,
    LandingPipeline,
)
from repro.serve import (
    AdmissionRejected,
    CheckTimedOut,
    ServeBroker,
    ServeConfig,
)
from repro.utils.geometry import Box


def _boxes(frame, n=4):
    height, width = frame.shape[-2:]
    out = []
    for k in range(n):
        row = (k * 7) % max(height - 16, 1)
        col = (k * 11) % max(width - 16, 1)
        out.append(Box(row, col, 14, 14))
    return out


def _assert_verdicts_equal(a, b):
    assert a.accepted == b.accepted
    assert a.unsafe_fraction == b.unsafe_fraction
    assert np.array_equal(a.distribution.mean, b.distribution.mean)
    assert np.array_equal(a.distribution.std, b.distribution.std)


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="queue_depth"):
            ServeConfig(queue_depth=0)
        with pytest.raises(ValueError, match="max_wave"):
            ServeConfig(max_wave=0)
        with pytest.raises(ValueError, match="monitor_batching"):
            ServeConfig(monitor_batching="turbo")
        with pytest.raises(ValueError, match="deadline_ms"):
            ServeConfig(deadline_ms=0.0)

    def test_engine_config_single_process(self):
        engine = ServeConfig(monitor_batching="shared").engine_config()
        assert engine.monitor_batching == "shared"

    def test_engine_config_preserves_other_knobs(self):
        base = EngineConfig(max_batch=4, joint_max_batch=16)
        engine = ServeConfig().engine_config(base)
        assert engine.max_batch == 4
        assert engine.joint_max_batch == 16

    def test_accepts_boundary_values_and_is_frozen(self):
        from dataclasses import FrozenInstanceError

        serve = ServeConfig(queue_depth=1, max_wave=1, deadline_ms=0.5)
        assert serve.deadline_ms == 0.5
        assert ServeConfig().deadline_ms is None
        with pytest.raises(FrozenInstanceError):
            serve.queue_depth = 2

    def test_engine_knobs_reach_the_scheduler(self, tiny_system):
        broker = ServeBroker(
            tiny_system.model, config=tiny_system.pipeline_config(),
            engine=EngineConfig(max_batch=4, speculative_k=2),
            serve=ServeConfig(monitor_batching="shared"))
        assert broker.scheduler.engine.monitor_batching == "shared"
        assert broker.scheduler.engine.max_batch == 4
        assert broker.scheduler.config.decision.speculative_k == 2


class TestZoneChecks:
    def test_wave_matches_direct_scheduler(self, tiny_system):
        """An admitted wave == one check_zones_wave call, verbatim."""
        frame = tiny_system.test_samples[0].image
        boxes = _boxes(frame, 6)
        config = tiny_system.pipeline_config()
        direct = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching="joint"), rng=0)
        expected = direct.check_zones_wave(
            [(frame, box) for box in boxes])

        async def scenario():
            serve = ServeConfig(max_wave=len(boxes))
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve, rng=0) as broker:
                got = await broker.check_zones(frame, boxes)
            return got, broker.stats

        got, stats = asyncio.run(scenario())
        assert stats["max_wave"] == len(boxes)  # one wave, all stacked
        assert stats["zone_checks"] == len(boxes)
        for a, b in zip(got, expected):
            _assert_verdicts_equal(a, b)

    def test_fixed_trace_is_seed_deterministic(self, tiny_system):
        """Same seed + same request trace -> identical verdicts and
        identical waves: wave composition follows event-loop order,
        not the wall clock."""
        frame = tiny_system.test_samples[0].image
        boxes = _boxes(frame, 5)
        config = tiny_system.pipeline_config()

        def run_trace():
            async def scenario():
                serve = ServeConfig(max_wave=4)
                async with ServeBroker(tiny_system.model,
                                       config=config, serve=serve,
                                       rng=7) as broker:
                    first = await broker.check_zones(frame, boxes)
                    episode = await broker.run_episode([frame], seed=3)
                    second = await broker.check_zones(frame, boxes)
                return first, episode, second, broker.stats

            return asyncio.run(scenario())

        first_a, ep_a, second_a, stats_a = run_trace()
        first_b, ep_b, second_b, stats_b = run_trace()
        assert stats_a["waves"] == stats_b["waves"]
        assert stats_a["max_wave"] == stats_b["max_wave"]
        for a, b in zip(first_a + second_a, first_b + second_b):
            _assert_verdicts_equal(a, b)
        assert len(ep_a.results) == len(ep_b.results)
        for ra, rb in zip(ep_a.results, ep_b.results):
            assert np.array_equal(ra.predicted_labels,
                                  rb.predicted_labels)
            assert ra.decision.action is rb.decision.action


class TestEpisodeSteps:
    def test_exact_mode_bit_for_bit_vs_pipeline(self, tiny_system):
        frame = tiny_system.test_samples[0].image
        config = tiny_system.pipeline_config()
        pipeline = LandingPipeline(tiny_system.model, config, rng=5)
        expected = [pipeline.run(frame), pipeline.run(frame)]

        async def scenario():
            serve = ServeConfig(monitor_batching="exact")
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
                return await broker.run_episode([frame, frame], seed=5)

        episode = asyncio.run(scenario())
        assert len(episode.results) == 2
        for got, ref in zip(episode.results, expected):
            assert np.array_equal(got.predicted_labels,
                                  ref.predicted_labels)
            assert got.decision.action is ref.decision.action
            for va, vb in zip(got.verdicts, ref.verdicts):
                _assert_verdicts_equal(va, vb)

    @pytest.mark.parametrize("mode", ["exact", "joint", "shared"])
    def test_serves_what_its_scheduler_would(self, tiny_system, mode):
        """Whatever the batching mode, an episode step through the
        broker is the backing scheduler's own run, bit for bit."""
        frames = [tiny_system.test_samples[6].image,
                  tiny_system.test_samples[0].image]
        config = tiny_system.pipeline_config()
        (expected,) = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching=mode), rng=2).run(
                [EpisodeRequest(frames=frames, seed=4)])
        assert any(r.verdicts for r in expected.results)

        async def scenario():
            serve = ServeConfig(monitor_batching=mode)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve, rng=2) as broker:
                return await broker.run_episode(frames, seed=4)

        episode = asyncio.run(scenario())
        assert len(episode.results) == len(expected.results)
        for got, ref in zip(episode.results, expected.results):
            assert np.array_equal(got.predicted_labels,
                                  ref.predicted_labels)
            assert got.decision.action is ref.decision.action
            assert len(got.verdicts) == len(ref.verdicts)
            for va, vb in zip(got.verdicts, ref.verdicts):
                _assert_verdicts_equal(va, vb)

    def test_episode_name_round_trips(self, tiny_system):
        frame = tiny_system.test_samples[0].image

        async def scenario():
            async with ServeBroker(
                    tiny_system.model,
                    config=tiny_system.pipeline_config()) as broker:
                return (await broker.run_episode([frame], name="probe"),
                        await broker.run_episode([frame]))

        named, unnamed = asyncio.run(scenario())
        assert named.name == "probe"
        assert unnamed.name == "episode0"


class TestWaves:
    def test_mixed_wave_serves_zones_then_episodes(self, tiny_system):
        """One wave holding both kinds runs its zone checks first and
        its episode steps second, on the one joint RNG stream."""
        frame = tiny_system.test_samples[6].image
        boxes = _boxes(frame, 2)
        config = tiny_system.pipeline_config()
        direct = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching="joint"), rng=5)
        zones = direct.check_zones_wave([(frame, b) for b in boxes])
        (episode,) = direct.run([EpisodeRequest(frames=[frame],
                                                seed=1)])
        assert episode.results[0].verdicts

        async def scenario():
            async with ServeBroker(tiny_system.model, config=config,
                                   rng=5) as broker:
                # The episode is submitted first: order of arrival
                # inside a wave does not matter, the kind does.
                out = await asyncio.gather(
                    broker.run_episode([frame], seed=1),
                    *(broker.check_zone(frame, b) for b in boxes))
            return out, broker.stats

        (got_episode, *got_zones), stats = asyncio.run(scenario())
        assert stats["waves"] == 1
        assert stats["zone_checks"] == 2 and stats["episode_steps"] == 1
        for got, ref in zip(got_zones, zones):
            _assert_verdicts_equal(got, ref)
        for va, vb in zip(got_episode.results[0].verdicts,
                          episode.results[0].verdicts):
            _assert_verdicts_equal(va, vb)

    def test_max_wave_caps_each_wave(self, tiny_system):
        frame = tiny_system.test_samples[0].image
        boxes = _boxes(frame, 5)

        async def scenario():
            serve = ServeConfig(max_wave=2)
            async with ServeBroker(
                    tiny_system.model,
                    config=tiny_system.pipeline_config(),
                    serve=serve) as broker:
                await broker.check_zones(frame, boxes)
            return broker.stats

        stats = asyncio.run(scenario())
        assert stats["max_wave"] == 2
        assert stats["waves"] == 3
        assert stats["zone_checks"] == stats["admitted"] == 5

    def test_wave_closes_when_arrivals_stop(self, tiny_system):
        """A lone request is served within a few loop iterations: its
        wave closes once a drain finds nothing new, not on a timer."""
        frame = tiny_system.test_samples[0].image
        box = _boxes(frame, 1)[0]

        async def scenario():
            async with ServeBroker(
                    tiny_system.model,
                    config=tiny_system.pipeline_config()) as broker:
                pending = asyncio.ensure_future(
                    broker.check_zone(frame, box))
                for _ in range(8):
                    await asyncio.sleep(0)
                waves = broker.stats["waves"]
                await pending
            return waves, broker.stats

        waves, stats = asyncio.run(scenario())
        assert waves == 1
        assert stats["zone_checks"] == stats["admitted"] == 1

    def test_sequential_requests_are_served_alone(self, tiny_system):
        frame = tiny_system.test_samples[0].image
        boxes = _boxes(frame, 3)

        async def scenario():
            async with ServeBroker(
                    tiny_system.model,
                    config=tiny_system.pipeline_config()) as broker:
                for box in boxes:
                    await broker.check_zone(frame, box)
            return broker.stats

        stats = asyncio.run(scenario())
        assert stats["waves"] == 3
        assert stats["max_wave"] == 1
        assert stats["zone_checks"] == 3

    def test_start_is_idempotent(self, tiny_system):
        frame = tiny_system.test_samples[0].image

        async def scenario():
            broker = ServeBroker(tiny_system.model,
                                 config=tiny_system.pipeline_config())
            await broker.start()
            runner = broker._runner
            assert await broker.start() is broker
            assert broker._runner is runner
            await broker.check_zone(frame, _boxes(frame, 1)[0])
            await broker.stop()
            assert not broker.running
            return broker.stats

        stats = asyncio.run(scenario())
        assert stats["zone_checks"] == stats["admitted"] == 1

    @pytest.mark.parametrize("broken", ["zone", "episode"])
    def test_failing_kind_does_not_fail_the_other(self, tiny_system,
                                                  broken):
        """Zone checks and episode steps of one wave run as separate
        passes: one kind's failure resolves only its own futures."""
        frame = tiny_system.test_samples[0].image
        boxes = _boxes(frame, 2)
        attr = "check_zones_wave" if broken == "zone" else "run"

        def fail(items):
            raise RuntimeError(f"{broken} pass failed")

        async def scenario():
            async with ServeBroker(
                    tiny_system.model,
                    config=tiny_system.pipeline_config()) as broker:
                setattr(broker.scheduler, attr, fail)
                out = await asyncio.gather(
                    broker.run_episode([frame], seed=0),
                    *(broker.check_zone(frame, b) for b in boxes),
                    return_exceptions=True)
            return out, broker.stats

        (episode, *zones), stats = asyncio.run(scenario())
        assert stats["waves"] == 1
        assert stats["wave_errors"] == 1
        if broken == "zone":
            assert all(isinstance(z, RuntimeError) for z in zones)
            assert len(episode.results) == 1
            assert stats["episode_steps"] == 1
            assert stats["zone_checks"] == 0
        else:
            assert isinstance(episode, RuntimeError)
            assert all(hasattr(z, "accepted") for z in zones)
            assert stats["zone_checks"] == 2
            assert stats["episode_steps"] == 0


class TestBackpressure:
    def test_queue_full_sheds_with_typed_rejection(self, tiny_system):
        """Overload: every request is either served or rejected with a
        typed reason — the no-silent-drop ledger balances."""
        frame = tiny_system.test_samples[0].image
        box = _boxes(frame, 1)[0]
        config = tiny_system.pipeline_config()
        total = 12

        async def scenario():
            serve = ServeConfig(queue_depth=2, max_wave=1)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
                outcomes = await asyncio.gather(
                    *(broker.check_zone(frame, box)
                      for _ in range(total)),
                    return_exceptions=True)
            return outcomes, broker.stats

        outcomes, stats = asyncio.run(scenario())
        rejected = [o for o in outcomes
                    if isinstance(o, AdmissionRejected)]
        served = [o for o in outcomes
                  if not isinstance(o, BaseException)]
        assert rejected, "overload must shed"
        assert all(o.reason == "queue_full" and o.queue_depth == 2
                   for o in rejected)
        # Nothing dropped, nothing double-counted, no other failures.
        assert len(served) + len(rejected) == total
        assert stats["admitted"] == len(served)
        assert stats["rejected_queue_full"] == len(rejected)
        assert stats["zone_checks"] == len(served)

    def test_graceful_shutdown_drains_in_flight(self, tiny_system):
        """stop() serves everything admitted before it was called."""
        frame = tiny_system.test_samples[0].image
        boxes = _boxes(frame, 4)
        config = tiny_system.pipeline_config()

        async def scenario():
            serve = ServeConfig(max_wave=2)
            broker = await ServeBroker(tiny_system.model,
                                       config=config,
                                       serve=serve).start()
            pending = [asyncio.ensure_future(
                broker.check_zone(frame, box)) for box in boxes]
            await asyncio.sleep(0)  # let the submissions enqueue
            await broker.stop()  # must drain, not cancel
            verdicts = await asyncio.gather(*pending)
            return verdicts, broker.stats, broker

        verdicts, stats, broker = asyncio.run(scenario())
        assert len(verdicts) == len(boxes)
        assert all(hasattr(v, "accepted") for v in verdicts)
        assert stats["zone_checks"] == len(boxes)
        assert stats["admitted"] == len(boxes)

    def test_rejects_after_shutdown_with_typed_reason(self, tiny_system):
        frame = tiny_system.test_samples[0].image
        box = _boxes(frame, 1)[0]
        config = tiny_system.pipeline_config()

        async def scenario():
            broker = ServeBroker(tiny_system.model, config=config)
            async with broker:
                await broker.check_zone(frame, box)
            with pytest.raises(AdmissionRejected) as excinfo:
                await broker.check_zone(frame, box)
            return excinfo.value, broker.stats

        exc, stats = asyncio.run(scenario())
        assert exc.reason == "shutdown"
        assert stats["rejected_shutdown"] == 1

    def test_never_started_broker_rejects(self, tiny_system):
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        box = _boxes(frame, 1)[0]

        async def scenario():
            broker = ServeBroker(tiny_system.model, config=config)
            with pytest.raises(AdmissionRejected) as excinfo:
                await broker.check_zone(frame, box)
            assert excinfo.value.reason == "shutdown"
            await broker.stop()  # no-op, must not raise

        asyncio.run(scenario())

    def test_invalid_requests_shed_before_admission(self, tiny_system):
        """A malformed image or a box that leaves the frame is shed with
        a typed ``"invalid"`` rejection and never joins a wave, so the
        valid checks submitted alongside it are all served."""
        frame = tiny_system.test_samples[0].image
        height, width = frame.shape[-2:]
        good = _boxes(frame, 3)
        bad = [(frame, Box(-6, -6, 12, 12)),
               (frame, Box(height - 6, width - 8, 12, 12)),
               (frame, Box(2, 2, 0, 5)),
               (np.zeros((7, 5, 5), dtype=np.float32), Box(0, 0, 4, 4))]
        config = tiny_system.pipeline_config()

        async def scenario():
            async with ServeBroker(tiny_system.model,
                                   config=config) as broker:
                outcomes = await asyncio.gather(
                    *(broker.check_zone(image, box)
                      for image, box in [(frame, good[0])] + bad
                      + [(frame, b) for b in good[1:]]),
                    return_exceptions=True)
            return outcomes, broker.stats

        outcomes, stats = asyncio.run(scenario())
        shed = outcomes[1:1 + len(bad)]
        served = [outcomes[0]] + outcomes[1 + len(bad):]
        assert all(isinstance(o, AdmissionRejected)
                   and o.reason == "invalid" for o in shed)
        assert all(hasattr(v, "accepted") for v in served)
        assert stats["rejected_invalid"] == len(bad)
        assert stats["admitted"] == stats["zone_checks"] == len(good)
        assert stats["wave_errors"] == 0

    def test_wave_error_resolves_every_future(self, tiny_system,
                                              monkeypatch):
        """A failing wave fails its members' futures — it never leaves
        an admitted check unanswered."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image

        def broken_wave(items):
            raise RuntimeError("wave failed")

        async def scenario():
            async with ServeBroker(tiny_system.model,
                                   config=config) as broker:
                monkeypatch.setattr(broker.scheduler, "check_zones_wave",
                                    broken_wave)
                outcomes = await asyncio.gather(
                    *(broker.check_zone(frame, box)
                      for box in _boxes(frame, 3)),
                    return_exceptions=True)
            return outcomes, broker.stats

        outcomes, stats = asyncio.run(scenario())
        assert len(outcomes) == 3
        assert all(isinstance(o, Exception) and
                   not isinstance(o, AdmissionRejected)
                   for o in outcomes)
        assert stats["wave_errors"] >= 1


class TestInvalidDetail:
    def test_integer_frames_are_shed_as_invalid(self, tiny_system):
        frame = tiny_system.test_samples[0].image
        as_bytes = (frame * 255).astype(np.uint8)

        async def scenario():
            async with ServeBroker(
                    tiny_system.model,
                    config=tiny_system.pipeline_config()) as broker:
                out = await asyncio.gather(
                    broker.check_zone(as_bytes, _boxes(frame, 1)[0]),
                    broker.run_episode([frame, as_bytes]),
                    return_exceptions=True)
            return out, broker.stats

        out, stats = asyncio.run(scenario())
        assert all(isinstance(o, AdmissionRejected)
                   and o.reason == "invalid" for o in out)
        assert "float" in str(out[0]) and "frames[1]" in str(out[1])
        assert stats["rejected_invalid"] == 2
        assert stats["admitted"] == 0

    def test_rejection_says_why(self, tiny_system):
        """The typed rejection carries the validation message, so a
        client can tell a bad box from a frame the model cannot see."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image

        async def scenario():
            serve = ServeConfig(queue_depth=5)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
                out = []
                for image, box in [
                        (frame, Box(40, 60, 12, 12)),
                        (np.zeros((3, 2, 2), np.float32),
                         Box(0, 0, 2, 2))]:
                    with pytest.raises(AdmissionRejected) as excinfo:
                        await broker.check_zone(image, box)
                    out.append(excinfo.value)
                with pytest.raises(AdmissionRejected) as excinfo:
                    await broker.run_episode(
                        [np.zeros((3, 6, 6), np.float32)])
                out.append(excinfo.value)
            return out

        box_exc, tiny_exc, episode_exc = asyncio.run(scenario())
        for exc in (box_exc, tiny_exc, episode_exc):
            assert exc.reason == "invalid"
            assert exc.queue_depth == 5
        assert "not inside" in str(box_exc)
        assert "stride 4" in str(tiny_exc)
        assert "frames[0] is 6x6" in str(episode_exc)


class TestShedWhatTheWaveCannotServe:
    """A request its wave could not serve is shed typed at admission,
    so it never fails the requests batched with it."""

    @pytest.mark.parametrize("shape,box", [
        ((3, 2, 2), Box(0, 0, 2, 2)),     # both sides under the stride
        ((3, 3, 40), Box(0, 4, 3, 12)),   # height under the stride
    ])
    def test_zone_frame_smaller_than_stride(self, tiny_system, shape,
                                            box):
        frame = tiny_system.test_samples[0].image
        good = _boxes(frame, 2)
        tiny = np.zeros(shape, dtype=np.float32)
        config = tiny_system.pipeline_config()
        expected = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching="joint"),
            rng=0).check_zones_wave([(frame, b) for b in good])

        async def scenario():
            async with ServeBroker(tiny_system.model, config=config,
                                   rng=0) as broker:
                outcomes = await asyncio.gather(
                    broker.check_zone(frame, good[0]),
                    broker.check_zone(tiny, box),
                    broker.check_zone(frame, good[1]),
                    return_exceptions=True)
            return outcomes, broker.stats

        outcomes, stats = asyncio.run(scenario())
        assert isinstance(outcomes[1], AdmissionRejected)
        assert outcomes[1].reason == "invalid"
        for got, ref in zip([outcomes[0], outcomes[2]], expected):
            _assert_verdicts_equal(got, ref)
        assert stats["rejected_invalid"] == 1
        assert stats["wave_errors"] == 0
        assert stats["admitted"] == stats["zone_checks"] == 2

    @pytest.mark.parametrize("shape", [
        (3, 6, 6),   # sides not multiples of the stride
        (3, 5, 7),
        (1, 8, 8),   # not a CHW colour frame
    ])
    def test_episode_frame_segmentation_cannot_run(self, tiny_system,
                                                   shape):
        frame = tiny_system.test_samples[0].image
        bad = np.zeros(shape, dtype=np.float32)
        config = tiny_system.pipeline_config()
        expected = LandingPipeline(tiny_system.model, config,
                                   rng=1).run(frame)

        async def scenario():
            serve = ServeConfig(monitor_batching="exact")
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
                outcomes = await asyncio.gather(
                    broker.run_episode([frame], seed=1),
                    broker.run_episode([bad], seed=2),
                    return_exceptions=True)
            return outcomes, broker.stats

        (episode, rejected), stats = asyncio.run(scenario())
        assert isinstance(rejected, AdmissionRejected)
        assert rejected.reason == "invalid"
        (got,) = episode.results
        assert np.array_equal(got.predicted_labels,
                              expected.predicted_labels)
        assert got.decision.action is expected.decision.action
        assert len(got.verdicts) == len(expected.verdicts)
        for va, vb in zip(got.verdicts, expected.verdicts):
            _assert_verdicts_equal(va, vb)
        assert stats["rejected_invalid"] == 1
        assert stats["wave_errors"] == 0
        assert stats["admitted"] == stats["episode_steps"] == 1


class TestDeadlines:
    def test_broker_zone_deadline_is_conservative_reject(
            self, tiny_system):
        """A zone check that misses its deadline fails SAFE: the typed
        exception carries a reject verdict, never an accept."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        box = Box(2, 2, 10, 10)

        async def scenario():
            serve = ServeConfig(deadline_ms=200.0)
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
        assert exc.scope == "wave"
        assert exc.verdict is not None
        assert exc.verdict.accepted is False
        assert exc.verdict.unsafe_fraction == 1.0
        assert exc.verdict.num_samples == 0  # a refusal, not a sample
        assert stats["timed_out"] == 1
        assert stats["zone_checks"] == 0
        assert stats["admitted"] == 1  # ledger: admitted == timed out

    def test_broker_episode_deadline_is_typed(self, tiny_system):
        """An episode step whose inline wave overruns its deadline
        resolves typed, with no partial result."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image

        async def scenario():
            serve = ServeConfig(deadline_ms=200.0)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
                original = broker.scheduler.run

                def wedged(requests):
                    time.sleep(0.8)
                    return original(requests)

                broker.scheduler.run = wedged
                with pytest.raises(CheckTimedOut) as excinfo:
                    await broker.run_episode([frame], seed=0)
            return excinfo.value, broker.stats

        exc, stats = asyncio.run(scenario())
        assert exc.scope == "wave"
        assert exc.verdict is None
        assert stats["timed_out"] == 1
        assert stats["episode_steps"] == 0
        assert stats["admitted"] == 1

    def test_request_expired_in_queue_costs_no_compute(self,
                                                       tiny_system):
        """A loop stalled past the deadline while both kinds wait in
        the queue expires them before their wave is assembled: typed
        with scope "admission", fail safe, and no pass is ever run."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        box = Box(2, 2, 10, 10)
        calls = []

        async def scenario():
            serve = ServeConfig(deadline_ms=20.0)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
                broker.scheduler.check_zones_wave = calls.append
                broker.scheduler.run = calls.append
                pending = [
                    asyncio.ensure_future(broker.check_zone(frame, box)),
                    asyncio.ensure_future(
                        broker.run_episode([frame], seed=0))]
                await asyncio.sleep(0)  # both admitted, not yet served
                time.sleep(0.05)  # stall the loop past the deadline
                out = await asyncio.gather(*pending,
                                           return_exceptions=True)
            return out, broker.stats

        (zone, episode), stats = asyncio.run(scenario())
        assert calls == []
        assert isinstance(zone, CheckTimedOut)
        assert zone.scope == "admission"
        assert zone.verdict.accepted is False
        assert zone.verdict.box == box
        assert isinstance(episode, CheckTimedOut)
        assert episode.scope == "admission"
        assert episode.verdict is None
        assert stats["timed_out"] == stats["admitted"] == 2
        assert stats["zone_checks"] == stats["episode_steps"] == 0

    def test_deadline_met_serves_the_same_answer(self, tiny_system):
        """A generous deadline changes nothing about the answer."""
        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[6].image
        boxes = _boxes(frame, 3)

        def serve_with(deadline_ms):
            async def scenario():
                serve = ServeConfig(deadline_ms=deadline_ms)
                async with ServeBroker(tiny_system.model,
                                       config=config, serve=serve,
                                       rng=3) as broker:
                    zones = await broker.check_zones(frame, boxes)
                    episode = await broker.run_episode([frame], seed=2)
                return zones, episode, broker.stats

            return asyncio.run(scenario())

        zones, episode, stats = serve_with(60_000.0)
        ref_zones, ref_episode, _ = serve_with(None)
        assert stats["timed_out"] == 0
        assert stats["zone_checks"] == 3 and stats["episode_steps"] == 1
        for got, ref in zip(zones, ref_zones):
            _assert_verdicts_equal(got, ref)
        (got,), (ref,) = episode.results, ref_episode.results
        assert got.decision.action is ref.decision.action
        for va, vb in zip(got.verdicts, ref.verdicts):
            _assert_verdicts_equal(va, vb)
