"""ServeBroker: admission batching, typed backpressure, determinism.

The backpressure contract under test: a safety check is either served
(its future resolves with a verdict/result) or shed at admission with
a *typed* :class:`AdmissionRejected` — never silently dropped, never
partially answered, including across graceful shutdown.
"""

import asyncio

import numpy as np
import pytest

from repro.core import EngineConfig, EpisodeScheduler, LandingPipeline
from repro.serve import AdmissionRejected, ServeBroker, ServeConfig
from repro.serve.broker import serve_workers_default
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
        with pytest.raises(ValueError, match="admission_window_ms"):
            ServeConfig(admission_window_ms=-1.0)
        with pytest.raises(ValueError, match="queue_depth"):
            ServeConfig(queue_depth=0)
        with pytest.raises(ValueError, match="max_wave"):
            ServeConfig(max_wave=0)
        with pytest.raises(ValueError, match="monitor_batching"):
            ServeConfig(monitor_batching="turbo")
        with pytest.raises(ValueError, match="workers"):
            ServeConfig(workers=0)

    def test_engine_config_single_process(self):
        engine = ServeConfig(monitor_batching="shared",
                             workers=1).engine_config()
        assert engine.workers == 1
        assert engine.monitor_batching == "shared"

    def test_engine_config_workers_force_exact(self):
        engine = ServeConfig(monitor_batching="joint",
                             workers=3).engine_config()
        assert engine.workers == 3
        assert engine.monitor_batching == "exact"

    def test_engine_config_preserves_other_knobs(self):
        base = EngineConfig(max_batch=4, joint_max_batch=16)
        engine = ServeConfig().engine_config(base)
        assert engine.max_batch == 4
        assert engine.joint_max_batch == 16

    def test_workers_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_WORKERS", raising=False)
        assert serve_workers_default() is None
        assert ServeConfig().resolved_workers() == 1
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "2")
        assert serve_workers_default() == 2
        assert ServeConfig().resolved_workers() == 2
        # An explicit choice always wins over the environment.
        assert ServeConfig(workers=1).resolved_workers() == 1
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_SERVE_WORKERS"):
            serve_workers_default()


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
            serve = ServeConfig(admission_window_ms=200.0,
                                max_wave=len(boxes))
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
        """Same seed + same request trace -> identical verdicts."""
        frame = tiny_system.test_samples[0].image
        boxes = _boxes(frame, 5)
        config = tiny_system.pipeline_config()

        def run_trace():
            async def scenario():
                serve = ServeConfig(admission_window_ms=200.0,
                                    max_wave=4)
                async with ServeBroker(tiny_system.model,
                                       config=config, serve=serve,
                                       rng=7) as broker:
                    first = await broker.check_zones(frame, boxes)
                    episode = await broker.run_episode([frame], seed=3)
                    second = await broker.check_zones(frame, boxes)
                return first, episode, second

            return asyncio.run(scenario())

        first_a, ep_a, second_a = run_trace()
        first_b, ep_b, second_b = run_trace()
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

    def test_sharded_broker_serves_identically(self, tiny_system):
        """workers=2 behind the broker: same answers, sharded engine."""
        from repro.serve.pool import fork_available

        if not fork_available():
            pytest.skip("requires fork")
        frame = tiny_system.test_samples[0].image
        config = tiny_system.pipeline_config()
        pipeline = LandingPipeline(tiny_system.model, config, rng=5)
        expected = [pipeline.run(frame)]

        async def scenario():
            serve = ServeConfig(workers=2)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
                assert broker.effective_workers == 2
                assert broker.scheduler.engine.monitor_batching == \
                    "exact"
                return await broker.run_episode([frame], seed=5)

        episode = asyncio.run(scenario())
        for got, ref in zip(episode.results, expected):
            assert np.array_equal(got.predicted_labels,
                                  ref.predicted_labels)
            for va, vb in zip(got.verdicts, ref.verdicts):
                _assert_verdicts_equal(va, vb)


class TestBackpressure:
    def test_queue_full_sheds_with_typed_rejection(self, tiny_system):
        """Overload: every request is either served or rejected with a
        typed reason — the no-silent-drop ledger balances."""
        frame = tiny_system.test_samples[0].image
        box = _boxes(frame, 1)[0]
        config = tiny_system.pipeline_config()
        total = 12

        async def scenario():
            serve = ServeConfig(queue_depth=2, max_wave=1,
                                admission_window_ms=0.0)
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
            serve = ServeConfig(admission_window_ms=500.0, max_wave=2)
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
            serve = ServeConfig(admission_window_ms=100.0)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
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
            serve = ServeConfig(admission_window_ms=100.0)
            async with ServeBroker(tiny_system.model, config=config,
                                   serve=serve) as broker:
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
