"""Tests for the streaming episode engine (EpisodeScheduler).

The load-bearing contract: with the default exact mode the engine is
*bit-for-bit* identical to the status quo — one ``LandingPipeline.run``
call per frame per episode, each episode on its own seeded monitor RNG
stream.
"""

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EpisodeRequest,
    EpisodeScheduler,
    LandingPipeline,
)
from repro.scenarios import scenario_sweep

SCENARIOS = ("day_nominal", "sunset_ood", "motor_failure_descent")


def _episodes(system, num=1, frames=2):
    return [
        spec.with_camera(system.config.dataset.image_shape)
        .episode_request(i, num_frames=frames)
        for spec in scenario_sweep(*SCENARIOS)
        for i in range(num)
    ]


def _sequential(system, config, episodes):
    out = []
    for ep in episodes:
        pipeline = LandingPipeline(system.model, config, rng=ep.seed)
        out.append([pipeline.run(frame) for frame in ep.frames])
    return out


def _assert_results_equal(a, b):
    assert np.array_equal(a.predicted_labels, b.predicted_labels)
    assert a.decision.action is b.decision.action
    assert a.decision.attempts == b.decision.attempts
    assert a.decision.log == b.decision.log
    assert len(a.verdicts) == len(b.verdicts)
    for va, vb in zip(a.verdicts, b.verdicts):
        assert va.accepted == vb.accepted
        assert va.unsafe_fraction == vb.unsafe_fraction
        assert np.array_equal(va.distribution.mean, vb.distribution.mean)
        assert np.array_equal(va.distribution.std, vb.distribution.std)


class TestExactMode:
    def test_bit_for_bit_vs_sequential_loop(self, tiny_system):
        episodes = _episodes(tiny_system)
        config = tiny_system.pipeline_config()
        reference = _sequential(tiny_system, config, episodes)
        out = EpisodeScheduler(tiny_system.model, config).run(episodes)
        assert [e.name for e in out] == [ep.name for ep in episodes]
        for engine_ep, ref_ep in zip(out, reference):
            assert len(engine_ep.results) == len(ref_ep)
            for a, b in zip(engine_ep.results, ref_ep):
                _assert_results_equal(a, b)

    def test_run_frames_matches_per_frame_run_loop(self, tiny_system):
        """``run_frames`` (one batched core segmentation) is bit-identical
        to the per-frame ``LandingPipeline.run`` loop on the same seed."""
        images = [s.image for s in tiny_system.test_samples[:3]]
        streamed = tiny_system.make_scheduler().run_frames(images,
                                                           seed=0)
        loop_pipeline = tiny_system.make_pipeline(rng=0)
        looped = [loop_pipeline.run(im) for im in images]
        assert len(streamed) == len(looped)
        for a, b in zip(streamed, looped):
            _assert_results_equal(a, b)

    def test_mixed_camera_shapes_in_one_run(self, tiny_system):
        specs = scenario_sweep("day_nominal", "sunset_ood")
        episodes = [
            specs[0].with_camera((48, 64)).episode_request(0, 2),
            specs[1].with_camera((32, 48)).episode_request(0, 2),
        ]
        config = tiny_system.pipeline_config()
        reference = _sequential(tiny_system, config, episodes)
        out = EpisodeScheduler(tiny_system.model, config).run(episodes)
        for engine_ep, ref_ep in zip(out, reference):
            for a, b in zip(engine_ep.results, ref_ep):
                _assert_results_equal(a, b)

    def test_unmonitored_episodes(self, tiny_system):
        episodes = _episodes(tiny_system)
        config = tiny_system.pipeline_config(monitor_enabled=False)
        reference = _sequential(tiny_system, config, episodes)
        out = EpisodeScheduler(tiny_system.model, config).run(episodes)
        for engine_ep, ref_ep in zip(out, reference):
            for a, b in zip(engine_ep.results, ref_ep):
                _assert_results_equal(a, b)
                assert a.verdicts == []

    def test_empty_inputs(self, tiny_system):
        scheduler = tiny_system.make_scheduler()
        assert scheduler.run([]) == []
        out = scheduler.run([EpisodeRequest(frames=(), name="idle")])
        assert out[0].name == "idle"
        assert out[0].results == []
        assert scheduler.run_frames([]) == []

    def test_episode_result_counters(self, tiny_system):
        episodes = _episodes(tiny_system)
        out = tiny_system.make_scheduler().run(episodes)
        for ep in out:
            assert ep.landed_count + ep.aborted_count == len(ep.results)
            assert len(ep.decisions) == len(ep.results)


class TestJointMode:
    def test_seeded_reproducible(self, tiny_system):
        episodes = _episodes(tiny_system)
        config = tiny_system.pipeline_config()
        engine = EngineConfig(monitor_batching="joint")
        a = EpisodeScheduler(tiny_system.model, config, engine=engine,
                             rng=0).run(episodes)
        b = EpisodeScheduler(tiny_system.model, config, engine=engine,
                             rng=0).run(episodes)
        for ea, eb in zip(a, b):
            for ra, rb in zip(ea.results, eb.results):
                _assert_results_equal(ra, rb)

    def test_labels_and_candidates_match_exact(self, tiny_system):
        """Joint batching only changes the monitor's RNG stream: the
        core segmentation and the proposed candidates are those of the
        exact path, and the decision record stays well-formed."""
        episodes = _episodes(tiny_system)
        config = tiny_system.pipeline_config()
        exact = EpisodeScheduler(tiny_system.model, config).run(episodes)
        joint = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching="joint"),
            rng=0).run(episodes)
        for ee, je in zip(exact, joint):
            for re_, rj in zip(ee.results, je.results):
                assert np.array_equal(re_.predicted_labels,
                                      rj.predicted_labels)
                assert [c.box for c in re_.candidates] == \
                    [c.box for c in rj.candidates]
                assert len(rj.verdicts) == rj.decision.attempts
                assert set(rj.timings_s) == {
                    "segmentation_s", "selection_s", "monitoring_s",
                    "decision_s"}

    def test_speculative_k_joins_batches(self, tiny_system):
        episodes = _episodes(tiny_system)
        config = tiny_system.pipeline_config()
        engine = EngineConfig(monitor_batching="joint", speculative_k=2)
        out = EpisodeScheduler(tiny_system.model, config, engine=engine,
                               rng=0).run(episodes)
        for ep in out:
            for r in ep.results:
                # Budget semantics survive speculation: consumed
                # verdicts never exceed the attempt budget.
                assert r.decision.attempts <= \
                    config.decision.max_attempts
                assert len(r.verdicts) == r.decision.attempts


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="monitor_batching"):
            EngineConfig(monitor_batching="telepathic")
        with pytest.raises(ValueError):
            EngineConfig(max_batch=0)

    @pytest.mark.parametrize("knob,value", [
        ("max_batch", 0),
        ("joint_max_batch", 0),
        ("seg_max_batch", 0),
        ("speculative_k", 0),
        ("overlap_budget", -1.0),
        ("monitor_batching", "adaptive"),
    ])
    def test_validation_names_the_knob(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            EngineConfig(**{knob: value})

    def test_speculative_override_routes_to_decision(self, tiny_system):
        scheduler = tiny_system.make_scheduler(
            engine=EngineConfig(speculative_k=3))
        assert scheduler.config.decision.speculative_k == 3
        pipeline = tiny_system.make_pipeline(
            engine=EngineConfig(speculative_k=3))
        assert pipeline.config.decision.speculative_k == 3

    def test_max_batch_routes_to_segmenter(self, tiny_system):
        pipeline = tiny_system.make_pipeline(
            engine=EngineConfig(max_batch=4))
        assert pipeline.segmenter.max_batch == 4

    def test_max_batch_reaches_episode_monitors(self, tiny_system):
        """The engine's chunk knob governs the per-episode monitor
        passes too, and chunking never changes results."""
        episodes = _episodes(tiny_system)
        config = tiny_system.pipeline_config()
        reference = _sequential(tiny_system, config, episodes)
        out = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(max_batch=3)).run(episodes)
        for engine_ep, ref_ep in zip(out, reference):
            for a, b in zip(engine_ep.results, ref_ep):
                _assert_results_equal(a, b)


class TestSharedMode:
    """The shared-context engine: union windows + temporal stem reuse."""

    def _dense_episodes(self, num=2, frames=3):
        return [
            spec.with_camera((48, 64)).episode_request(i, frames)
            for spec in scenario_sweep("dense_zones_hover",
                                       "dense_zones_drift")
            for i in range(num)
        ]

    def _config(self, system):
        from dataclasses import replace

        from repro.uav.ballistics import DriftModel

        base = system.pipeline_config()
        drift = DriftModel(wind_speed_ms=2.0, gust_factor=1.2,
                           release_height_m=18.0, descent_rate_ms=6.0,
                           position_error_m=1.0, latency_s=0.3,
                           approach_speed_ms=3.0)
        return replace(
            base,
            selector=replace(base.selector, drift_model=drift),
            monitor=replace(base.monitor, context_margin_px=9))

    def test_seeded_reproducible(self, tiny_system):
        episodes = self._dense_episodes()
        config = self._config(tiny_system)
        engine = EngineConfig(monitor_batching="shared", speculative_k=3)
        a = EpisodeScheduler(tiny_system.model, config, engine=engine,
                             rng=0).run(episodes)
        b = EpisodeScheduler(tiny_system.model, config, engine=engine,
                             rng=0).run(episodes)
        for ea, eb in zip(a, b):
            for ra, rb in zip(ea.results, eb.results):
                _assert_results_equal(ra, rb)

    def test_labels_candidates_and_budgets_match_exact(self, tiny_system):
        """Sharing only changes the monitor's RNG stream: the core
        segmentation, the proposed candidates, the timing keys and the
        budget bookkeeping are those of the exact path."""
        episodes = self._dense_episodes()
        config = self._config(tiny_system)
        exact = EpisodeScheduler(tiny_system.model, config).run(episodes)
        shared = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3),
            rng=0).run(episodes)
        for ee, se in zip(exact, shared):
            for re_, rs in zip(ee.results, se.results):
                assert np.array_equal(re_.predicted_labels,
                                      rs.predicted_labels)
                assert [c.box for c in re_.candidates] == \
                    [c.box for c in rs.candidates]
                assert rs.decision.attempts <= \
                    config.decision.max_attempts
                assert len(rs.verdicts) == rs.decision.attempts
                assert set(rs.timings_s) == {
                    "segmentation_s", "selection_s", "monitoring_s",
                    "decision_s"}

    def test_temporal_reuse_is_bit_exact(self, tiny_system):
        """Stem reuse replays cached *deterministic* activations, so
        switching it off must not change a single bit of any verdict,
        decision or distribution."""
        episodes = self._dense_episodes()
        config = self._config(tiny_system)
        on = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3, temporal_reuse=True),
            rng=0).run(episodes)
        off = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3, temporal_reuse=False),
            rng=0).run(episodes)
        for ea, eb in zip(on, off):
            for ra, rb in zip(ea.results, eb.results):
                _assert_results_equal(ra, rb)

    def test_stem_cache_hits_on_static_streams(self, tiny_system):
        """A hovering (identical-frame) episode must reuse its window
        stems for every frame after the first."""
        frame = tiny_system.test_samples[0].image
        episodes = [EpisodeRequest(frames=[frame] * 3, seed=1,
                                   name="static", drift_px=(0, 0))]
        config = self._config(tiny_system)
        scheduler = EpisodeScheduler(
            tiny_system.model, config,
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3), rng=0)
        scheduler.run(episodes)
        stats = scheduler.last_shared_stats
        assert stats["zone_checks"] > 0
        assert stats["stem_hits"] > 0

    def test_drift_hint_shift_detection(self, tiny_system):
        """_stem_lookup finds a previous-frame window shifted by the
        drift hint (either sign), and rejects content mismatches."""
        scheduler = EpisodeScheduler(
            tiny_system.model, self._config(tiny_system),
            engine=EngineConfig(monitor_batching="shared"), rng=0)
        from repro.utils.geometry import Box

        pixels = np.random.default_rng(0).random((3, 16, 16))\
            .astype(np.float32)
        stem = np.ones((4, 4, 4), dtype=np.float32)
        prev = {Box(8, 24, 16, 16): (pixels, stem)}
        # Same box.
        assert scheduler._stem_lookup(
            pixels, Box(8, 24, 16, 16), None, prev, {}) is stem
        # Shifted by the drift hint (content moved 2 px east).
        assert scheduler._stem_lookup(
            pixels, Box(8, 26, 16, 16), (0, 2), prev, {}) is stem
        assert scheduler._stem_lookup(
            pixels, Box(8, 22, 16, 16), (0, 2), prev, {}) is stem
        # Wrong shift, or right box with different pixels: miss.
        assert scheduler._stem_lookup(
            pixels, Box(8, 30, 16, 16), (0, 2), prev, {}) is None
        assert scheduler._stem_lookup(
            pixels + 1.0, Box(8, 24, 16, 16), None, prev, {}) is None

    def test_quantized_windows_contain_naturals(self, tiny_system):
        """Engine window quantisation only ever grows windows, within
        the frame, to spans aligned to the quantum grid."""
        scheduler = EpisodeScheduler(
            tiny_system.model, self._config(tiny_system),
            engine=EngineConfig(monitor_batching="shared"), rng=0)
        from repro.utils.geometry import Box

        rng = np.random.default_rng(5)
        stride = tiny_system.model.config.output_stride
        for _ in range(200):
            h, w = 48, 64
            bh = stride * int(rng.integers(1, h // stride + 1))
            bw = stride * int(rng.integers(1, w // stride + 1))
            box = Box(int(rng.integers(0, h - bh + 1)),
                      int(rng.integers(0, w - bw + 1)), bh, bw)
            q = scheduler._quantize_window(box, (h, w))
            assert q.contains_box(box)
            assert q.height % stride == 0 and q.width % stride == 0
            assert q.row >= 0 and q.col >= 0
            assert q.bottom <= h and q.right <= w

    def test_env_toggle_upgrades_joint(self, monkeypatch):
        monkeypatch.setenv("REPRO_MONITOR_SHARED", "1")
        assert EngineConfig(monitor_batching="joint")\
            .effective_monitor_batching() == "shared"
        assert EngineConfig(monitor_batching="exact")\
            .effective_monitor_batching() == "exact"
        monkeypatch.delenv("REPRO_MONITOR_SHARED")
        assert EngineConfig(monitor_batching="joint")\
            .effective_monitor_batching() == "joint"

    def test_engine_config_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="overlap_budget"):
            EngineConfig(overlap_budget=0.0)
        cfg = EngineConfig(monitor_batching="shared")
        assert cfg.temporal_reuse is True

    def test_overlap_budget_override_reaches_monitor(self, tiny_system):
        scheduler = tiny_system.make_scheduler(
            engine=EngineConfig(monitor_batching="shared",
                                overlap_budget=1.7))
        assert scheduler.config.monitor.overlap_budget == 1.7
        pipeline = tiny_system.make_pipeline(
            engine=EngineConfig(overlap_budget=2.0))
        assert pipeline.config.monitor.overlap_budget == 2.0

    def test_pipeline_shared_engine_routes_speculative_batches(
            self, tiny_system):
        """A LandingPipeline built with a shared engine verifies its
        speculative batches through the union-crop planner."""
        pipeline = LandingPipeline(
            tiny_system.model, self._config(tiny_system), rng=0,
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3))
        assert pipeline._shared_checks is True
        calls = []
        original = pipeline.monitor.check_zones

        def spy(image, boxes, **kwargs):
            calls.append(kwargs)
            return original(image, boxes, **kwargs)

        pipeline.monitor.check_zones = spy
        pipeline.run(tiny_system.test_samples[0].image)
        assert calls, "speculative batches should hit check_zones"
        assert all(c.get("shared") is True for c in calls)


@pytest.fixture()
def stack_calls(monkeypatch):
    """Records every ``predict_distribution_stack`` call: the
    segmenter's generator state before it, its arguments, and the
    distributions it returned."""
    import copy

    from repro.segmentation.bayesian import BayesianSegmenter

    monkeypatch.delenv("REPRO_MONITOR_SHARED", raising=False)
    calls = []
    original = BayesianSegmenter.predict_distribution_stack

    def spy(self, stack, num_samples=None, max_batch=None, bases=None):
        state = copy.deepcopy(self.rng.bit_generator.state)
        out = original(self, stack, num_samples=num_samples,
                       max_batch=max_batch, bases=bases)
        calls.append(dict(state=state, stack=np.array(stack),
                          bases=bases, num_samples=num_samples,
                          max_batch=max_batch, out=out))
        return out

    monkeypatch.setattr(BayesianSegmenter, "predict_distribution_stack",
                        spy)
    return calls


def _replay(model, call):
    """The recorded pass re-run on a fresh segmenter in the same
    generator state, computing its own stems."""
    from repro.segmentation.bayesian import BayesianSegmenter

    rng = np.random.default_rng(0)
    rng.bit_generator.state = call["state"]
    seg = BayesianSegmenter(model, rng=rng)
    return seg.predict_distribution_stack(
        call["stack"], num_samples=call["num_samples"],
        max_batch=call["max_batch"])


def _assert_moments_equal(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.num_samples == b.num_samples
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)


class TestStackPassMoments:
    """Joint, serve-wave and shared passes accumulate moments exactly
    like ``predict_distribution_stack`` (one float64 running sum per
    crop, in sample order), so their moments equal that pass's on the
    same seeded stack bit for bit."""

    def test_check_zones_wave_matches_stack_pass(self, tiny_system):
        from repro.core import RuntimeMonitor
        from repro.segmentation.bayesian import BayesianSegmenter
        from repro.utils.geometry import Box

        config = tiny_system.pipeline_config()
        frame = tiny_system.test_samples[0].image
        boxes = [Box(0, 0, 12, 12), Box(10, 20, 14, 10),
                 Box(30, 40, 8, 16), Box(20, 5, 16, 16)]
        scheduler = EpisodeScheduler(tiny_system.model, config, rng=11)
        verdicts = scheduler.check_zones_wave(
            [(frame, box) for box in boxes])

        seg = BayesianSegmenter(tiny_system.model,
                                num_samples=config.monitor.num_samples,
                                rng=11, max_batch=32)
        monitor = RuntimeMonitor(seg, config.monitor)
        spans = [monitor._padded_spans(frame, box) for box in boxes]
        target = (max(c.height for c, _ in spans),
                  max(c.width for c, _ in spans))
        crops = [monitor._padded_spans(frame, box, target)[0]
                 .extract(frame) for box in boxes]
        ref = seg.predict_distribution_stack(np.stack(crops))
        _assert_moments_equal([v.distribution for v in verdicts], ref)

    def test_joint_run_matches_stack_pass(self, tiny_system,
                                          stack_calls):
        dense = TestSharedMode()
        engine = EngineConfig(monitor_batching="joint", speculative_k=3)
        out = EpisodeScheduler(
            tiny_system.model, dense._config(tiny_system), engine=engine,
            rng=0).run(dense._dense_episodes())
        calls = list(stack_calls)
        assert calls
        returned = {id(d) for call in calls for d in call["out"]}
        verdicts = [v for ep in out for r in ep.results
                    for v in r.verdicts]
        assert verdicts
        assert all(id(v.distribution) in returned for v in verdicts)
        for call in calls:
            _assert_moments_equal(call["out"],
                                  _replay(tiny_system.model, call))

    def test_shared_cached_stems_match_stack_pass(self, tiny_system,
                                                  stack_calls):
        """Windows whose stems come from the temporal cache get the
        moments of a pass that recomputes them."""
        frame = tiny_system.test_samples[0].image
        episodes = [EpisodeRequest(frames=[frame] * 3, seed=1,
                                   name="static", drift_px=(0, 0))]
        scheduler = EpisodeScheduler(
            tiny_system.model, TestSharedMode()._config(tiny_system),
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3), rng=0)
        scheduler.run(episodes)
        assert scheduler.last_shared_stats["stem_hits"] > 0
        calls = list(stack_calls)
        assert any(call["bases"] is not None for call in calls)
        for call in calls:
            _assert_moments_equal(call["out"],
                                  _replay(tiny_system.model, call))


_MODES = ("exact", "joint", "shared")


def _monitored(system, frames=2):
    """Pipeline config + episodes whose frames do get monitored."""
    dense = TestSharedMode()
    return (dense._config(system),
            dense._dense_episodes(num=1, frames=frames))


def _verdict_means(runs):
    return [v.distribution.mean for ep in runs for r in ep.results
            for v in r.verdicts]


def _run_pair(scheduler, episodes):
    """Two back-to-back runs of the same episodes on one scheduler."""
    return [scheduler.run(episodes), scheduler.run(episodes)]


def _assert_runs_equal(got, ref):
    assert len(got) == len(ref)
    for ep_a, ep_b in zip(got, ref):
        assert len(ep_a.results) == len(ep_b.results)
        for a, b in zip(ep_a.results, ep_b.results):
            _assert_results_equal(a, b)


class TestSchedulerIsolation:
    """A scheduler owns all of its state: nothing outlives it, nothing
    leaks between two schedulers, and exact-mode runs on one scheduler
    do not depend on the runs before them."""

    @pytest.mark.parametrize("mode", _MODES)
    def test_no_model_reference_survives_the_scheduler(self, tiny_system,
                                                       mode):
        import copy
        import gc
        import weakref

        import repro.core.engine as engine_mod

        config, episodes = _monitored(tiny_system, frames=1)
        model = copy.deepcopy(tiny_system.model)
        ref = weakref.ref(model)
        scheduler = EpisodeScheduler(
            model, config, engine=EngineConfig(monitor_batching=mode),
            rng=0)
        out = scheduler.run(episodes)
        assert _verdict_means(out)
        assert not any(value is model
                       for value in vars(engine_mod).values())
        del scheduler, model
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("mode", _MODES)
    def test_two_schedulers_interleave(self, tiny_system, mode):
        """Two schedulers with *different* models, runs interleaved:
        each answers exactly as it does on its own."""
        import copy

        config, episodes = _monitored(tiny_system, frames=1)
        engine = EngineConfig(monitor_batching=mode)
        model_a = tiny_system.model
        model_b = copy.deepcopy(model_a)
        for _, param in model_b.named_parameters():
            param.data *= np.float32(0.8)

        def alone(model):
            return _run_pair(EpisodeScheduler(model, config,
                                              engine=engine, rng=0),
                             episodes)

        ref_a, ref_b = alone(model_a), alone(model_b)
        assert _verdict_means(ref_a[0]) and _verdict_means(ref_b[0])
        sa = EpisodeScheduler(model_a, config, engine=engine, rng=0)
        sb = EpisodeScheduler(model_b, config, engine=engine, rng=0)
        for run in range(2):
            _assert_runs_equal(sa.run(episodes), ref_a[run])
            _assert_runs_equal(sb.run(episodes), ref_b[run])
        # Sanity: the two models actually disagree somewhere.
        assert any(
            not np.array_equal(a.results[0].predicted_labels,
                               b.results[0].predicted_labels)
            for a, b in zip(ref_a[0], ref_b[0]))

    def test_reused_exact_scheduler_repeats_itself(self, tiny_system):
        """Exact mode draws only from per-episode seeds, so a second
        run on the same scheduler equals the first and the loop."""
        config, episodes = _monitored(tiny_system)
        first, second = _run_pair(
            EpisodeScheduler(tiny_system.model, config), episodes)
        _assert_runs_equal(second, first)
        for engine_ep, ref_ep in zip(
                second, _sequential(tiny_system, config, episodes)):
            for a, b in zip(engine_ep.results, ref_ep):
                _assert_results_equal(a, b)

    def test_reused_joint_scheduler_continues_its_stream(self,
                                                         tiny_system):
        """Joint mode keeps drawing from the scheduler's stream: a
        fixed run sequence replays identically on a same-seed
        scheduler, and run 2 does not rewind to run 1's draws."""
        config, episodes = _monitored(tiny_system)
        engine = EngineConfig(monitor_batching="joint")

        def trace():
            return _run_pair(EpisodeScheduler(
                tiny_system.model, config, engine=engine, rng=3),
                episodes)

        first, second = trace()
        again = trace()
        _assert_runs_equal(first, again[0])
        _assert_runs_equal(second, again[1])
        means = [_verdict_means(run) for run in (first, second)]
        assert means[0]
        assert any(not np.array_equal(a, b) for a, b in zip(*means))

    def test_stem_cache_is_scoped_to_one_run(self, tiny_system):
        """Temporal stem reuse never reaches across runs: episode
        indices name different streams in different runs, so a second
        run of a static stream starts with a cold cache again."""
        frame = tiny_system.test_samples[0].image
        episodes = [EpisodeRequest(frames=[frame] * 3, seed=1,
                                   name="static", drift_px=(0, 0))]
        scheduler = EpisodeScheduler(
            tiny_system.model, TestSharedMode()._config(tiny_system),
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3), rng=0)
        scheduler.run(episodes)
        first = dict(scheduler.last_shared_stats)
        scheduler.run(episodes)
        assert first["stem_misses"] > 0
        assert scheduler.last_shared_stats == first


class TestEpisodeRequest:
    def test_coerces_frames_and_drift(self, tiny_system):
        frame = tiny_system.test_samples[0].image
        request = EpisodeRequest(frames=[frame, frame],
                                 drift_px=(np.int64(2), 3.0))
        assert isinstance(request.frames, tuple)
        assert len(request.frames) == 2
        assert request.drift_px == (2, 3)
        assert all(type(v) is int for v in request.drift_px)

    @pytest.mark.parametrize("frame,match", [
        (np.zeros((1, 8, 8), dtype=np.float32), "frames\\[0\\]"),
        (np.zeros((8, 8), dtype=np.float32), "frames\\[0\\]"),
        (np.zeros((3, 8, 8), dtype=np.uint8), "float"),
    ])
    def test_refuses_non_chw_float_frames(self, frame, match):
        with pytest.raises(ValueError, match=match):
            EpisodeRequest(frames=[frame])


class TestAdmissionChecks:
    """``validate_zone``/``validate_episode``: the one test a request
    must pass before it may join a wave."""

    @pytest.fixture()
    def scheduler(self, tiny_system):
        return tiny_system.make_scheduler()

    def test_valid_zones_pass(self, tiny_system, scheduler):
        from repro.utils.geometry import Box

        frame = tiny_system.test_samples[0].image
        h, w = frame.shape[-2:]
        scheduler.validate_zone(frame, Box(0, 0, h, w))
        scheduler.validate_zone(frame, Box(h - 1, w - 1, 1, 1))
        stride = np.zeros((3, 4, 4), dtype=np.float32)
        scheduler.validate_zone(stride, Box(0, 0, 4, 4))

    @pytest.mark.parametrize("shape,dtype,box,match", [
        ((3, 48, 64), np.float32, (2, 2, 0, 5), "empty"),
        ((3, 48, 64), np.float32, (-6, -6, 12, 12), "not inside"),
        ((3, 48, 64), np.float32, (42, 56, 12, 12), "not inside"),
        ((48, 64), np.float32, (0, 0, 4, 4), "shape"),
        ((7, 48, 64), np.float32, (0, 0, 4, 4), "shape"),
        ((3, 48, 64), np.uint8, (0, 0, 4, 4), "float"),
        ((3, 3, 40), np.float32, (0, 4, 3, 12), "stride"),
        ((3, 40, 2), np.float32, (4, 0, 12, 2), "stride"),
    ])
    def test_invalid_zones_refused(self, scheduler, shape, dtype, box,
                                   match):
        from repro.utils.geometry import Box

        image = np.zeros(shape, dtype=dtype)
        with pytest.raises(ValueError, match=match):
            scheduler.validate_zone(image, Box(*box))

    @pytest.mark.parametrize("shape", [(3, 4, 4), (3, 8, 12),
                                       (3, 48, 64)])
    def test_stride_multiple_episodes_pass(self, scheduler, shape):
        frame = np.zeros(shape, dtype=np.float32)
        scheduler.validate_episode(EpisodeRequest(frames=[frame] * 2))

    @pytest.mark.parametrize("shapes,index", [
        ([(3, 6, 6)], 0),
        ([(3, 8, 8), (3, 5, 7)], 1),
        ([(3, 8, 6)], 0),
        ([(3, 2, 2)], 0),
    ])
    def test_episode_frame_off_the_stride_refused(self, scheduler,
                                                  shapes, index):
        request = EpisodeRequest(frames=[
            np.zeros(shape, dtype=np.float32) for shape in shapes])
        with pytest.raises(ValueError,
                           match=f"frames\\[{index}\\].*stride"):
            scheduler.validate_episode(request)

    def test_wave_refuses_an_invalid_item_before_drawing(self,
                                                         tiny_system):
        """``check_zones_wave`` validates every item first: a bad item
        raises, names its index, and consumes no joint randomness."""
        from repro.utils.geometry import Box

        frame = tiny_system.test_samples[0].image
        good = [(frame, Box(0, 0, 12, 12)), (frame, Box(20, 30, 12, 12))]
        scheduler = tiny_system.make_scheduler(rng=4)
        with pytest.raises(ValueError, match="items\\[1\\]"):
            scheduler.check_zones_wave(
                [good[0], (frame[:1], Box(0, 0, 8, 8)), good[1]])
        assert scheduler.check_zones_wave([]) == []
        got = scheduler.check_zones_wave(good)
        ref = tiny_system.make_scheduler(rng=4).check_zones_wave(good)
        _assert_moments_equal([v.distribution for v in got],
                              [v.distribution for v in ref])

    def test_wave_groups_shapes_and_keeps_item_order(self, tiny_system):
        """Mixed frame shapes run as one pass per shape, in
        first-occurrence order; verdicts come back in item order."""
        from repro.utils.geometry import Box

        frame = tiny_system.test_samples[0].image
        small = np.ascontiguousarray(frame[:, :32, :48])
        a1, a2 = (frame, Box(4, 4, 12, 12)), (frame, Box(30, 40, 10, 14))
        b1 = (small, Box(8, 8, 12, 12))
        got = tiny_system.make_scheduler(rng=9).check_zones_wave(
            [a1, b1, a2])
        ref = tiny_system.make_scheduler(rng=9)
        ref_a = ref.check_zones_wave([a1, a2])
        ref_b = ref.check_zones_wave([b1])
        expected = [ref_a[0], ref_b[0], ref_a[1]]
        assert [v.box for v in got] == [a1[1], b1[1], a2[1]]
        for v, e in zip(got, expected):
            assert v.accepted == e.accepted
            assert v.unsafe_fraction == e.unsafe_fraction
        _assert_moments_equal([v.distribution for v in got],
                              [v.distribution for v in expected])
