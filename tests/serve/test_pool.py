"""Persistent worker pool + shared-memory ring: lifecycle and parity.

The regression targets from the fork-per-call pool this replaced:
a module-global model reference that survived runs, and no
deterministic close/join.
"""

import copy
import gc
import warnings
import weakref

import numpy as np
import pytest

from repro.core import EngineConfig, EpisodeScheduler, LandingPipeline
from repro.serve import (
    FrameRing,
    PersistentWorkerPool,
    attach_frame,
    fork_available,
)
from repro.serve.shm import detach_frame
from repro.scenarios import scenario_sweep
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


class TestFrameRing:
    def test_slot_round_trip(self):
        frame = np.arange(2 * 4 * 5, dtype=np.float32).reshape(2, 4, 5)
        cache = {}
        with FrameRing(slots=2, slot_bytes=frame.nbytes) as ring:
            ticket = ring.put(frame)
            assert not ticket.dedicated
            view = attach_frame(ticket, cache)
            assert np.array_equal(view, frame)
            assert not view.flags.writeable
            del view
            ring.release(ticket)
            assert ring.in_flight == 0
            for handle in cache.values():
                handle.close()

    def test_overflow_and_oversize_use_dedicated_segments(self):
        small = np.ones((1, 2, 2), dtype=np.float32)
        big = np.arange(3 * 8 * 8, dtype=np.float32).reshape(3, 8, 8)
        cache = {}
        with FrameRing(slots=1, slot_bytes=small.nbytes) as ring:
            first = ring.put(small)       # takes the only slot
            second = ring.put(small)      # slot exhaustion -> dedicated
            third = ring.put(big)         # oversized -> dedicated
            assert not first.dedicated
            assert second.dedicated and third.dedicated
            assert ring.overflow_puts == 2
            for ticket, frame in ((second, small), (third, big)):
                view = attach_frame(ticket, cache)
                assert np.array_equal(view, frame)
                del view
                detach_frame(ticket, cache)
            for ticket in (first, second, third):
                ring.release(ticket)
            assert ring.in_flight == 0

    def test_double_release_raises(self):
        frame = np.zeros((1, 2, 2), dtype=np.float32)
        with FrameRing(slots=2, slot_bytes=frame.nbytes) as ring:
            ticket = ring.put(frame)
            ring.release(ticket)
            with pytest.raises(RuntimeError, match="released twice"):
                ring.release(ticket)

    def test_closed_ring_rejects_put(self):
        ring = FrameRing(slots=1, slot_bytes=64)
        ring.close()
        ring.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            ring.put(np.zeros((1, 2, 2), dtype=np.float32))

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameRing(slots=0)
        with pytest.raises(ValueError):
            FrameRing(slot_bytes=0)


class TestPersistentWorkerPool:
    def test_frames_match_inline_pipeline(self, tiny_system):
        """One pool, many waves: replies bit-for-bit match inline."""
        config = tiny_system.pipeline_config()
        episodes = _episodes(tiny_system, frames=2)
        inline = []
        for ep in episodes:
            pipeline = LandingPipeline(tiny_system.model, config,
                                       rng=ep.seed)
            inline.append([pipeline.run(frame) for frame in ep.frames])
        rngs = [ensure_rng(ep.seed) for ep in episodes]
        with PersistentWorkerPool(tiny_system.model, config,
                                  EngineConfig(), workers=2) as pool:
            for t in range(2):  # frame wavefronts, pool reused across
                for i, ep in enumerate(episodes):
                    pool.submit(i, ep.frames[t],
                                rngs[i].bit_generator.state)
                for i, result, state in pool.collect(len(episodes)):
                    rngs[i].bit_generator.state = state
                    _assert_results_equal(result, inline[i][t])

    def test_worker_error_propagates(self, tiny_system):
        config = tiny_system.pipeline_config()
        with PersistentWorkerPool(tiny_system.model, config,
                                  EngineConfig(), workers=1) as pool:
            bad = np.zeros((7, 3, 4), dtype=np.float32)  # not CHW RGB
            pool.submit(0, bad, ensure_rng(0).bit_generator.state)
            with pytest.raises(RuntimeError, match="failed in worker"):
                pool.collect(1)
            assert pool._ring.in_flight == 0  # slot recycled

    def test_close_joins_workers_and_is_idempotent(self, tiny_system):
        pool = PersistentWorkerPool(
            tiny_system.model, tiny_system.pipeline_config(),
            EngineConfig(), workers=2)
        procs = list(pool._procs)
        assert all(p.is_alive() for p in procs)
        pool.close()
        pool.close()
        assert not any(p.is_alive() for p in procs)
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, np.zeros((3, 4, 4), dtype=np.float32), None)

    def test_validation(self, tiny_system):
        with pytest.raises(ValueError, match="workers"):
            PersistentWorkerPool(tiny_system.model,
                                 tiny_system.pipeline_config(),
                                 EngineConfig(), workers=0)


class TestSchedulerLifecycle:
    def test_no_module_global_model_remains(self):
        import repro.core.engine as engine_mod

        assert not hasattr(engine_mod, "_WORKER_MODEL")

    def test_no_model_reference_survives_close(self, tiny_system):
        """Regression: the old pool parked the model in a module global
        that outlived the run; now nothing keeps the model alive."""
        model = copy.deepcopy(tiny_system.model)
        ref = weakref.ref(model)
        scheduler = EpisodeScheduler(model,
                                     tiny_system.pipeline_config(),
                                     engine=EngineConfig(workers=2))
        scheduler.run(_episodes(tiny_system, frames=1))
        scheduler.close()
        del scheduler, model
        gc.collect()
        assert ref() is None

    def test_pool_persists_across_runs(self, tiny_system):
        """The tentpole economics: fork once, reuse every run."""
        with EpisodeScheduler(tiny_system.model,
                              tiny_system.pipeline_config(),
                              engine=EngineConfig(workers=2)) as sched:
            episodes = _episodes(tiny_system, frames=1)
            sched.run(episodes)
            pool_first = sched._pool
            pids = [p.pid for p in pool_first._procs]
            sched.run(episodes)
            assert sched._pool is pool_first
            assert [p.pid for p in pool_first._procs] == pids
        assert sched._pool is None  # context exit closed it
        # The scheduler stays usable: the next run forks a fresh pool.
        sched.run(episodes)
        assert sched._pool is not None
        sched.close()

    def test_two_schedulers_interleave(self, tiny_system):
        """Two schedulers with *different* models, runs interleaved:
        each keeps answering with its own model (the old module-global
        design made this impossible to guarantee)."""
        config = tiny_system.pipeline_config()
        model_a = tiny_system.model
        model_b = copy.deepcopy(model_a)
        for _, param in model_b.named_parameters():
            param.data *= np.float32(0.8)
        episodes = _episodes(tiny_system, frames=1)

        def reference(model):
            out = []
            for ep in episodes:
                pipeline = LandingPipeline(model, config, rng=ep.seed)
                out.append([pipeline.run(f) for f in ep.frames])
            return out

        ref_a, ref_b = reference(model_a), reference(model_b)
        with EpisodeScheduler(model_a, config,
                              engine=EngineConfig(workers=2)) as sa, \
                EpisodeScheduler(model_b, config,
                                 engine=EngineConfig(workers=2)) as sb:
            for ref, sched in ((ref_a, sa), (ref_b, sb),
                               (ref_a, sa), (ref_b, sb)):
                out = sched.run(episodes)
                for engine_ep, ref_ep in zip(out, ref):
                    for a, b in zip(engine_ep.results, ref_ep):
                        _assert_results_equal(a, b)
        # Sanity: the two models actually disagree somewhere.
        assert any(
            not np.array_equal(a[0].predicted_labels,
                               b[0].predicted_labels)
            for a, b in zip(ref_a, ref_b))

    def test_fork_unavailable_degrades_with_warning(
            self, tiny_system, monkeypatch):
        """No fork: workers=N warns, runs inline, and
        effective_workers says so (the operator-visible signal)."""
        monkeypatch.setattr("repro.serve.pool.fork_available",
                            lambda: False)
        episodes = _episodes(tiny_system, frames=1)
        config = tiny_system.pipeline_config()
        inline = EpisodeScheduler(tiny_system.model, config).run(
            episodes)
        sched = EpisodeScheduler(tiny_system.model, config,
                                 engine=EngineConfig(workers=2))
        assert sched.effective_workers == 1
        with pytest.warns(RuntimeWarning, match="effective_workers"):
            out = sched.run(episodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # warned once, not per run
            sched.run(episodes)
        for engine_ep, ref_ep in zip(out, inline):
            for a, b in zip(engine_ep.results, ref_ep.results):
                _assert_results_equal(a, b)
        sched.close()

    def test_effective_workers_matches_config_with_fork(
            self, tiny_system):
        sched = EpisodeScheduler(tiny_system.model,
                                 tiny_system.pipeline_config(),
                                 engine=EngineConfig(workers=3))
        assert sched.effective_workers == 3
        sched.close()

