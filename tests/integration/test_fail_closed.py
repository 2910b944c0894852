"""The runtime monitor fails closed on non-finite frames.

A frame whose pixels are all NaN, all +inf or all -inf drives every
Bayesian moment to NaN.  Eq. (2) is written ``~(upper <= tau)`` (and so
are the three bound tests of the adaptive stopping rule), so a NaN
statistic is unsafe: every zone check rejects with
``unsafe_fraction == 1.0`` and no episode lands — on the single-frame
pipeline, through ``EpisodeScheduler.run_frames`` and through the
serving entry point ``check_zones_wave``, for every monitor batching
mode with adaptive early exit on and off.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EngineConfig, EpisodeScheduler, LandingPipeline
from repro.utils.geometry import Box

BAD_VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
BATCHING = ("exact", "joint", "shared")


@pytest.fixture(autouse=True)
def _explicit_modes(monkeypatch):
    """Each test names its mode; the process-default toggles (set by
    the check.sh rerun stages) must not rewrite it."""
    monkeypatch.delenv("REPRO_MONITOR_SHARED", raising=False)
    monkeypatch.delenv("REPRO_MONITOR_ADAPTIVE", raising=False)


@pytest.fixture(params=sorted(BAD_VALUES))
def bad_frame(request, tiny_system):
    h, w = tiny_system.config.dataset.image_shape
    return np.full((3, h, w), BAD_VALUES[request.param], dtype=np.float32)


def _config(system, adaptive):
    config = system.pipeline_config()
    return replace(config, monitor=replace(config.monitor,
                                           adaptive=adaptive))


def _zone_boxes(frame):
    h, w = frame.shape[1:]
    return [Box(0, 0, h // 2, w // 2), Box(h // 4, w // 4, h // 2, w // 2),
            Box(h // 2, w // 2, h // 2, w // 2)]


def _assert_rejected(verdict):
    assert verdict.accepted is False
    assert verdict.unsafe_fraction == 1.0


def _assert_never_landed(result):
    assert not result.landed
    assert result.verdicts
    for verdict in result.verdicts:
        _assert_rejected(verdict)


def _pipeline(system, adaptive):
    return LandingPipeline(system.model, _config(system, adaptive), rng=0)


@pytest.mark.parametrize("adaptive", [False, True])
def test_check_zone_rejects(tiny_system, bad_frame, adaptive):
    monitor = _pipeline(tiny_system, adaptive).monitor
    for box in _zone_boxes(bad_frame):
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_rejected(monitor.check_zone(bad_frame, box))


@pytest.mark.parametrize("adaptive", [False, True])
def test_pipeline_run_does_not_land(tiny_system, bad_frame, adaptive):
    with np.errstate(invalid="ignore", over="ignore"):
        result = _pipeline(tiny_system, adaptive).run(bad_frame)
    _assert_never_landed(result)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("batching", BATCHING)
def test_run_frames_never_lands(tiny_system, bad_frame, batching,
                                adaptive):
    scheduler = EpisodeScheduler(
        tiny_system.model, _config(tiny_system, adaptive),
        engine=EngineConfig(monitor_batching=batching), rng=0)
    with np.errstate(invalid="ignore", over="ignore"):
        results = scheduler.run_frames([bad_frame, bad_frame], seed=0)
    assert len(results) == 2
    for result in results:
        _assert_never_landed(result)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("batching", BATCHING)
def test_check_zones_wave_rejects(tiny_system, bad_frame, batching,
                                  adaptive):
    scheduler = EpisodeScheduler(
        tiny_system.model, _config(tiny_system, adaptive),
        engine=EngineConfig(monitor_batching=batching), rng=0)
    items = [(bad_frame, box) for box in _zone_boxes(bad_frame)]
    with np.errstate(invalid="ignore", over="ignore"):
        verdicts = scheduler.check_zones_wave(items)
    assert len(verdicts) == len(items)
    for verdict in verdicts:
        _assert_rejected(verdict)
