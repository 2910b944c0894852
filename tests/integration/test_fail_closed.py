"""The runtime monitor fails closed on non-finite frames.

A frame whose pixels are all NaN, all +inf or all -inf drives every
Bayesian moment to NaN.  Eq. (2) is written ``~(upper <= tau)``, so a
NaN statistic is unsafe: every zone check rejects with
``unsafe_fraction == 1.0`` and no episode lands — on the single-frame
pipeline, through ``EpisodeScheduler.run_frames`` and through the
serving entry point ``check_zones_wave``, for every monitor batching
mode, at the system's own crop geometry and at a wide-context geometry
whose crops clip at the frame edges and merge into shared windows.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EngineConfig, EpisodeScheduler, LandingPipeline
from repro.utils.geometry import Box

BAD_VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
BATCHING = ("exact", "joint", "shared")
#: Monitor geometry per case: the system's own (``default``), and the
#: shared-context certification geometry (``merged``), whose context
#: margin clips the crops at the frame edges and whose overlap budget
#: merges the overlapping zone crops into shared union windows.
GEOMETRY = {"default": {},
            "merged": {"context_margin_px": 9, "overlap_budget": 1.3}}


@pytest.fixture(autouse=True)
def _explicit_modes(monkeypatch):
    """Each test names its mode; the process-default toggle (set by
    the check.sh rerun stage) must not rewrite it."""
    monkeypatch.delenv("REPRO_MONITOR_SHARED", raising=False)


@pytest.fixture(params=sorted(BAD_VALUES))
def bad_frame(request, tiny_system):
    h, w = tiny_system.config.dataset.image_shape
    return np.full((3, h, w), BAD_VALUES[request.param], dtype=np.float32)


@pytest.fixture(params=sorted(GEOMETRY))
def geometry(request):
    return request.param


def _config(system, geometry):
    config = system.pipeline_config()
    return replace(config, monitor=replace(config.monitor,
                                           **GEOMETRY[geometry]))


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


def _pipeline(system, geometry):
    return LandingPipeline(system.model, _config(system, geometry), rng=0)


def test_merged_geometry_merges_zone_crops(tiny_system):
    """The ``merged`` cases are not vacuous: the shared planner merges
    their zone crops into fewer union windows than zones."""
    monitor = _pipeline(tiny_system, "merged").monitor
    h, w = tiny_system.config.dataset.image_shape
    frame = np.zeros((3, h, w), dtype=np.float32)
    boxes = _zone_boxes(frame)
    crops = [monitor._padded_spans(frame, box)[0] for box in boxes]
    assert len(monitor.plan_union_windows((h, w), crops)) < len(boxes)


def test_check_zone_rejects(tiny_system, bad_frame, geometry):
    monitor = _pipeline(tiny_system, geometry).monitor
    for box in _zone_boxes(bad_frame):
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_rejected(monitor.check_zone(bad_frame, box))


def test_pipeline_run_does_not_land(tiny_system, bad_frame, geometry):
    with np.errstate(invalid="ignore", over="ignore"):
        result = _pipeline(tiny_system, geometry).run(bad_frame)
    _assert_never_landed(result)


@pytest.mark.parametrize("batching", BATCHING)
def test_run_frames_never_lands(tiny_system, bad_frame, batching,
                                geometry):
    scheduler = EpisodeScheduler(
        tiny_system.model, _config(tiny_system, geometry),
        engine=EngineConfig(monitor_batching=batching), rng=0)
    with np.errstate(invalid="ignore", over="ignore"):
        results = scheduler.run_frames([bad_frame, bad_frame], seed=0)
    assert len(results) == 2
    for result in results:
        _assert_never_landed(result)


@pytest.mark.parametrize("batching", BATCHING)
def test_check_zones_wave_rejects(tiny_system, bad_frame, batching,
                                  geometry):
    scheduler = EpisodeScheduler(
        tiny_system.model, _config(tiny_system, geometry),
        engine=EngineConfig(monitor_batching=batching), rng=0)
    items = [(bad_frame, box) for box in _zone_boxes(bad_frame)]
    with np.errstate(invalid="ignore", over="ignore"):
        verdicts = scheduler.check_zones_wave(items)
    assert len(verdicts) == len(items)
    for verdict in verdicts:
        _assert_rejected(verdict)
