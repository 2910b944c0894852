"""Seeded benchmark inputs, generated before any timing starts.

Every workload's inputs are a pure function of ``--seed``.  They are
rendered once per run by the orchestrator (``run.py``) and handed to the
workload processes as one ``.npz`` file, so the timed processes receive
only generated frames and boxes and never pay for scene rendering.

* ``frame`` — 96 full-scale (96x128) frames: four 4-frame streams from
  each of the six nominal/OOD presets, shuffled.
* ``fleet`` — one fixed fleet of 36 four-frame 48x64 streams (three
  per nominal/OOD preset plus nine per dense-zone preset), in a seeded
  order.
* ``serve`` — ``frame``'s 96 frames plus 480 distinct ``(frame, box)``
  zone checks: the selector's ranked candidates on those frames, in a
  seeded order.
"""

from __future__ import annotations

import numpy as np

from repro.core.landing_zone import LandingZoneSelector
from repro.scenarios import get_scenario
from repro.segmentation.bayesian import BayesianSegmenter
from repro.uav.ballistics import DriftModel
from repro.utils.geometry import Box

#: The nominal and OOD presets both image workloads draw from.
PRESETS = ("day_nominal", "overcast_nominal", "sunset_ood",
           "night_ood", "fog_ood", "night_fog")
#: The overlap-heavy presets mixed into the fleet.
DENSE_PRESETS = ("dense_zones_hover", "dense_zones_drift")

FRAME_STREAMS_PER_PRESET = 4
FLEET_STREAMS_PER_PRESET = 3
FLEET_STREAMS_PER_DENSE_PRESET = 9
FRAMES_PER_STREAM = 4
FLEET_SHAPE = (48, 64)
SERVE_CHECKS = 480
#: Ranked candidates the selector proposes per frame when drawing the
#: serve checks (enough that 96 frames always yield 480 distinct boxes).
SERVE_CANDIDATES_PER_FRAME = 8


def stream_drift_model() -> DriftModel:
    """The drift buffer of ``benchmarks/bench_episode_engine.py``.

    With ``TrainedSystem.pipeline_config()``'s own buffer about half of
    the frames abort before any check, which puts the median frame on
    the boundary between two latency modes.  This smaller buffer sends
    roughly 80% of frames to the monitor, so the median frame sits well
    inside the one-check mode.
    """
    return DriftModel(wind_speed_ms=2.0, gust_factor=1.2,
                      release_height_m=18.0, descent_rate_ms=6.0,
                      position_error_m=1.0, latency_s=0.3,
                      approach_speed_ms=3.0)


def frame_inputs(seed: int) -> dict:
    """The ``frame`` workload's 96 shuffled full-scale frames.

    Each seed renders its own streams (episode indices disjoint across
    seeds), so every seed brings new scenes.
    """
    frames = []
    for name in PRESETS:
        spec = get_scenario(name)
        for k in range(FRAME_STREAMS_PER_PRESET):
            index = int(seed) * FRAME_STREAMS_PER_PRESET + k
            frames.extend(s.image for s in
                          spec.frame_stream(index, FRAMES_PER_STREAM))
    order = np.random.default_rng(seed).permutation(len(frames))
    return {"frames": np.stack([frames[i] for i in order])
            .astype(np.float32)}


def fleet_inputs(seed: int) -> dict:
    """The ``fleet`` workload's 36 small-camera episode streams.

    The fleet itself is fixed: which scenes a 36-stream campaign holds
    moves its pass time by about 10%, which would swamp the seed-to-seed
    comparison.  The seed orders the streams (and, in the workload,
    seeds the joint monitor).
    """
    frames, seeds, drift, names = [], [], [], []
    plan = ([(name, FLEET_STREAMS_PER_PRESET) for name in PRESETS]
            + [(name, FLEET_STREAMS_PER_DENSE_PRESET)
               for name in DENSE_PRESETS])
    for name, streams in plan:
        spec = get_scenario(name).with_camera(FLEET_SHAPE)
        for index in range(streams):
            request = spec.episode_request(index, FRAMES_PER_STREAM)
            frames.append(np.stack(request.frames))
            seeds.append(request.seed)
            drift.append(request.drift_px)
            names.append(request.name)
    order = np.random.default_rng(seed).permutation(len(frames))
    return {"frames": np.stack(frames)[order].astype(np.float32),
            "episode_seeds": np.asarray(seeds, dtype=np.int64)[order],
            "drift_px": np.asarray(drift, dtype=np.int64)[order],
            "names": np.asarray(names)[order]}


def serve_inputs(seed: int, model, selector_config) -> dict:
    """``frame``'s frames plus 480 distinct candidate-box checks.

    The boxes are what the selector proposes on the deterministic
    segmentation of each frame (``selector_config`` with more ranked
    candidates than the pipeline uses), drawn without replacement in a
    seeded order.
    """
    frames = frame_inputs(seed)["frames"]
    labels = BayesianSegmenter(model, rng=0).predict_labels_batch(
        list(frames), max_batch=1)
    selector = LandingZoneSelector(selector_config)
    checks = []
    for i, lab in enumerate(labels):
        for cand in selector.propose(lab):
            b = cand.box
            checks.append((i, b.row, b.col, b.height, b.width))
    checks = sorted(set(checks))
    if len(checks) < SERVE_CHECKS:
        raise RuntimeError(
            f"only {len(checks)} distinct candidate boxes on seed {seed}; "
            f"the serve workload needs {SERVE_CHECKS}")
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(checks), size=SERVE_CHECKS, replace=False)
    return {"frames": frames,
            "checks": np.asarray([checks[i] for i in pick],
                                 dtype=np.int64)}


def check_boxes(inputs: dict) -> list[tuple[int, Box]]:
    """The serve checks as ``(frame index, Box)`` pairs."""
    return [(int(i), Box(int(r), int(c), int(h), int(w)))
            for i, r, c, h, w in inputs["checks"]]
