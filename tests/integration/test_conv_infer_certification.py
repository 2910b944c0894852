"""Certification gate for the inference conv path: zero verdict flips.

The system-level half of the conv certification (the layer-level suite
is ``tests/nn/test_conv_infer_equivalence.py``).  Every eval-mode conv
runs :func:`repro.nn.functional.conv2d_infer` (blocked im2col); its
reference is the training path :func:`~repro.nn.functional.conv2d_forward`.
Per "Evaluation of Runtime Monitoring for UAV Emergency Landing"
(Guerin et al., 2022), the monitor's catch rate is the certification
currency: a conv path that is "only" off in the last float may still
flip a borderline Eq. (2) verdict.  So the gate reruns the real trained
tiny system with every conv routed through the training forward and
asserts, seeded, that the monitor statistics stay inside the float32
reassociation envelope and that *zero* labels, verdicts, decisions,
Fig. 4 statistics or campaign outcomes change.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core import EngineConfig, EpisodeScheduler
from repro.eval.harness import fig4_experiment, zone_acceptance_experiment
from repro.nn import functional as F
from repro.scenarios import NAV_COMM_LOSS, get_scenario, run_scenario_campaign
from repro.utils.geometry import Box

#: Float32 reassociation envelope of the layer-level suite, widened 16x
#: for model depth (~6 conv stages with BN renormalisation between).
DEPTH_MAXNORM_REL = 16 * 1e-5

OOD_PRESETS = ("sunset_ood", "night_ood", "fog_ood")
CAMPAIGN_PRESETS = ("nav_comm_loss_delivery", "sunset_nav_loss")
BATCHING = ("exact", "joint", "shared")
#: Monitor geometry per case: the system's own (``default``), and the
#: shared-context certification geometry (``merged``), whose wider,
#: edge-clipped and merged crop windows reach other conv block shapes.
GEOMETRY = {"default": {},
            "merged": {"context_margin_px": 9, "overlap_budget": 1.3}}


@pytest.fixture(autouse=True)
def _explicit_modes(monkeypatch):
    """Each test names its monitor mode; the process-default toggle
    (set by the check.sh rerun stage) must not rewrite it."""
    monkeypatch.delenv("REPRO_MONITOR_SHARED", raising=False)


def _training_forward(x, weight, bias, stride=1, padding=0, dilation=1,
                      index=None):
    """``conv2d_forward`` with ``conv2d_infer``'s signature; an indexed
    call runs on its materialised input ``x[index, arange(C)]``."""
    if index is not None:
        x = x[index, np.arange(x.shape[1])]
    return F.conv2d_forward(x, weight, bias, stride, padding, dilation)[0]


@contextlib.contextmanager
def _reference_convs():
    """Route every eval-mode conv through the training forward."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "conv2d_infer", _training_forward)
        yield


def _both_paths(run):
    """``run()`` on the inference path, then on the reference path."""
    infer = run()
    with _reference_convs():
        ref = run()
    return infer, ref


def _images(system, count=None):
    images = [s.image for s in system.test_samples]
    return images if count is None else images[:count]


def _zone_boxes(frame):
    h, w = frame.shape[1:]
    return [Box(0, 0, h // 2, w // 2), Box(h // 4, w // 4, h // 2, w // 2),
            Box(h // 2, w // 2, h // 2, w // 2)]


def _verdict_fingerprint(verdict):
    return (verdict.accepted, round(verdict.unsafe_fraction, 12))


def _episode_fingerprint(result):
    """Everything a certification reviewer would diff between runs."""
    zone = result.selected_zone
    return (
        result.decision.action,
        result.decision.attempts,
        tuple(_verdict_fingerprint(v) for v in result.verdicts),
        None if zone is None else
        (zone.box.row, zone.box.col, zone.box.height, zone.box.width),
    )


def _scheduler(system, batching, geometry):
    config = system.pipeline_config()
    config = replace(config, monitor=replace(config.monitor,
                                             **GEOMETRY[geometry]))
    return EpisodeScheduler(system.model, config,
                            engine=EngineConfig(monitor_batching=batching),
                            rng=0)


# ----------------------------------------------------------------------
# The gate is not vacuous: the reference route reaches every conv
# ----------------------------------------------------------------------
def test_reference_route_replaces_every_inference_conv(tiny_system):
    counts = {"infer": 0, "reference": 0}
    real_infer = F.conv2d_infer

    def counting_infer(*args, **kwargs):
        counts["infer"] += 1
        return real_infer(*args, **kwargs)

    def counting_reference(*args, **kwargs):
        counts["reference"] += 1
        return _training_forward(*args, **kwargs)

    image = _images(tiny_system)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "conv2d_infer", counting_infer)
        tiny_system.make_pipeline(rng=0).run(image)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "conv2d_infer", counting_reference)
        tiny_system.make_pipeline(rng=0).run(image)
    assert counts["infer"] > 0
    assert counts["reference"] == counts["infer"]


# ----------------------------------------------------------------------
# Monitor statistics: the Bayesian pass feeding Eq. (2)
# ----------------------------------------------------------------------
class TestMonitorStatistics:
    def test_mc_statistics_within_envelope_and_labels_identical(
            self, tiny_system):
        for image in _images(tiny_system, 3):
            infer, ref = _both_paths(
                lambda: tiny_system.make_segmenter(
                    rng=7).predict_distribution(image))
            scale = float(np.abs(ref.mean).max())
            assert float(np.abs(infer.mean - ref.mean).max()) <= \
                DEPTH_MAXNORM_REL * scale
            assert float(np.abs(infer.std - ref.std).max()) <= \
                DEPTH_MAXNORM_REL * max(scale, 1.0)
            assert np.array_equal(infer.predicted_labels,
                                  ref.predicted_labels)

    def test_deterministic_labels_identical(self, tiny_system):
        """The core function's full-frame labels (argmax over logits)
        do not flip a single pixel."""
        seg = tiny_system.make_segmenter(rng=0)
        for image in _images(tiny_system):
            infer, ref = _both_paths(lambda: seg.predict_labels(image))
            assert np.array_equal(infer, ref)


# ----------------------------------------------------------------------
# Episode decisions: zero verdict flips
# ----------------------------------------------------------------------
class TestDecisionVerdictGate:
    def test_zero_verdict_flips_on_monitored_episodes(self, tiny_system):
        infer, ref = _both_paths(lambda: [
            tiny_system.make_pipeline(rng=0).run(im)
            for im in _images(tiny_system)])
        for a, b in zip(infer, ref, strict=True):
            assert _episode_fingerprint(a) == _episode_fingerprint(b)
            assert np.array_equal(a.predicted_labels, b.predicted_labels)

    @pytest.mark.parametrize("geometry", sorted(GEOMETRY))
    @pytest.mark.parametrize("batching", BATCHING)
    def test_episode_scheduler_identical(self, tiny_system, batching,
                                         geometry):
        images = _images(tiny_system, 4)
        infer, ref = _both_paths(
            lambda: _scheduler(tiny_system, batching, geometry)
            .run_frames(images, seed=3))
        for a, b in zip(infer, ref, strict=True):
            assert _episode_fingerprint(a) == _episode_fingerprint(b)

    @pytest.mark.parametrize("geometry", sorted(GEOMETRY))
    @pytest.mark.parametrize("batching", BATCHING)
    def test_check_zones_wave_identical(self, tiny_system, batching,
                                        geometry):
        """The serving entry point: one wave of zone checks over several
        frames gives the same verdicts on both conv paths."""
        items = [(image, box) for image in _images(tiny_system, 3)
                 for box in _zone_boxes(image)]
        infer, ref = _both_paths(
            lambda: _scheduler(tiny_system, batching, geometry)
            .check_zones_wave(items))
        assert [_verdict_fingerprint(v) for v in infer] == \
            [_verdict_fingerprint(v) for v in ref]

    @pytest.mark.parametrize("preset", OOD_PRESETS)
    def test_ood_catch_behaviour_unchanged(self, tiny_system, preset):
        """The Fig. 4 catch behaviour on each OOD preset (acceptance,
        aborts, truly-unsafe accept counts) is identical: zero flips,
        not merely 'still safe'."""
        samples = tiny_system.ood_samples(preset)
        infer, ref = _both_paths(lambda: zone_acceptance_experiment(
            tiny_system, samples, monitor_enabled=True, rng=0))
        assert infer == ref


# ----------------------------------------------------------------------
# Fig. 4 catch-rate gate and campaign verdicts
# ----------------------------------------------------------------------
class TestFig4AndCampaignGate:
    def test_fig4_catch_rates_identical(self, tiny_system):
        """The full Fig. 4 protocol (in-distribution + OOD, model miss
        rate / monitor catch rate / false alarms): every statistic
        agrees exactly."""
        infer, ref = _both_paths(lambda: fig4_experiment(
            tiny_system, "sunset_ood", max_frames=4))
        assert infer == ref

    @pytest.mark.parametrize("preset", CAMPAIGN_PRESETS)
    def test_campaign_verdicts_identical(self, tiny_system, preset):
        """Seeded mission campaigns with the EL policy: outcome,
        severity and maneuver counts and the EL attempt/abort book do
        not change."""
        spec = get_scenario(preset).with_failure(NAV_COMM_LOSS) \
            .with_camera(tiny_system.config.dataset.image_shape,
                         tiny_system.config.dataset.gsd)

        def campaign():
            policy = tiny_system.make_pipeline(
                monitor_enabled=True, rng=0).as_mission_policy()
            return run_scenario_campaign(spec, 3, el_policy=policy,
                                         seed=11)

        infer, ref = _both_paths(campaign)
        assert infer.num_missions == ref.num_missions
        assert infer.severity_counts == ref.severity_counts
        assert infer.outcome_counts == ref.outcome_counts
        assert infer.maneuver_counts == ref.maneuver_counts
        assert (infer.el_attempts, infer.el_aborts) == \
            (ref.el_attempts, ref.el_aborts)
