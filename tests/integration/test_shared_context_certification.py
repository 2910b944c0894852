"""Shared-context certification gate.

The shared-context monitor is a non-bit-exact mode like the joint
pass, but its deviation is *statistical* rather than a change of RNG
stream: merged
union windows draw their dropout masks over window activations, so a
merged zone's moments are a fresh Monte-Carlo resample — and its crop
border sees real context where the per-zone crop saw zero padding.
Two consequences, both certified here on the seeded trained system:

* **Where sharing cannot change anything, it must not.**  A single-box
  shared call is bit-for-bit :meth:`RuntimeMonitor.check_zone`; a
  merge-free plan is bit-for-bit the joint pass (both in
  ``tests/core/test_union_geometry.py``); and the Fig. 4 full-frame
  monitor statistics — the paper's certification currency — are
  asserted identical here, through the shared planner and through the
  whole ``fig4_experiment`` protocol under ``REPRO_MONITOR_SHARED=1``.
* **Where sharing does change moments, the change must be bounded and
  benign.**  The per-zone (ROI-restricted) moment deviation against
  the sequential per-zone pass is pinned under an empirical envelope,
  and a *fidelity* gate asserts the sharper claim: measured against a
  high-T full-frame reference posterior, the merged windows' zone
  moments are at least as faithful as the small sequential crops'
  (more real context, less zero padding — the dense-risk-map framing
  of the related work).  System-level, the paper's two safety books
  (busy-road and high-risk acceptance counts) and the seeded mission
  campaign books must not flip between the exact and shared engines.

Raw per-zone accept/reject bits on *borderline* zones are NOT pinned
across engines: at T monitor samples they are as seed-sensitive as the
sequential monitor itself under reseeding (this is equally true of the
PR 3 joint pass, and is measured/documented in the bench).  The gates
above pin everything the certification argument actually consumes.
"""

import numpy as np
import pytest

from dataclasses import replace

from repro.core import EngineConfig
from repro.core.monitor import RuntimeMonitor
from repro.eval.harness import fig4_experiment, zone_acceptance_experiment
from repro.scenarios import NAV_COMM_LOSS, get_scenario, run_scenario_campaign
from repro.utils.geometry import Box

#: Certification monitor geometry: the Fig. 2 crop is "the candidate
#: zone plus its drift buffer"; margin 9 px is the conservative buffer
#: of the stream drift model at the 1 m/px repro scale, the regime
#: where neighbouring crops overlap and union windows actually merge.
MARGIN_PX = 9
OVERLAP_BUDGET = 1.3
#: Sample count of the envelope measurements (higher than the tiny
#: system's T=6 so the envelope reflects the engine, not just noise).
ENVELOPE_T = 24
#: Empirical ROI moment envelopes (measured max 0.527 / 0.225 on this
#: seeded system at T=24; pinned with headroom for platform drift).
ROI_MU_ENVELOPE = 0.7
ROI_STD_ENVELOPE = 0.35
#: Fidelity gate: shared-window zone moments must track the high-T
#: full-frame posterior at least as closely as sequential crops do
#: (measured ratios ~0.7-0.76; 1.1 leaves room for platform drift).
FIDELITY_FACTOR = 1.1

OOD_PRESETS = ("sunset_ood", "night_ood", "fog_ood")
CAMPAIGN_PRESETS = ("nav_comm_loss_delivery", "sunset_nav_loss")


def _cert_monitor_config(system, num_samples=None):
    return replace(
        system.monitor_config(num_samples=num_samples),
        context_margin_px=MARGIN_PX, overlap_budget=OVERLAP_BUDGET)


def _cert_cases(system, max_frames=6):
    """(image, boxes, spans) triples with at least two candidates."""
    pipe = system.make_pipeline(rng=0)
    cases = []
    for sample in system.test_samples[:max_frames]:
        labels = pipe.segmenter.predict_labels(sample.image)
        boxes = [c.box for c in pipe.selector.propose(labels)][:3]
        if len(boxes) >= 2:
            cases.append((sample.image, boxes))
    assert cases, "certification needs frames with multiple candidates"
    return cases


def _roi_deviation(verdict_a, verdict_b, roi) -> tuple[float, float]:
    """Max |delta mu| / |delta sigma| over the zone's ROI pixels."""
    dmu = np.abs(roi.extract(verdict_a.distribution.mean)
                 - roi.extract(verdict_b.distribution.mean))
    dsd = np.abs(roi.extract(verdict_a.distribution.std)
                 - roi.extract(verdict_b.distribution.std))
    return float(dmu.max()), float(dsd.max())


# ----------------------------------------------------------------------
# Moment envelope and full-frame fidelity
# ----------------------------------------------------------------------
class TestMomentEnvelope:
    def test_roi_moments_within_envelope(self, tiny_system):
        """Every zone's shared-pass ROI moments stay within the pinned
        envelope of the per-zone sequential pass — merged windows
        included."""
        cfg = _cert_monitor_config(tiny_system, num_samples=ENVELOPE_T)
        for image, boxes in _cert_cases(tiny_system):
            seq_monitor = RuntimeMonitor(
                tiny_system.make_segmenter(rng=7), cfg)
            spans = [seq_monitor._padded_spans(image, b) for b in boxes]
            v_seq = [seq_monitor.check_zone(image, b) for b in boxes]
            sh_monitor = RuntimeMonitor(
                tiny_system.make_segmenter(rng=7), cfg)
            v_sh = sh_monitor.check_zones(image, boxes, joint=True,
                                          shared=True)
            for (crop_box, roi), a, b in zip(spans, v_seq, v_sh):
                dmu, dsd = _roi_deviation(a, b, roi)
                assert dmu <= ROI_MU_ENVELOPE
                assert dsd <= ROI_STD_ENVELOPE

    def test_envelope_gate_catches_regressions(self, tiny_system):
        """Meta-test (PR 4 pattern): a computational error larger than
        the envelope is caught by the same measurement the gate runs —
        the envelope is tight enough to mean something."""
        from repro.segmentation.bayesian import PixelDistribution

        cfg = _cert_monitor_config(tiny_system, num_samples=ENVELOPE_T)
        image, boxes = _cert_cases(tiny_system)[0]
        monitor = RuntimeMonitor(tiny_system.make_segmenter(rng=7), cfg)
        spans = [monitor._padded_spans(image, b) for b in boxes]
        verdict = monitor.check_zone(image, boxes[0])
        broken = replace(
            verdict,
            distribution=PixelDistribution(
                mean=verdict.distribution.mean + 2 * ROI_MU_ENVELOPE,
                std=verdict.distribution.std + 2 * ROI_STD_ENVELOPE,
                num_samples=verdict.distribution.num_samples))
        dmu, dsd = _roi_deviation(verdict, broken, spans[0][1])
        assert dmu > ROI_MU_ENVELOPE
        assert dsd > ROI_STD_ENVELOPE

    def test_merged_windows_track_full_frame_reference(self, tiny_system):
        """The sharper certification claim: against a high-T full-frame
        posterior, zone moments sliced from merged union windows are at
        least as faithful as the per-zone sequential crops (the union
        window replaces zero padding at the crop border with real
        context)."""
        cfg = _cert_monitor_config(tiny_system, num_samples=ENVELOPE_T)
        err_seq, err_sh = [], []
        for image, boxes in _cert_cases(tiny_system):
            seq_monitor = RuntimeMonitor(
                tiny_system.make_segmenter(rng=7), cfg)
            spans = [seq_monitor._padded_spans(image, b) for b in boxes]
            windows = seq_monitor.plan_union_windows(
                image.shape[1:], [crop for crop, _ in spans])
            merged = {i for w in windows if not w.is_single
                      for i in w.members}
            if not merged:
                continue
            v_seq = [seq_monitor.check_zone(image, b) for b in boxes]
            sh_monitor = RuntimeMonitor(
                tiny_system.make_segmenter(rng=7), cfg)
            v_sh = sh_monitor.check_zones(image, boxes, joint=True,
                                          shared=True)
            reference = tiny_system.make_segmenter(rng=99)\
                .predict_distribution(image, num_samples=64)
            for i in merged:
                box = boxes[i]
                _, roi = spans[i]
                mu_ff = box.extract(reference.mean)
                mu_seq = roi.extract(v_seq[i].distribution.mean)
                mu_sh = roi.extract(v_sh[i].distribution.mean)
                err_seq.append(float(np.abs(mu_seq - mu_ff).max()))
                err_sh.append(float(np.abs(mu_sh - mu_ff).max()))
        assert err_sh, "no merged windows in the certification cases"
        assert float(np.mean(err_sh)) <= \
            FIDELITY_FACTOR * float(np.mean(err_seq))
        assert max(err_sh) <= FIDELITY_FACTOR * max(err_seq)


# ----------------------------------------------------------------------
# Fig. 4: the catch-rate gate (zero flips, structurally)
# ----------------------------------------------------------------------
class TestFig4Gate:
    def test_full_frame_unsafe_identical_through_shared_planner(
            self, tiny_system):
        """The full-frame Eq. (2) mask — the Fig. 4 measurement — is
        bit-for-bit identical whether it runs through the classic
        full-frame pass or the shared-context planner (one box, one
        window, no merge)."""
        cfg = _cert_monitor_config(tiny_system)
        for sample in tiny_system.test_samples[:4]:
            image = sample.image
            h, w = image.shape[1:]
            ref = RuntimeMonitor(tiny_system.make_segmenter(rng=5),
                                 cfg).full_frame_unsafe(image)
            verdict = RuntimeMonitor(
                tiny_system.make_segmenter(rng=5), cfg).check_zones(
                image, [Box(0, 0, h, w)], joint=True, shared=True)[0]
            assert np.array_equal(ref, verdict.unsafe_mask)

    def test_fig4_experiment_identical_under_shared_env(
            self, tiny_system, monkeypatch):
        """The whole Fig. 4 protocol — model miss rate, monitor catch
        rate, false alarms, in-distribution and OOD — must not move
        when the process-wide shared-context toggle is on: zero
        catch-rate flips."""
        monkeypatch.delenv("REPRO_MONITOR_SHARED", raising=False)
        baseline = fig4_experiment(tiny_system, "sunset_ood",
                                   max_frames=4)
        monkeypatch.setenv("REPRO_MONITOR_SHARED", "1")
        shared = fig4_experiment(tiny_system, "sunset_ood",
                                 max_frames=4)
        assert baseline == shared


# ----------------------------------------------------------------------
# System level: safety books and campaign outcomes
# ----------------------------------------------------------------------
class TestSystemGate:
    @pytest.mark.parametrize("preset", OOD_PRESETS)
    def test_safety_books_identical_on_ood_presets(self, tiny_system,
                                                   preset):
        """The paper's two safety numbers — busy-road and high-risk
        acceptance counts — are identical between the exact and shared
        engines on every seeded OOD preset (acceptance itself may move
        by monitor sampling noise; the safety books may not)."""
        samples = tiny_system.ood_samples(preset)
        exact = zone_acceptance_experiment(
            tiny_system, samples, monitor_enabled=True, rng=0)
        shared = zone_acceptance_experiment(
            tiny_system, samples, monitor_enabled=True, rng=0,
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3))
        again = zone_acceptance_experiment(
            tiny_system, samples, monitor_enabled=True, rng=0,
            engine=EngineConfig(monitor_batching="shared",
                                speculative_k=3))
        assert shared == again, "shared run must be seeded-reproducible"
        for key in ("road_unsafe_accepted", "high_risk_accepted"):
            assert exact[key] == shared[key], (
                f"{preset}: safety book {key} flipped under the "
                "shared-context engine")

    @pytest.mark.parametrize("preset", CAMPAIGN_PRESETS)
    def test_campaign_books_identical(self, tiny_system, preset):
        """Seeded mission campaigns with speculative EL policies on the
        joint vs shared engines: outcome, severity and maneuver counts
        and the EL attempt/abort book must not change — zero
        campaign-outcome flips on the seeded presets."""
        spec = get_scenario(preset).with_failure(NAV_COMM_LOSS) \
            .with_camera(tiny_system.config.dataset.image_shape,
                         tiny_system.config.dataset.gsd)
        books = {}
        for mode in ("joint", "shared"):
            policy = tiny_system.make_pipeline(
                monitor_enabled=True, rng=0, speculative_k=3,
                engine=EngineConfig(monitor_batching=mode,
                                    speculative_k=3)
            ).as_mission_policy()
            books[mode] = run_scenario_campaign(spec, 3,
                                                el_policy=policy,
                                                seed=11)
        joint, shared = books["joint"], books["shared"]
        assert joint.num_missions == shared.num_missions
        assert joint.severity_counts == shared.severity_counts
        assert joint.outcome_counts == shared.outcome_counts
        assert joint.maneuver_counts == shared.maneuver_counts
        assert (joint.el_attempts, joint.el_aborts) == \
            (shared.el_attempts, shared.el_aborts)
