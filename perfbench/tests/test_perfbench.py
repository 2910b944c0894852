"""The benchmark's own arithmetic, wrappers and tracing-overhead path."""

from __future__ import annotations

import math

import numpy as np
import pytest

from perfbench import layers, stats, worker
from perfbench.spans import Span, Tracer, covered_ns, layer_times
from perfbench.workloads import Block
from repro.core.engine import EpisodeScheduler
from repro.core.monitor import MonitorConfig, RuntimeMonitor
from repro.core.pipeline import PipelineConfig
from repro.nn import functional as F
from repro.segmentation.bayesian import BayesianSegmenter
from repro.segmentation.msdnet import MSDNet, MSDNetConfig
from repro.utils.geometry import Box


# -- percentiles ---------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 1) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_p99_of_1000_samples_leaves_ten_beyond_it():
    values = [float(v) for v in range(1000)]
    p99 = stats.percentile(values, 99)
    assert sum(v > p99 for v in values) == 10


def test_failed_requests_are_infinitely_late():
    served = [1.0] * 98
    assert stats.percentile(served + [math.inf] * 2, 99) == math.inf
    assert stats.percentile(served + [math.inf] * 2, 50) == 1.0
    # shedding load can never improve the reported latency
    assert stats.late_as_run(math.inf, 2000.0) == 2000.0
    assert stats.late_as_run(12.5, 2000.0) == 12.5


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_out_of_range_ranks(q):
    with pytest.raises(ValueError):
        stats.percentile([1.0], q)


def test_overhead_frac():
    assert stats.overhead_frac(100.0, 90.0) == pytest.approx(0.1)
    assert stats.overhead_frac(100.0, 105.0) == pytest.approx(-0.05)
    with pytest.raises(ValueError):
        stats.overhead_frac(0.0, 1.0)


# -- self time -----------------------------------------------------------
def _span(name, start, end, parent=None):
    span = Span(name, start, parent, None)
    span.end = end
    return span


def test_covered_ns_merges_and_clips():
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(2, 4), (3, 6), (8, 12)], 0, 10) == 6
    assert covered_ns([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered_ns([(4, 4)], 0, 10) == 0


def test_layer_self_time_subtracts_foreign_children_only():
    layer_of = {"mon": "monitor", "mon.inner": "monitor",
                "seg": "seg", "conv": "conv"}.get
    spans = [
        _span("mon", 0, 100),              # 0: outermost monitor
        _span("mon.inner", 10, 90, 0),     # 1: same layer, nested
        _span("seg", 20, 60, 1),           # 2: foreign under 1
        _span("conv", 30, 50, 2),          # 3: foreign under 2
        _span("conv", 70, 80, 1),          # 4: foreign under 1
        _span("seg", 200, 210),            # 5: a second root
    ]
    t = layer_times(spans, layer_of)
    assert t["monitor"] == {"calls": 1, "total_ns": 100, "self_ns": 50}
    assert t["seg"] == {"calls": 2, "total_ns": 50, "self_ns": 30}
    assert t["conv"] == {"calls": 2, "total_ns": 30, "self_ns": 30}


def test_overlapping_children_are_not_subtracted_twice():
    layer_of = {"p": "p", "c": "c"}.get
    spans = [_span("p", 0, 100), _span("c", 10, 60, 0),
             _span("c", 40, 80, 0)]
    assert layer_times(spans, layer_of)["p"]["self_ns"] == 30


# -- wrappers ------------------------------------------------------------
class _Owner:
    def twice(self, x):
        return 2 * x

    async def later(self, x):
        return x + 1


def test_wrap_records_spans_and_restores_originals():
    original = _Owner.__dict__["twice"]
    with Tracer() as tracer:
        assert tracer.wrap(_Owner, "twice", "t")
        assert not tracer.wrap(_Owner, "missing", "m")
        tracer.request = 7
        assert _Owner().twice(4) == 8
        assert _Owner.__dict__["twice"] is not original
    assert _Owner.__dict__["twice"] is original
    (span,) = tracer.spans
    assert (span.name, span.request, span.parent) == ("t", 7, None)
    assert span.end >= span.start


def test_wrap_skips_coroutines_and_restores_after_exceptions():
    tracer = Tracer()
    assert not tracer.wrap(_Owner, "later", "l")
    assert not tracer.installed

    class Boom:
        def go(self):
            raise KeyError("x")

    with pytest.raises(KeyError):
        with Tracer() as t2:
            t2.wrap(Boom, "go", "g")
            Boom().go()
    assert "go" in Boom.__dict__ and Boom.__dict__["go"].__name__ == "go"
    assert not hasattr(Boom.__dict__["go"], "__wrapped__")


def _tiny_model():
    model = MSDNet(MSDNetConfig(base_channels=8, num_blocks=1), rng=0)
    model.eval()
    return model


def _originals():
    return {(owner, attr): vars(owner)[attr]
            for owner, attrs, _ in layers.TARGETS for attr in attrs
            if attr in vars(owner)}


def test_layer_wrappers_time_real_calls_then_leave():
    before = _originals()
    model = _tiny_model()
    image = np.random.default_rng(0).random((3, 32, 32)).astype(np.float32)
    segmenter = BayesianSegmenter(model, num_samples=2, rng=0)
    monitor = RuntimeMonitor(segmenter, MonitorConfig(num_samples=2))
    scheduler = EpisodeScheduler(model, PipelineConfig(
        monitor=MonitorConfig(num_samples=2)))
    tracer, wave_of = Tracer(), {}
    with tracer:
        assert layers.install(tracer, wave_of) == len(before)
        segmenter.predict_labels(image)
        monitor.check_zone(image, Box(4, 4, 8, 8))
        box = Box(0, 0, 8, 8)
        scheduler.check_zones_wave([(image, box), (image, Box(8, 8, 8, 8))])
    assert _originals() == before
    assert F.conv2d_infer is before[(F, "conv2d_infer")]

    names = {s.name for s in tracer.spans}
    assert {"conv", "seg.labels", "seg.mc", "monitor", "monitor.rule",
            "engine.wave"} <= names
    assert wave_of[id(box)].info == 2
    tally = {"verdicts": 3, "accepted": 1, "samples": 6, "budget": 6,
             "attempts": 0, "seg_s": 0.0, "monitor_s": 0.0, "rejected": 0}
    m = layers.per_layer(tracer.spans, tally, ops=3, wall_s=1.0,
                         requests=[(10, 2, 5)])
    assert set(m) | {"setup.import_s", "setup.load_s", "setup.construct_s",
                     "setup.warmup_s", "host.cpu_count",
                     "host.blas_threads", "host.steal_frac",
                     "trace.overhead_frac"} == set(layers.PER_LAYER_UNITS)
    assert m["monitor.checks"] == pytest.approx(1.0)  # 1 + 2 rows / 3 ops
    assert m["engine.crops_per_pass"] == pytest.approx(1.5)
    assert m["conv.gflop"] > 0 and m["conv.busy_ms"] > 0
    assert m["broker.wave_size"] == 2
    assert m["broker.handoff_ms"] == pytest.approx(3e-6)


# -- the traced run ------------------------------------------------------
class _FakeWorkload:
    """Untraced blocks do 100 ops/s, traced ones 80 ops/s."""

    def __init__(self, fail_traced=False):
        self.fail_traced = fail_traced
        self.saw_wrappers = []

    def block(self, seconds, tracer=None, wave_of=None):
        traced = tracer is not None
        self.saw_wrappers.append(
            F.__dict__["conv2d_infer"] is not _ORIGINAL_CONV)
        if traced and self.fail_traced:
            raise RuntimeError("traced block failed")
        return Block(ops=80 if traced else 100, wall_s=1.0)


_ORIGINAL_CONV = F.__dict__["conv2d_infer"]


def test_traced_run_measures_overhead_and_removes_wrappers():
    fake = _FakeWorkload()
    out = worker._traced(fake, 4.0)
    assert fake.saw_wrappers == [False, True, False, True]
    assert F.conv2d_infer is _ORIGINAL_CONV
    assert out["per_layer"]["trace.overhead_frac"] == pytest.approx(0.2)
    assert out["ops"] == 360 and out["failed"] == 0


def test_wrappers_are_removed_when_a_traced_block_fails():
    with pytest.raises(RuntimeError):
        worker._traced(_FakeWorkload(fail_traced=True), 4.0)
    assert F.conv2d_infer is _ORIGINAL_CONV


# -- quiet blocks ----------------------------------------------------------
def test_stolen_blocks_are_set_aside_up_to_a_third():
    assert stats.quiet_blocks([0.0, 0.02, 0.0, 0.005]) == [0, 2, 3]
    # everything stolen: the least-stolen two thirds stay
    assert stats.quiet_blocks([0.09, 0.03, 0.05, 0.04, 0.02, 0.08]) \
        == [1, 2, 3, 4]
    assert stats.quiet_blocks([0.5]) == [0]


def _block(latencies, steal, failed=0, stolen=()):
    return {"ops": len(latencies) + len(stolen) + failed, "failed": failed,
            "wall_s": 1.0, "steal": steal, "latencies_ms": list(latencies),
            "stolen_ms": list(stolen)}


def test_end_to_end_uses_quiet_blocks_but_every_failure():
    quiet = [_block([10.0] * 99 + [30.0], 0.0) for _ in range(3)]
    stolen = _block([50.0] * 95, 0.2, failed=5)
    m = stats.end_to_end(quiet + [stolen])
    assert m["kept_blocks"] == 3
    assert m["throughput_per_s"] == pytest.approx(100.0)
    assert m["samples"] == 305          # 300 quiet + the 5 failures
    assert m["p50_ms"] == 10.0
    # 5 + 3 slow of 305 lie above 10 ms: p99 is a failure, i.e. the run
    assert m["p99_ms"] == pytest.approx(4000.0)


def test_latencies_overlapping_steal_are_left_out_unless_most():
    few = [_block([10.0] * 90, 0.0, stolen=[80.0] * 10)]
    assert stats.end_to_end(few)["p99_ms"] == 10.0
    assert stats.end_to_end(few)["samples"] == 90
    most = [_block([10.0] * 10, 0.0, stolen=[80.0] * 90)]
    assert stats.end_to_end(most)["p50_ms"] == 80.0
    assert stats.end_to_end(most)["samples"] == 100
