"""Which public calls the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Every span wraps a
public function, so a refactor of private helpers leaves the traced run
working; a public function that disappears is simply not wrapped and
its metrics read 0.

Per-operation metrics divide by the workload's operations: frames for
``frame`` and ``fleet``, zone checks for ``serve``.
"""

from __future__ import annotations

import math

from repro.core.decision import DecisionCursor, DecisionModule
from repro.core.engine import EpisodeScheduler
from repro.core.landing_zone import LandingZoneSelector
from repro.core.monitor import RuntimeMonitor
from repro.core.pipeline import LandingPipeline
from repro.nn import functional as F
from repro.segmentation.bayesian import BayesianSegmenter

from perfbench.spans import Tracer, layer_times
from perfbench.stats import percentile

#: Span name -> the module (layer) its wrapped functions live in.
LAYER_OF_SPAN = {
    "conv": "nn.functional",
    "seg.labels": "segmentation.bayesian",
    "seg.mc": "segmentation.bayesian",
    "select": "core.landing_zone",
    "monitor": "core.monitor",
    "monitor.rule": "core.monitor",
    "decision": "core.decision",
    "engine.run": "core.engine",
    "engine.wave": "core.engine",
    "pipeline": "core.pipeline",
}

#: ``(owner, attributes, span name)`` of every wrapped public call.
TARGETS = (
    (F, ("conv2d_infer",), "conv"),
    (BayesianSegmenter, ("predict_labels", "predict_labels_batch"),
     "seg.labels"),
    (BayesianSegmenter, ("predict_distribution",
                         "predict_distribution_sequential",
                         "predict_distribution_stack",
                         "predict_distribution_ragged",
                         "predict_distribution_adaptive",
                         "predict_distribution_batch"), "seg.mc"),
    (LandingZoneSelector, ("propose",), "select"),
    (RuntimeMonitor, ("check_zone", "check_zones"), "monitor"),
    (RuntimeMonitor, ("unsafe_from_upper",), "monitor.rule"),
    (DecisionModule, ("decide",), "decision"),
    (DecisionCursor, ("next_batch", "feed", "finalize"), "decision"),
    (EpisodeScheduler, ("run",), "engine.run"),
    (EpisodeScheduler, ("check_zones_wave",), "engine.wave"),
    (LandingPipeline, ("run",), "pipeline"),
)

#: Every per-layer metric with its unit, in output order.
PER_LAYER_UNITS = {
    "conv.calls": "calls/op", "conv.busy_ms": "ms/op",
    "conv.gflop": "GFLOP/op", "conv.gflops": "GFLOP/s",
    "seg.labels_ms": "ms/op", "seg.mc_ms": "ms/op",
    "seg.self_ms": "ms/op", "mc.samples": "samples/op",
    "mc.saved_frac": "fraction",
    "select.ms": "ms/op", "select.candidates": "boxes/call",
    "monitor.ms": "ms/op", "monitor.self_ms": "ms/op",
    "monitor.checks": "checks/op", "monitor.accept_frac": "fraction",
    "decision.self_ms": "ms/op", "decision.attempts": "attempts/op",
    "decision.checked_per_used": "ratio",
    "engine.seg_ms": "ms/op", "engine.pass_ms": "ms/op",
    "engine.self_ms": "ms/op", "engine.passes": "passes/op",
    "engine.crops_per_pass": "crops/pass",
    "engine.crop_px_per_check": "px/check",
    "broker.waves": "1/s", "broker.wave_size": "checks/wave",
    "broker.queue_p50_ms": "ms", "broker.queue_p99_ms": "ms",
    "broker.wave_ms": "ms/wave", "broker.handoff_ms": "ms",
    "broker.rejected": "count",
    "setup.import_s": "s", "setup.load_s": "s",
    "setup.construct_s": "s", "setup.warmup_s": "s",
    "host.cpu_count": "count", "host.blas_threads": "count",
    "host.steal_frac": "fraction", "trace.overhead_frac": "fraction",
}


def _conv_flop(span, args, kwargs, result) -> None:
    """Multiply-adds of one conv call, counted from tensor shapes."""
    x = args[0] if args else kwargs["x"]
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    if x.shape[0] > 1 and x.strides[0] == 0:
        span.info = 0  # a broadcast batch: the nested call does the work
    else:
        _, c_in, kh, kw = weight.shape
        span.info = 2 * result.size * c_in * kh * kw


def _rule_rows(span, args, kwargs, result) -> None:
    """Crops in one Eq. (2) evaluation and pixels per crop."""
    upper = args[1] if len(args) > 1 else kwargs["upper"]
    rows = math.prod(int(n) for n in upper.shape[:-3])
    span.info = (rows, int(upper.shape[-2]) * int(upper.shape[-1]))


def _candidates(span, args, kwargs, result) -> None:
    span.info = len(result)


def install(tracer: Tracer, wave_of: dict) -> int:
    """Wrap every target; returns the number of wrappers installed.

    ``wave_of`` receives ``id(box) -> wave span`` for every zone check
    a ``check_zones_wave`` call served, so the serve client can split
    its latency into queueing, wave and hand-off time.
    """
    def wave_items(span, args, kwargs, result):
        items = args[1] if len(args) > 1 else kwargs["items"]
        span.info = len(items)
        for _image, box in items:
            wave_of[id(box)] = span

    observers = {"conv": _conv_flop, "monitor.rule": _rule_rows,
                 "select": _candidates, "engine.wave": wave_items}
    for owner, attrs, name in TARGETS:
        for attr in attrs:
            tracer.wrap(owner, attr, name, observe=observers.get(name))
    return tracer.installed


def _outermost(spans, name):
    """Spans called ``name`` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        p = span.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(span)
    return out


def _ms(ns: float) -> float:
    return ns / 1e6


def per_layer(spans, tally: dict, ops: int, wall_s: float,
              requests: list) -> dict:
    """The per-layer metrics of one traced measurement.

    ``tally`` holds the counts the workload read from the program's
    outputs (verdicts, samples, attempts and the program-reported
    segmentation/monitoring seconds); ``requests`` holds the serve
    client's ``(latency_ns, queue_ns, wave_ns)`` records.
    """
    ops = max(ops, 1)
    layers = layer_times(spans, LAYER_OF_SPAN.get)

    def self_ms(layer):
        return _ms(layers.get(layer, {}).get("self_ns", 0)) / ops

    def busy(name):
        found = _outermost(spans, name)
        return len(found), sum(s.duration for s in found)

    conv_calls, conv_ns = busy("conv")
    flop = sum(s.info or 0 for s in spans if s.name == "conv")
    rules = [s.info for s in spans if s.name == "monitor.rule"]
    rows = sum(r for r, _ in rules)
    crop_px = sum(r * px for r, px in rules)
    selects = [s.info for s in spans if s.name == "select"]
    waves = [s for s in spans if s.name == "engine.wave"]
    verdicts = tally["verdicts"]

    m = {
        "conv.calls": conv_calls / ops,
        "conv.busy_ms": _ms(conv_ns) / ops,
        "conv.gflop": flop / 1e9 / ops,
        "conv.gflops": flop / conv_ns if conv_ns else 0.0,
        "seg.labels_ms": _ms(busy("seg.labels")[1]) / ops,
        "seg.mc_ms": _ms(busy("seg.mc")[1]) / ops,
        "seg.self_ms": self_ms("segmentation.bayesian"),
        "mc.samples": tally["samples"] / ops,
        "mc.saved_frac": (1.0 - tally["samples"] / tally["budget"]
                          if tally["budget"] else 0.0),
        "select.ms": _ms(busy("select")[1]) / ops,
        "select.candidates": (sum(selects) / len(selects)
                              if selects else 0.0),
        "monitor.ms": _ms(busy("monitor")[1]) / ops,
        "monitor.self_ms": self_ms("core.monitor"),
        "monitor.checks": rows / ops,
        "monitor.accept_frac": (tally["accepted"] / verdicts
                                if verdicts else 0.0),
        "decision.self_ms": self_ms("core.decision"),
        "decision.attempts": tally["attempts"] / ops,
        "decision.checked_per_used": rows / verdicts if verdicts else 0.0,
        "engine.seg_ms": tally["seg_s"] * 1e3 / ops,
        "engine.pass_ms": (tally["monitor_s"] * 1e3 if not waves else
                           _ms(sum(s.duration for s in waves))) / ops,
        "engine.self_ms": self_ms("core.engine"),
        "engine.passes": len(rules) / ops,
        "engine.crops_per_pass": rows / len(rules) if rules else 0.0,
        "engine.crop_px_per_check": crop_px / rows if rows else 0.0,
    }
    queue = [q / 1e6 for _, q, _ in requests]
    m.update({
        "broker.waves": len(waves) / wall_s if wall_s > 0 else 0.0,
        "broker.wave_size": (sum(s.info for s in waves) / len(waves)
                             if waves else 0.0),
        "broker.queue_p50_ms": percentile(queue, 50) if queue else 0.0,
        "broker.queue_p99_ms": percentile(queue, 99) if queue else 0.0,
        "broker.wave_ms": (_ms(sum(s.duration for s in waves)) / len(waves)
                           if waves else 0.0),
        "broker.handoff_ms": (sum(lat - q - w for lat, q, w in requests)
                              / 1e6 / len(requests) if requests else 0.0),
        "broker.rejected": float(tally["rejected"]),
    })
    return m


def layer_table(spans, ops: int) -> list[str]:
    """Human-readable calls, total and self time per layer and op."""
    ops = max(ops, 1)
    lines = [f"{'layer':<24}{'calls/op':>10}{'total ms/op':>13}"
             f"{'self ms/op':>12}"]
    for layer, t in sorted(layer_times(spans, LAYER_OF_SPAN.get).items()):
        lines.append(f"{layer:<24}{t['calls'] / ops:>10.2f}"
                     f"{_ms(t['total_ns']) / ops:>13.3f}"
                     f"{_ms(t['self_ns']) / ops:>12.3f}")
    return lines
