"""SERVE bench: monitoring-as-a-service under open-loop traffic.

The serving stack (PR 9) turns the episode engine into a shared
online service: many concurrent clients submit zone checks, the
``ServeBroker`` takes everything queued into one wave until arrivals
stop, and each admitted wave runs as one joint engine pass.  This
bench measures the operational story the README's Serving section
tells:

* **capacity** — closed-loop checks/sec through the broker (each
  round stacks a full wave, so this is the engine's joint-pass
  throughput as seen *through* the asyncio front door);
* **sustained open-loop traffic** — requests arrive on a fixed clock
  at a fraction of measured capacity, whether or not earlier requests
  have finished (the honest serving regime): sustained checks/sec plus
  client-side p50/p99 latency;
* **overload burst** — a tiny admission queue is deliberately flooded;
  the no-silent-drop ledger must balance: every request is either
  served or shed with a typed ``AdmissionRejected`` (gated boolean).

Raw checks/sec is machine-dependent, so ``serve_throughput_cps`` is
gated only on multi-core hosts (``min_cores`` spec); the boolean
contract and the tracked trajectory cover the 1-core CI box.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from _bench_utils import write_bench_summary
from repro.eval.reporting import format_table, format_title
from repro.serve import AdmissionRejected, ServeBroker, ServeConfig
from repro.utils.geometry import Box

BENCH_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

ZONES_PER_FRAME = 6
CLOSED_LOOP_ROUNDS = 3 if BENCH_SMOKE else 8
OPEN_LOOP_REQUESTS = 48 if BENCH_SMOKE else 240
#: Offered open-loop rate as a fraction of measured capacity — far
#: enough below saturation that queueing delay, not shedding, is the
#: story, while still exercising admission batching.
OPEN_LOOP_UTILISATION = 0.6
OVERLOAD_REQUESTS = 24 if BENCH_SMOKE else 64


def _boxes(frame, n=ZONES_PER_FRAME):
    height, width = frame.shape[-2:]
    return [Box((k * 7) % max(height - 16, 1),
                (k * 11) % max(width - 16, 1), 14, 14)
            for k in range(n)]


async def _closed_loop_capacity(broker, frame, boxes) -> float:
    """Checks/sec with each wave fully stacked (the capacity probe)."""
    await broker.check_zones(frame, boxes)  # warm-up
    best = float("inf")
    for _ in range(CLOSED_LOOP_ROUNDS):
        start = time.perf_counter()
        await broker.check_zones(frame, boxes)
        best = min(best, time.perf_counter() - start)
    return len(boxes) / best


async def _open_loop(broker, frame, boxes, rate_cps, total):
    """Fire ``total`` requests on a fixed clock; gather latencies."""
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    rejected = 0

    async def one(box):
        nonlocal rejected
        start = time.perf_counter()
        try:
            await broker.check_zone(frame, box)
        except AdmissionRejected:
            rejected += 1
        else:
            latencies.append(time.perf_counter() - start)

    interval = 1.0 / rate_cps
    tasks = []
    t0 = loop.time()
    wall_start = time.perf_counter()
    for k in range(total):
        delay = (t0 + k * interval) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(
            one(boxes[k % len(boxes)])))
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - wall_start
    return latencies, rejected, wall


async def _overload_burst(model, config, frame, box):
    """Flood a deliberately tiny queue; return the shedding ledger."""
    serve = ServeConfig(queue_depth=2, max_wave=2)
    async with ServeBroker(model, config=config, serve=serve,
                           rng=0) as broker:
        outcomes = await asyncio.gather(
            *(broker.check_zone(frame, box)
              for _ in range(OVERLOAD_REQUESTS)),
            return_exceptions=True)
    served = sum(1 for o in outcomes
                 if not isinstance(o, BaseException))
    rejected = sum(1 for o in outcomes
                   if isinstance(o, AdmissionRejected))
    stray = OVERLOAD_REQUESTS - served - rejected
    stats = broker.stats
    ledger_ok = (stray == 0
                 and stats["admitted"] == served
                 and stats["rejected_queue_full"]
                 + stats["rejected_invalid"] == rejected)
    return {"requests": OVERLOAD_REQUESTS, "served": served,
            "rejected_queue_full": rejected, "queue_depth": 2,
            "ledger_balanced": bool(ledger_ok)}


async def _serve_phase(model, config, frame):
    boxes = _boxes(frame)
    async with ServeBroker(model, config=config, rng=0) as broker:
        capacity_cps = await _closed_loop_capacity(broker, frame,
                                                   boxes)
        offered_cps = capacity_cps * OPEN_LOOP_UTILISATION
        before = dict(broker.stats)  # capacity probe's admissions
        latencies, rejected, wall = await _open_loop(
            broker, frame, boxes, offered_cps, OPEN_LOOP_REQUESTS)
    stats = broker.stats
    admitted = stats["admitted"] - before["admitted"]
    open_ok = (len(latencies) + rejected == OPEN_LOOP_REQUESTS
               and admitted == len(latencies)
               and stats["rejected_invalid"] == 0)
    overload = await _overload_burst(model, config, frame, boxes[0])
    # Open loop only: the capacity probe's waves are not counted.
    stats = dict(stats, waves=stats["waves"] - before["waves"],
                 admitted=admitted)
    return (capacity_cps, offered_cps, latencies, rejected, wall,
            stats, open_ok, overload)


def test_serve_broker_load(system, emit):
    config = system.pipeline_config()
    frame = system.test_samples[0].image
    (capacity_cps, offered_cps, latencies, rejected, wall, stats,
     open_ok, overload) = asyncio.run(
        _serve_phase(system.model, config, frame))

    lat_ms = np.sort(np.asarray(latencies, dtype=np.float64)) * 1e3
    p50 = float(np.percentile(lat_ms, 50))
    p99 = float(np.percentile(lat_ms, 99))
    throughput_cps = len(latencies) / wall
    mean_wave = stats["admitted"] / max(stats["waves"], 1)

    no_silent_drops = bool(open_ok and overload["ledger_balanced"])
    summary = {
        "cpu_count": os.cpu_count(),
        "zones_per_frame": ZONES_PER_FRAME,
        "serve_capacity_cps": round(capacity_cps, 2),
        "serve_throughput_cps": round(throughput_cps, 2),
        "serve_p50_ms": round(p50, 3),
        "serve_p99_ms": round(p99, 3),
        "serve_no_silent_drops": no_silent_drops,
        "open_loop": {
            "requests": OPEN_LOOP_REQUESTS,
            "offered_cps": round(offered_cps, 2),
            "utilisation": OPEN_LOOP_UTILISATION,
            "served": len(latencies),
            "rejected_queue_full": rejected,
            "wall_s": round(wall, 3),
            "waves": stats["waves"],
            "mean_wave": round(mean_wave, 2),
        },
        "overload": overload,
    }
    out = write_bench_summary("BENCH_serve.json", summary,
                              smoke=BENCH_SMOKE)

    emit("\n" + format_title(
        "SERVE: broker capacity, open-loop latency, backpressure"))
    emit(format_table(
        ["metric", "value"],
        [["capacity (closed loop)", f"{capacity_cps:.1f} checks/s"],
         ["offered (open loop)",
          f"{offered_cps:.1f} checks/s "
          f"({OPEN_LOOP_UTILISATION:.0%} util)"],
         ["sustained", f"{throughput_cps:.1f} checks/s"],
         ["latency p50 / p99", f"{p50:.1f} / {p99:.1f} ms"],
         ["admission waves",
          f"{stats['waves']} (mean {mean_wave:.2f} checks)"]],
        title=f"{OPEN_LOOP_REQUESTS} open-loop zone checks on a "
              f"{frame.shape[-2]}x{frame.shape[-1]} frame:"))
    emit(f"overload burst (queue_depth=2): "
         f"{overload['served']} served + "
         f"{overload['rejected_queue_full']} typed rejections = "
         f"{overload['requests']} submitted; ledger balanced: "
         f"{no_silent_drops}")
    emit(f"summary -> {out}")

    # Hard contracts, machine-independent: the ledger balances (a
    # safety check is served or shed with a typed rejection — never
    # silently dropped), and the open-loop run actually served work.
    assert no_silent_drops, "serving ledger did not balance"
    assert latencies, "open-loop run served nothing"
    assert p99 >= p50
