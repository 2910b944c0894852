"""SERVE bench: monitoring-as-a-service under open-loop traffic.

The serving stack (PR 9) turns the episode engine into a shared
online service: many concurrent clients submit zone checks, the
``ServeBroker`` micro-batches them over a short admission window, and
each admitted wave runs as one joint engine pass.  This bench measures
the operational story the README's Serving section tells:

* **capacity** — closed-loop checks/sec through the broker (each
  round stacks a full wave, so this is the engine's joint-pass
  throughput as seen *through* the asyncio front door);
* **sustained open-loop traffic** — requests arrive on a fixed clock
  at a fraction of measured capacity, whether or not earlier requests
  have finished (the honest serving regime): sustained checks/sec plus
  client-side p50/p99 latency;
* **overload burst** — a tiny admission queue is deliberately flooded;
  the no-silent-drop ledger must balance: every request is either
  served or shed with a typed ``AdmissionRejected`` (gated boolean);
* **persistent-pool wavefront ratio** — ``workers=2`` behind the
  persistent shared-memory pool vs the inline exact engine on a
  scenario fleet.  The fork-per-call pool this replaced measured
  ~0.72x here (it re-forked and re-pickled the model every run); the
  persistent pool forks once and ships frames by shared memory, so the
  ratio is gated ``>= 1.0x`` on multi-core hosts (``min_cores`` spec —
  a 1-core host has no parallelism to buy back the IPC with).

* **fault storm** (PR 10) — a seeded chaos plan SIGKILLs workers while
  episode traffic is in flight; supervision respawns them and re-runs
  the lost tasks, so every admitted request still resolves (gated
  boolean ``serve_no_silent_drops_under_faults``) and the wall-clock
  overhead per death is recorded as recovery latency (tracked, not
  gated — it is dominated by the model re-fork);
* **degraded-mode throughput** — the circuit breaker is tripped open
  and episode throughput on the inline fallback path is compared to a
  ``workers=1`` baseline broker.  Both sides run the same single-core
  compute, so the ratio is machine-robust and gated
  (``degraded_throughput_ratio``): degraded mode must not be
  meaningfully slower than honest inline serving.

Raw checks/sec is machine-dependent, so ``serve_throughput_cps`` is
gated only on multi-core hosts too; the boolean contract and the
tracked trajectory cover the 1-core CI box.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from _bench_utils import best_of, write_bench_summary
from repro.core import EngineConfig, EpisodeScheduler
from repro.eval.reporting import format_table, format_title
from repro.scenarios import scenario_sweep
from repro.serve import AdmissionRejected, ServeBroker, ServeConfig
from repro.serve.chaos import FaultPlan, FaultSpec, arm
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
#: The wavefront fleet (mirrors bench_episode_engine's multi-stream
#: scale so the ratios are comparable across the two benches).
SCENARIOS = ("day_nominal", "sunset_ood")
STREAM_SHAPE = (48, 64)
STREAMS_PER_SCENARIO = 2 if BENCH_SMOKE else 4
FRAMES_PER_STREAM = 2 if BENCH_SMOKE else 4
REPEATS = 3 if BENCH_SMOKE else 5
#: Fault-storm / degraded-mode episode load (PR 10).
STORM_EPISODES = 4 if BENCH_SMOKE else 8
STORM_KILLS = 2 if BENCH_SMOKE else 3
DEGRADED_EPISODES = 4 if BENCH_SMOKE else 8


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
    serve = ServeConfig(queue_depth=2, max_wave=2,
                        admission_window_ms=0.0)
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
    serve = ServeConfig(admission_window_ms=2.0)
    async with ServeBroker(model, config=config, serve=serve,
                           rng=0) as broker:
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
    stats = dict(stats)
    stats["waves"] = stats["waves"] - before["waves"]  # open loop only
    return (capacity_cps, offered_cps, latencies, rejected, wall,
            stats, open_ok, overload)


async def _episode_load(broker, frame, count, seed0=0):
    """``count`` concurrent two-frame episodes; outcomes + wall."""
    start = time.perf_counter()
    outcomes = await asyncio.gather(
        *(broker.run_episode([frame, frame], seed=seed0 + k,
                             name=f"load{seed0 + k}")
          for k in range(count)),
        return_exceptions=True)
    return outcomes, time.perf_counter() - start


async def _fault_storm(model, config, frame):
    """Seeded worker kills under episode load: the recovery ledger."""
    serve = ServeConfig(workers=2, admission_window_ms=2.0)
    engine = EngineConfig(max_respawns=8)
    async with ServeBroker(model, config=config, engine=engine,
                           serve=serve, rng=0) as broker:
        clean, clean_wall = await _episode_load(
            broker, frame, STORM_EPISODES)
    assert all(not isinstance(o, BaseException) for o in clean)

    broker = ServeBroker(model, config=config, engine=engine,
                         serve=serve, rng=0)
    arm(broker, FaultPlan.storm(seed=0, workers=2, kills=STORM_KILLS,
                                tasks_per_worker=2))
    async with broker:
        outcomes, storm_wall = await _episode_load(
            broker, frame, STORM_EPISODES)
    stats = broker.stats
    served = sum(1 for o in outcomes
                 if not isinstance(o, BaseException))
    deaths = stats["worker_deaths"]
    ledger_ok = (served == STORM_EPISODES
                 and stats["admitted"] == stats["episode_steps"]
                 and stats["timed_out"] == 0)
    recovery_ms = ((storm_wall - clean_wall) * 1e3 / deaths
                   if deaths else 0.0)
    return {"episodes": STORM_EPISODES, "kills_armed": STORM_KILLS,
            "served": served, "worker_deaths": deaths,
            "respawns": stats["respawns"],
            "tasks_resubmitted": stats["tasks_resubmitted"],
            "pool_faults": stats["pool_faults"],
            "degraded_waves": stats["degraded_waves"],
            "wall_clean_s": round(clean_wall, 3),
            "wall_storm_s": round(storm_wall, 3),
            "recovery_ms_per_death": round(max(recovery_ms, 0.0), 2),
            "ledger_balanced": bool(ledger_ok)}


async def _degraded_throughput(model, config, frame):
    """Breaker forced open: fallback-path vs honest inline serving."""
    serve1 = ServeConfig(workers=1, admission_window_ms=2.0)
    async with ServeBroker(model, config=config, serve=serve1,
                           rng=0) as broker:
        base, base_wall = await _episode_load(
            broker, frame, DEGRADED_EPISODES)
    assert all(not isinstance(o, BaseException) for o in base)

    serve2 = ServeConfig(workers=2, breaker_threshold=1,
                         breaker_cooldown_s=600.0,
                         admission_window_ms=2.0)
    broker = ServeBroker(model, config=config,
                         engine=EngineConfig(max_respawns=0),
                         serve=serve2, rng=0)
    # Kill whichever worker picks the tripwire task; with respawn
    # budget 0 the pool fault opens the breaker immediately.
    arm(broker, FaultPlan(specs=(
        FaultSpec("kill_worker", worker=0, at_task=0),
        FaultSpec("kill_worker", worker=1, at_task=0))))
    async with broker:
        await broker.run_episode([frame], seed=999, name="tripwire")
        arm(broker, None)
        degraded, degraded_wall = await _episode_load(
            broker, frame, DEGRADED_EPISODES, seed0=100)
    stats = broker.stats
    served = sum(1 for o in degraded
                 if not isinstance(o, BaseException))
    ledger_ok = (served == DEGRADED_EPISODES
                 and stats["admitted"] == stats["episode_steps"])
    base_eps = DEGRADED_EPISODES / base_wall
    degraded_eps = DEGRADED_EPISODES / degraded_wall
    return {"episodes": DEGRADED_EPISODES,
            "baseline_eps": round(base_eps, 2),
            "degraded_eps": round(degraded_eps, 2),
            "breaker_state": broker.breaker_state,
            "pool_faults": stats["pool_faults"],
            "degraded_waves": stats["degraded_waves"],
            "ledger_balanced": bool(ledger_ok)}, \
        degraded_eps / base_eps


def _wavefront_ratio(model, config, episodes):
    """Inline exact vs persistent ``workers=2``, pool reused across
    every repeat (the economics the tentpole bought)."""
    inline = EpisodeScheduler(model, config)
    t_inline = best_of(lambda: inline.run(episodes), REPEATS)
    with EpisodeScheduler(
            model, config,
            engine=EngineConfig(workers=2)) as sharded:
        effective = sharded.effective_workers
        t_workers = best_of(lambda: sharded.run(episodes), REPEATS)
    return t_inline, t_workers, effective


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

    episodes = [
        spec.with_camera(STREAM_SHAPE)
        .episode_request(i, FRAMES_PER_STREAM)
        for spec in scenario_sweep(*SCENARIOS)
        for i in range(STREAMS_PER_SCENARIO)
    ]
    t_inline, t_workers, effective = _wavefront_ratio(
        system.model, config, episodes)

    storm = asyncio.run(_fault_storm(system.model, config, frame))
    degraded, degraded_ratio = asyncio.run(
        _degraded_throughput(system.model, config, frame))

    no_silent_drops = bool(open_ok and overload["ledger_balanced"])
    no_drops_under_faults = bool(storm["ledger_balanced"]
                                 and degraded["ledger_balanced"])
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
            "max_wave": stats["max_wave"],
        },
        "overload": overload,
        "wavefront": {
            "episodes": len(episodes),
            "frames": len(episodes) * FRAMES_PER_STREAM,
            "effective_workers": effective,
            "t_inline_ms": round(t_inline * 1e3, 3),
            "t_workers2_ms": round(t_workers * 1e3, 3),
        },
        "workers2_wavefront_ratio": round(t_inline / t_workers, 3),
        "fault_storm": storm,
        "degraded": degraded,
        "serve_no_silent_drops_under_faults": no_drops_under_faults,
        "degraded_throughput_ratio": round(degraded_ratio, 3),
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
          f"{stats['waves']} (largest {stats['max_wave']})"]],
        title=f"{OPEN_LOOP_REQUESTS} open-loop zone checks on a "
              f"{frame.shape[-2]}x{frame.shape[-1]} frame:"))
    emit(f"overload burst (queue_depth=2): "
         f"{overload['served']} served + "
         f"{overload['rejected_queue_full']} typed rejections = "
         f"{overload['requests']} submitted; ledger balanced: "
         f"{no_silent_drops}")
    wf = summary["wavefront"]
    emit(f"wavefront fleet ({wf['episodes']} episodes x "
         f"{FRAMES_PER_STREAM} frames, effective_workers="
         f"{wf['effective_workers']}): inline "
         f"{wf['t_inline_ms']:.0f} -> workers=2 "
         f"{wf['t_workers2_ms']:.0f} ms "
         f"({summary['workers2_wavefront_ratio']:.2f}x; gated >= "
         "1.0x on multi-core hosts)")
    emit(f"fault storm ({storm['kills_armed']} kills armed over "
         f"{storm['episodes']} episodes): {storm['worker_deaths']} "
         f"death(s), {storm['respawns']} respawn(s), "
         f"{storm['tasks_resubmitted']} task(s) re-executed, "
         f"{storm['served']}/{storm['episodes']} served; recovery "
         f"~{storm['recovery_ms_per_death']:.0f} ms/death; ledger "
         f"balanced: {storm['ledger_balanced']}")
    emit(f"degraded mode (breaker {degraded['breaker_state']}): "
         f"{degraded['degraded_eps']:.1f} eps/s inline-fallback vs "
         f"{degraded['baseline_eps']:.1f} eps/s workers=1 baseline "
         f"({summary['degraded_throughput_ratio']:.2f}x, gated)")
    emit(f"summary -> {out}")

    # Hard contracts, machine-independent: the ledgers balance (a
    # safety check is served, shed with a typed rejection, or timed
    # out typed — never silently dropped), with or without faults,
    # and the open-loop run actually served work.
    assert no_silent_drops, "serving ledger did not balance"
    assert no_drops_under_faults, "fault-storm ledger did not balance"
    assert latencies, "open-loop run served nothing"
    assert p99 >= p50
