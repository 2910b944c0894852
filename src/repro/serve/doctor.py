"""Doctor-style self-check of the serving stack.

``python -m repro.serve.doctor`` answers, before any traffic arrives:
can this host actually serve?  It checks the platform facts (fork
start method, CPU count), exercises the shared-memory frame transport
end to end (ring slot *and* dedicated-overflow round-trips), compares
the **requested vs effective** worker count — the degraded-to-inline
case the engine only warns about once — and, given a system, live-fires
a broker: a zone check, an episode step, an out-of-frame box that
must be shed as ``"invalid"`` before admission, and an overload burst
that must produce *typed* rejections with every request accounted for.
With fork available it then runs a **fault drill**: a chaos plan
SIGKILLs a live worker mid-wave and the drill asserts respawn,
ring-ledger balance, bit-for-bit recovery, and a degraded-mode round
trip through the circuit breaker (see :mod:`repro.serve.chaos`).

Exit code 0 when every check passes, 1 otherwise; ``--json`` emits the
raw report for machine consumption.  ``scripts/check.sh`` runs the
tiny-system doctor as its serve smoke stage.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing as mp
import platform
import sys

import numpy as np

from repro.core.engine import (
    EngineConfig,
    EpisodeRequest,
    EpisodeScheduler,
)
from repro.serve.broker import AdmissionRejected, ServeBroker, ServeConfig
from repro.serve.pool import fork_available
from repro.serve.shm import FrameRing, attach_frame, detach_frame
from repro.utils.geometry import Box

__all__ = ["format_doctor_report", "main", "run_doctor"]


def _check_shared_memory() -> tuple[bool, str]:
    """Round-trip a frame through a ring slot and an overflow segment."""
    frame = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
    big = np.arange(3 * 16 * 16, dtype=np.float32).reshape(3, 16, 16)
    cache: dict = {}
    with FrameRing(slots=2, slot_bytes=frame.nbytes) as ring:
        ticket = ring.put(frame)
        view = attach_frame(ticket, cache)
        slot_ok = bool(np.array_equal(view, frame)) and not ticket.dedicated
        del view
        detach_frame(ticket, cache)
        ring.release(ticket)
        overflow = ring.put(big)  # larger than a slot -> dedicated
        view = attach_frame(overflow, cache)
        overflow_ok = bool(np.array_equal(view, big)) and overflow.dedicated
        del view
        detach_frame(overflow, cache)
        ring.release(overflow)
        leak_free = ring.in_flight == 0
        for handle in cache.values():
            handle.close()
    ok = slot_ok and overflow_ok and leak_free
    return ok, (f"ring-slot {'ok' if slot_ok else 'FAILED'}, "
                f"overflow {'ok' if overflow_ok else 'FAILED'}, "
                f"in_flight drained {'ok' if leak_free else 'FAILED'}")


async def _probe_broker(system, serve: ServeConfig, rng) -> dict:
    """Live-fire one broker: zone check, episode step, overload burst."""
    frame = system.test_samples[0].image
    height, width = frame.shape[-2:]
    boxes = [
        Box(height // 4, width // 4, height // 3, width // 3),
        Box(height // 2, width // 2, height // 4, width // 4),
    ]
    probe: dict = {}
    broker = ServeBroker(system.model, config=system.pipeline_config(),
                         serve=serve, rng=rng)
    probe["effective_workers"] = broker.effective_workers
    async with broker:
        verdicts = await broker.check_zones(frame, boxes)
        probe["zone_checks_ok"] = (
            len(verdicts) == len(boxes)
            and all(hasattr(v, "accepted") for v in verdicts))
        episode = await broker.run_episode([frame], seed=0,
                                           name="doctor")
        probe["episode_step_ok"] = len(episode.results) == 1
        # A box that leaves the frame is shed before admission, so it
        # never joins (or fails) a wave.
        try:
            await broker.check_zone(frame, Box(-4, -4, height // 3,
                                               width // 3))
        except AdmissionRejected as exc:
            probe["invalid_reason"] = exc.reason
        else:
            probe["invalid_reason"] = None
    stats = broker.stats
    probe["drained_on_stop"] = (
        stats["zone_checks"] + stats["episode_steps"] == stats["admitted"])
    probe["invalid_shed_ok"] = (probe["invalid_reason"] == "invalid"
                                and stats["rejected_invalid"] == 1)

    # Overload burst against a tiny queue: backpressure must shed with
    # typed rejections and every request must be accounted for.
    burst = ServeBroker(system.model, config=system.pipeline_config(),
                        serve=ServeConfig(queue_depth=1, max_wave=1,
                                          admission_window_ms=0.0),
                        rng=rng)
    async with burst:
        outcomes = await asyncio.gather(
            *(burst.check_zone(frame, boxes[0]) for _ in range(8)),
            return_exceptions=True)
    rejected = sum(isinstance(o, AdmissionRejected) for o in outcomes)
    served = sum(not isinstance(o, BaseException) for o in outcomes)
    probe["overload_rejected"] = rejected
    probe["overload_served"] = served
    probe["overload_typed_ok"] = (
        rejected > 0 and served + rejected == len(outcomes)
        and all(isinstance(o, AdmissionRejected)
                for o in outcomes if isinstance(o, BaseException)))
    return probe


def _episodes_match(got, expected) -> bool:
    """Decisions + labels of two episode-result lists, bit compared."""
    if len(got) != len(expected):
        return False
    for ep_a, ep_b in zip(got, expected):
        if len(ep_a.results) != len(ep_b.results):
            return False
        for ra, rb in zip(ep_a.results, ep_b.results):
            if ra.decision.action is not rb.decision.action:
                return False
            if not np.array_equal(ra.predicted_labels,
                                  rb.predicted_labels):
                return False
    return True


def _fault_drill(system) -> dict:
    """Kill a live worker mid-wave; verify recovery and degradation.

    Stage 1 (supervision): a ``workers=2`` scheduler runs a small
    episode fleet while a chaos plan SIGKILLs worker 0 at its first
    task.  The pool must respawn the worker, resubmit the lost task,
    return results **bit-for-bit equal** to the inline reference, and
    leave zero frame-ring tickets in flight (the ledger balances).

    Stage 2 (degraded round trip): a broker with ``max_respawns=0``
    and ``breaker_threshold=1`` takes a pool fault on its first
    episode wave — which must still be served (re-run inline), trip
    the breaker, and leave the next wave serving in degraded mode.
    """
    from repro.serve.chaos import FaultPlan, arm

    config = system.pipeline_config()
    frame = system.test_samples[0].image
    episodes = [EpisodeRequest(frames=(frame, frame), seed=seed,
                               name=f"drill{seed}")
                for seed in (0, 1)]
    expected = EpisodeScheduler(system.model, config).run(episodes)

    drill: dict = {}
    with EpisodeScheduler(
            system.model, config,
            engine=EngineConfig(workers=2)) as sched:
        arm(sched, FaultPlan.kill_worker(worker=0, at_task=0))
        got = sched.run(episodes)
        pool = sched._pool
        drill["respawns"] = pool.stats["respawns"]
        drill["worker_deaths"] = pool.stats["worker_deaths"]
        drill["ring_balanced"] = pool._ring.in_flight == 0
    drill["bit_for_bit"] = _episodes_match(got, expected)
    drill["supervision_ok"] = bool(
        drill["respawns"] >= 1 and drill["ring_balanced"]
        and drill["bit_for_bit"])

    async def degraded_round_trip() -> dict:
        serve = ServeConfig(workers=2, breaker_threshold=1,
                            admission_window_ms=0.0)
        broker = ServeBroker(system.model, config=config,
                             engine=EngineConfig(max_respawns=0),
                             serve=serve)
        arm(broker, FaultPlan.kill_worker(worker=0, at_task=0))
        async with broker:
            first = await broker.run_episode([frame, frame], seed=0)
            second = await broker.run_episode([frame, frame], seed=1)
        stats = broker.stats
        return {
            "faulted_wave_served": _episodes_match(
                [first], [expected[0]]),
            "degraded_wave_served": _episodes_match(
                [second], [expected[1]]),
            "pool_faults": stats["pool_faults"],
            "degraded_waves": stats["degraded_waves"],
            "ledger_balanced": (stats["admitted"]
                                == stats["episode_steps"]),
        }

    degraded = asyncio.run(degraded_round_trip())
    drill.update(degraded)
    drill["degraded_ok"] = bool(
        degraded["faulted_wave_served"]
        and degraded["degraded_wave_served"]
        and degraded["pool_faults"] >= 1
        and degraded["degraded_waves"] >= 1
        and degraded["ledger_balanced"])
    return drill


def run_doctor(system=None, serve: ServeConfig | None = None,
               rng=0) -> dict:
    """Run every self-check; returns ``{"ok", "checks", "info"}``.

    ``system`` (a :class:`repro.eval.harness.TrainedSystem`) enables
    the live broker probe; without it the doctor checks platform and
    transport only.  ``serve`` sizes the probe broker (and the
    requested-vs-effective comparison); default :class:`ServeConfig`.
    """
    serve = serve or ServeConfig()
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": mp.cpu_count(),
        "start_methods": list(mp.get_all_start_methods()),
    }
    check("fork-start-method", fork_available(),
          "persistent worker pool needs 'fork'; available: "
          + ",".join(info["start_methods"]))

    try:
        ok, detail = _check_shared_memory()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        ok, detail = False, f"raised {exc!r}"
    check("shared-memory-roundtrip", ok, detail)

    requested = serve.resolved_workers()
    effective = requested if (requested <= 1 or fork_available()) else 1
    info["requested_workers"] = requested
    info["effective_workers"] = effective
    check("effective-workers", effective == requested,
          f"requested {requested}, effective {effective}"
          + ("" if effective == requested
             else " — sharding degraded to inline (no fork)"))

    if system is not None:
        try:
            probe = asyncio.run(_probe_broker(system, serve, rng))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            check("broker-end-to-end", False, f"raised {exc!r}")
        else:
            info["broker_probe"] = probe
            check("broker-end-to-end",
                  probe["zone_checks_ok"] and probe["episode_step_ok"],
                  f"zone checks {probe['zone_checks_ok']}, "
                  f"episode step {probe['episode_step_ok']}, "
                  f"effective workers {probe['effective_workers']}")
            check("graceful-drain", probe["drained_on_stop"],
                  "stop() resolved every admitted check")
            check("typed-invalid-shedding", probe["invalid_shed_ok"],
                  "out-of-frame box shed at admission with reason "
                  f"{probe['invalid_reason']!r} and counted in "
                  "rejected_invalid")
            check("typed-backpressure", probe["overload_typed_ok"],
                  f"burst of 8 vs queue_depth=1: {probe['overload_served']} "
                  f"served + {probe['overload_rejected']} typed rejections "
                  "(no silent drops)")

    if system is not None and fork_available():
        try:
            drill = _fault_drill(system)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            check("fault-drill", False, f"raised {exc!r}")
        else:
            info["fault_drill"] = drill
            check("fault-drill-supervision", drill["supervision_ok"],
                  f"worker killed mid-wave: {drill['respawns']} "
                  f"respawn(s), ring balanced {drill['ring_balanced']}, "
                  f"bit-for-bit {drill['bit_for_bit']}")
            check("fault-drill-degraded", drill["degraded_ok"],
                  f"{drill['pool_faults']} pool fault(s) -> "
                  f"{drill['degraded_waves']} degraded wave(s), every "
                  "admitted step served inline (ledger balanced "
                  f"{drill['ledger_balanced']})")

    return {"ok": all(c["ok"] for c in checks), "checks": checks,
            "info": info}


def format_doctor_report(report: dict) -> str:
    lines = ["repro.serve doctor"]
    info = report["info"]
    lines.append(
        f"  python {info['python']}, numpy {info['numpy']}, "
        f"{info['cpu_count']} cpu(s), workers "
        f"{info['effective_workers']}/{info['requested_workers']} "
        "(effective/requested)")
    for check in report["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        lines.append(f"  [{mark}] {check['name']}: {check['detail']}")
    lines.append("status: " + ("healthy" if report["ok"] else "UNHEALTHY"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.doctor",
        description="Self-check the repro serving stack.")
    parser.add_argument(
        "--system", choices=("tiny", "none"), default="tiny",
        help="trained system for the live broker probe: 'tiny' (the "
             "cached CI-scale system; default) or 'none' (platform "
             "and transport checks only)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count to probe with (default: ServeConfig "
             "resolution, i.e. REPRO_SERVE_WORKERS or 1)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the raw report as JSON instead of text")
    args = parser.parse_args(argv)

    serve = ServeConfig(workers=args.workers)
    system = None
    if args.system == "tiny":
        from repro.eval.harness import build_trained_system, \
            tiny_harness_config

        system = build_trained_system(tiny_harness_config(), cache=True)
    report = run_doctor(system=system, serve=serve)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_doctor_report(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
