"""Doctor-style self-check of the serving stack.

``python -m repro.serve.doctor`` answers, before any traffic arrives:
can this host actually serve?  It reports the platform facts (Python,
numpy, CPU count) and, given a system, live-fires a broker: a zone
check, an episode step, an out-of-frame box that must be shed as
``"invalid"`` before admission, and an overload burst that must
produce *typed* rejections with every request accounted for.

Exit code 0 when every check passes, 1 otherwise; ``--json`` emits the
raw report for machine consumption.  ``scripts/check.sh`` runs the
tiny-system doctor as its serve smoke stage.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys

import numpy as np

from repro.serve.broker import AdmissionRejected, ServeBroker, ServeConfig
from repro.utils.geometry import Box

__all__ = ["format_doctor_report", "main", "run_doctor"]


async def _probe_broker(system, rng) -> dict:
    """Live-fire one broker: zone check, episode step, overload burst."""
    frame = system.test_samples[0].image
    height, width = frame.shape[-2:]
    boxes = [
        Box(height // 4, width // 4, height // 3, width // 3),
        Box(height // 2, width // 2, height // 4, width // 4),
    ]
    probe: dict = {}
    broker = ServeBroker(system.model, config=system.pipeline_config(),
                         rng=rng)
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
                        serve=ServeConfig(queue_depth=1, max_wave=1),
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


def run_doctor(system=None, rng=0) -> dict:
    """Run every self-check; returns ``{"ok", "checks", "info"}``.

    ``system`` (a :class:`repro.eval.harness.TrainedSystem`) enables
    the live broker probe, on a default :class:`ServeConfig`; without
    it the doctor reports the platform facts only.
    """
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }

    if system is not None:
        try:
            probe = asyncio.run(_probe_broker(system, rng))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            check("broker-end-to-end", False, f"raised {exc!r}")
        else:
            info["broker_probe"] = probe
            check("broker-end-to-end",
                  probe["zone_checks_ok"] and probe["episode_step_ok"],
                  f"zone checks {probe['zone_checks_ok']}, "
                  f"episode step {probe['episode_step_ok']}")
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

    return {"ok": all(c["ok"] for c in checks), "checks": checks,
            "info": info}


def format_doctor_report(report: dict) -> str:
    lines = ["repro.serve doctor"]
    info = report["info"]
    lines.append(
        f"  python {info['python']}, numpy {info['numpy']}, "
        f"{info['cpu_count']} cpu(s)")
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
             "facts only)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the raw report as JSON instead of text")
    args = parser.parse_args(argv)

    system = None
    if args.system == "tiny":
        from repro.eval.harness import build_trained_system, \
            tiny_harness_config

        system = build_trained_system(tiny_harness_config(), cache=True)
    report = run_doctor(system=system)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_doctor_report(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
