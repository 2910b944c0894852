"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload frame --seed 1 --seconds 20 --trace 0

Prepares outside the timed processes (bytecode, trained weights, the
seeded inputs), then starts fresh workload processes: four that only
set up and answer one warm-up request, and one that also measures.
``setup_s`` is the median of the five set-ups.  With ``--trace 0`` the
measuring process runs untraced and the end-to-end metrics are
printed; with ``--trace 1`` it alternates untraced and traced blocks
and the per-layer metrics are printed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status is 0 when every output check passed, 1 when
one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
CACHE = BUILD / "cache"
if __name__ == "__main__":
    # Import perfbench as a package; the script's own directory must
    # not shadow top-level modules.
    sys.path[0] = str(ROOT)

from perfbench import host, stats  # noqa: E402  (stdlib only)

WORKLOAD_NAMES = ("frame", "fleet", "serve")
#: Set-up-only processes per run; the measuring process adds one more.
SETUP_PROBES = 4

DESCRIPTIONS = {
    "frame": "closed loop, 1 client: LandingPipeline.run on 96 frames "
             "(96x128, six nominal/OOD presets), T=10, speculative_k=1",
    "fleet": "EpisodeScheduler.run passes over 36 streams x 4 frames "
             "(48x64, six nominal/OOD + two dense-zone presets), "
             "monitor_batching=joint, speculative_k=3",
    "serve": "closed loop, 8 clients: ServeBroker.check_zone over 480 "
             "distinct candidate boxes on frame's 96 frames, default "
             "ServeConfig",
}
WORKLOAD_OPS = {"frame": "frames", "fleet": "frames", "serve": "checks"}
END_TO_END_UNITS = {"setup_s": "s", "p50_ms": "ms", "p99_ms": "ms",
                    "throughput_per_s": "1/s", "served_frac": "fraction"}


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _prepare(workload: str, seed: int, path: Path) -> None:
    """Bytecode, weights and the seeded inputs: nothing timed."""
    import numpy as np

    for tree in (SRC, ROOT / "perfbench"):
        compileall.compile_dir(str(tree), quiet=1)
    from dataclasses import replace

    from perfbench import inputs
    from perfbench.system import ensure_weights, load_system

    ensure_weights(CACHE)
    if workload == "frame":
        data = inputs.frame_inputs(seed)
    elif workload == "fleet":
        data = inputs.fleet_inputs(seed)
    else:
        system = load_system(CACHE)
        selector = system.pipeline_config().selector
        selector = replace(selector,
                           drift_model=inputs.stream_drift_model(),
                           max_candidates=inputs.SERVE_CANDIDATES_PER_FRAME)
        data = inputs.serve_inputs(seed, system.model, selector)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **data)


def _spawn(args, mode: str, inputs: Path, out: Path, env: dict,
           spans: Path | None = None) -> dict:
    """Run one fresh workload process to completion; its result."""
    cmd = [sys.executable, "-m", "perfbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--inputs", str(inputs), "--cache", str(CACHE),
           "--mode", mode, "--seconds", str(args.seconds),
           "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = 90 if mode == "probe" else args.seconds + 120
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawn-mono", repr(spawned)],
                          cwd=ROOT, env=env, stdout=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"{mode} process exited with "
                           f"{proc.returncode}")
    return json.loads(out.read_text())


def _check_digest(workload: str, seed: int, digest) -> list[str]:
    """The same seed must always decide the same way in this checkout."""
    if digest is None:
        return []
    store = BUILD / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}:{seed}"
    if key in known:
        if known[key] != digest:
            return [f"decision digest {digest} differs from {known[key]} "
                    f"recorded earlier for seed {seed}"]
        return []
    known[key] = digest
    partial = store.with_name(f"digests.{os.getpid()}.json")
    partial.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(partial, store)
    return []


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<26}{value:>14.6g} {unit:<12}{note}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    env = host.clean_env(os.environ, str(SRC), str(CACHE))
    # Before numpy loads: inherited BLAS pinning must not leak into the
    # preparation either.
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(1, str(SRC))

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    runs = BUILD / "runs"
    inputs = runs / f"{tag}.npz"
    outs = [runs / f"{tag}.{k}.json" for k in range(SETUP_PROBES + 1)]
    spans = BUILD / "traces" / f"{args.workload}-{args.seed}.jsonl"
    try:
        _prepare(args.workload, args.seed, inputs)
        probes = [_spawn(args, "probe", inputs, out, env)
                  for out in outs[:SETUP_PROBES]]
        if args.trace:
            spans.parent.mkdir(parents=True, exist_ok=True)
        main_run = _spawn(args, "trace" if args.trace else "measure",
                          inputs, outs[-1], env,
                          spans=spans if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        # The measuring process's raw result (blocks, latencies) stays
        # for inspection, one file per workload and seed.
        if outs[-1].exists():
            shutil.copyfile(outs[-1],
                            runs / f"{args.workload}-{args.seed}.json")
        for path in [inputs, *outs]:
            path.unlink(missing_ok=True)

    results = probes + [main_run]
    errors = [e for r in results for e in r["errors"]]
    errors += _check_digest(args.workload, args.seed, main_run["digest"])
    setups = [r["setup"] for r in results]
    setup = {k: statistics.median(s[k] for s in setups)
             for k in setups[0]}
    hostinfo = main_run["host"]
    ops, failed = main_run["ops"], main_run["failed"]

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: "
          f"{DESCRIPTIONS[args.workload]}")
    if main_run["digest"] is not None:
        print(f"  decision digest: {main_run['digest']}")
    print(f"  host: {os.cpu_count()} CPUs, {hostinfo['blas_threads']} BLAS "
          f"threads ({hostinfo['blas_config']}), CPU steal "
          f"{hostinfo['steal_frac']:.2%}")
    if args.trace:
        metrics = dict(main_run["per_layer"])
        for k in ("import_s", "load_s", "construct_s", "warmup_s"):
            metrics[f"setup.{k}"] = setup[k]
        metrics["host.cpu_count"] = float(os.cpu_count() or 0)
        metrics["host.blas_threads"] = float(hostinfo["blas_threads"])
        metrics["host.steal_frac"] = hostinfo["steal_frac"]
        from perfbench.layers import PER_LAYER_UNITS as units
        for row in main_run["layer_table"]:
            print("  " + row)
        print(f"  {main_run['spans']} spans -> "
              f"{spans.relative_to(ROOT)}")
        notes = {}
    else:
        e2e = stats.end_to_end(main_run["blocks"])
        metrics = {
            "setup_s": setup["setup_s"],
            "p50_ms": e2e["p50_ms"],
            "p99_ms": e2e["p99_ms"],
            "throughput_per_s": e2e["throughput_per_s"],
            "served_frac": (ops - failed) / ops if ops else 0.0,
        }
        units = END_TO_END_UNITS
        n = (f"{e2e['samples']} {WORKLOAD_OPS[args.workload]}, "
             f"{e2e['kept_blocks']} of {len(main_run['blocks'])} blocks")
        notes = {
            "setup_s": f"median of {len(setups)} fresh-process set-ups",
            "p50_ms": n, "p99_ms": n,
            "throughput_per_s": f"{n}, {e2e['kept_s']:.2f} s",
            "served_frac": f"{ops} attempted, {failed} failed "
                           f"(failed_frac {failed / max(ops, 1):.4g})",
        }
    for name, value in metrics.items():
        print(_line(name, value, units[name], notes.get(name, "")))
    for e in errors:
        print(f"  OUTPUT CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
