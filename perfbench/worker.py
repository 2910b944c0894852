"""One workload process: a cold start, then (unless probing) a measurement.

Run by ``run.py`` as ``python3 -m perfbench.worker ...`` from the root of
the checkout.  ``--spawn-mono`` is the orchestrator's ``time.monotonic()``
just before it started this process, so set-up time covers interpreter
start, the imports below, weight load, construction and the warm-up
request.

Modes:

* ``probe``   — set up, answer the warm-up request, exit;
* ``measure`` — then one untimed priming pass and timed 1-s blocks;
* ``trace``   — then priming and four blocks, alternately untraced and
  traced, giving the per-layer metrics and the tracing overhead.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from perfbench import host, layers, stats
from perfbench.spans import Tracer
from perfbench.system import load_system
from perfbench.workloads import WORKLOADS


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--mode", choices=("probe", "measure", "trace"),
                   required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawn-mono", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


#: Length of one timed block (``fleet`` blocks are whole passes).  CPU
#: steal is read per block, so the orchestrator can set aside blocks
#: during which the hypervisor ran other guests.
BLOCK_S = 1.0


def _measure(workload, seconds: float) -> dict:
    """Untraced timed blocks filling ``seconds``."""
    blocks = []
    deadline = time.perf_counter() + seconds
    while (left := deadline - time.perf_counter()) > 0:
        before = host.cpu_times()
        b = workload.block(min(BLOCK_S, left))
        blocks.append({"ops": b.ops, "failed": b.failed,
                       "wall_s": b.wall_s,
                       "steal": host.steal_frac(before, host.cpu_times()),
                       "latencies_ms": b.latencies_ms,
                       "stolen_ms": b.stolen_ms})
    return {"ops": sum(b["ops"] for b in blocks),
            "failed": sum(b["failed"] for b in blocks),
            "blocks": blocks}


def _traced(workload, seconds: float, spans_path=None) -> dict:
    """Alternate untraced and traced quarter-blocks (U T U T)."""
    tracer = Tracer()
    wave_of: dict = {}
    plain, traced = [], []
    for i in range(4):
        if i % 2:
            layers.install(tracer, wave_of)
            try:
                traced.append(workload.block(seconds / 4, tracer, wave_of))
            finally:
                tracer.remove()
        else:
            plain.append(workload.block(seconds / 4))
    ops = sum(b.ops for b in traced)
    wall = sum(b.wall_s for b in traced)
    tally = {k: sum(b.tally[k] for b in traced) for k in traced[0].tally}
    requests = [r for b in traced for r in b.requests]
    metrics = layers.per_layer(tracer.spans, tally, ops, wall, requests)
    plain_rate = sum(b.ops for b in plain) / sum(b.wall_s for b in plain)
    metrics["trace.overhead_frac"] = stats.overhead_frac(plain_rate,
                                                         ops / wall)
    if spans_path:
        tracer.dump(spans_path)
    return {"ops": sum(b.ops for b in plain + traced),
            "failed": sum(b.failed for b in plain + traced),
            "per_layer": metrics,
            "layer_table": layers.layer_table(tracer.spans, ops),
            "spans": len(tracer.spans)}


def main(argv=None) -> int:
    t_imported = time.monotonic()
    args = _parse(argv)

    system = load_system(args.cache)
    with np.load(args.inputs) as data:
        inputs = {k: data[k] for k in data.files}
    t_loaded = time.monotonic()
    workload = WORKLOADS[args.workload](system, inputs, args.seed)
    t_built = time.monotonic()
    workload.warmup()
    t_answered = time.monotonic()

    result = {"setup": {
        "setup_s": t_answered - args.spawn_mono,
        "import_s": t_imported - args.spawn_mono,
        "load_s": t_loaded - t_imported,
        "construct_s": t_built - t_loaded,
        "warmup_s": t_answered - t_built,
    }}
    try:
        if args.mode != "probe":
            workload.prime()
            before = host.cpu_times()
            if args.mode == "measure":
                result.update(_measure(workload, args.seconds))
            else:
                result.update(_traced(workload, args.seconds, args.spans))
            threads, config = host.blas_info()
            result["host"] = {
                "steal_frac": host.steal_frac(before, host.cpu_times()),
                "blas_threads": threads, "blas_config": config}
    finally:
        workload.close()
    result["errors"] = workload.errors
    result["digest"] = workload.digest
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
