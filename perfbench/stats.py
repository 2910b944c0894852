"""Small, exact statistics the benchmark reports."""

from __future__ import annotations

import math

__all__ = ["percentile", "late_as_run", "overhead_frac", "quiet_blocks",
           "end_to_end"]

#: Blocks with more CPU steal than this are set aside ...
STEAL_LIMIT = 0.01
#: ... but never more than a third of the blocks.
KEEP_AT_LEAST = 2 / 3


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The smallest sample with at least ``q`` percent of the samples at
    or below it.  No interpolation, so a failed request recorded as
    ``inf`` stays infinitely late instead of being averaged with a
    finite neighbour.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def late_as_run(value_ms: float, run_ms: float) -> float:
    """A latency that may be infinite, as a JSON-safe number.

    A failed or refused request never answered within the run, so an
    infinite percentile is reported as the run's own length: no real
    answer in the run can be later, and shedding load can never make
    the reported latency better.
    """
    return run_ms if math.isinf(value_ms) else value_ms


def overhead_frac(untraced_per_s: float, traced_per_s: float) -> float:
    """Share of throughput lost to tracing (negative when within noise)."""
    if untraced_per_s <= 0:
        raise ValueError("untraced throughput must be positive")
    return 1.0 - traced_per_s / untraced_per_s


def quiet_blocks(steals) -> list[int]:
    """Indices of the timed blocks the end-to-end metrics use.

    A block with more than :data:`STEAL_LIMIT` CPU steal (time the
    hypervisor gave to other guests) is set aside, unless that would
    leave fewer than :data:`KEEP_AT_LEAST` of the blocks; then the
    least-stolen ones are kept.  Steal is read from the host, not from
    the program, so the choice cannot hide a slower program.
    """
    ranked = sorted(range(len(steals)), key=lambda i: steals[i])
    need = math.ceil(KEEP_AT_LEAST * len(steals))
    return sorted(i for k, i in enumerate(ranked)
                  if k < need or steals[i] <= STEAL_LIMIT)


def end_to_end(blocks: list[dict]) -> dict:
    """Latency and throughput over the quiet blocks of a run.

    Within the kept blocks, the latencies of operations during which
    the host stole CPU time are left out too, unless they are the
    majority (a ``fleet`` pass lasts seconds and nearly always sees
    some steal).  Every failed operation counts as infinitely late,
    from whichever block, so neither shedding load nor the choice of
    samples can improve latency.
    """
    keep = set(quiet_blocks([b["steal"] for b in blocks]))
    kept = [b for i, b in enumerate(blocks) if i in keep]
    latencies = [v for b in kept for v in b["latencies_ms"]]
    stolen = [v for b in kept for v in b["stolen_ms"]]
    if len(stolen) > len(latencies):
        latencies += stolen
    latencies += [math.inf] * sum(b["failed"] for b in blocks)
    run_ms = sum(b["wall_s"] for b in blocks) * 1e3
    wall = sum(b["wall_s"] for b in kept)
    return {
        "p50_ms": late_as_run(percentile(latencies, 50), run_ms),
        "p99_ms": late_as_run(percentile(latencies, 99), run_ms),
        "throughput_per_s": sum(b["ops"] - b["failed"] for b in kept) / wall,
        "samples": len(latencies),
        "kept_blocks": len(kept),
        "kept_s": wall,
    }
