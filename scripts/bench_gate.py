#!/usr/bin/env python
"""Bench regression gate: fresh smoke numbers vs committed baselines.

Run by ``scripts/check.sh`` after the smoke bench pass.  Benches in
smoke mode (``BENCH_SMOKE=1``) write their summaries to
``benchmarks/.smoke/BENCH_*.json``; this script compares them against
``benchmarks/smoke_baselines.json`` and fails (exit 1) when

* a gated numeric metric (always a machine-robust speedup ratio)
  regresses by more than 25% — fresh < baseline * 0.75, or
* a gated boolean contract (bit-for-bit equivalence) flips, or
* a gated file or metric is missing (the bench silently stopped
  reporting it).

A baseline value may also be a spec object ``{"baseline": <number>,
"min_cores": <n>}``: the metric is then gated only on hosts with at
least ``min_cores`` CPU cores (read from the summary's ``host``
fingerprint, falling back to the local ``os.cpu_count()``) and
reported as *skipped* elsewhere.  This is how raw serve throughput
(``serve_throughput_cps``), which moves with the host's core count, is
gated on multi-core hosts without flaking the 1-core CI box.

Baselines are updated deliberately in the PR that changes a
performance characteristic — never to quiet a failing gate.

The gate also audits the *committed* full-scale summaries
(``benchmarks/BENCH_*.json``): every one must carry
``schema_version >= 2`` and a host fingerprint with the core count
and the BLAS thread count
(``benchmarks/_bench_utils.write_bench_summary`` stamps all three),
so a committed number can always be traced to the machine class and
the BLAS threading that produced it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

TOLERANCE = 0.75  # fail when fresh < baseline * TOLERANCE

#: Minimum schema for committed summaries; matches
#: ``benchmarks/_bench_utils.SCHEMA_VERSION`` when they regenerate.
MIN_COMMITTED_SCHEMA = 2

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"
SMOKE_DIR = BENCH_DIR / ".smoke"
BASELINES = BENCH_DIR / "smoke_baselines.json"


def check_committed_summaries(failures: list[str],
                              bench_dir: Path = BENCH_DIR) -> None:
    """``bench_dir``'s BENCH_*.json must be schema >= 2 with a host
    stamp that names ``cpu_count`` and ``blas_threads``."""
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        name = path.name
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{name}: unreadable committed summary "
                            f"({exc})")
            continue
        version = data.get("schema_version")
        if not isinstance(version, int) \
                or version < MIN_COMMITTED_SCHEMA:
            failures.append(
                f"{name}: schema_version={version!r} < "
                f"{MIN_COMMITTED_SCHEMA} — regenerate with the "
                "current bench (write_bench_summary stamps the "
                "schema)")
        host = data.get("host")
        if not isinstance(host, dict) or "cpu_count" not in host:
            failures.append(
                f"{name}: missing host fingerprint — committed "
                "numbers must say which machine class produced them")
        elif "blas_threads" not in host:
            failures.append(
                f"{name}: host fingerprint has no blas_threads — "
                "regenerate with the current bench, so the number "
                "says how many BLAS threads produced it")


def main() -> int:
    baselines = json.loads(BASELINES.read_text())
    failures: list[str] = []
    check_committed_summaries(failures)
    rows: list[tuple[str, str, str, str, str]] = []

    for filename, metrics in baselines.items():
        if filename.startswith("_"):
            continue
        fresh_path = SMOKE_DIR / filename
        if not fresh_path.exists():
            failures.append(f"{filename}: no smoke output at "
                            f"{fresh_path} (did the bench run?)")
            continue
        fresh = json.loads(fresh_path.read_text())
        host_cores = (fresh.get("host") or {}).get("cpu_count") \
            or os.cpu_count() or 1
        for metric, baseline in metrics.items():
            min_cores = 1
            if isinstance(baseline, dict):
                min_cores = int(baseline.get("min_cores", 1))
                baseline = baseline["baseline"]
            if metric not in fresh:
                failures.append(f"{filename}: metric {metric!r} missing "
                                "from smoke output")
                continue
            value = fresh[metric]
            if host_cores < min_cores:
                rows.append((filename, metric, f"{baseline}",
                             f"{value}",
                             f"skip (<{min_cores} cores)"))
                continue
            if isinstance(baseline, bool):
                ok = bool(value) == baseline
                rows.append((filename, metric, str(baseline),
                             str(bool(value)),
                             "ok" if ok else "FAIL"))
                if not ok:
                    failures.append(
                        f"{filename}: {metric} = {value!r}, "
                        f"expected {baseline!r}")
            else:
                floor = baseline * TOLERANCE
                ok = float(value) >= floor
                rows.append((filename, metric, f"{baseline:.2f}",
                             f"{float(value):.2f}",
                             "ok" if ok else "FAIL"))
                if not ok:
                    failures.append(
                        f"{filename}: {metric} = {value:.3f} < "
                        f"{floor:.3f} (baseline {baseline:.3f} "
                        f"* {TOLERANCE})")

    width = max((len(r[0]) + len(r[1]) for r in rows), default=20) + 4
    print("== bench regression gate (smoke, "
          f">{(1 - TOLERANCE):.0%} regression fails) ==")
    for filename, metric, base, val, status in rows:
        name = f"{filename}:{metric}"
        print(f"  {name:<{width}s} baseline={base:<8s} "
              f"fresh={val:<8s} {status}")
    if failures:
        print("\nFAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("all gated bench metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
