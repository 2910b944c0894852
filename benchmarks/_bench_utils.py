"""Shared helpers for the benchmark suite.

Importable from any bench file (pytest puts ``benchmarks/`` on
``sys.path`` when collecting them).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from perfbench.host import blas_info

BENCH_DIR = Path(__file__).resolve().parent
SMOKE_DIR = BENCH_DIR / ".smoke"

#: Version of the ``BENCH_*.json`` summary layout.  Bump when the
#: shared structure changes (key renames, envelope changes), so the
#: perf trajectory stays machine-diffable across PRs.
#:
#: 1 — bare metric dicts (PR 1-4).
#: 2 — every summary carries ``schema_version`` plus a ``host``
#:     fingerprint (PR 5), so numbers from different machines are
#:     never compared as if they came from one box.
SCHEMA_VERSION = 2


def host_fingerprint() -> dict:
    """A small, stable description of the measuring host.

    ``blas_threads`` is the BLAS thread count the numbers ran with
    (0 when numpy's BLAS does not report it).
    """
    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_info()[0],
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
    }


def best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs (after one
    warm-up call) — the honest engine time on a noisy single core."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def write_bench_summary(filename: str, summary: dict,
                        smoke: bool) -> Path:
    """Write a bench summary to its canonical location.

    Full-scale numbers go to the tracked trajectory file
    ``benchmarks/<filename>``; smoke numbers go to
    ``benchmarks/.smoke/<filename>`` where the ``scripts/check.sh``
    regression gate (``scripts/bench_gate.py``) picks them up.  The CI
    smoke pass must never clobber the tracked trajectory.

    Every summary is stamped with ``schema_version`` and a ``host``
    fingerprint so the perf trajectory is machine-diffable across PRs
    (a regression on one host and an upgrade of the host look the same
    in a bare number).
    """
    stamped = {"schema_version": SCHEMA_VERSION,
               "host": host_fingerprint()}
    stamped.update(summary)
    if smoke:
        SMOKE_DIR.mkdir(exist_ok=True)
        out = SMOKE_DIR / filename
    else:
        out = BENCH_DIR / filename
    out.write_text(json.dumps(stamped, indent=2) + "\n")
    return out
