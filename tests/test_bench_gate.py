"""The bench gate's audit of committed BENCH_*.json summaries."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", REPO_ROOT / "scripts" / "bench_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_gate = _load_gate()


def _write_summary(directory: Path, name: str, host: dict) -> None:
    (directory / name).write_text(
        json.dumps({"schema_version": 2, "host": host}))


def test_fingerprint_without_blas_threads_is_reported(tmp_path):
    _write_summary(tmp_path, "BENCH_old.json",
                   {"cpu_count": 1, "machine": "x86_64"})
    _write_summary(tmp_path, "BENCH_new.json",
                   {"cpu_count": 2, "blas_threads": 2,
                    "machine": "x86_64"})
    failures: list[str] = []
    bench_gate.check_committed_summaries(failures, tmp_path)
    assert len(failures) == 1
    assert failures[0].startswith("BENCH_old.json")
    assert "blas_threads" in failures[0]

