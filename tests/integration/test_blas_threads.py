"""The BLAS thread count does not change results.

OpenBLAS may split a GEMM across threads, and a different split could
in principle reorder a float reduction.  The monitor's verdicts must
not depend on how many threads the host gives BLAS, so one seeded
script runs in two fresh interpreters, with ``OPENBLAS_NUM_THREADS``
set to 1 and then 2, and must print the same digest of:

* ``LandingPipeline.run`` on six test frames: labels, verdict means
  and stds, accept flags;
* the verdicts of a ``monitor_batching="shared"`` scheduler run over
  the same frames.

The digest value itself is not pinned; only its equality across
thread counts is the contract.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = r"""
import hashlib, json
import numpy as np

from perfbench.host import blas_info
from repro.core import EngineConfig, EpisodeScheduler
from repro.eval.harness import build_trained_system, tiny_harness_config

digest = hashlib.sha256()


def add(array):
    array = np.ascontiguousarray(array)
    digest.update(str((array.dtype, array.shape)).encode())
    digest.update(array.tobytes())


def add_verdicts(verdicts):
    for verdict in verdicts:
        add(np.array([verdict.accepted, verdict.unsafe_fraction]))
        add(verdict.distribution.mean)
        add(verdict.distribution.std)


system = build_trained_system(tiny_harness_config(), cache=True)
frames = [sample.image for sample in system.test_samples[:6]]
pipeline = system.make_pipeline(rng=0)
for frame in frames:
    result = pipeline.run(frame)
    add(result.predicted_labels)
    add_verdicts(result.verdicts)
scheduler = EpisodeScheduler(
    system.model, system.pipeline_config(),
    engine=EngineConfig(monitor_batching="shared", speculative_k=3),
    rng=0)
for result in scheduler.run_frames(frames, seed=1):
    add_verdicts(result.verdicts)
print(json.dumps({"digest": digest.hexdigest()[:16],
                  "blas_threads": blas_info()[0]}))
"""


def _run(threads: int) -> dict:
    # OPENBLAS_NUM_THREADS takes precedence over OMP/GOTO thread pins.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   (str(REPO_ROOT / "src"), str(REPO_ROOT))))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_results_do_not_depend_on_blas_threads(tiny_system):
    # tiny_system warms the weight cache the children load from.
    one, two = _run(1), _run(2)
    assert one["digest"] == two["digest"]
    # Not vacuous: where the bundled OpenBLAS reports its thread count
    # and the host has two cores, the two runs really differed.
    if one["blas_threads"] and (os.cpu_count() or 1) >= 2:
        assert (one["blas_threads"], two["blas_threads"]) == (1, 2)
