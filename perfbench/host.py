"""The host facts that move the numbers: controlled and recorded."""

from __future__ import annotations

import ctypes
import glob
import os

__all__ = ["STRIPPED_ENV", "clean_env", "blas_info", "cpu_times",
           "steal_frac"]

#: Inherited settings that would silently change what is measured:
#: BLAS thread pinning and the program's engine/mode toggles.
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "REPRO_CONV_ENGINE", "REPRO_MONITOR_SHARED",
                "REPRO_MONITOR_ADAPTIVE", "REPRO_SERVE_WORKERS",
                "REPRO_REQUIRE_SEED")


def clean_env(base: dict, src_dir: str, cache_dir: str) -> dict:
    """``base`` without :data:`STRIPPED_ENV`, importing ``src_dir``
    and caching trained weights in ``cache_dir``."""
    env = {k: v for k, v in base.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = src_dir
    env["REPRO_CACHE"] = cache_dir
    return env


def _openblas():
    """numpy's bundled OpenBLAS (already loaded by ``import numpy``)."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "libscipy_openblas*.so")
    found = sorted(glob.glob(libs))
    return ctypes.CDLL(found[0]) if found else None


def blas_info() -> tuple[int, str]:
    """Effective BLAS thread count and OpenBLAS build string.

    ``(0, "unknown")`` when numpy does not bundle scipy-openblas.
    """
    lib = _openblas()
    if lib is None:
        return 0, "unknown"
    try:
        threads = lib.scipy_openblas_get_num_threads64_
        config = lib.scipy_openblas_get_config64_
    except AttributeError:
        return 0, "unknown"
    threads.argtypes = []
    threads.restype = ctypes.c_int
    config.argtypes = []
    config.restype = ctypes.c_char_p
    return int(threads()), config().decode("ascii", "replace").strip()


def cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0, 0
    ticks = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice.
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time stolen by the hypervisor between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0
