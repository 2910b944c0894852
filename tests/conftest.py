"""Shared fixtures for the test suite.

The expensive artefact — a trained segmentation system — is built once
per session at a deliberately tiny scale (small frames, few epochs) and
cached on disk, so the integration/core tests that need a real trained
model stay fast on repeated runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.harness import (
    TrainedSystem,
    build_trained_system,
    tiny_harness_config,
)


@pytest.fixture(scope="session")
def tiny_system() -> TrainedSystem:
    """A small but genuinely trained system (cached across runs).

    The configuration comes from ``tiny_harness_config`` — the single
    source shared with the benchmark suite's ``BENCH_SMOKE=1`` mode, so
    both resolve to one cached set of trained weights.
    """
    return build_trained_system(tiny_harness_config(), cache=True)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)
