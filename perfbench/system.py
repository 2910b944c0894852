"""The full-scale trained system, trained once and then only loaded."""

from __future__ import annotations

import os
from pathlib import Path

from repro.eval.harness import (
    HarnessConfig,
    TrainedSystem,
    build_trained_system,
)
from repro.nn.io import load_weights, save_weights
from repro.segmentation.msdnet import MSDNet, MSDNetConfig

__all__ = ["weights_path", "ensure_weights", "load_system"]


def weights_path(cache_dir) -> Path:
    return Path(cache_dir) / f"msdnet-{HarnessConfig().cache_key()}.npz"


def ensure_weights(cache_dir) -> Path:
    """Train the default system unless its weights are cached.

    The weights are written under a temporary name and renamed into
    place, so an interrupted build never leaves a truncated cache.
    """
    path = weights_path(cache_dir)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        trained = build_trained_system(HarnessConfig(), cache=False)
        partial = path.with_name(f"{path.stem}.{os.getpid()}.partial.npz")
        save_weights(trained.model, partial)
        os.replace(partial, path)
    return path


def load_system(cache_dir) -> TrainedSystem:
    """The trained system from cached weights, without the dataset.

    ``build_trained_system`` regenerates the training dataset on every
    call; the workloads need only the model and the scale-matched
    configs, so set-up time stays the program's own start-up cost.
    """
    config = HarnessConfig()
    model = MSDNet(MSDNetConfig(base_channels=config.model_channels,
                                num_blocks=config.model_blocks,
                                dropout=config.model_dropout),
                   rng=config.model_seed)
    load_weights(model, weights_path(cache_dir))
    model.eval()
    return TrainedSystem(config=config, model=model, train_samples=[],
                         val_samples=[], test_samples=[])
