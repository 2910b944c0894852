"""Monte-Carlo-dropout Bayesian inference (the monitor's uncertainty source).

Sec. V-B of the paper: the standard MSDnet emits point estimates whose
softmax scores are not confidences, so the monitor runs a *Bayesian
version* of the same model obtained by keeping dropout active at
inference (Gal & Ghahramani, 2016).  ``T`` stochastic passes give, per
pixel and class, an empirical mean ``mu`` and standard deviation
``sigma``; ``sigma`` is the uncertainty proxy the monitor thresholds
with the conservative rule ``mu + 3*sigma <= tau``.

The paper computes statistics on 10 samples; that is the default here.

Batched inference engine
------------------------
Because every dropout layer draws an *independent mask per batch
element*, the ``T`` stochastic passes need not be ``T`` separate
forwards: tiling the image ``T`` times along the batch axis and doing
one batched forward samples the exact same posterior.  Better still,
one ``(T, ...)`` draw from a ``numpy.random.Generator`` yields the
identical number stream as ``T`` successive ``(1, ...)`` draws, and all
remaining layers (convolution, eval-mode batch norm, activations,
bilinear upsampling) are batch-element-deterministic — so the batched
engine reproduces the sequential path's mean/std *bit for bit* on the
same seed while paying the conv/im2col overhead once instead of ``T``
times (see ``benchmarks/bench_batched_inference.py`` for the measured
speedup).

``max_batch`` bounds the tile count per forward; chunking never changes
the result because masks are consumed in sample order and the running
moments are accumulated one sample at a time.

With a prefix/suffix split each chunk runs ``suffix(base, owners)``:
``base`` holds one row of prefix activations per image and ``owners``
names each tile's image, so the suffix can share per-image work across
a chunk's samples.  MSDnet's suffix does: block 0's channel dropout
leaves every channel of a sample's block-1 input one of two per-image
planes, so block 1's im2col columns are packed once per image and
plane and gathered per sample
(:meth:`repro.segmentation.msdnet.MSDNet.forward_suffix`), bit for bit
the tiled forward.

Moments have one accumulator, :class:`_RunningMoments` (float64 sum and
sum of squares, one sample at a time).  Every MC entry point uses it,
and so do the episode engine's joint, shared and serve passes, which
call :meth:`BayesianSegmenter.predict_distribution_stack`; their moments
are therefore bit-identical to that pass on the same seeded stack.

The public batched surface is:

* :meth:`BayesianSegmenter.predict_distribution` — one image, ``T``
  tiles in one (chunked) forward; bit-for-bit equal to
  :meth:`BayesianSegmenter.predict_distribution_sequential`.
* :meth:`BayesianSegmenter.predict_distribution_batch` — many images;
  ``independent=True`` (default) reproduces per-image sequential calls
  exactly, ``independent=False`` tiles all images into one jointly
  seeded mega-batch (fastest, still seeded-reproducible, but a
  different — documented — RNG stream).
* :meth:`BayesianSegmenter.predict_distribution_stack` — the raw engine
  over an ``(N, C, H, W)`` stack, optionally on precomputed stems.
* :meth:`BayesianSegmenter.predict_distribution_ragged` — one jointly
  seeded pass over *different-shaped* crops (the shared-context
  monitor's union windows; same-shape runs are batched).
* :meth:`BayesianSegmenter.predict_deterministic_batch` — the standard
  (dropout-off) model over a stack of frames in chunked forwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import collect_dropout_layers, set_mc_dropout
from repro.nn.module import Module
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_image_chw, check_positive

__all__ = ["PixelDistribution", "BayesianSegmenter"]


@dataclass(frozen=True)
class PixelDistribution:
    """Per-pixel, per-class empirical softmax distribution.

    ``mean`` and ``std`` have shape ``(num_classes, H, W)``.
    """

    mean: np.ndarray
    std: np.ndarray
    num_samples: int

    def upper_confidence(self, multiplier: float = 3.0) -> np.ndarray:
        """``mu + multiplier * sigma`` — Eq. (2)'s left-hand side.

        With ``multiplier=3`` this is the upper edge of the 99.7%
        confidence interval the paper tests against ``tau``.
        """
        return self.mean + multiplier * self.std

    @property
    def predicted_labels(self) -> np.ndarray:
        """Arg-max of the posterior-mean scores, ``(H, W)``."""
        return self.mean.argmax(axis=0)


class _RunningMoments:
    """Float64 running sum / sum-of-squares in strict sample order.

    Accumulating one sample at a time (never a chunk-level ``sum``)
    keeps the floating-point summation order identical to the
    sequential reference, which is what makes batched and chunked
    results bit-for-bit equal.
    """

    def __init__(self):
        self.acc = None
        self.acc_sq = None
        self.count = 0

    def update(self, scores: np.ndarray) -> None:
        s = scores.astype(np.float64)
        if self.acc is None:
            self.acc = s
            self.acc_sq = s * s
        else:
            self.acc += s
            self.acc_sq += s * s
        self.count += 1

    def finalize(self) -> PixelDistribution:
        if self.count == 0:
            raise RuntimeError("no samples accumulated")
        mean = self.acc / self.count
        var = np.maximum(self.acc_sq / self.count - mean ** 2, 0.0)
        return PixelDistribution(mean=mean, std=np.sqrt(var),
                                 num_samples=self.count)


class BayesianSegmenter:
    """Wraps a segmentation model for MC-dropout inference.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module` mapping NCHW images to NCHW logits
        and containing dropout layers (e.g. :class:`MSDNet`).
    num_samples:
        Number of stochastic forward passes ``T`` (paper: 10).
    rng:
        Seed or generator controlling the dropout masks, so monitor
        verdicts are reproducible.
    max_batch:
        Largest batch size any single forward pass may use — the
        memory/latency knob of the batched engine.  Chunking along it
        never changes results (see the module docstring).  The default
        of 6 keeps the im2col working set inside typical CPU caches;
        pushing all 10 tiles through one forward is measurably slower
        than two cache-friendly chunks.
    prefix_split:
        Use the model's ``forward_prefix``/``forward_suffix``
        deterministic split when it offers one (default).  ``False``
        forces whole-network forwards — the reference the prefix-split
        timing in ``benchmarks/bench_ext_lightweight.py`` is measured
        against.
    """

    def __init__(self, model: Module, num_samples: int = 10, rng=None,
                 max_batch: int = 6, prefix_split: bool = True):
        check_positive("num_samples", num_samples)
        check_positive("max_batch", max_batch)
        self.model = model
        self.num_samples = int(num_samples)
        self.rng = ensure_rng(rng)
        self.max_batch = int(max_batch)
        self.prefix_split = bool(prefix_split)
        # The model's layer graph is static: collect its dropout layers
        # once so MC toggling skips the module walk on every pass (a
        # measurable share of small-crop monitor latency).
        self._dropout_layers = collect_dropout_layers(model)
        self._eval_cached = False

    # ------------------------------------------------------------------
    # Model-state plumbing (hot-path helpers)
    # ------------------------------------------------------------------
    def _ensure_eval(self) -> None:
        """``model.eval()``, skipping the walk when already inference.

        The root ``training`` flag tracks ``train()``/``eval()`` calls,
        which set all descendants; a model whose sub-modules were
        toggled individually (no supported workflow does that) should
        call ``model.eval()`` itself.
        """
        if self.model.training or not self._eval_cached:
            self.model.eval()
            self._eval_cached = True

    def _set_mc(self, active: bool, rng=None) -> None:
        """Seeded-stream-identical ``set_mc_dropout`` on cached layers."""
        set_mc_dropout(self.model, active, rng=rng,
                       layers=self._dropout_layers)

    # ------------------------------------------------------------------
    # Knob resolution
    # ------------------------------------------------------------------
    def _resolve_samples(self, num_samples) -> int:
        t = int(num_samples) if num_samples is not None else \
            self.num_samples
        check_positive("num_samples", t)
        return t

    def _resolve_max_batch(self, max_batch) -> int:
        b = int(max_batch) if max_batch is not None else self.max_batch
        check_positive("max_batch", b)
        return b

    def _split_fns(self):
        """The model's deterministic-prefix split, if it offers one.

        A model may expose ``forward_prefix`` / ``forward_suffix`` with
        the contract ``forward(x) == forward_suffix(forward_prefix(x))``
        where the prefix contains no stochastic (dropout) layers (see
        :meth:`repro.segmentation.msdnet.MSDNet.forward_prefix`).  The
        engine then computes the prefix once per image and tiles only
        the suffix across the ``T`` MC samples — the prefix is usually
        the full-resolution stem, i.e. most of the wall-clock cost.
        Both :class:`~repro.segmentation.msdnet.MSDNet` and
        :class:`~repro.segmentation.lightweight.LightSegNet` offer the
        split; ``prefix_split=False`` disables it for benchmarking.
        """
        if not self.prefix_split:
            return None, None
        prefix = getattr(self.model, "forward_prefix", None)
        suffix = getattr(self.model, "forward_suffix", None)
        if callable(prefix) and callable(suffix):
            return prefix, suffix
        return None, None

    @staticmethod
    def _stack_images(images) -> np.ndarray:
        """Validate and stack same-shape CHW images into NCHW float32."""
        images = list(images)
        if not images:
            return np.zeros((0, 3, 1, 1), dtype=np.float32)
        for i, image in enumerate(images):
            check_image_chw(f"images[{i}]", image)
            if np.shape(image) != np.shape(images[0]):
                raise ValueError(
                    f"images[{i}] has shape {np.shape(image)}, expected "
                    f"{np.shape(images[0])} (batched inference needs a "
                    "common shape)")
        return np.stack([np.asarray(im, dtype=np.float32)
                         for im in images])

    # ------------------------------------------------------------------
    # Deterministic (standard-version) inference
    # ------------------------------------------------------------------
    def predict_deterministic(self, image: np.ndarray) -> np.ndarray:
        """Standard-version softmax scores ``(C, H, W)`` (dropout off)."""
        check_image_chw("image", image)
        self._ensure_eval()
        self._set_mc(False)
        logits = self.model.forward(image[None].astype(np.float32))
        return softmax(logits, axis=1)[0]

    def predict_labels(self, image: np.ndarray) -> np.ndarray:
        """Standard-version arg-max labels ``(H, W)`` for one image.

        Identical to ``predict_deterministic(image).argmax(axis=0)`` —
        softmax is monotone, so the arg-max is taken on raw logits and
        the full-frame exp/normalise pass is skipped (the pipeline's
        core function only needs labels).
        """
        check_image_chw("image", image)
        self._ensure_eval()
        self._set_mc(False)
        logits = self.model.forward(image[None].astype(np.float32))
        return logits[0].argmax(axis=0)

    def predict_labels_batch(self, images,
                             max_batch: int | None = None) -> np.ndarray:
        """Standard-version labels ``(N, H, W)`` for a frame stack.

        The batched-engine analogue of :meth:`predict_labels`; each
        element is bit-for-bit equal to the single-image call.
        """
        stack = self._stack_images(images)
        b_max = self._resolve_max_batch(max_batch)
        if stack.shape[0] == 0:
            return np.zeros((0, 0, 0), dtype=np.int64)
        self._ensure_eval()
        self._set_mc(False)
        outs = [self.model.forward(stack[lo:lo + b_max]).argmax(axis=1)
                for lo in range(0, stack.shape[0], b_max)]
        return np.concatenate(outs, axis=0)

    def predict_deterministic_batch(self, images,
                                    max_batch: int | None = None
                                    ) -> np.ndarray:
        """Standard-version scores ``(N, C, H, W)`` for a frame stack.

        One chunked forward over all frames; each element is bit-for-bit
        equal to the corresponding :meth:`predict_deterministic` call
        (the substrate's ops are batch-element-deterministic).
        """
        stack = self._stack_images(images)
        b_max = self._resolve_max_batch(max_batch)
        if stack.shape[0] == 0:
            # No frames, hence no spatial shape either; size the class
            # axis from the model when it is discoverable so that
            # generic (N, C, H, W) downstream code keeps working.
            classes = int(getattr(
                getattr(self.model, "config", None), "num_classes", 0))
            return np.zeros((0, classes, 0, 0), dtype=np.float32)
        self._ensure_eval()
        self._set_mc(False)
        outs = [softmax(self.model.forward(stack[lo:lo + b_max]), axis=1)
                for lo in range(0, stack.shape[0], b_max)]
        return np.concatenate(outs, axis=0)

    # ------------------------------------------------------------------
    # Monte-Carlo inference: the batched engine
    # ------------------------------------------------------------------
    def compute_prefix(self, stack: np.ndarray,
                       max_batch: int | None = None) -> np.ndarray | None:
        """Deterministic-stem activations for an NCHW stack.

        Returns the model's ``forward_prefix`` output computed in
        chunked dropout-off forwards (batch-element-deterministic, so
        ``compute_prefix(stack)[i]`` equals the single-image prefix bit
        for bit), or ``None`` when the model offers no prefix/suffix
        split.  The episode engine's shared-context mode caches these
        activations across wind-drift frames and replays only the
        stochastic suffix when a window's pixels are unchanged.
        """
        prefix, _ = self._split_fns()
        if prefix is None:
            return None
        b_max = self._resolve_max_batch(max_batch)
        self._ensure_eval()
        self._set_mc(False)
        return np.concatenate(
            [prefix(stack[lo:lo + b_max])
             for lo in range(0, stack.shape[0], b_max)], axis=0)

    def _suffix_forward(self):
        """The stochastic remainder matching ``compute_prefix``, or
        ``None`` when the model offers no prefix/suffix split."""
        return self._split_fns()[1]

    def _mc_tiles(self, base: np.ndarray, suffix, num_samples: int,
                  max_batch: int):
        """Yield ``(owners, scores)`` chunks of one seeded tile stream.

        Assumes MC dropout is already active; pushes the ``N * T``
        tiles (image-major, sample-minor) through the model in
        ``max_batch`` chunks.  ``owners[k]`` is the image index of
        ``scores[k]``.  With a split ``suffix``, ``base`` holds one
        row of prefix activations per image and each chunk runs
        ``suffix(base, owners)``, which shares per-image work across
        the chunk's samples; without one, ``base`` holds the raw images
        and the tiles go through ``model.forward``.  Because every
        dropout layer draws an independent mask per batch element, the
        per-tile mask stream is identical whatever the chunk boundaries.
        """
        n = base.shape[0]
        total = n * num_samples
        done = 0
        while done < total:
            b = min(max_batch, total - done)
            owners = np.arange(done, done + b, dtype=np.intp) \
                // num_samples
            if suffix is not None:
                logits = suffix(base, owners)
            elif n == 1:
                # Tiling one image: a stride-0 broadcast view avoids
                # materialising the batch.
                logits = self.model.forward(
                    np.broadcast_to(base, (b,) + base.shape[1:]))
            else:
                logits = self.model.forward(base[owners])
            yield owners, softmax(logits, axis=1)
            done += b

    def _mc_chunks(self, stack: np.ndarray, num_samples: int,
                   max_batch: int, bases: np.ndarray | None = None):
        """Yield ``(owners, scores)`` chunks of the batched MC pass.

        The single engine loop shared by every MC entry point: computes
        the model's deterministic prefix once per image (or reuses a
        caller-provided ``bases`` of prefix activations — the episode
        engine's temporal stem reuse), seeds MC dropout once, then
        pushes the ``N * T`` tiles through the stochastic remainder in
        ``max_batch`` chunks.  MC dropout is switched off again when
        the generator closes (consumers iterate inside ``try/finally
        gen.close()``).
        """
        self._ensure_eval()
        if bases is None:
            # Deterministic prefix: once per image, not per sample (the
            # raw images for a model without the split).
            prefix = self.compute_prefix(stack, max_batch)
            bases = stack if prefix is None else prefix
        self._set_mc(True, rng=self.rng)
        try:
            yield from self._mc_tiles(bases, self._suffix_forward(),
                                      num_samples, max_batch)
        finally:
            self._set_mc(False)

    def predict_distribution(self, image: np.ndarray,
                             num_samples: int | None = None,
                             max_batch: int | None = None
                             ) -> PixelDistribution:
        """Run ``T`` MC-dropout passes and return per-pixel statistics.

        The image is tiled ``T`` times along the batch axis and pushed
        through the model in at most ``ceil(T / max_batch)`` forwards —
        bit-for-bit equal to :meth:`predict_distribution_sequential` on
        the same seed, several times faster (the conv/im2col overhead is
        paid once per chunk instead of once per sample).

        The model is left in deterministic eval mode afterwards, so a
        shared model instance can serve both the core function and the
        monitor (the Fig. 2 architecture).
        """
        check_image_chw("image", image)
        t = self._resolve_samples(num_samples)
        stack = np.asarray(image, dtype=np.float32)[None]
        return self.predict_distribution_stack(
            stack, num_samples=t, max_batch=max_batch)[0]

    def predict_distribution_sequential(self, image: np.ndarray,
                                        num_samples: int | None = None
                                        ) -> PixelDistribution:
        """Reference implementation: one single-image forward per sample.

        Kept as the ground truth for the seeded batched/sequential
        equivalence tests and as the baseline of
        ``benchmarks/bench_batched_inference.py``.  Prefer
        :meth:`predict_distribution` everywhere else.
        """
        check_image_chw("image", image)
        t = self._resolve_samples(num_samples)
        self._ensure_eval()
        self._set_mc(True, rng=self.rng)
        x = image[None].astype(np.float32)
        moments = _RunningMoments()
        try:
            for _ in range(t):
                moments.update(softmax(self.model.forward(x), axis=1)[0])
        finally:
            self._set_mc(False)
        return moments.finalize()

    def predict_distribution_stack(self, stack: np.ndarray,
                                   num_samples: int | None = None,
                                   max_batch: int | None = None,
                                   bases: np.ndarray | None = None
                                   ) -> list[PixelDistribution]:
        """The batched engine: MC statistics for an ``(N, C, H, W)`` stack.

        The ``N * T`` tiles (image-major, sample-minor) are pushed
        through the model in ``max_batch`` chunks under a *single*
        dropout seeding, and per-image moments are accumulated in strict
        sample order.  For ``N == 1`` this is exactly the sequential RNG
        stream; for ``N > 1`` the stream is jointly seeded (documented
        in :meth:`predict_distribution_batch`).

        ``bases`` optionally supplies the images' precomputed
        deterministic-stem activations (:meth:`compute_prefix`); stems
        are deterministic, so the moments are those of a recomputed
        stem.
        """
        stack = np.asarray(stack, dtype=np.float32)
        if stack.ndim != 4:
            raise ValueError(
                f"expected an NCHW stack, got shape {stack.shape}")
        n = stack.shape[0]
        if n == 0:
            return []
        t = self._resolve_samples(num_samples)
        b_max = self._resolve_max_batch(max_batch)
        if bases is not None:
            bases = np.asarray(bases, dtype=np.float32)
            if bases.shape[0] != n:
                raise ValueError(
                    f"bases has {bases.shape[0]} entries for {n} images")

        moments = [_RunningMoments() for _ in range(n)]
        chunks = self._mc_chunks(stack, t, b_max, bases=bases)
        try:
            for owners, scores in chunks:
                for k in range(len(owners)):
                    moments[int(owners[k])].update(scores[k])
        finally:
            chunks.close()
        return [m.finalize() for m in moments]

    def predict_distribution_ragged(self, crops,
                                    num_samples: int | None = None,
                                    max_batch: int | None = None
                                    ) -> list[PixelDistribution]:
        """Jointly seeded MC statistics over *different-shaped* crops.

        The ragged extension of :meth:`predict_distribution_stack` the
        shared-context monitor runs over union windows: all crops share
        **one** dropout seeding, with the mask stream consumed
        crop-major, sample-minor in input order.  Runs of consecutive
        same-shape crops are stacked and pushed through the engine as
        chunked batched forwards (deterministic prefixes first, then
        the stochastic tiles), so shape raggedness only limits
        batching, never changes the stream.  For a single crop — or
        any same-shape run — this is bit-for-bit
        :meth:`predict_distribution_stack` on the same seed, which is
        what makes a merge-free shared monitoring plan reproduce the
        joint pass exactly (and a single-window call reproduce
        :meth:`predict_distribution`).
        """
        crops = [np.asarray(c, dtype=np.float32) for c in crops]
        for i, crop in enumerate(crops):
            check_image_chw(f"crops[{i}]", crop)
        if not crops:
            return []
        t = self._resolve_samples(num_samples)
        b_max = self._resolve_max_batch(max_batch)
        self._ensure_eval()

        # Runs of consecutive same-shape crops, stacked.
        runs: list[tuple[int, np.ndarray]] = []
        start = 0
        for i in range(1, len(crops) + 1):
            if i == len(crops) or crops[i].shape != crops[start].shape:
                runs.append((start, np.stack(crops[start:i])))
                start = i

        # Deterministic prefixes for every run first (dropout off),
        # then one seeding for the whole ragged tile stream.
        prepared = []
        for start, stack in runs:
            base = self.compute_prefix(stack, b_max)
            prepared.append(
                (start, stack if base is None else base))
        suffix = self._suffix_forward()

        moments = [_RunningMoments() for _ in crops]
        self._set_mc(True, rng=self.rng)
        try:
            for start, base in prepared:
                for owners, scores in self._mc_tiles(base, suffix, t,
                                                     b_max):
                    for k in range(len(owners)):
                        moments[start + int(owners[k])].update(scores[k])
        finally:
            self._set_mc(False)
        return [m.finalize() for m in moments]

    def predict_distribution_batch(self, images,
                                   num_samples: int | None = None,
                                   max_batch: int | None = None,
                                   independent: bool = True
                                   ) -> list[PixelDistribution]:
        """MC statistics for several same-shape images.

        With ``independent=True`` (default) each image gets its own
        dropout seeding, reproducing ``[predict_distribution(im) for im
        in images]`` bit for bit — each image still enjoys the ``T``-fold
        batched forward.  With ``independent=False`` all ``N * T`` tiles
        share one seeding and run as a single chunked mega-batch: the
        fastest path, seeded and reproducible, but its mask stream
        intentionally differs from the per-image sequence.
        """
        stack = self._stack_images(images)
        if stack.shape[0] == 0:
            return []
        if independent:
            return [
                self.predict_distribution_stack(
                    stack[i:i + 1], num_samples=num_samples,
                    max_batch=max_batch)[0]
                for i in range(stack.shape[0])
            ]
        return self.predict_distribution_stack(
            stack, num_samples=num_samples, max_batch=max_batch)

    def predict_samples(self, image: np.ndarray,
                        num_samples: int | None = None,
                        max_batch: int | None = None) -> np.ndarray:
        """Return the raw stack of MC softmax scores ``(T, C, H, W)``.

        Used by ablation benches that study estimator convergence; the
        monitor itself uses :meth:`predict_distribution`.  Runs on the
        batched engine (chunked tiles, same RNG stream as the
        sequential pass).
        """
        check_image_chw("image", image)
        t = self._resolve_samples(num_samples)
        b_max = self._resolve_max_batch(max_batch)
        x = image[None].astype(np.float32)
        collected = []
        chunks = self._mc_chunks(x, t, b_max)
        try:
            for _, scores in chunks:
                collected.append(scores)
        finally:
            chunks.close()
        return np.concatenate(collected, axis=0)
