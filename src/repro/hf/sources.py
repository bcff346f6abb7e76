"""Serial in-memory data sources for the HF optimizer.

These implement :class:`~repro.hf.types.HFDataSource` over arrays held in
one process.  Two variants:

* :class:`FrameSource` — frame-level criteria (cross-entropy, squared
  error): the curvature mini-sample is a random subset of *frames*;
* :class:`SequenceSource` — utterance-structured criteria (sequence
  MMI): gradients sweep all utterances, the curvature sample is a random
  subset of *utterances* (sampling must respect sequence boundaries).

Both chunk their full-data sweeps so peak memory stays bounded
regardless of corpus size, and both cut a curvature batch out of their
data with ``curvature_batch(units)``.  They are also the distributed
workers' shard math: each threaded worker (:mod:`repro.dist.threaded`)
runs one of these sources over its own shard, answering gradient and
held-out requests with the methods below and building its curvature
products from ``curvature_batch``.  The one seeded draw of a curvature
mini-sample, :func:`curvature_sample`, lives here too, so every backend
sees the *same* sample for the same seed (the precondition for the
paper's "no loss in accuracy" parity claim); :func:`slice_batch` cuts a
subset of utterances out of a frame matrix and rebases their spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.nn.losses import Loss, SequenceBatchTargets, UtteranceSpan
from repro.nn.network import DNN
from repro.nn.gauss_newton import GaussNewtonOperator
from repro.util.rng import spawn

__all__ = [
    "FrameSource",
    "SequenceSource",
    "curvature_sample",
    "sample_size",
    "slice_batch",
]


def sample_size(total: int, fraction: float) -> int:
    """Global curvature-sample size — one formula for every backend."""
    if total < 1:
        raise ValueError(f"total must be >= 1: {total}")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0,1]: {fraction}")
    return max(1, int(round(fraction * total)))


def curvature_sample(
    total: int, fraction: float, seed: int, sample_seed: int
) -> np.ndarray:
    """The sorted indices (frames or utterances, out of ``total``) of one
    curvature mini-sample, derived from ``(seed, sample_seed)`` alone."""
    k = sample_size(total, fraction)
    rng = spawn(seed, "curvature", sample_seed)
    return np.sort(rng.choice(total, size=k, replace=False))


def slice_batch(
    x: np.ndarray, spans: Sequence[UtteranceSpan]
) -> tuple[np.ndarray, SequenceBatchTargets]:
    """Extract a contiguous batch for a subset of utterances, rebasing
    their spans to start at 0 (an empty subset gives a 0-row batch)."""
    if not spans:
        return x[:0], SequenceBatchTargets(())
    xb = np.concatenate([x[s.start : s.end] for s in spans], axis=0)
    rebased = []
    pos = 0
    for s in spans:
        length = s.end - s.start
        rebased.append(UtteranceSpan(pos, pos + length, s.states))
        pos += length
    return xb, SequenceBatchTargets(tuple(rebased))


@dataclass
class FrameSource:
    """HF data source over (frames x dim) arrays with per-frame targets."""

    net: DNN
    loss: Loss
    x: np.ndarray
    targets: np.ndarray
    heldout_x: np.ndarray
    heldout_targets: np.ndarray
    curvature_fraction: float = 0.02
    chunk_frames: int = 65536
    seed: int = 0

    def __post_init__(self) -> None:
        if self.x.shape[0] != np.asarray(self.targets).shape[0]:
            raise ValueError("train targets must align with frames")
        if self.heldout_x.shape[0] != np.asarray(self.heldout_targets).shape[0]:
            raise ValueError("heldout targets must align with frames")
        if not 0 < self.curvature_fraction <= 1:
            raise ValueError(
                f"curvature_fraction must be in (0,1]: {self.curvature_fraction}"
            )
        if self.chunk_frames < 1:
            raise ValueError(f"chunk_frames must be >= 1: {self.chunk_frames}")

    # ------------------------------------------------------------- protocol
    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray, int]:
        """Summed loss and gradient over all training frames, chunked."""
        total = 0.0
        grad = np.zeros_like(theta)
        n = self.x.shape[0]
        for lo in range(0, n, self.chunk_frames):
            hi = min(lo + self.chunk_frames, n)
            value, g = self.net.loss_and_grad(
                theta, self.x[lo:hi], self.loss, self.targets[lo:hi]
            )
            total += value
            grad += g
        return total, grad, n

    def curvature_batch(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, targets) of the training frames ``units``."""
        return self.x[units], np.asarray(self.targets)[units]

    def curvature_operator(
        self, theta: np.ndarray, lam: float, sample_seed: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Damped Gauss-Newton operator over a fresh frame sample."""
        return _sampled_operator(self, self.x.shape[0], theta, lam, sample_seed)

    def heldout_loss(self, theta: np.ndarray) -> tuple[float, int]:
        """Summed loss and frame count over the held-out set."""
        total = 0.0
        n = self.heldout_x.shape[0]
        for lo in range(0, n, self.chunk_frames):
            hi = min(lo + self.chunk_frames, n)
            value, _ = self.net.loss_and_grad(
                theta, self.heldout_x[lo:hi], self.loss, self.heldout_targets[lo:hi]
            )
            total += value
        return total, n


@dataclass
class SequenceSource:
    """HF data source over concatenated utterances for sequence criteria."""

    net: DNN
    loss: Loss  # a SequenceMMILoss (or anything taking SequenceBatchTargets)
    x: np.ndarray
    spans: Sequence[UtteranceSpan]
    heldout_x: np.ndarray
    heldout_spans: Sequence[UtteranceSpan]
    curvature_fraction: float = 0.02
    chunk_utterances: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.spans:
            raise ValueError("need at least one training utterance")
        if self.spans[-1].end != self.x.shape[0]:
            raise ValueError(
                f"spans cover {self.spans[-1].end} frames, x has {self.x.shape[0]}"
            )
        if not 0 < self.curvature_fraction <= 1:
            raise ValueError(
                f"curvature_fraction must be in (0,1]: {self.curvature_fraction}"
            )
        if self.chunk_utterances < 1:
            raise ValueError(
                f"chunk_utterances must be >= 1: {self.chunk_utterances}"
            )

    # ------------------------------------------------------------- protocol
    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray, int]:
        """Summed loss and gradient over all training utterances."""
        total = 0.0
        grad = np.zeros_like(theta)
        frames = 0
        for chunk in _utterance_chunks(self.spans, self.chunk_utterances):
            xb, tb = slice_batch(self.x, chunk)
            value, g = self.net.loss_and_grad(theta, xb, self.loss, tb)
            total += value
            grad += g
            frames += tb.n_frames
        return total, grad, frames

    def curvature_batch(
        self, units: np.ndarray
    ) -> tuple[np.ndarray, SequenceBatchTargets]:
        """(x, targets) of the training utterances ``units``."""
        return slice_batch(self.x, [self.spans[i] for i in units])

    def curvature_operator(
        self, theta: np.ndarray, lam: float, sample_seed: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Damped Gauss-Newton operator over sampled whole utterances."""
        return _sampled_operator(self, len(self.spans), theta, lam, sample_seed)

    def heldout_loss(self, theta: np.ndarray) -> tuple[float, int]:
        """Summed loss and frame count over held-out utterances."""
        total = 0.0
        frames = 0
        for chunk in _utterance_chunks(self.heldout_spans, self.chunk_utterances):
            xb, tb = slice_batch(self.heldout_x, chunk)
            value, _ = self.net.loss_and_grad(theta, xb, self.loss, tb)
            total += value
            frames += tb.n_frames
        return total, frames


def _sampled_operator(
    source: FrameSource | SequenceSource,
    total: int,
    theta: np.ndarray,
    lam: float,
    sample_seed: int,
) -> GaussNewtonOperator:
    """Damped G-product over ``source``'s curvature sample out of its
    ``total`` units, normalised by the sampled frame count."""
    units = curvature_sample(total, source.curvature_fraction, source.seed, sample_seed)
    x, targets = source.curvature_batch(units)
    return GaussNewtonOperator(
        net=source.net,
        theta=theta,
        x=x,
        loss=source.loss,
        targets=targets,
        lam=lam,
        normalizer=float(x.shape[0]),
    )


def _utterance_chunks(
    spans: Sequence[UtteranceSpan], per_chunk: int
) -> list[list[UtteranceSpan]]:
    return [
        list(spans[i : i + per_chunk]) for i in range(0, len(spans), per_chunk)
    ]
