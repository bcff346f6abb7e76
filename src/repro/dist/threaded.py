"""Distributed Hessian-free training on real threads (real math).

This backend runs the *actual* Algorithm-1 optimizer on rank 0 while
worker ranks hold utterance shards and answer gradient / curvature /
held-out requests — the full master/worker protocol of Section IV with
genuine data parallelism (numpy's GEMMs release the GIL, so worker
compute overlaps on multicore hosts).

The master-side :class:`MasterSource` implements
:class:`~repro.hf.types.HFDataSource`, so the optimizer code is the
*same object* that runs serially; the parity tests (paper: "no loss in
accuracy") compare its trajectory against the serial sources at
identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.dist.partition import Assignment, balanced_partition
from repro.dist.protocol import (
    CMD_CURV,
    CMD_CURV_SETUP,
    CMD_GRADIENT,
    CMD_HELDOUT,
    CMD_STOP,
    FrameShard,
    SequenceShard,
)
from repro.hf.optimizer import HessianFreeOptimizer
from repro.hf.sources import FrameSource, SequenceSource, curvature_sample, slice_batch
from repro.hf.types import HFConfig, HFResult
from repro.nn.gauss_newton import GaussNewtonOperator
from repro.nn.losses import Loss, UtteranceSpan
from repro.nn.network import DNN
from repro.util.logging import RunLog
from repro.vmpi.inprocess import ThreadRankComm, run_threaded

__all__ = ["MasterSource", "worker_loop", "make_frame_shards", "make_sequence_shards", "train_threaded_hf"]


@dataclass
class MasterSource:
    """Master-side HFDataSource that fans work out over a communicator."""

    comm: ThreadRankComm
    total_train_frames: int
    curvature_fraction: float
    curvature_total: int
    """Sampling universe size: total frames (CE) or utterances (MMI)."""
    seed: int

    def _collect(self) -> list:
        parts = self.comm.gather(None, root=0)
        assert parts is not None
        return parts[1:]  # drop the master's own placeholder

    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray, int]:
        """Broadcast theta, sum worker loss/gradient shards."""
        self.comm.bcast((CMD_GRADIENT, theta), root=0)
        loss_sum = 0.0
        grad = np.zeros_like(theta)
        frames = 0
        for part_loss, part_grad, part_n in self._collect():
            loss_sum += part_loss
            grad += part_grad
            frames += part_n
        if frames != self.total_train_frames:
            raise RuntimeError(
                f"workers reported {frames} frames, expected "
                f"{self.total_train_frames} — shard assignment is broken"
            )
        return loss_sum, grad, frames

    def curvature_operator(
        self, theta: np.ndarray, lam: float, sample_seed: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Distributed damped Gauss-Newton operator: each apply fans a
        vector out to workers and sums their curvature products."""
        self.comm.bcast((CMD_CURV_SETUP, theta, sample_seed), root=0)
        # workers ack with their sampled frame counts
        sampled_frames = sum(self._collect())

        def op(v: np.ndarray) -> np.ndarray:
            self.comm.bcast((CMD_CURV, v), root=0)
            gv = np.zeros_like(v)
            for part in self._collect():
                gv += part
            return gv / max(sampled_frames, 1) + lam * v

        op.sample_size = sampled_frames  # type: ignore[attr-defined]
        return op

    def heldout_loss(self, theta: np.ndarray) -> tuple[float, int]:
        """Broadcast theta, sum worker held-out loss shards."""
        self.comm.bcast((CMD_HELDOUT, theta), root=0)
        loss_sum = 0.0
        frames = 0
        for part_loss, part_n in self._collect():
            loss_sum += part_loss
            frames += part_n
        return loss_sum, frames

    def stop(self) -> None:
        self.comm.bcast((CMD_STOP,), root=0)


def worker_loop(
    comm: ThreadRankComm,
    source: FrameSource | SequenceSource,
    global_ids: np.ndarray,
    curvature_total: int,
) -> int:
    """Serve master commands with ``source``, the serial data source over
    this worker's shard, until ``stop``; returns commands served.

    ``global_ids`` names the shard's sampling units (frames or
    utterances) out of ``curvature_total``; a curvature request keeps
    the units of the global sample that the shard owns."""
    op: GaussNewtonOperator | None = None
    served = 0
    while True:
        cmd = comm.bcast(None, root=0)
        served += 1
        kind = cmd[0]
        if kind == CMD_STOP:
            return served
        if kind == CMD_GRADIENT:
            comm.gather(source.gradient(cmd[1]), root=0)
        elif kind == CMD_CURV_SETUP:
            theta, sample_seed = cmd[1], cmd[2]
            sample = curvature_sample(
                curvature_total, source.curvature_fraction, source.seed, sample_seed
            )
            own = np.flatnonzero(np.isin(global_ids, sample))
            op = None
            if own.size:
                # raw products: the master sums them, then normalises and damps
                x, targets = source.curvature_batch(own)
                op = GaussNewtonOperator(
                    net=source.net, theta=theta, x=x, loss=source.loss,
                    targets=targets, lam=0.0, normalizer=1.0,
                )
            comm.gather(op.sample_size if op is not None else 0, root=0)
        elif kind == CMD_CURV:
            v = cmd[1]
            gv = op(v) if op is not None else np.zeros_like(v)
            comm.gather(gv, root=0)
        elif kind == CMD_HELDOUT:
            comm.gather(source.heldout_loss(cmd[1]), root=0)
        else:
            raise ValueError(f"unknown command {kind!r}")


# ----------------------------------------------------------- shard builders
def make_frame_shards(
    x: np.ndarray,
    targets: np.ndarray,
    heldout_x: np.ndarray,
    heldout_targets: np.ndarray,
    utt_lengths: Sequence[int],
    n_workers: int,
    partitioner: Callable[[Sequence[int], int], Assignment] = balanced_partition,
) -> list[FrameShard]:
    """Split concatenated frame data into per-worker shards by utterance.

    ``utt_lengths`` must tile ``x`` exactly; held-out frames are split
    contiguously (held-out balance matters less — it is evaluated, not
    differentiated, and it is small).
    """
    lengths = np.asarray(utt_lengths, dtype=np.int64)
    if lengths.sum() != x.shape[0]:
        raise ValueError(
            f"utterance lengths sum to {lengths.sum()}, x has {x.shape[0]} frames"
        )
    assignment = partitioner(lengths, n_workers)
    frame_owner = np.repeat(assignment.owner, lengths)
    h_bounds = np.linspace(0, heldout_x.shape[0], n_workers + 1).astype(int)
    shards = []
    for w in range(n_workers):
        ids = np.flatnonzero(frame_owner == w)
        shards.append(
            FrameShard(
                x=x[ids],
                targets=np.asarray(targets)[ids],
                global_ids=ids,
                heldout_x=heldout_x[h_bounds[w] : h_bounds[w + 1]],
                heldout_targets=np.asarray(heldout_targets)[
                    h_bounds[w] : h_bounds[w + 1]
                ],
            )
        )
    return shards


def make_sequence_shards(
    x: np.ndarray,
    spans: Sequence[UtteranceSpan],
    heldout_x: np.ndarray,
    heldout_spans: Sequence[UtteranceSpan],
    n_workers: int,
    partitioner: Callable[[Sequence[int], int], Assignment] = balanced_partition,
) -> list[SequenceShard]:
    """Split utterance-structured data into per-worker shards.

    Held-out utterances are partitioned the same way when there are at
    least as many as workers; otherwise worker 0 holds all of them.
    """
    assignment = partitioner([s.end - s.start for s in spans], n_workers)
    if len(heldout_spans) >= n_workers:
        h_workers = partitioner(
            [s.end - s.start for s in heldout_spans], n_workers
        ).workers
    else:
        none = np.empty(0, dtype=np.int64)
        h_workers = [np.arange(len(heldout_spans))] + [none] * (n_workers - 1)
    shards = []
    for utts, h_utts in zip(assignment.workers, h_workers):
        sx, tb = slice_batch(x, [spans[u] for u in utts])
        hx, h_tb = slice_batch(heldout_x, [heldout_spans[u] for u in h_utts])
        shards.append(
            SequenceShard(
                x=sx,
                spans=tb.spans,
                global_ids=utts,
                heldout_x=hx,
                heldout_spans=h_tb.spans,
            )
        )
    return shards


# ------------------------------------------------------------- entry point
def train_threaded_hf(
    net: DNN,
    loss: Loss,
    shards: list[FrameShard] | list[SequenceShard],
    theta0: np.ndarray,
    config: HFConfig,
    curvature_fraction: float = 0.02,
    seed: int = 0,
    log: RunLog | None = None,
    timeout: float = 600.0,
) -> HFResult:
    """Run distributed HF: 1 master + ``len(shards)`` workers on threads."""
    n_workers = len(shards)
    if n_workers < 1:
        raise ValueError("need at least one worker shard")
    total_train = sum(s.n_frames for s in shards)
    curvature_total = sum(len(s.global_ids) for s in shards)
    # built here, not in the worker threads, so a bad argument raises at once
    sources = [s.source(net, loss, curvature_fraction, seed) for s in shards]

    def master_program(comm: ThreadRankComm) -> HFResult:
        source = MasterSource(
            comm=comm,
            total_train_frames=total_train,
            curvature_fraction=curvature_fraction,
            curvature_total=curvature_total,
            seed=seed,
        )
        opt = HessianFreeOptimizer(source, config, log=log)
        try:
            return opt.run(theta0)
        finally:
            source.stop()

    workers = [
        partial(
            worker_loop, source=src, global_ids=s.global_ids,
            curvature_total=curvature_total,
        )
        for src, s in zip(sources, shards)
    ]
    results = run_threaded(n_workers + 1, [master_program] + workers, timeout=timeout)
    return results[0]
