"""Utterance-to-worker partitioning (the paper's Section V-C).

Speech utterances vary wildly in length (our synthetic lengths are
log-normal, like real corpora), so distributing *equal numbers of
utterances* gives workers unequal *frame* counts — and every reduction
then waits for the most-loaded straggler.  The paper's fix: "we
preprocessed the data by sorting and computed the number of utterances
per worker such that they all receive equal amount of data."

* :func:`naive_partition` — round-robin by utterance index (the
  before state, the LB ablation's baseline);
* :func:`balanced_partition` — sort by length, then greedy
  longest-processing-time assignment to the currently lightest worker
  (the classic 4/3-approximation to makespan; this is the paper's
  sorted scheme);
* :func:`imbalance` — max/mean frame load, the quantity that multiplies
  straggler wait time at synchronization points.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Assignment", "naive_partition", "balanced_partition", "imbalance"]


@dataclass(frozen=True, eq=False)
class Assignment:
    """The owning worker of every utterance, plus the length table used.

    ``owner[u]`` is the worker index of utterance ``u``, so every
    utterance has exactly one owner by construction; per-worker loads
    are one ``bincount`` over it.
    """

    owner: np.ndarray  # (utterances,) int64 worker index
    lengths: np.ndarray  # (utterances,) int64 frames
    n_workers: int

    def __post_init__(self) -> None:
        if self.owner.shape != self.lengths.shape or self.owner.ndim != 1:
            raise ValueError(
                f"owner {self.owner.shape} and lengths {self.lengths.shape} "
                "must be aligned 1-D arrays"
            )
        if self.owner.size and (
            self.owner.min() < 0 or self.owner.max() >= self.n_workers
        ):
            raise ValueError(f"owner index out of range for {self.n_workers} workers")

    @property
    def workers(self) -> list[np.ndarray]:
        """Ascending utterance indices of each worker."""
        order = np.argsort(self.owner, kind="stable")
        counts = np.bincount(self.owner, minlength=self.n_workers)
        return np.split(order, np.cumsum(counts)[:-1])

    def frames_per_worker(self) -> np.ndarray:
        # float64 weights are exact: total frames stay far below 2**53
        return np.bincount(
            self.owner, weights=self.lengths, minlength=self.n_workers
        ).astype(np.int64)


def _checked_lengths(lengths: Sequence[int], n_workers: int) -> np.ndarray:
    arr = np.asarray(lengths, dtype=np.int64)
    if n_workers < 1:
        raise ValueError(f"need >= 1 worker, got {n_workers}")
    if arr.size < n_workers:
        raise ValueError(
            f"cannot spread {arr.size} utterances over {n_workers} workers"
        )
    if arr.min() < 1:
        raise ValueError("all utterance lengths must be >= 1")
    return arr


def naive_partition(lengths: Sequence[int], n_workers: int) -> Assignment:
    """Round-robin by utterance index, ignoring lengths."""
    arr = _checked_lengths(lengths, n_workers)
    return Assignment(np.arange(arr.size) % n_workers, arr, n_workers)


def balanced_partition(lengths: Sequence[int], n_workers: int) -> Assignment:
    """Sorted greedy (LPT): longest utterance to the lightest worker.

    Ties break on worker index, so the result is deterministic for a
    given length table — required for cross-backend reproducibility.
    """
    arr = _checked_lengths(lengths, n_workers)
    lens = arr.tolist()
    # lexsort's last key is primary: sort by -length, ties by index —
    # identical order to sorted(..., key=lambda i: (-lengths[i], i)) but
    # vectorized (the pure-Python sort dominated planning time at scale)
    order = np.lexsort((np.arange(arr.size), -arr)).tolist()
    heap: list[tuple[int, int]] = [(0, w) for w in range(n_workers)]
    heapq.heapify(heap)
    owner = [0] * arr.size
    for i in order:
        load, w = heapq.heappop(heap)
        owner[i] = w
        heapq.heappush(heap, (load + lens[i], w))
    return Assignment(np.array(owner, dtype=np.int64), arr, n_workers)


def imbalance(assignment: Assignment) -> float:
    """``max(load) / mean(load)`` — 1.0 is perfect balance.

    This factor directly inflates every synchronized phase: with
    imbalance r, the makespan of a data-parallel sweep is r x the
    perfectly balanced time.
    """
    loads = assignment.frames_per_worker()
    mean = loads.mean()
    if mean == 0:
        raise ValueError("empty assignment")
    return float(loads.max() / mean)
