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
    The result is exactly that of the textbook loop (pop the lightest
    ``(load, worker)`` off a heap, push it back with the utterance
    added), computed one run of equal lengths at a time:

    * while every load is zero, ties hand the ``n_workers`` longest
      utterances to workers ``0, 1, ...`` in order;
    * after that, the heap would give the ``c`` utterances of one length
      ``L`` the ``c`` smallest slots ``(load + k*L, worker)``, ``k >= 0``,
      in ascending order.  A bisection finds the threshold ``T`` of the
      ``c``-th slot over the workers with ``load <= T``; each of those
      takes its slots below ``T``, and the lowest-index ones with a slot
      at exactly ``T`` take the rest.  Only that prefix of the
      ``(load, worker)`` order moves, and it is merged back into the
      workers whose load it overtakes.

    A corpus has a few hundred distinct lengths, so this is a few
    hundred array steps instead of one heap operation per utterance.
    """
    arr = _checked_lengths(lengths, n_workers)
    p = n_workers
    # lexsort's last key is primary: sort by -length, ties by index
    order = np.lexsort((np.arange(arr.size), -arr))
    owner = np.empty(arr.size, dtype=np.int64)
    owner[order[:p]] = np.arange(p)
    # workers in (load, worker) order: `load` ascending, ties by index
    first = arr[order[:p]]
    worker = np.argsort(first, kind="stable")
    load = first[worker]
    rest = order[p:]
    rest_len = arr[rest]
    # starts of the runs of equal length (lengths are >= 1)
    runs = np.flatnonzero(np.diff(rest_len, prepend=0)).tolist()
    for a, b in zip(runs, [*runs[1:], rest.size]):
        step = int(rest_len[a])
        c = b - a
        # smallest t holding c slots; `hi` holds c slots on the lightest
        # worker alone, and also on the c (or all p) lightest ones
        lo = int(load[0])
        hi = min(
            lo + (c - 1) * step, int(load[min(c, p) - 1]) + (c - 1) // p * step
        )
        cand = load[: load.searchsorted(hi, "right")]
        while lo < hi:
            mid = (lo + hi) // 2
            q = cand[: cand.searchsorted(mid, "right")]
            if int(((mid - q) // step).sum()) + q.size >= c:
                hi = mid
            else:
                lo = mid + 1
        t = lo
        k = int(cand.searchsorted(t, "right"))
        q = load[:k]
        w = worker[:k]
        take = (t - 1 - q) // step + 1  # slots strictly below the threshold
        at_t = (t - q) % step == 0  # a slot at exactly the threshold
        need = c - int(take.sum())
        ties = w[at_t]
        if need < ties.size:
            at_t &= w <= np.partition(ties, need - 1)[need - 1]
        take += at_t
        # the workers that take a slot are a prefix of the (load, worker) order
        m = int(np.count_nonzero(take))
        take, q, w = take[:m], q[:m], w[:m]
        if m == c:  # one slot each, already in (load, worker) order
            owner[rest[a:b]] = w
        else:
            by = np.repeat(np.arange(m), take)
            k_th = np.arange(c) - np.repeat(np.cumsum(take) - take, take)
            slot_w = w[by]
            owner[rest[a:b]] = slot_w[np.lexsort((slot_w, q[by] + k_th * step))]
        # new loads are >= t, so key them relative to it and merge with
        # the unmoved workers they can overtake
        new = q + take * step
        end = m + int(load[m:].searchsorted(new.max(), "right"))
        keys = np.concatenate(
            ((new - t) * p + w, (load[m:end] - t) * p + worker[m:end])
        )
        keys.sort()
        load[:end] = keys // p + t
        worker[:end] = keys % p
    return Assignment(owner, arr, n_workers)


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
