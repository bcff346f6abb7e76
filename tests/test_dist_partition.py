"""Load balancing (Section V-C): sorted/LPT vs naive partitioning."""

import heapq

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dist import (
    balanced_partition,
    imbalance,
    make_frame_shards,
    naive_partition,
)
from repro.speech import HmmSampler, HmmSpec


@pytest.mark.parametrize("fn", [naive_partition, balanced_partition])
class TestPartitionInvariants:
    def test_conservation(self, fn):
        lengths = [5, 9, 1, 7, 3, 8, 2, 6]
        a = fn(lengths, 3)
        assigned = sorted(u for w in a.workers for u in w)
        assert assigned == list(range(8))

    def test_every_worker_has_load_when_possible(self, fn):
        a = fn([10] * 12, 4)
        assert all(len(w) == 3 for w in a.workers)

    def test_validation(self, fn):
        with pytest.raises(ValueError):
            fn([1, 2], 3)  # fewer utterances than workers
        with pytest.raises(ValueError):
            fn([1, 0, 2], 2)  # zero-length utterance
        with pytest.raises(ValueError):
            fn([1, 2, 3], 0)


def test_balanced_beats_naive_on_long_tailed_lengths():
    """The paper's observation: with log-normal utterance lengths, naive
    round-robin leaves stragglers; sorting + LPT equalizes frames."""
    sampler = HmmSampler(HmmSpec(length_sigma=0.7), seed=0)
    rng = np.random.default_rng(0)
    mu = np.log(60) - 0.5 * 0.7**2
    lengths = np.clip(
        np.round(rng.lognormal(mu, 0.7, size=2000)), 8, 2000
    ).astype(int).tolist()
    for workers in (8, 32, 64):
        r_naive = imbalance(naive_partition(lengths, workers))
        r_balanced = imbalance(balanced_partition(lengths, workers))
        assert r_balanced < r_naive
        assert r_balanced < 1.02  # LPT is near-perfect at these ratios


def test_balanced_deterministic():
    lengths = [3, 1, 4, 1, 5, 9, 2, 6]
    a1 = balanced_partition(lengths, 3)
    a2 = balanced_partition(lengths, 3)
    assert np.array_equal(a1.owner, a2.owner)


def test_lpt_exact_on_simple_case():
    # LPT places 4 -> w0, 3 -> w1, 3 -> w1, 2 -> w0: perfectly balanced
    a = balanced_partition([4, 3, 3, 2], 2)
    assert sorted(a.frames_per_worker().tolist()) == [6, 6]


def test_assignment_rejects_out_of_range_owner():
    from repro.dist import Assignment

    lengths = np.array([5, 5])
    with pytest.raises(ValueError, match="out of range"):
        Assignment(owner=np.array([0, 2]), lengths=lengths, n_workers=2)
    with pytest.raises(ValueError, match="out of range"):
        Assignment(owner=np.array([-1, 0]), lengths=lengths, n_workers=2)
    with pytest.raises(ValueError, match="aligned"):
        Assignment(owner=np.array([0]), lengths=lengths, n_workers=2)


def test_imbalance_of_perfect_split_is_one():
    a = balanced_partition([4, 4, 4, 4], 2)
    assert imbalance(a) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 500), min_size=4, max_size=60),
    workers=st.integers(1, 4),
)
def test_property_balanced_close_to_perfect(lengths, workers):
    """Greedy guarantee: the max load exceeds the mean by at most one
    job (the last one placed on the busiest worker started below the
    mean)."""
    if len(lengths) < workers:
        return
    loads = balanced_partition(lengths, workers).frames_per_worker()
    mean = sum(lengths) / workers
    assert loads.max() <= mean + max(lengths) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 100), min_size=3, max_size=40),
    workers=st.integers(1, 5),
)
def test_property_lpt_greedy_guarantee(lengths, workers):
    """List-scheduling guarantee: max load < mean + largest job, and the
    minimum-loaded worker is never above the mean."""
    if len(lengths) < workers:
        return
    a = balanced_partition(lengths, workers)
    loads = a.frames_per_worker()
    mean = sum(lengths) / workers
    assert loads.max() <= mean + max(lengths) + 1e-9
    assert loads.min() <= mean + 1e-9


def _reference_lpt(lengths, workers):
    """Textbook LPT: longest first (ties by index) onto a heap of
    (load, worker) tuples; returns the owner of each utterance."""
    heap = [(0, w) for w in range(workers)]
    owner = [None] * len(lengths)
    for i in sorted(range(len(lengths)), key=lambda i: (-lengths[i], i)):
        load, w = heapq.heappop(heap)
        owner[i] = w
        heapq.heappush(heap, (load + lengths[i], w))
    return owner


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=40),
    below=st.integers(0, 2),
    workers=st.integers(1, 6),
    near_n=st.booleans(),
)
@example(lengths=[4, 3, 3, 2, 2], below=0, workers=1, near_n=True)
@example(lengths=[4, 3, 3, 2, 2], below=1, workers=1, near_n=True)
def test_partitions_match_reference(lengths, below, workers, near_n):
    """Both partitioners against a straightforward reference, including
    one utterance per worker and a few more utterances than workers —
    the regime of the 262144-rank simulation."""
    n = len(lengths)
    w = max(1, n - below) if near_n else min(workers, n)
    _check_against_reference(lengths, w)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.integers(1, 4), min_size=1, max_size=400),
    workers=st.integers(1, 64),
)
@example(lengths=[4, 4, 1, 1, 1, 1, 1], workers=3)
def test_partitions_match_reference_many_ties(lengths, workers):
    """Few distinct lengths and many workers: long runs of equal length
    whose c-th slot threshold T is shared by several workers, including
    workers below T that also own a slot at exactly T (in the example,
    T = 4 is a slot of workers 0 and 1 at load 4 and of worker 2 at
    load 1; worker 0 takes it)."""
    _check_against_reference(lengths, min(workers, len(lengths)))


@pytest.mark.parametrize("workers", [1024, 16384])
def test_balanced_matches_reference_on_50h_table(workers):
    """The benchmark's 50-hour length table (299,527 utterances, a few
    hundred distinct lengths), exactly as the simulator partitions it."""
    from repro.bgq import RunShape
    from repro.dist import IterationScript, SimJobConfig
    from repro.dist.simulated import _draw_utterance_lengths
    from repro.harness.scaling import default_workload

    cfg = SimJobConfig(
        shape=RunShape.parse("1024-4-16"),
        workload=default_workload(50.0),
        script=IterationScript((10,), (3,), represented_iterations=30),
        seed=7,
    )
    lengths = _draw_utterance_lengths(cfg)
    got = balanced_partition(lengths, workers).owner
    assert got.tolist() == _reference_lpt(lengths.tolist(), workers)


def _check_against_reference(lengths, w):
    n = len(lengths)
    balanced = balanced_partition(lengths, w)
    naive = naive_partition(lengths, w)
    assert balanced.owner.tolist() == _reference_lpt(lengths, w)
    assert naive.owner.tolist() == [i % w for i in range(n)]

    x = np.arange(sum(lengths), dtype=float)[:, None]
    empty = np.zeros((0, 1))
    shards = make_frame_shards(
        x, np.zeros(x.shape[0]), empty, np.zeros(0), lengths, w
    )
    frame_owner = np.repeat(balanced.owner, lengths)
    for wi, (shard, frames) in enumerate(
        zip(shards, balanced.frames_per_worker())
    ):
        ids = shard.global_ids
        assert np.all(np.diff(ids) > 0)
        assert ids.size == frames
        assert np.all(frame_owner[ids] == wi)
        assert np.array_equal(shard.x[:, 0], ids)
