"""Distributed HF on real threads: the paper's accuracy-parity claim.

"Results on large-scale speech tasks show that the performance on BG/Q
scales linearly up to 4096 processes with no loss in accuracy" — here we
assert the strong version: the distributed optimizer follows the serial
reference trajectory to float tolerance, for several worker counts and
both training criteria.
"""

import numpy as np
import pytest

from repro.dist import (
    MasterSource,
    make_frame_shards,
    make_sequence_shards,
    naive_partition,
    train_threaded_hf,
    worker_loop,
)
from repro.dist.protocol import FrameShard
from repro.hf import FrameSource, HFConfig, HessianFreeOptimizer, SequenceSource
from repro.hf.sources import curvature_sample, sample_size
from repro.nn import DNN, CrossEntropyLoss, SequenceMMILoss
from repro.obs import MetricsRegistry
from repro.speech import CorpusConfig, build_corpus
from repro.vmpi.inprocess import run_threaded

CFG = CorpusConfig(hours=50, scale=8e-5, context=1, seed=11)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CFG)


@pytest.fixture(scope="module")
def frame_setup(corpus):
    x, y = corpus.frame_data()
    hx, hy = corpus.heldout_frame_data()
    net = DNN([CFG.input_dim, 24, corpus.n_states])
    return corpus, net, x, y, hx, hy


def _serial(frame_setup, hf_config, fraction=0.05, seed=9):
    corpus, net, x, y, hx, hy = frame_setup
    src = FrameSource(
        net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=fraction, seed=seed
    )
    return HessianFreeOptimizer(src, hf_config).run(net.init_params(0))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_distributed_matches_serial_trajectory(frame_setup, workers):
    corpus, net, x, y, hx, hy = frame_setup
    hf_config = HFConfig(max_iterations=3)
    serial = _serial(frame_setup, hf_config)
    lens = [u.n_frames for u in corpus.train_utts]
    shards = make_frame_shards(x, y, hx, hy, lens, workers)
    dist = train_threaded_hf(
        net, CrossEntropyLoss(), shards, net.init_params(0), hf_config,
        curvature_fraction=0.05, seed=9,
    )
    assert np.allclose(
        serial.heldout_trajectory, dist.heldout_trajectory, rtol=1e-9, atol=1e-9
    )
    assert np.allclose(serial.theta, dist.theta, atol=1e-8)


def test_partitioner_choice_does_not_change_results(frame_setup):
    """Load balancing is a performance feature; the math is identical."""
    corpus, net, x, y, hx, hy = frame_setup
    hf_config = HFConfig(max_iterations=2)
    lens = [u.n_frames for u in corpus.train_utts]
    runs = []
    for part in (None, naive_partition):
        kwargs = {} if part is None else {"partitioner": part}
        shards = make_frame_shards(x, y, hx, hy, lens, 3, **kwargs)
        runs.append(
            train_threaded_hf(
                net, CrossEntropyLoss(), shards, net.init_params(0), hf_config,
                curvature_fraction=0.05, seed=9,
            )
        )
    assert np.allclose(
        runs[0].heldout_trajectory, runs[1].heldout_trajectory, rtol=1e-9
    )


def test_sequence_distributed_matches_serial(corpus):
    xs, spans = corpus.sequence_data()
    hxs, hspans = corpus.heldout_sequence_data()
    net = DNN([CFG.input_dim, 16, corpus.n_states])
    loss = SequenceMMILoss(
        corpus.sampler.log_transitions(), corpus.sampler.log_initial(), kappa=0.7
    )
    hf_config = HFConfig(max_iterations=2)
    src = SequenceSource(
        net, loss, xs, spans, hxs, hspans, curvature_fraction=0.2, seed=4
    )
    serial = HessianFreeOptimizer(src, hf_config).run(net.init_params(1))
    shards = make_sequence_shards(xs, spans, hxs, hspans, 2)
    dist = train_threaded_hf(
        net, loss, shards, net.init_params(1), hf_config,
        curvature_fraction=0.2, seed=4,
    )
    assert np.allclose(
        serial.heldout_trajectory, dist.heldout_trajectory, rtol=1e-7
    )


@pytest.fixture(scope="module")
def big_corpus():
    """More training utterances (80) than ``SequenceSource`` puts in one
    chunk (64), so a sweep that ignores the chunking shows up."""
    corpus = build_corpus(CorpusConfig(hours=50, scale=3e-4, context=1, seed=11))
    assert len(corpus.train_utts) > SequenceSource.chunk_utterances
    return corpus


def test_one_worker_frame_run_is_bit_identical(big_corpus):
    x, y = big_corpus.frame_data()
    hx, hy = big_corpus.heldout_frame_data()
    net = DNN([CFG.input_dim, 16, big_corpus.n_states])
    hf_config = HFConfig(max_iterations=2)
    src = FrameSource(
        net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.05, seed=9
    )
    serial = HessianFreeOptimizer(src, hf_config).run(net.init_params(0))
    lens = [u.n_frames for u in big_corpus.train_utts]
    dist = train_threaded_hf(
        net, CrossEntropyLoss(), make_frame_shards(x, y, hx, hy, lens, 1),
        net.init_params(0), hf_config, curvature_fraction=0.05, seed=9,
    )
    assert np.array_equal(serial.theta, dist.theta)
    assert serial.heldout_trajectory == dist.heldout_trajectory


def test_one_worker_sequence_run_is_bit_identical(big_corpus):
    xs, spans = big_corpus.sequence_data()
    hxs, hspans = big_corpus.heldout_sequence_data()
    net = DNN([CFG.input_dim, 16, big_corpus.n_states])
    loss = SequenceMMILoss(
        big_corpus.sampler.log_transitions(),
        big_corpus.sampler.log_initial(),
        kappa=0.7,
    )
    hf_config = HFConfig(max_iterations=2)
    src = SequenceSource(
        net, loss, xs, spans, hxs, hspans, curvature_fraction=0.2, seed=4
    )
    serial = HessianFreeOptimizer(src, hf_config).run(net.init_params(1))
    dist = train_threaded_hf(
        net, loss, make_sequence_shards(xs, spans, hxs, hspans, 1),
        net.init_params(1), hf_config, curvature_fraction=0.2, seed=4,
    )
    assert np.array_equal(serial.theta, dist.theta)
    assert serial.heldout_trajectory == dist.heldout_trajectory


@pytest.mark.parametrize("fraction", [0.0, 1.5])
def test_bad_curvature_fraction_raises_before_threads_start(frame_setup, fraction):
    corpus, net, x, y, hx, hy = frame_setup
    lens = [u.n_frames for u in corpus.train_utts]
    shards = make_frame_shards(x, y, hx, hy, lens, 2)
    with pytest.raises(ValueError, match="curvature_fraction"):
        train_threaded_hf(
            net, CrossEntropyLoss(), shards, net.init_params(0),
            HFConfig(max_iterations=1), curvature_fraction=fraction,
        )


@pytest.mark.parametrize("workers", [1, 3])
def test_master_source_publishes_gn_sample_size(frame_setup, workers):
    """``hf.gn_sample_size`` from the distributed source is the sampled
    frame count summed over workers — the serial source's series."""
    corpus, net, x, y, hx, hy = frame_setup
    hf_config = HFConfig(max_iterations=2)
    loss = CrossEntropyLoss()

    serial_obs = MetricsRegistry()
    src = FrameSource(net, loss, x, y, hx, hy, curvature_fraction=0.05, seed=9)
    HessianFreeOptimizer(src, hf_config, obs=serial_obs).run(net.init_params(0))

    dist_obs = MetricsRegistry()
    total = x.shape[0]

    def master(comm):
        source = MasterSource(
            comm, total_train_frames=total, curvature_fraction=0.05,
            curvature_total=total, seed=9,
        )
        try:
            return HessianFreeOptimizer(source, hf_config, obs=dist_obs).run(
                net.init_params(0)
            )
        finally:
            source.stop()

    def worker(shard):
        source = shard.source(net, loss, 0.05, 9)
        return lambda comm: worker_loop(comm, source, shard.global_ids, total)

    lens = [u.n_frames for u in corpus.train_utts]
    shards = make_frame_shards(x, y, hx, hy, lens, workers)
    run_threaded(workers + 1, [master] + [worker(s) for s in shards])
    expected = serial_obs.get("hf.gn_sample_size").values
    assert expected and all(v > 0 for v in expected)
    assert dist_obs.get("hf.gn_sample_size").values == expected


def test_shard_construction_invariants(frame_setup):
    corpus, net, x, y, hx, hy = frame_setup
    lens = [u.n_frames for u in corpus.train_utts]
    shards = make_frame_shards(x, y, hx, hy, lens, 4)
    assert sum(s.n_frames for s in shards) == x.shape[0]
    all_ids = np.concatenate([s.global_ids for s in shards])
    assert sorted(all_ids.tolist()) == list(range(x.shape[0]))
    assert sum(s.heldout_x.shape[0] for s in shards) == hx.shape[0]


def test_shard_length_mismatch_rejected(frame_setup):
    corpus, net, x, y, hx, hy = frame_setup
    with pytest.raises(ValueError, match="lengths"):
        make_frame_shards(x, y, hx, hy, [1, 2, 3], 2)


def test_global_sample_partition_invariant(frame_setup):
    """Union of worker sample intersections == the global sample —
    regardless of worker count."""
    corpus, net, x, y, hx, hy = frame_setup
    lens = [u.n_frames for u in corpus.train_utts]
    total = x.shape[0]
    sample = curvature_sample(total, 0.05, seed=9, sample_seed=3)
    for workers in (2, 5):
        shards = make_frame_shards(x, y, hx, hy, lens, workers)
        rows = np.concatenate(
            [s.global_ids[np.isin(s.global_ids, sample)] for s in shards]
        )
        assert sorted(rows.tolist()) == sorted(sample.tolist())


def test_sample_size_formula():
    assert sample_size(1000, 0.02) == 20
    assert sample_size(10, 0.001) == 1  # floor at 1
    with pytest.raises(ValueError):
        sample_size(0, 0.5)
    with pytest.raises(ValueError):
        sample_size(10, 0.0)


def test_frame_shard_validation():
    with pytest.raises(ValueError, match="align"):
        FrameShard(
            x=np.zeros((3, 2)),
            targets=np.zeros(2),
            global_ids=np.arange(3),
            heldout_x=np.zeros((0, 2)),
            heldout_targets=np.zeros(0),
        )
