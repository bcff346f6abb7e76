"""Distributed Hessian-free training (the paper's Section IV system).

Three cooperating backends over the shared master/worker protocol:

* :mod:`~repro.dist.threaded` — real math on real threads, used for the
  accuracy-parity experiments;
* :mod:`~repro.dist.simulated` — the same protocol as DES rank programs
  at 1024-8192 simulated ranks on the BG/Q machine model, used for the
  paper's timing figures;
* :mod:`~repro.dist.partition` — the Section V-C utterance load
  balancer both backends share.

Workers derive each curvature mini-sample from a broadcast seed with
:func:`repro.hf.sources.curvature_sample`, the same draw the serial
sources make.
"""

from repro.dist.partition import (
    Assignment,
    balanced_partition,
    imbalance,
    naive_partition,
)
from repro.dist.protocol import FrameShard, SequenceShard
from repro.dist.script import IterationScript, calibrate_script, default_script
from repro.dist.simulated import SimJobConfig, SimRunResult, simulate_training
from repro.dist.threaded import (
    MasterSource,
    make_frame_shards,
    make_sequence_shards,
    train_threaded_hf,
    worker_loop,
)
from repro.dist.timeline import (
    COLL,
    COMPUTE,
    P2P,
    RankBreakdown,
    cycles_breakdown,
    label,
    split_breakdown,
)
from repro.dist.workload import (
    GEOMETRY_50HR,
    GEOMETRY_400HR,
    ModelGeometry,
    SimWorkload,
)

__all__ = [
    "Assignment",
    "balanced_partition",
    "imbalance",
    "naive_partition",
    "FrameShard",
    "SequenceShard",
    "IterationScript",
    "calibrate_script",
    "default_script",
    "SimJobConfig",
    "SimRunResult",
    "simulate_training",
    "MasterSource",
    "make_frame_shards",
    "make_sequence_shards",
    "train_threaded_hf",
    "worker_loop",
    "COLL",
    "COMPUTE",
    "P2P",
    "RankBreakdown",
    "cycles_breakdown",
    "label",
    "split_breakdown",
    "GEOMETRY_50HR",
    "GEOMETRY_400HR",
    "ModelGeometry",
    "SimWorkload",
]
