"""Master/worker protocol pieces shared by the distributed backends.

The paper's architecture (Section IV): "a master/worker architecture in
which worker processes ... perform data-parallel computation of
gradients and curvature matrix-vector products and the master implements
the Hessian-free optimization."  Rank 0 is the master; ranks 1..P-1 are
workers holding utterance shards.

Commands flow master -> workers by broadcast; results flow back by
gather (rank-ordered fold at the master, so reduced floats are
independent of thread scheduling).  Each shard record builds, with
``source()``, the serial data source (:mod:`repro.hf.sources`) that
the worker runs over its shard, and names its sampling units (frames or
utterances) by global id in ``global_ids``.  Curvature mini-samples are
*derived, not shipped*: the master broadcasts only a seed, and every
worker recomputes the same global sample with
:func:`repro.hf.sources.curvature_sample` (the draw the serial sources
make) and keeps its intersection with ``global_ids`` — the paper's "the
right set of utterances to adhere to the randomness needed by the
algorithm".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hf.sources import FrameSource, SequenceSource
from repro.nn.losses import Loss, UtteranceSpan
from repro.nn.network import DNN

__all__ = [
    "CMD_GRADIENT",
    "CMD_CURV_SETUP",
    "CMD_CURV",
    "CMD_HELDOUT",
    "CMD_STOP",
    "FrameShard",
    "SequenceShard",
]

CMD_GRADIENT = "gradient"
CMD_CURV_SETUP = "curv_setup"
CMD_CURV = "curv"
CMD_HELDOUT = "heldout"
CMD_STOP = "stop"


@dataclass
class FrameShard:
    """One worker's slice of a frame-level training set."""

    x: np.ndarray
    targets: np.ndarray
    global_ids: np.ndarray
    """Global frame indices of this shard's rows (for sample intersection)."""
    heldout_x: np.ndarray
    heldout_targets: np.ndarray

    def __post_init__(self) -> None:
        if not (
            self.x.shape[0]
            == np.asarray(self.targets).shape[0]
            == self.global_ids.shape[0]
        ):
            raise ValueError("shard arrays must align")
        if self.heldout_x.shape[0] != np.asarray(self.heldout_targets).shape[0]:
            raise ValueError("heldout shard arrays must align")

    @property
    def n_frames(self) -> int:
        return int(self.x.shape[0])

    def source(
        self, net: DNN, loss: Loss, curvature_fraction: float, seed: int
    ) -> FrameSource:
        """The serial frame source over this shard."""
        return FrameSource(
            net, loss, self.x, self.targets, self.heldout_x, self.heldout_targets,
            curvature_fraction=curvature_fraction, seed=seed,
        )


@dataclass
class SequenceShard:
    """One worker's utterances for a sequence criterion."""

    x: np.ndarray
    spans: Sequence[UtteranceSpan]  # rebased to this shard's frame space
    global_ids: np.ndarray
    """Global utterance indices of this shard's spans."""
    heldout_x: np.ndarray
    heldout_spans: Sequence[UtteranceSpan]

    def __post_init__(self) -> None:
        if len(self.spans) != self.global_ids.shape[0]:
            raise ValueError("spans and global_ids must align")
        if self.spans and self.spans[-1].end != self.x.shape[0]:
            raise ValueError("spans must tile the shard's frames")

    @property
    def n_frames(self) -> int:
        return int(self.x.shape[0])

    def source(
        self, net: DNN, loss: Loss, curvature_fraction: float, seed: int
    ) -> SequenceSource:
        """The serial sequence source over this shard."""
        return SequenceSource(
            net, loss, self.x, self.spans, self.heldout_x, self.heldout_spans,
            curvature_fraction=curvature_fraction, seed=seed,
        )
