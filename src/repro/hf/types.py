"""Configuration and statistics dataclasses for Hessian-free training."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.hf.cg import CGConfig
from repro.hf.damping import DampingSchedule
from repro.hf.linesearch import ArmijoConfig

__all__ = ["HFConfig", "HFIterationStats", "HFResult", "HFDataSource"]


@runtime_checkable
class HFDataSource(Protocol):
    """What the HF outer loop needs from the data side.

    Implementations: the serial in-memory sources
    (:mod:`repro.hf.sources`) and the distributed master-side source
    (:class:`repro.dist.threaded.MasterSource`), which is how the same
    Algorithm-1 code drives one process or four thousand.
    """

    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray, int]:
        """(training loss sum, gradient sum, frame count) over ALL data."""
        ...

    def curvature_operator(
        self, theta: np.ndarray, lam: float, sample_seed: int
    ):
        """``v -> (G_sample/frames + lam I) v`` over a fresh mini-sample.

        The sample is drawn per call (the paper: "a sample ... taken each
        time CG-Minimize is called") from a seeded stream so every
        backend sees identical samples.
        """
        ...

    def heldout_loss(self, theta: np.ndarray) -> tuple[float, int]:
        """(loss sum, frame count) on the held-out set (Algorithm 1's L)."""
        ...


@dataclass(frozen=True)
class HFConfig:
    """Hyper-parameters of Algorithm 1."""

    max_iterations: int = 20
    cg: CGConfig = field(default_factory=CGConfig)
    damping: DampingSchedule = field(default_factory=DampingSchedule)
    linesearch: ArmijoConfig = field(default_factory=ArmijoConfig)
    momentum: float = 0.95
    """beta in Algorithm 1: next CG warm start is beta * d_N."""
    tolerance: float = 0.0
    """Stop when relative held-out improvement falls below this
    (0 disables; the paper runs a fixed 20-40 sweeps)."""
    seed: int = 0
    """Base seed for the per-iteration curvature samples."""

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1: {self.max_iterations}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0,1): {self.momentum}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0: {self.tolerance}")


@dataclass
class HFIterationStats:
    """Everything one outer iteration produced (one row of a run log)."""

    iteration: int
    train_loss: float  # per-frame, at iteration start
    heldout_loss: float  # per-frame, after the update
    grad_norm: float
    lam: float
    rho: float
    cg_iterations: int
    cg_stop_reason: str
    backtrack_index: int  # which d_i the CG backtracking chose (1-based)
    n_steps: int  # number of CG snapshots N
    alpha: float
    accepted: bool
    heldout_evals: int  # loss evaluations spent (backtracking + Armijo)


@dataclass
class HFResult:
    """Final parameters and the full trajectory."""

    theta: np.ndarray
    iterations: list[HFIterationStats] = field(default_factory=list)
    converged: bool = False

    @property
    def heldout_trajectory(self) -> list[float]:
        return [it.heldout_loss for it in self.iterations]

    @property
    def train_trajectory(self) -> list[float]:
        return [it.train_loss for it in self.iterations]
