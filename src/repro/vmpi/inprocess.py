"""Real-thread MPI-style communicator for genuinely parallel runs.

The DES backend (:mod:`repro.vmpi.comm`) runs rank programs cooperatively
on a virtual clock — ideal for timing studies at thousands of ranks.
This module instead runs a handful of ranks on *real OS threads* with a
blocking send/recv/collective API, so examples and tests can demonstrate
actual wall-clock parallelism: the heavy numpy kernels (GEMM in the
gradient computation) release the GIL, so data-parallel workers overlap
on multicore hosts.

The API mirrors :class:`~repro.vmpi.comm.RankCtx` minus the generators:

    def program(comm: ThreadRankComm):
        if comm.rank == 0:
            comm.send(1, payload, tag=3)
        else:
            msg = comm.recv(source=0, tag=3)

Collectives here are implemented naively (root-coordinated) — at <= 32
ranks algorithmic sophistication is irrelevant, and the simple code is
easy to audit.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.vmpi.comm import ANY_SOURCE, ANY_TAG
from repro.vmpi.ops import SUM, ReduceOp

__all__ = ["ThreadRankComm", "run_threaded", "WorkerFailure"]

_DEFAULT_TIMEOUT = 120.0


class WorkerFailure(RuntimeError):
    """A rank program raised; carries the originating rank."""

    def __init__(self, rank: int, cause: BaseException) -> None:
        super().__init__(f"rank {rank} failed: {cause!r}")
        self.rank = rank
        self.cause = cause


@dataclass(frozen=True)
class _Envelope:
    src: int
    tag: int
    payload: Any


class _Fabric:
    """Shared mailbox state for one threaded communicator."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.inboxes: list[list[_Envelope]] = [[] for _ in range(size)]
        self.conds: list[threading.Condition] = [
            threading.Condition() for _ in range(size)
        ]
        self.barrier = threading.Barrier(size)
        self.failed = threading.Event()


class ThreadRankComm:
    """Per-rank blocking communicator handle."""

    def __init__(self, fabric: _Fabric, rank: int, timeout: float = _DEFAULT_TIMEOUT) -> None:
        self._fabric = fabric
        self.rank = rank
        self.timeout = timeout

    @property
    def size(self) -> int:
        return self._fabric.size

    # ------------------------------------------------------------------- p2p
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Deposit ``payload`` in ``dest``'s inbox and wake its waiters."""
        if not 0 <= dest < self.size:
            raise ValueError(f"send to invalid rank {dest}")
        cond = self._fabric.conds[dest]
        with cond:
            self._fabric.inboxes[dest].append(_Envelope(self.rank, tag, payload))
            cond.notify_all()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _Envelope:
        """Block until a matching envelope arrives; FIFO per (src, tag)."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(f"recv from invalid rank {source}")
        cond = self._fabric.conds[self.rank]
        inbox = self._fabric.inboxes[self.rank]

        def find() -> _Envelope | None:
            for i, env in enumerate(inbox):
                if (source == ANY_SOURCE or env.src == source) and (
                    tag == ANY_TAG or env.tag == tag
                ):
                    return inbox.pop(i)
            return None

        with cond:
            while True:
                env = find()
                if env is not None:
                    return env
                if self._fabric.failed.is_set():
                    raise WorkerFailure(self.rank, RuntimeError("peer failed"))
                if not cond.wait(timeout=self.timeout):
                    raise TimeoutError(
                        f"rank {self.rank} timed out waiting for "
                        f"(source={source}, tag={tag})"
                    )

    # ------------------------------------------------------------ collectives
    def barrier(self) -> None:
        self._fabric.barrier.wait(timeout=self.timeout)

    def bcast(self, value: Any = None, root: int = 0, tag: int = 900_001) -> Any:
        """Root sends ``value`` to every rank; all ranks return it."""
        if self.size == 1:
            return value
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(dst, value, tag=tag)
            return value
        return self.recv(source=root, tag=tag).payload

    def gather(self, value: Any, root: int = 0, tag: int = 900_002) -> list[Any] | None:
        """Collect one value per rank at ``root`` (None elsewhere)."""
        if self.size == 1:
            return [value]
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = value
            for _ in range(self.size - 1):
                env = self.recv(source=ANY_SOURCE, tag=tag)
                out[env.src] = env.payload
            return out
        self.send(root, value, tag=tag)
        return None

    def reduce(
        self, value: Any, op: ReduceOp = SUM, root: int = 0, tag: int = 900_003
    ) -> Any | None:
        """Rank-ordered fold at the root (bitwise-reproducible sums)."""
        if self.size == 1:
            return value
        gathered = self.gather(value, root=root, tag=tag)
        if self.rank != root:
            return None
        assert gathered is not None
        acc = gathered[0]
        for item in gathered[1:]:
            acc = op(acc, item)
        return acc

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce-to-root then broadcast: every rank gets the reduction."""
        acc = self.reduce(value, op=op, root=0, tag=900_004)
        return self.bcast(acc, root=0, tag=900_005)

    def scatter(self, values: Sequence[Any] | None, root: int = 0, tag: int = 900_006) -> Any:
        """Root hands ``values[r]`` to each rank r; returns this rank's item."""
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise ValueError(
                    f"scatter root needs exactly {self.size} values, got "
                    f"{None if values is None else len(values)}"
                )
            for dst in range(self.size):
                if dst != root:
                    self.send(dst, values[dst], tag=tag)
            return values[root]
        return self.recv(source=root, tag=tag).payload


def run_threaded(
    size: int,
    program: Callable[[ThreadRankComm], Any] | Sequence[Callable[[ThreadRankComm], Any]],
    timeout: float = _DEFAULT_TIMEOUT,
) -> list[Any]:
    """Run rank programs on real threads; return per-rank results.

    Raises :class:`WorkerFailure` (first failing rank) if any program
    raises — surviving ranks are unblocked via the failure flag.
    """
    if callable(program):
        programs = [program] * size
    else:
        programs = list(program)
        if len(programs) != size:
            raise ValueError(f"got {len(programs)} programs for {size} ranks")
    fabric = _Fabric(size)
    results: list[Any] = [None] * size
    errors: list[WorkerFailure | None] = [None] * size

    def runner(rank: int) -> None:
        comm = ThreadRankComm(fabric, rank, timeout=timeout)
        try:
            results[rank] = programs[rank](comm)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors[rank] = WorkerFailure(rank, exc)
            fabric.failed.set()
            for cond in fabric.conds:
                with cond:
                    cond.notify_all()
            fabric.barrier.abort()

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"vmpi-rank{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        if t.is_alive():
            fabric.failed.set()
            raise TimeoutError(f"thread {t.name} did not finish within {timeout}s")
    for err in errors:
        if err is not None:
            raise err
    return results
