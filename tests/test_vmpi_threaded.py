"""Real-thread communicator: blocking p2p/collectives, failure paths."""

import time

import numpy as np
import pytest

from repro.vmpi import SUM, ThreadRankComm, WorkerFailure, run_threaded


def test_p2p_roundtrip():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(3), tag=4)
            return comm.recv(source=1, tag=5).payload
        env = comm.recv(source=0, tag=4)
        comm.send(0, env.payload * 2, tag=5)
        return None

    results = run_threaded(2, prog, timeout=20)
    assert np.array_equal(results[0], np.arange(3) * 2)


@pytest.mark.parametrize("size", [1, 2, 4, 7])
def test_collectives(size):
    def prog(comm):
        b = comm.bcast("root-data" if comm.rank == 0 else None, root=0)
        assert b == "root-data"
        g = comm.gather(comm.rank, root=0)
        if comm.rank == 0:
            assert g == list(range(size))
        total = comm.allreduce(float(comm.rank), SUM)
        assert total == sum(range(size))
        s = comm.scatter([i * 2 for i in range(size)] if comm.rank == 0 else None)
        assert s == comm.rank * 2
        return True

    assert all(run_threaded(size, prog, timeout=30))


def test_reduce_is_rank_ordered():
    vals = [1e16, 1.0, -1e16, 1.0]

    def prog(comm):
        return comm.reduce(vals[comm.rank], SUM, root=0)

    results = run_threaded(4, prog, timeout=20)
    expected = ((vals[0] + vals[1]) + vals[2]) + vals[3]
    assert results[0] == expected


def test_worker_failure_propagates():
    def prog(comm):
        if comm.rank == 1:
            raise RuntimeError("worker died")
        # rank 0 blocks on a message that will never come
        comm.recv(source=1, tag=0)

    with pytest.raises(WorkerFailure):
        run_threaded(2, prog, timeout=20)


def test_recv_timeout():
    def prog(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=9)
        # rank 1 exits immediately without sending

    with pytest.raises((TimeoutError, WorkerFailure)):
        run_threaded(2, prog, timeout=0.5)


def test_recv_from_invalid_rank_fails_at_once():
    def prog(comm):
        if comm.rank == 0:
            comm.recv(source=7)

    t0 = time.perf_counter()
    with pytest.raises(WorkerFailure) as info:
        run_threaded(2, prog, timeout=30)
    assert isinstance(info.value.cause, ValueError)
    assert "invalid rank 7" in str(info.value.cause)
    assert time.perf_counter() - t0 < 10  # not a wait for the timeout


@pytest.mark.parametrize("size", [1, 2])
def test_scatter_wrong_value_count_raises(size):
    def prog(comm):
        comm.scatter([1, 2, 3] if comm.rank == 0 else None)

    with pytest.raises(WorkerFailure) as info:
        run_threaded(size, prog, timeout=30)
    assert isinstance(info.value.cause, ValueError)
    assert f"exactly {size} values, got 3" in str(info.value.cause)


def test_program_count_mismatch():
    with pytest.raises(ValueError):
        run_threaded(3, [lambda c: None] * 2)


def test_parallel_speedup_structure():
    """Workers genuinely overlap: total wall time is far below the sum of
    per-worker compute (numpy releases the GIL in dot)."""
    import time

    n = 600

    def prog(comm):
        a = np.random.default_rng(comm.rank).standard_normal((n, n))
        t0 = time.perf_counter()
        for _ in range(3):
            a = a @ a / n
        return time.perf_counter() - t0

    t0 = time.perf_counter()
    per_worker = run_threaded(2, prog, timeout=60)
    wall = time.perf_counter() - t0
    assert wall < sum(per_worker) * 1.2  # overlap happened (loose bound)
