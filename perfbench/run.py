"""The repository benchmark: simulated training, real-math HF and serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_vector_262k --seed 7 \\
        --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

``sim_vector_262k``  ``simulate_training`` at 262144-4-16 on the vector path
``sim_faults_1k``    ``simulate_training`` at 1024-4-16 under sampled faults
``hf_real_math``     serial ``HessianFreeOptimizer``, then ``train_threaded_hf``
``serve_2048``       ``simulate_serving``, 2048 replicas at 0.85 of capacity

``--trace 0`` measures the end-to-end metrics: set-up time (median of
three cold set-ups, two of them in child processes), the median wall per
repetition, and peak RSS.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics: the traced ones wrap the
program's public layer entry points with span recorders (``spans.py``)
and attach its own hooks (``MetricsRegistry``, ``TimeLedger``,
``GemmCounter``); the spans are written to ``.perfbench/`` at exit.

Every repetition is checked: it must reproduce the warm-up repetition
bit for bit, pass the workload's own output checks, and at the default
seed (7) match the fingerprints kept in ``fingerprints.py``.  Human-
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only if every check passed; 2 if the program's sources
are not next to the benchmark.

BLAS and OpenMP pools are pinned to one thread before numpy is imported:
the threaded HF leg runs two workers, so busy threads stay at two.  All
threads share one glibc malloc arena (see :func:`pin_malloc_arenas`).
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import ctypes  # noqa: E402

M_ARENA_MAX = -8
"""``mallopt`` parameter from glibc's ``malloc.h``."""


def pin_malloc_arenas() -> bool:
    """Give every thread glibc's one main malloc arena.

    With a per-thread arena, the threaded HF leg's peak RSS depends on
    how the workers' temporaries interleave: 373 to 460 MB across seeds
    on a 2-core Xeon, against 276 to 282 MB with one arena and no change
    in wall time.  Returns False where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt(M_ARENA_MAX, 1) == 1


MALLOC_ARENAS_PINNED = pin_malloc_arenas()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

PROBE_REF_S = 0.06
""":func:`probe_s` wall on the reference host (a 2-core Xeon at its
faster state); timings are reported at that host speed."""
SETUP_SAMPLES = 3
"""Cold set-ups per untraced run: this process plus two children."""
MIN_REPS = 3
"""Measured repetitions per untraced run, whatever ``--seconds`` says."""
CHILD_TIMEOUT_S = 170.0
SIM_SPLIT = (
    "dist.partition.busy_s", "dist.simulated.self_s", "vmpi.comm.init_s",
    "dist.vectorized.self_s", "sim.engine.run_s",
)
"""Where a simulated training run's wall goes, printed by traced runs."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Command-line arguments."""
    from workloads import DEFAULT_SEED, SIZES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="'tiny' runs every workload at smoke-test scale")
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up and print it (child mode)")
    return p.parse_args(argv)


# ---------------------------------------------------------------- manifest
def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def manifest(args: argparse.Namespace) -> dict[str, Any]:
    """Where and how this result was measured."""
    import numpy as np

    blas: Any = None
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except TypeError:  # numpy < 1.25 has no mode= argument
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "malloc_arena_max": 1 if MALLOC_ARENAS_PINNED else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_rev": _git_rev(),
        "source_digest": _source_digest(),
    }


# ------------------------------------------------------------------ set-up
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_setup(args: argparse.Namespace) -> tuple[float, float]:
    """One cold set-up in a fresh interpreter; returns its seconds and
    the :func:`probe_s` wall taken right after it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-only",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up child failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["probe_s"])


# ----------------------------------------------------------------- checks
class Checker:
    """Counts repetitions and the ones whose output checks failed."""

    def __init__(self, workload: Any, expected: dict[str, Any] | None) -> None:
        self.workload = workload
        self.expected = expected
        self.reference: dict[str, Any] | None = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, result: Any, extra: list[str] = ()) -> None:
        """Check one repetition; the first one checked is the reference."""
        failures = list(result.failures) + list(extra)
        if self.reference is None:
            self.reference = result.fingerprint
            if self.expected is not None:
                failures += self.workload.check_fingerprint(
                    result.fingerprint, self.expected
                )
        elif result.fingerprint != self.reference:
            failures.append(
                f"repetition {self.attempted} differs from the first: "
                f"{result.fingerprint} != {self.reference}"
            )
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)


def _timed_rep(workload: Any, traced: Any = None) -> tuple[Any, float]:
    gc.collect()
    t0 = time.perf_counter()
    result = workload.rep(traced)
    return result, time.perf_counter() - t0


# -------------------------------------------------------------- measuring
def probe_s() -> float:
    """Host speed: median wall of three runs of a fixed integer loop.

    The host's speed drifts: on a shared 2-core Xeon, repetition walls
    moved by up to 40 % between runs minutes apart, and this loop moved
    with them.  Dividing by it cancels most of the drift: over eight 15 s
    runs of ``sim_faults_1k`` the spread (IQR/median) of the median
    repetition fell from 0.165 raw to 0.046.  It runs in this process between
    repetitions, so work the program left running in the background
    would slow it too.  Each repetition is rescaled by the mean of the
    probes just before and after it, each set-up by the probe after it.
    """
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def measure_untraced(
    workload: Any, check: Checker, seconds: float
) -> tuple[list[tuple[Any, float]], list[float]]:
    """Closed-loop repetitions for about ``seconds`` (at least
    :data:`MIN_REPS`); returns each result with its wall, and the
    :func:`probe_s` walls taken before the first and after each one."""
    reps: list[tuple[Any, float]] = []
    probes = [probe_s()]
    deadline = time.perf_counter() + seconds
    while True:
        result, wall = _timed_rep(workload)
        probes.append(probe_s())
        check(result)
        reps.append((result, wall))
        median = statistics.median(w for _, w in reps)
        if len(reps) >= MIN_REPS and time.perf_counter() + median > deadline:
            return reps, probes


def workload_figures(
    workload: Any, reps: list[tuple[Any, float]], check: Checker
) -> dict[str, float]:
    """The per-workload end-to-end figures, from untraced repetitions
    (0 where the workload has no such figure)."""
    walls = [w for _, w in reps]
    vals = [r.values for r, _ in reps]
    out = {
        "sim_run_s": statistics.median(walls) if "phases" in vals[0] else 0.0,
        "hf_serial_iter_s": 0.0,
        "hf_threaded_iter_s": 0.0,
        "hf_threaded_speedup": 0.0,
        "serve_sim_rps": 0.0,
        "check_fail_ratio": check.failed / check.attempted,
    }
    if "serial_s" in vals[0]:
        serial = statistics.median(v["serial_s"] / v["serial_iterations"] for v in vals)
        thr = statistics.median(v["threaded_s"] / v["threaded_iterations"] for v in vals)
        out.update(hf_serial_iter_s=serial, hf_threaded_iter_s=thr,
                   hf_threaded_speedup=serial / thr)
    if "generated" in vals[0]:
        out["serve_sim_rps"] = statistics.median(
            r.values["generated"] / w for r, w in reps
        )
    return out


def gemm_ceiling_gflops(rows: int, width: int) -> float:
    """Best of five ``np.dot`` on the hidden-layer shape, in GFLOP/s."""
    import numpy as np

    from repro.util.rng import spawn

    rng = spawn(0, "perfbench-gemm-ceiling")
    a = rng.standard_normal((rows, width))
    b = rng.standard_normal((width, width))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.dot(a, b)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * rows * width * width / best / 1e9


def measure_traced(
    workload: Any, check: Checker, seconds: float, rss_base_mb: float
) -> tuple[dict[str, float], list[Any]]:
    """Alternate untraced and traced repetitions; per-layer metrics."""
    from metrics import median_values, rep_layer_values
    from spans import SpanRecorder
    from workloads import Traced

    from repro.gemm.stats import GemmCounter
    from repro.obs import MetricsRegistry
    from repro.util.timing import TimeLedger

    recorder = SpanRecorder()
    untraced: list[tuple[Any, float]] = []
    traced_walls: list[float] = []
    rows: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        result, wall = _timed_rep(workload)
        check(result)
        untraced.append((result, wall))

        traced = Traced(MetricsRegistry(), TimeLedger(), GemmCounter(),
                        recorder=recorder)

        def on_comm(comm: Any, traced: Any = traced) -> None:
            traced.comms.append(comm)
            comm.engine.attach_obs(traced.registry)

        recorder.on_exit["vmpi.comm.init"] = on_comm
        recorder.rep = len(rows) + 1
        gc.collect()
        with recorder.installed():
            t0 = time.perf_counter()
            with recorder.span("bench.rep") as root_id:
                result = workload.rep(traced)
            wall = time.perf_counter() - t0
        spans = recorder.rep_spans(recorder.rep)
        root = next(s for s in spans if s.id == root_id)
        row = rep_layer_values(workload, traced, spans, root, result.values)
        extra = []
        if row["trace.unattributed_share"] > 0.1:
            extra.append(
                f"traced self times miss {row['trace.unattributed_share']:.1%} "
                f"of the wall (> 10%): a layer is missing from the trace"
            )
        check(result, extra)
        traced_walls.append(wall)
        rows.append(row)

    out = median_values(rows)
    untraced_median = statistics.median(w for _, w in untraced)
    out["obs.trace_overhead_ratio"] = statistics.median(traced_walls) / untraced_median
    out["nn.gemm_ceiling_gflops"] = out["nn.gemm_efficiency"] = 0.0
    if out["nn.gemm_gflops"] > 0:
        out["nn.gemm_ceiling_gflops"] = gemm_ceiling_gflops(
            workload.x.shape[0], workload.hidden
        )
        out["nn.gemm_efficiency"] = out["nn.gemm_gflops"] / out["nn.gemm_ceiling_gflops"]
    ranks = workload.ranks
    out["sim.rss_per_rank_kb"] = (
        (_peak_rss_mb() - rss_base_mb) * 1024.0 / ranks if ranks else 0.0
    )
    out.update(workload_figures(workload, untraced, check))
    return out, recorder.spans


def write_spans(args: argparse.Namespace, spans: list[Any]) -> Path:
    """Dump the traced run's spans (kept in memory until now)."""
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
    path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "spans": [dataclasses.asdict(s) for s in spans]}
    ))
    return path


# -------------------------------------------------------------------- main
def _import_program() -> None:
    import numpy  # noqa: F401

    import repro.dist  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.hf  # noqa: F401
    import repro.nn  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.speech  # noqa: F401


def main(
    argv: list[str] | None = None,
    fingerprints: dict[str, dict[str, Any]] | None = None,
    t_start: float | None = None,
) -> int:
    """Run one workload and print its metrics; returns the exit code.

    ``fingerprints`` replaces the kept default-seed values (the smoke
    test passes corrupted ones to prove the check bites).  ``t_start``
    is when the interpreter began importing; set-up time counts from it.
    """
    if t_start is None:
        t_start = time.perf_counter()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC.name}/ next to "
              f"{HERE.name}/", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _import_program()
    import_s = time.perf_counter() - t_start

    from metrics import E2E, PER_LAYER, REP_MEANING, SIM
    from workloads import DEFAULT_SEED, WORKLOADS

    rss_base_mb = _peak_rss_mb()
    workload = WORKLOADS[args.workload](args.seed, args.size)

    if args.setup_only:
        t0 = time.perf_counter()
        workload.setup()
        workload.rep()
        setup_s = import_s + time.perf_counter() - t0
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s()}))
        return 0

    if fingerprints is None:
        from fingerprints import EXPECTED as fingerprints
    expected = (
        fingerprints.get(args.size, {}).get(args.workload)
        if args.seed == DEFAULT_SEED else None
    )
    check = Checker(workload, expected)

    setups: list[tuple[float, float]] = []
    if args.trace == 0:
        setups = [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    t0 = time.perf_counter()
    workload.setup()
    warm, _ = _timed_rep(workload)
    setups.append((import_s + time.perf_counter() - t0, probe_s()))
    check(warm)

    print("manifest " + json.dumps(manifest(args), sort_keys=True))
    if args.trace == 0:
        reps, probes = measure_untraced(workload, check, args.seconds)
        walls = [w for _, w in reps]
        metrics = {
            "setup_s": statistics.median(s * PROBE_REF_S / p for s, p in setups),
            "rep_s": statistics.median(
                w * PROBE_REF_S / ((probes[i] + probes[i + 1]) / 2)
                for i, w in enumerate(walls)
            ),
            "peak_rss_mb": _peak_rss_mb(),
        }
        counts = {"setup_s": len(setups), "rep_s": len(walls)}
        specs = E2E
        print(f"# rep_s: {REP_MEANING[args.workload]}; timings are rescaled to "
              f"the reference host speed ({PROBE_REF_S} s per probe)")
        print(f"# raw medians: setup {statistics.median(s for s, _ in setups):.4f} s, "
              f"repetition {statistics.median(walls):.4f} s; probe "
              f"{statistics.median(probes):.4f} s (median of {len(probes)})")
        figures = workload_figures(workload, reps, check)
    else:
        metrics, spans = measure_traced(workload, check, args.seconds, rss_base_mb)
        counts = {}
        specs = PER_LAYER
        print(f"# spans: {write_spans(args, spans).relative_to(ROOT)}")
        figures = {}

    for m in specs:
        if args.workload not in m.workloads:
            continue
        n = f"  (median of {counts[m.name]})" if m.name in counts else ""
        print(f"{m.name:34s} {metrics[m.name]:14.6g} {m.unit}{n}")
    for m in PER_LAYER:
        if m.name in figures and args.workload in m.workloads:
            print(f"{m.name:34s} {figures[m.name]:14.6g} {m.unit}  (not gated)")
    if args.trace == 1 and args.workload in SIM:
        parts = " + ".join(f"{n} {metrics[n]:.3f}" for n in SIM_SPLIT)
        total = sum(metrics[n] for n in SIM_SPLIT)
        print(f"# traced sim run split: {parts} = {total:.3f} s; the benchmark's "
              f"own share of the traced wall: {metrics['trace.unattributed_share']:.2%}")
    print(f"# {check.failed} of {check.attempted} repetitions failed a check")
    for msg in check.messages:
        print(f"CHECK FAILED: {msg}")
    correct = check.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            m.name: {"value": float(metrics[m.name]), "unit": m.unit} for m in specs
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(t_start=_T0))
