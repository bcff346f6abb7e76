"""Metric catalogue and the derivation of per-layer values from a trace.

``BENCHMARK.json`` carries name, unit, direction and bound; this module
also records, for every metric, the workloads it applies to and — for a
per-layer metric — the end-to-end metric it should move and the workload
where its layer does most and little work.  The smoke test checks that
the two agree.

End-to-end metrics apply to every workload, so each is defined in the
workload's own terms (see :data:`REP_MEANING`).  The figures that exist
on some workloads only (``sim_run_s``, ``hf_serial_iter_s`` …) are
printed by every run and reported, ungated, by the traced run from its
untraced repetitions, beside the per-layer metrics.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from spans import Span, descendants, layer_totals, self_times

__all__ = ["E2E", "PER_LAYER", "REP_MEANING", "Metric", "rep_layer_values"]

ALL = ("sim_vector_262k", "sim_faults_1k", "hf_real_math", "serve_2048")
SIM = ("sim_vector_262k", "sim_faults_1k")
HF = ("hf_real_math",)
SERVE = ("serve_2048",)
SIM_SERVE = SIM + SERVE


@dataclass(frozen=True)
class Metric:
    """One reported metric."""

    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    meaning: str
    bound: float | None = None
    """End-to-end only: share of the parent's median it may worsen by."""
    moves: str = ""
    """Per-layer only: the end-to-end metric(s) it should move."""
    most: str = ""
    little: str = ""
    """Per-layer only: where its layer does most / little work."""


REP_MEANING = {
    "sim_vector_262k": "one simulate_training run (sim_run_s, rescaled)",
    "sim_faults_1k": "one simulate_training run (sim_run_s, rescaled)",
    "hf_real_math": "one serial HF run plus one threaded HF run",
    "serve_2048": "one simulate_serving run",
}

E2E: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", ALL,
           "median of 3 cold set-ups, each in its own process: imports, "
           "input generation (corpus, fault anchor + plan) and one "
           "untimed warm-up repetition; rescaled to the reference host "
           "speed", bound=0.25),
    Metric("rep_s", "s", "lower", ALL,
           "median host seconds per repetition (closed loop, one client, "
           "default GC state, gc.collect() between repetitions), each "
           "rescaled to the reference host speed", bound=0.24),
    Metric("peak_rss_mb", "MB", "lower", ALL,
           "peak RSS of the process that runs the workload", bound=0.1),
)


def _layer(name, unit, better, moves, most, little, meaning, workloads=ALL):
    return Metric(name, unit, better, workloads, meaning, moves=moves,
                  most=most, little=little)


PER_LAYER: tuple[Metric, ...] = (
    # per-workload figures, raw walls from the untraced repetitions
    _layer("sim_run_s", "s", "lower", "rep_s", "sim_vector_262k", "-",
           "host seconds per simulated training run", SIM),
    _layer("hf_serial_iter_s", "s", "lower", "rep_s", "hf_real_math", "-",
           "host seconds per accepted HF iteration, serial", HF),
    _layer("hf_threaded_iter_s", "s", "lower", "rep_s", "hf_real_math", "-",
           "host seconds per accepted HF iteration, 2 worker threads", HF),
    _layer("hf_threaded_speedup", "ratio", "higher", "rep_s", "hf_real_math", "-",
           "hf_serial_iter_s / hf_threaded_iter_s", HF),
    _layer("serve_sim_rps", "req/s", "higher", "rep_s", "serve_2048", "-",
           "simulated requests generated per host second", SERVE),
    _layer("check_fail_ratio", "ratio", "lower", "-", "-", "-",
           "repetitions whose output check failed over repetitions attempted"),
    # dist / vmpi / sim
    _layer("dist.simulated.self_s", "s", "lower", "sim_run_s",
           "sim_vector_262k", "sim_faults_1k",
           "simulate_training minus its wrapped callees (plan build, result)", SIM),
    _layer("dist.partition.busy_s", "s", "lower", "sim_run_s",
           "sim_vector_262k", "sim_faults_1k", "balanced_partition", SIM),
    _layer("dist.vectorized.self_s", "s", "lower", "sim_run_s",
           "sim_vector_262k", "sim_faults_1k (0: scalar fallback)",
           "run_vectorized minus Engine.run", SIM),
    _layer("dist.vectorized.phases", "count", "lower", "sim_run_s",
           "sim_vector_262k", "sim_faults_1k (0: scalar fallback)",
           "phases the vector path executed", SIM),
    _layer("vmpi.comm.init_s", "s", "lower", "sim_run_s, peak_rss_mb",
           "sim_vector_262k", "serve_2048", "VComm.__init__", SIM_SERVE),
    _layer("vmpi.messages", "count", "lower", "none (must not move on a speed change)",
           "sim_vector_262k", "-", "messages sent through VComm", SIM_SERVE),
    _layer("vmpi.bytes", "B", "lower", "none (must not move on a speed change)",
           "sim_vector_262k", "-", "bytes sent through VComm", SIM_SERVE),
    _layer("sim.engine.run_s", "s", "lower", "sim_run_s, serve_sim_rps",
           "sim_faults_1k, serve_2048", "sim_vector_262k", "Engine.run", SIM_SERVE),
    _layer("sim.events", "count", "lower", "none (must not move on a speed change)",
           "sim_faults_1k, serve_2048", "sim_vector_262k",
           "events the engine dispatched (sim.events, all kinds)", SIM_SERVE),
    _layer("sim.events_per_s", "1/s", "higher", "sim_run_s, serve_sim_rps",
           "sim_faults_1k, serve_2048", "sim_vector_262k",
           "sim.events / sim.engine.run_s", SIM_SERVE),
    _layer("sim.rss_per_rank_kb", "KB", "lower", "peak_rss_mb",
           "sim_vector_262k", "sim_faults_1k",
           "(peak RSS - RSS after imports) / simulated ranks", SIM_SERVE),
    # faults
    _layer("faults.injected", "count", "lower", "none (counts)",
           "sim_faults_1k", "others", "faults.injected, all kinds", SIM_SERVE),
    _layer("train.recoveries", "count", "lower", "none (counts)",
           "sim_faults_1k", "others", "train.recoveries", SIM),
    _layer("train.excluded_ranks", "count", "lower", "none (counts)",
           "sim_faults_1k", "others", "train.excluded_ranks", SIM),
    # nn / hf (serial leg)
    _layer("nn.forward_s", "s", "lower", "hf_serial_iter_s, hf_threaded_iter_s",
           "hf_real_math", "none", "DNN.forward, serial leg", HF),
    _layer("nn.backprop_s", "s", "lower", "hf_serial_iter_s, hf_threaded_iter_s",
           "hf_real_math", "none", "DNN.backprop, serial leg", HF),
    _layer("nn.r_forward_s", "s", "lower", "hf_serial_iter_s, hf_threaded_iter_s",
           "hf_real_math", "none", "DNN.r_forward, serial leg", HF),
    _layer("nn.gemm_gflops", "GFLOP/s", "higher", "hf_serial_iter_s",
           "hf_real_math", "none",
           "GemmCounter flops over time in forward/backprop/r_forward", HF),
    _layer("nn.gemm_ceiling_gflops", "GFLOP/s", "higher", "none (the machine)",
           "hf_real_math", "none", "best np.dot on the hidden-layer shape", HF),
    _layer("nn.gemm_efficiency", "ratio", "higher", "hf_serial_iter_s",
           "hf_real_math", "none", "nn.gemm_gflops / nn.gemm_ceiling_gflops", HF),
    _layer("hf.gradient_loss_s", "s", "lower", "hf_serial_iter_s",
           "hf_real_math", "none", "TimeLedger gradient_loss, serial", HF),
    _layer("hf.cg_minimize_s", "s", "lower", "hf_serial_iter_s",
           "hf_real_math", "none", "TimeLedger cg_minimize, serial", HF),
    _layer("hf.heldout_loss_s", "s", "lower", "hf_serial_iter_s",
           "hf_real_math", "none", "TimeLedger heldout_loss, serial", HF),
    _layer("hf.line_search_s", "s", "lower", "hf_serial_iter_s",
           "hf_real_math", "none", "TimeLedger line_search, serial", HF),
    _layer("hf.cg_iterations", "count", "lower", "none (algorithm)",
           "hf_real_math", "none", "CG iterations of accepted HF iterations", HF),
    _layer("hf.accept_ratio", "ratio", "higher", "none (algorithm)",
           "hf_real_math", "none", "accepted HF iterations / cg_minimize calls", HF),
    _layer("vmpi.inprocess.master_wait_s", "s", "lower",
           "hf_threaded_iter_s, hf_threaded_speedup", "hf_real_math threaded",
           "serial", "ThreadRankComm.recv on the master thread", HF),
    _layer("vmpi.inprocess.worker_wait_s", "s", "lower",
           "hf_threaded_iter_s, hf_threaded_speedup", "hf_real_math threaded",
           "serial", "ThreadRankComm.recv on worker threads, summed", HF),
    _layer("dist.threaded.worker_busy_share", "ratio", "higher",
           "hf_threaded_iter_s, hf_threaded_speedup", "hf_real_math threaded",
           "serial", "1 - worker wait / (workers x threaded leg wall)", HF),
    # serve
    _layer("serve.arrivals_s", "s", "lower", "serve_sim_rps", "serve_2048",
           "none", "generate_arrivals", SERVE),
    _layer("serve.cost.calls", "count", "lower", "serve_sim_rps", "serve_2048",
           "none", "DecodeCostModel.batch_seconds calls", SERVE),
    _layer("serve.cost.busy_s", "s", "lower", "serve_sim_rps", "serve_2048",
           "none", "DecodeCostModel.batch_seconds", SERVE),
    _layer("serve.simulate.self_s", "s", "lower", "serve_sim_rps", "serve_2048",
           "none", "simulate_serving minus its wrapped callees", SERVE),
    _layer("serve.completed_ratio", "ratio", "higher", "none (virtual)",
           "serve_2048", "none", "completed / generated", SERVE),
    _layer("serve.mean_batch", "count", "higher", "none (virtual)",
           "serve_2048", "none", "mean decode batch size", SERVE),
    # the trace itself
    _layer("obs.trace_overhead_ratio", "ratio", "lower", "none (not gated)",
           "all", "-", "median traced wall / median untraced wall"),
    _layer("trace.unattributed_share", "ratio", "lower", "none (trace coverage)",
           "all", "-",
           "benchmark self time / traced wall of the single-threaded part; "
           "checked <= 0.1"),
)


# ------------------------------------------------------------- derivation
def _snapshot_sums(registry: Any, names: tuple[str, ...]) -> dict[str, float]:
    sums = {n: 0.0 for n in names}
    for rec in registry.snapshot():
        if rec["metric"] in sums:
            sums[rec["metric"]] += float(rec.get("value", 0.0))
    return sums


def rep_layer_values(
    workload: Any, traced: Any, spans: list[Span], root: Span,
    values: dict[str, float],
) -> dict[str, float]:
    """Per-layer values of one traced repetition.

    ``root`` is the benchmark's repetition span; ``values`` the
    workload's own per-repetition numbers.  Layers the workload does not
    exercise read 0.
    """
    out: dict[str, float] = {}
    totals = layer_totals(spans)

    def tot(name: str, key: str, among: dict[str, dict[str, float]] = totals) -> float:
        return among.get(name, {}).get(key, 0.0)

    out["dist.simulated.self_s"] = tot("dist.simulated", "self_s")
    out["dist.partition.busy_s"] = tot("dist.partition", "busy_s")
    out["dist.vectorized.self_s"] = tot("dist.vectorized", "self_s")
    out["dist.vectorized.phases"] = values.get("phases", 0.0)
    out["vmpi.comm.init_s"] = tot("vmpi.comm.init", "busy_s")
    out["vmpi.messages"] = float(sum(c.total_sends for c in traced.comms))
    out["vmpi.bytes"] = float(sum(c.total_bytes for c in traced.comms))
    run_s = tot("sim.engine", "busy_s")
    out["sim.engine.run_s"] = run_s
    sums = _snapshot_sums(
        traced.registry,
        ("sim.events", "faults.injected", "train.recoveries", "train.excluded_ranks"),
    )
    out["sim.events"] = sums["sim.events"]
    out["sim.events_per_s"] = sums["sim.events"] / run_s if run_s > 0 else 0.0
    out["faults.injected"] = sums["faults.injected"]
    out["train.recoveries"] = sums["train.recoveries"]
    out["train.excluded_ranks"] = sums["train.excluded_ranks"]

    # serial HF leg: its own subtree, so threaded-leg calls don't mix in
    serial = [s for s in spans if s.name == "bench.serial"]
    serial_spans = descendants(spans, serial[0].id) if serial else []
    st = layer_totals(serial_spans)
    nn_s = 0.0
    for layer in ("forward", "backprop", "r_forward"):
        out[f"nn.{layer}_s"] = tot(f"nn.{layer}", "busy_s", st)
        nn_s += out[f"nn.{layer}_s"]
    flops = traced.gemm_counter.total_flops()
    out["nn.gemm_gflops"] = flops / nn_s / 1e9 if nn_s > 0 else 0.0
    ledger = traced.ledger
    for phase in ("gradient_loss", "cg_minimize", "heldout_loss", "line_search"):
        out[f"hf.{phase}_s"] = ledger[phase]
    out["hf.cg_iterations"] = values.get("cg_iterations", 0.0)
    cg_calls = tot("hf.cg", "calls", st)
    out["hf.accept_ratio"] = (
        values.get("serial_iterations", 0.0) / cg_calls if cg_calls else 0.0
    )

    threaded = [s for s in spans if s.name == "bench.threaded"]
    master_wait = worker_wait = busy_share = 0.0
    if threaded:
        leg = threaded[0]
        in_leg = [s for s in spans if s.start >= leg.start and s.end <= leg.end]
        masters = {s.thread for s in in_leg if s.name == "hf.optimizer"}
        for s in in_leg:
            if s.name == "vmpi.inprocess.recv":
                if s.thread in masters:
                    master_wait += s.duration
                else:
                    worker_wait += s.duration
        workers = workload.WORKERS
        busy_share = 1.0 - worker_wait / (workers * leg.duration)
    out["vmpi.inprocess.master_wait_s"] = master_wait
    out["vmpi.inprocess.worker_wait_s"] = worker_wait
    out["dist.threaded.worker_busy_share"] = busy_share

    out["serve.arrivals_s"] = tot("serve.arrivals", "busy_s")
    out["serve.cost.calls"] = tot("serve.cost", "calls")
    out["serve.cost.busy_s"] = tot("serve.cost", "busy_s")
    out["serve.simulate.self_s"] = tot("serve.simulate", "self_s")
    out["serve.completed_ratio"] = values.get("completed_ratio", 0.0)
    out["serve.mean_batch"] = values.get("mean_batch", 0.0)

    # coverage: the benchmark's own self time inside the part of the
    # repetition that runs on one thread
    part = root if workload.single_threaded else (serial[0] if serial else root)
    own = self_times([part] + descendants(spans, part.id))[part.id]
    out["trace.unattributed_share"] = own / part.duration if part.duration > 0 else 0.0
    return out


def median_values(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over repetitions."""
    keys = rows[0].keys() if rows else ()
    return {k: statistics.median(r[k] for r in rows) for k in keys}
