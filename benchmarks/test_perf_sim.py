"""Simulator wall-clock benchmarks: DES engine + vmpi hot paths.

Unlike the figure benchmarks, these time the *simulator itself* — the
engine event loop, mailbox matching, and collective fan-out that every
other benchmark rides on.  The same suite is exposed as ``repro perf``;
the committed ``BENCH_sim_vmpi.json`` at the repo root is the published
baseline each PR is compared against.

Asserted here: the virtual results (finish times, message counts) are
bit-identical to the published baseline — a perf run that changes a
simulated number is a correctness bug, not a speedup — and the macro
runs stay within a generous wall-clock envelope so a pathological
regression (e.g. accidental O(n^2) mailbox scan) fails loudly.

Observability rides the same baseline: the committed ``obs_ratio`` per
macro shape (min-over-rounds walls, obs-attached vs plain, interleaved)
is the published evidence that attaching a :class:`MetricsRegistry`
costs at most 5 % of macro wall-clock, and the metrics the instrumented
run reports (event counts, peak queue depths, outstanding-message HWMs)
are simulated quantities, so they must match the baseline bit-for-bit.
"""

import gc
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from common import ensure_linted

from repro.harness.perf import (
    BENCH_FILENAME,
    bench_bcast_fanout,
    bench_collectives,
    bench_macro,
    bench_macro_obs,
    bench_ping_ring,
    bench_timeout_storm,
    registry_metrics_block,
    render_perf_text,
    run_perf,
)

BASELINE_PATH = Path(__file__).parent.parent / BENCH_FILENAME

# Macro wall-clock envelope: baseline best_s times this factor.  Wide
# enough for slow CI machines, tight enough to catch a complexity-class
# regression (the pre-overhaul engine was ~4x slower at 4096 ranks).
WALL_BUDGET_FACTOR = 3.0

# The contract on attached-observability overhead: the *published*
# baseline must demonstrate <= 5 % (regenerating it on a noisy machine
# takes enough interleaved rounds for both legs to catch a quiet one).
OBS_BUDGET_RATIO = 1.05

# Live-run envelope for the same ratio: one noisy in-suite measurement
# cannot re-prove 5 %, but a complexity-class regression in the hooks
# (per-event dict arithmetic, an eager fold) lands well above this.
OBS_PATHOLOGICAL_RATIO = 1.75

# The SPMD fast-path acceptance gate: at 16384 ranks the vector executor
# must beat the per-generator scalar scheduler by at least this factor.
# (Measured headroom is ~40x; 5x survives the noisiest CI machine.)
SPMD_SPEEDUP_FLOOR = 5.0
SPMD_SPEEDUP_SHAPE = "16384-4-16"
SPMD_SCALAR_ANCHOR = "1024-4-16"


def _baseline():
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def test_micro_determinism():
    """Each micro benchmark's virtual outcome is run-to-run identical."""
    assert bench_timeout_storm() == bench_timeout_storm()
    assert bench_ping_ring() == bench_ping_ring()
    assert bench_bcast_fanout() == bench_bcast_fanout()


def test_perf_suite(benchmark):
    payload = benchmark.pedantic(run_perf, rounds=1, iterations=1)
    print()
    print(render_perf_text(payload))
    baseline = _baseline()
    if baseline is None:
        return
    for section in ("micro", "macro"):
        for name, base in baseline[section].items():
            got = payload[section][name]
            for key in ("virtual_finish", "messages", "events", "bytes"):
                if key in base:
                    assert got[key] == base[key], (
                        f"{section}/{name}: {key} changed "
                        f"({got[key]!r} != baseline {base[key]!r})"
                    )
    for name, base in baseline["macro"].items():
        got = payload["macro"][name]
        assert got["best_s"] < WALL_BUDGET_FACTOR * base["best_s"], (
            f"macro/{name}: {got['best_s']:.2f}s exceeds "
            f"{WALL_BUDGET_FACTOR}x baseline {base['best_s']:.2f}s"
        )
        if "obs_ratio" in got:  # shapes above the obs-interleave cap skip it
            assert got["obs_ratio"] < OBS_PATHOLOGICAL_RATIO, (
                f"macro/{name}: obs-attached run cost {got['obs_ratio']:.2f}x "
                f"the plain run — the hooks regressed far past the 5% budget"
            )


def test_sim_collectives():
    """The PR-4 acceptance criterion at paper scale: with auto algorithm
    selection and bucketed gradient overlap enabled, the 1024-rank run's
    simulated gradient+sync time drops >= 20 % against the binomial/serial
    baseline at large payloads — while small messages still select the
    binomial tree.  The gradsync seconds and selected algorithms are
    virtual quantities, so they must also match the committed baseline
    bit-for-bit."""
    ensure_linted()
    got = bench_collectives("1024-4-16")
    assert got["win_vs_binomial"] >= 0.20
    assert got["win_vs_serial"] >= 0.20
    assert got["gradsync_overlap_s"] < got["gradsync_binomial_s"]
    small = min(got["crossover"], key=lambda r: r["nbytes"])
    large = max(got["crossover"], key=lambda r: r["nbytes"])
    assert small["bcast"] == "binomial" and small["reduce"] == "binomial"
    assert large["reduce"] in ("ring", "rabenseifner", "torus")
    baseline = _baseline()
    if baseline is None or "collectives" not in baseline:
        return
    base = baseline["collectives"]["sweep"]
    for key in (
        "gradsync_binomial_s",
        "gradsync_serial_s",
        "gradsync_overlap_s",
        "win_vs_binomial",
        "win_vs_serial",
        "crossover",
    ):
        assert got[key] == base[key], (
            f"collectives/sweep: {key} changed "
            f"({got[key]!r} != baseline {base[key]!r})"
        )


def _best_wall(fn, repeats=2):
    """Min-over-repeats wall clock with the collector parked (the same
    protocol as the harness timer)."""
    was_enabled = gc.isenabled()
    walls = []
    try:
        gc.disable()
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
            gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return min(walls)


def _virtual(entry):
    """The executor-invariant portion of a bench result (the ``path``
    key names which executor ran — the one field that *should* differ
    between a scalar and a vector leg)."""
    return {k: v for k, v in entry.items() if k != "path"}


@pytest.mark.parametrize("auto_overlap", [False, True], ids=["plain", "auto+overlap"])
def test_vector_spmd_speedup_at_16k(auto_overlap):
    """The tentpole acceptance gate: at 16384 ranks the SPMD vector fast
    path is >= 5x faster than the scalar per-generator scheduler — for
    the plain fixed-algorithm run and for the paper configuration
    (auto-selected collectives + bucketed gradient overlap), which this
    PR makes vector-eligible.

    Running the scalar path at 16k directly would take most of a minute,
    so its cost is extrapolated linearly from a live 1024-rank scalar
    run.  The extrapolation is *conservative*: scalar event count grows
    O(p log p) and the heap O(log(events)) on top, so linear-in-p
    understates the true 16k scalar wall — the measured ratio is ~40x
    against the understated denominator's ~8x requirement.
    """
    anchor_ranks = int(SPMD_SCALAR_ANCHOR.split("-")[0])
    gate_ranks = int(SPMD_SPEEDUP_SHAPE.split("-")[0])
    # Same shape, both paths: the numbers the gate compares are walls
    # for *identical* virtual work.
    scalar_anchor = bench_macro(
        SPMD_SCALAR_ANCHOR, vector=False, auto_overlap=auto_overlap
    )
    vector_anchor = bench_macro(
        SPMD_SCALAR_ANCHOR, vector=True, auto_overlap=auto_overlap
    )
    assert scalar_anchor["path"] == "scalar"
    assert vector_anchor["path"] == "vector"
    assert _virtual(scalar_anchor) == _virtual(vector_anchor), (
        "vector fast path diverged from the scalar scheduler at "
        f"{SPMD_SCALAR_ANCHOR}: {vector_anchor} != {scalar_anchor}"
    )
    scalar_wall = _best_wall(
        lambda: bench_macro(
            SPMD_SCALAR_ANCHOR, vector=False, auto_overlap=auto_overlap
        )
    )
    vector_wall = _best_wall(
        lambda: bench_macro(
            SPMD_SPEEDUP_SHAPE, vector=True, auto_overlap=auto_overlap
        )
    )
    scalar_extrapolated = scalar_wall * (gate_ranks // anchor_ranks)
    speedup = scalar_extrapolated / vector_wall
    leg = "auto+overlap" if auto_overlap else "plain"
    print(
        f"\nSPMD speedup at {SPMD_SPEEDUP_SHAPE} [{leg}]: {speedup:.1f}x "
        f"(vector {vector_wall:.3f}s vs scalar extrapolated "
        f"{scalar_extrapolated:.3f}s from {scalar_wall:.3f}s @ "
        f"{SPMD_SCALAR_ANCHOR})"
    )
    assert speedup >= SPMD_SPEEDUP_FLOOR, (
        f"SPMD fast path speedup {speedup:.2f}x at {SPMD_SPEEDUP_SHAPE} "
        f"[{leg}] is below the {SPMD_SPEEDUP_FLOOR}x acceptance floor"
    )
    baseline = _baseline()
    name = (
        f"{SPMD_SPEEDUP_SHAPE}+auto+overlap" if auto_overlap else SPMD_SPEEDUP_SHAPE
    )
    if baseline and name in baseline.get("macro", {}):
        got = bench_macro(
            SPMD_SPEEDUP_SHAPE, vector=True, auto_overlap=auto_overlap
        )
        base = baseline["macro"][name]
        assert got["virtual_finish"] == base["virtual_finish"]
        assert got["messages"] == base["messages"]


def test_macro_invariants_against_baseline():
    """One 1024-rank run, checked against the committed baseline without
    the full timed suite — the cheap timeline-preservation gate."""
    baseline = _baseline()
    if baseline is None:
        return
    got = bench_macro("1024-4-16")
    base = baseline["macro"]["1024-4-16"]
    assert got["virtual_finish"] == base["virtual_finish"]
    assert got["messages"] == base["messages"]


def test_baseline_obs_overhead_within_budget():
    """The committed baseline is the published proof that attaching a
    metrics registry costs <= 5 % of macro wall-clock."""
    baseline = _baseline()
    if baseline is None:
        return
    for name, base in baseline["macro"].items():
        if "obs_ratio" not in base:  # above the obs-interleave cap
            continue
        assert base["obs_ratio"] <= OBS_BUDGET_RATIO, (
            f"macro/{name}: committed obs_ratio {base['obs_ratio']:.3f} "
            f"exceeds the {OBS_BUDGET_RATIO}x budget — optimize the hooks "
            f"or regenerate the baseline on a quieter machine"
        )


def test_obs_metrics_match_baseline():
    """The instrumented run's metrics are simulated quantities — event
    counts, peak queue depths, per-pair outstanding HWMs — so a fresh
    obs-attached run must reproduce the committed baseline's ``metrics``
    block exactly, on any machine."""
    baseline = _baseline()
    if baseline is None:
        return
    sink = []
    got = bench_macro_obs("1024-4-16", registry_sink=sink)
    base = baseline["macro"]["1024-4-16"]
    assert got["virtual_finish"] == base["virtual_finish"]
    assert registry_metrics_block(sink[-1]) == base["metrics"]


def test_obs_overhead_vector_path():
    """The obs budget covers the vector fast path, not just the scalar
    scheduler: attach a registry to a vectorized 1024-rank macro run
    and bound the live obs-attached / plain wall ratio.  (The committed
    <= 5 % proof lives in the baseline; the live gate catches a
    complexity-class regression in the bulk-surface hooks.)"""
    plain = bench_macro("1024-4-16", vector=True)
    attached = bench_macro_obs("1024-4-16", vector=True)
    assert attached == plain, (
        f"attaching obs changed the virtual outcome ({attached} != {plain})"
    )
    plain_wall = _best_wall(lambda: bench_macro("1024-4-16", vector=True))
    obs_wall = _best_wall(lambda: bench_macro_obs("1024-4-16", vector=True))
    ratio = obs_wall / plain_wall
    print(f"\nobs ratio [vector]: {ratio:.3f} "
          f"(obs {obs_wall:.3f}s / plain {plain_wall:.3f}s)")
    assert ratio < OBS_PATHOLOGICAL_RATIO, (
        f"obs-attached macro cost {ratio:.2f}x the plain run "
        f"— the fast-path hooks regressed far past the 5% budget"
    )
