"""Vectorized-vs-generator equivalence for the SPMD fast path.

The vector executor (:mod:`repro.dist.vectorized`) must reproduce the
per-process scalar scheduler bit for bit: virtual finish times, message
and byte totals, per-rank span totals, and the obs metric snapshot —
with three documented exclusions where the two paths legitimately
differ:

* ``sim.events`` / ``sim.vector_phases`` counters and the
  ``sim.heap_depth`` / ``sim.ready_depth`` peak gauges (the entire
  point of the fast path is executing *fewer, bigger* events);
* the ``comm.coll.seconds`` histogram ``sum`` field (the bulk fold adds
  per-phase duration arrays in a different order than the global event
  interleave; the bucket *counts* are still bit-identical);
* outstanding-message high-water marks (``comm.outstanding_hwm``,
  ``comm.pair.outstanding_hwm``): phases run atomically on the vector
  path, so transient cross-phase backlogs (a slow root consuming a
  loss-tree message after the next barrier's stub lands) report the
  steady-state 1 instead of the scalar interleave's occasional 2;
* the tracer's *global* totals (same fold-order caveat — per-process
  totals are the bit-stable surface, per ``Tracer.totals``).
"""

import json

import pytest

from repro.bgq import RunShape
from repro.dist import IterationScript, SimJobConfig, simulate_training
from repro.harness.scaling import default_workload
from repro.obs import MetricsRegistry

SCRIPT = IterationScript((2,), (2,), represented_iterations=30)


def _cfg(spec, **kwargs):
    return SimJobConfig(
        shape=RunShape.parse(spec),
        workload=default_workload(50.0),
        script=SCRIPT,
        seed=7,
        **kwargs,
    )


def _run(spec, vector, obs=None, cfg=None):
    return simulate_training(cfg or _cfg(spec), obs=obs, vector=vector)


def _metric_index(reg):
    out = {}
    for rec in reg.snapshot():
        key = (rec["metric"], json.dumps(rec.get("labels", {}), sort_keys=True))
        out[key] = rec
    return out


def _vector_phases(reg):
    return next(
        rec["value"]
        for rec in reg.snapshot()
        if rec["metric"] == "sim.vector_phases"
    )


def _events_total(reg):
    return sum(
        rec["value"] for rec in reg.snapshot() if rec["metric"] == "sim.events"
    )


@pytest.mark.parametrize("spec", ["64-4-16", "256-4-16"])
def test_vector_matches_scalar_bit_for_bit(spec):
    a = _run(spec, vector=False)
    b = _run(spec, vector=True)
    assert a.load_data_seconds == b.load_data_seconds
    assert a.iteration_seconds == b.iteration_seconds
    assert a.total_messages == b.total_messages
    assert a.total_bytes == b.total_bytes
    ranks = int(spec.split("-")[0])
    for r in (0, 1, 2, ranks // 2, ranks - 1):
        ta, tb = a.tracer.totals(f"rank{r}"), b.tracer.totals(f"rank{r}")
        assert set(ta) == set(tb)
        for k in ta:
            assert ta[k] == tb[k], (r, k)


def test_vector_keyword_toggle():
    """``vector=False|True`` forces the path, observable through the
    ``sim.vector_phases`` counter."""
    counts = {}
    for vector in (False, True):
        reg = MetricsRegistry()
        _run("64-4-16", vector=vector, obs=reg)
        counts[vector] = (_vector_phases(reg), _events_total(reg))
    assert counts[False][0] == 0
    assert counts[True][0] > 0
    # the fast path's raison d'être: far fewer engine events
    assert counts[True][1] < counts[False][1] / 50


def test_vector_metrics_snapshot_matches_scalar():
    ra, rb = MetricsRegistry(), MetricsRegistry()
    a = _run("64-4-16", vector=False, obs=ra)
    b = _run("64-4-16", vector=True, obs=rb)
    assert a.iteration_seconds == b.iteration_seconds
    ia, ib = _metric_index(ra), _metric_index(rb)
    assert set(ia) == set(ib)
    excluded = (
        "sim.events",  # one heap event per phase, by design
        "sim.vector_phases",
        "sim.heap_depth",  # ditto: queue depths scale with event count
        "sim.ready_depth",
        "sim.processes",  # one driver generator instead of P rank programs
        "comm.outstanding_hwm",  # cross-phase backlog transients
        "comm.pair.outstanding_hwm",
    )
    for key in ia:
        metric = key[0]
        if metric in excluded:
            continue
        va = dict(ia[key])
        vb = dict(ib[key])
        if metric == "comm.coll.seconds":
            # histogram `sum` folds in a different order; counts must match
            va.pop("sum")
            vb.pop("sum")
        assert va == vb, key


def test_vector_fallback_on_heterogeneous_config():
    """Ineligible configs (here: the staged load relay) run the scalar
    scheduler even with the fast path requested — and stay correct."""
    reg = MetricsRegistry()
    cfg = _cfg("64-4-16", load_data_mode="staged")
    res = simulate_training(cfg, obs=reg, vector=True)
    assert _vector_phases(reg) == 0
    assert res.iteration_seconds > 0


def test_vector_fallback_on_non_power_of_two():
    reg = MetricsRegistry()
    cfg = SimJobConfig(
        shape=RunShape.parse("48-4-16"),
        workload=default_workload(50.0),
        script=IterationScript((1,), (1,), represented_iterations=30),
        seed=7,
    )
    simulate_training(cfg, obs=reg, vector=True)
    assert _vector_phases(reg) == 0


VARIANTS = {
    "auto": {"collective_selection": "auto"},
    "overlap": {"overlap_gradient": True},
    "auto+overlap": {"collective_selection": "auto", "overlap_gradient": True},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("spec", ["16-4-16", "64-4-16", "1024-4-16"])
def test_vector_matches_scalar_auto_and_overlap(spec, variant):
    """Bit-equivalence goldens for the widened fast path: auto-selected
    collectives and the bucketed gradient-overlap pipeline (and their
    combination) must reproduce the scalar scheduler exactly — finish
    times, message/byte totals, and sampled per-rank span totals."""
    cfg_a = _cfg(spec, **VARIANTS[variant])
    cfg_b = _cfg(spec, **VARIANTS[variant])
    a = simulate_training(cfg_a, vector=False)
    reg = MetricsRegistry()
    b = simulate_training(cfg_b, vector=True, obs=reg)
    assert _vector_phases(reg) > 0, "variant fell off the fast path"
    assert a.load_data_seconds == b.load_data_seconds
    assert a.iteration_seconds == b.iteration_seconds
    assert a.total_messages == b.total_messages
    assert a.total_bytes == b.total_bytes
    ranks = int(spec.split("-")[0])
    for r in (0, 1, ranks // 2, ranks - 1):
        ta, tb = a.tracer.totals(f"rank{r}"), b.tracer.totals(f"rank{r}")
        assert set(ta) == set(tb)
        for k in ta:
            assert ta[k] == tb[k], (variant, r, k)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_vector_metrics_snapshot_matches_scalar_auto_and_overlap(variant):
    """The full obs snapshot (minus the documented exclusions) must
    agree between the paths for the newly-eligible variants too —
    including the per-algorithm ``comm.coll.seconds`` label sets the
    auto policy and the ``+overlap`` algo suffix introduce."""
    ra, rb = MetricsRegistry(), MetricsRegistry()
    a = simulate_training(_cfg("64-4-16", **VARIANTS[variant]), vector=False, obs=ra)
    b = simulate_training(_cfg("64-4-16", **VARIANTS[variant]), vector=True, obs=rb)
    assert a.iteration_seconds == b.iteration_seconds
    ia, ib = _metric_index(ra), _metric_index(rb)
    excluded = (
        "sim.events",
        "sim.vector_phases",
        "sim.heap_depth",
        "sim.ready_depth",
        "sim.processes",
        "comm.outstanding_hwm",
        "comm.pair.outstanding_hwm",
    )
    assert {k for k in ia if k[0] not in excluded} == {
        k for k in ib if k[0] not in excluded
    }
    for key in ia:
        metric = key[0]
        if metric in excluded:
            continue
        va, vb = dict(ia[key]), dict(ib[key])
        if metric == "comm.coll.seconds":
            va.pop("sum")
            vb.pop("sum")
        assert va == vb, (variant, key)


def test_vector_fallback_reason_recorded():
    """An ineligible vector request lands on the scalar path with the
    blocking precondition recorded: a ``sim.vector.fallback`` counter
    labelled with the reason slug (one per fallback)."""
    from repro.dist.vectorized import vector_fallback_reason

    cases = {
        "staged_load": _cfg("64-4-16", load_data_mode="staged"),
        "serial_bcast": _cfg("64-4-16", bcast_algorithm="serial"),
        "small_comm": _cfg("8-4-16"),
    }
    for want, cfg in cases.items():
        reg = MetricsRegistry()
        simulate_training(cfg, obs=reg, vector=True)
        idx = _metric_index(reg)
        key = ("sim.vector.fallback", json.dumps({"reason": want}))
        assert key in idx and idx[key]["value"] == 1, (want, sorted(idx))
    # an *eligible* run must not record any fallback
    reg = MetricsRegistry()
    simulate_training(_cfg("64-4-16"), obs=reg, vector=True)
    assert not any(m == "sim.vector.fallback" for m, _ in _metric_index(reg))
    # the reason helper is the single source of truth the counter uses
    assert (
        vector_fallback_reason(_cfg("64-4-16"), object(), trace_p2p=True)
        == "trace_p2p"
    )


def test_run_shape_unchanged_by_vector_default():
    """With ``vector`` left at its default, eligible shapes take the
    vector fast path."""
    reg = MetricsRegistry()
    res = simulate_training(_cfg("64-4-16"), obs=reg)
    assert _vector_phases(reg) > 0
    assert res.execution_path == "vector"


@pytest.mark.parametrize("model", ["torus", "uniform"])
def test_edge_costs_match_per_edge_model_calls(model):
    """Class-indexed pricing equals one ``p2p_time``/``wire_time`` call
    per edge: every binomial level at p=4096 with both tree payloads,
    and the load phase's per-worker ``shard_bytes`` array."""
    import numpy as np

    from repro.bgq.network import TorusNetworkModel
    from repro.dist.simulated import _build_plan
    from repro.dist.vectorized import (
        _LOSS_BYTES,
        _SYNC_BYTES,
        _edge_costs,
        _hop_class,
    )
    from repro.vmpi.collectives import binomial_levels
    from repro.vmpi.costmodel import UniformNetwork

    p = 4096
    network = (
        TorusNetworkModel(nodes=p // 4, ranks_per_node=4)
        if model == "torus"
        else UniformNetwork()
    )

    def check(src, dst, nbytes):
        hop = _hop_class(network, src, dst)
        transfer, wire = _edge_costs(network, src, dst, hop, nbytes)
        sizes = np.broadcast_to(nbytes, src.shape)
        edges = list(zip(src.tolist(), dst.tolist(), sizes.tolist()))
        assert transfer.tolist() == [network.p2p_time(*e) for e in edges]
        assert wire.tolist() == [network.wire_time(*e) for e in edges]

    for _mask, leaves, parents in binomial_levels(p):
        for nbytes in (_SYNC_BYTES, _LOSS_BYTES):
            check(leaves, parents, nbytes)
    shard = _build_plan(_cfg(f"{p}-4-16")).shard_bytes
    assert np.unique(shard).size > 1
    check(np.zeros(p - 1, dtype=np.int64), np.arange(1, p, dtype=np.int64), shard)


def test_vector_run_builds_no_mailboxes(monkeypatch):
    """The vector path never exchanges a message, so its communicator
    builds no per-rank inbox."""
    from repro.vmpi.comm import Mailbox

    built = []
    init = Mailbox.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Mailbox, "__init__", counting_init)
    res = _run("16384-4-16", vector=True)
    assert res.execution_path == "vector"
    assert built == []
