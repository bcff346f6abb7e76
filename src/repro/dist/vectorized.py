"""Vectorized SPMD fast path: whole-phase array execution of the trainer.

When every rank runs the same program shape — the synchronous collective
protocol of :mod:`repro.dist.simulated` with no faults, binomial control
trees, and a power-of-two communicator — each step of the trainer's
schedule (built once by ``repro.dist.simulated._schedule`` and walked by
the scalar programs too) is a *homogeneous phase*: a modeled-collective
barrier (4-byte sync reduce + 4-byte go bcast + the schedule's
closed-form transfer charge), a per-worker compute charge, a master
compute charge, a real 16-byte binomial loss reduction, or — with
``overlap_gradient`` — a per-rank exposed-communication charge from the
schedule's bucketed-overlap model.  This module
replays those steps as numpy operations over the per-rank clock vector
— one heap event per phase via :class:`repro.sim.engine.VectorPhase`
instead of O(ranks) generator steps per collective — and reproduces the
scalar scheduler's virtual times, message counts, span totals, and comm
matrices bit for bit (asserted by tests/test_sim_vector.py and gated by
the determinism goldens).

Bit-identity discipline (DESIGN.md §6e):

* every floating-point expression replicates the scalar code's exact
  operation sequence — ``max(t_send + transfer, end_wire) - t_send`` for
  delivery delay, ``(t0 + s) - t0`` for span durations — never an
  algebraically equal rewrite;
* per-edge message costs come from the network model's *own* scalar
  ``p2p_time``/``wire_time``/``injection_time`` calls, evaluated once
  per cost-equivalence class (torus hop count, -1 for same-node, + byte
  count) and gathered back over the edge arrays — the formulas are
  never re-derived in numpy;
* per-rank clock folds follow each rank's program order: the binomial
  tree sweeps process levels in the same ascending (reduce) /
  descending (bcast) mask order the generators execute, and per-edge
  wire-busy state is keyed exactly like the scalar scheduler's
  ``(src, dst)`` map.
"""

# repro: spmd-vectorized  (module-wide: per-rank work is array ops; see DET004)

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.bgq.kernel import CnkNoise
from repro.bgq.network import TorusNetworkModel
from repro.dist.timeline import COMPUTE, P2P, label
from repro.sim.engine import VectorPhase
from repro.vmpi.collectives import binomial_levels
from repro.vmpi.costmodel import UniformNetwork

__all__ = ["run_vectorized", "vector_fallback_reason"]

_SYNC_BYTES = 4
"""Sync/go stub size inside a modeled collective's emergent barrier."""

_LOSS_BYTES = 16
"""Loss payload reduced through the real binomial tree every eval."""


def vector_fallback_reason(cfg: Any, network: Any, trace_p2p: bool) -> str | None:
    """Why the run cannot take the vector fast path, or ``None`` if it can.

    The run is eligible iff it is exactly the homogeneous SPMD protocol
    the vector executor replays bit-identically — including
    ``collective_selection="auto"`` and ``overlap_gradient`` (both
    executors charge the prices and the exposed-comm model of the one
    schedule).  Any failing condition falls back to the per-process scalar
    scheduler; the returned slug labels the
    ``sim.vector.fallback{reason=...}`` counter
    :func:`~repro.dist.simulated.simulate_training` records so silent
    scalar-path regressions are observable (DESIGN.md §6e lists the
    same conditions as an eligibility matrix):

    * ``trace_p2p`` — per-message tracing materializes p2p spans;
    * ``fault_plan`` / ``fault_policy`` — faults and recovery are
      heterogeneous by construction;
    * ``serial_bcast`` — the serial broadcast is a per-rank chain, not
      a tree sweep;
    * ``staged_load`` — the staged relay's leader/member split is
      heterogeneous (master and parallel_io load are vectorizable);
    * ``noise_model`` — anything but :class:`~repro.bgq.kernel.CnkNoise`
      (whose ``perturb`` is the identity and draws nothing from the
      rng) makes per-rank compute charges rng-order-dependent;
    * ``segmented_control`` — ``segment_bytes < 16`` would segment the
      4/16-byte control payloads inside the tree algorithms;
    * ``small_comm`` / ``non_pow2_ranks`` — the theta fast path needs
      ``ranks > 8``, and full tree levels need a power of two;
    * ``theta_not_fast_path`` — ``theta_bytes <= segment_bytes`` makes
      theta collectives execute message-by-message;
    * ``network_model`` — only :class:`TorusNetworkModel` and
      :class:`UniformNetwork` have p2p costs pure in (same-node flag,
      hop count, nbytes), the property the class-representative cost
      tables rely on.
    """
    p = cfg.shape.ranks
    wl = cfg.workload
    if trace_p2p:
        return "trace_p2p"
    if cfg.fault_plan is not None and not cfg.fault_plan.empty:
        return "fault_plan"
    if cfg.fault_policy is not None:
        return "fault_policy"
    if cfg.bcast_algorithm != "binomial":
        return "serial_bcast"
    if cfg.load_data_mode not in ("master", "parallel_io"):
        return "staged_load"
    if type(cfg.noise) is not CnkNoise:
        return "noise_model"
    if cfg.segment_bytes < _LOSS_BYTES:
        return "segmented_control"
    if p <= 8:
        return "small_comm"
    if p & (p - 1):
        return "non_pow2_ranks"
    if wl.theta_bytes <= cfg.segment_bytes:
        return "theta_not_fast_path"
    if type(network) not in (TorusNetworkModel, UniformNetwork):
        return "network_model"
    return None


# ------------------------------------------------------------- cost tables
def _torus_hops(dims: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact torus hop counts between node index arrays ``a`` and ``b``.

    Integer-only replica of ``TorusShape.coords`` + per-dimension ring
    distance; used solely to *classify* edges — the actual costs still
    come from the model's scalar calls.
    """
    total = np.zeros(a.shape, dtype=np.int64)
    rem_a = a.astype(np.int64, copy=True)
    rem_b = b.astype(np.int64, copy=True)
    for d in reversed(dims):
        ca = rem_a % d
        rem_a //= d
        cb = rem_b % d
        rem_b //= d
        diff = np.abs(ca - cb)
        total += np.minimum(diff, d - diff)
    return total


def _hop_class(network: Any, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Cost class of every ``(src, dst)`` edge: the torus hop count, -1
    for a same-node edge; 0 for every edge of the uniform model (tree
    edges never self-send).  Classes lie in ``[-1, sum(dims) // 2]``."""
    if type(network) is UniformNetwork:
        return np.zeros(src.size, dtype=np.int64)
    rpn = network.ranks_per_node
    node_s = src // rpn
    node_d = dst // rpn
    hops = _torus_hops(network.torus.dims, node_s, node_d)
    hops[node_s == node_d] = -1
    return hops


def _edge_costs(
    network: Any, src: np.ndarray, dst: np.ndarray, hop: np.ndarray, nbytes: Any
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge ``(transfer, wire)`` arrays via the model's own scalar calls.

    ``hop`` is :func:`_hop_class` of the edges; both eligible models'
    costs depend only on it and the byte count, so the first edge of
    each ``(hop, nbytes)`` class is priced with ``p2p_time`` /
    ``wire_time`` and the prices are gathered back over the edges.  A
    scalar ``nbytes`` indexes the small hop range directly; a per-edge
    ``nbytes`` array (the load phase) folds its byte class into the key.
    """
    n = hop.size
    sizes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), (n,))
    if np.ndim(nbytes) == 0:
        cls = hop + 1
        first = np.full(int(cls.max()) + 1, -1, dtype=np.int64)
        first[cls[::-1]] = np.arange(n - 1, -1, -1)  # first edge of each class
    else:
        _, byte_cls = np.unique(sizes, return_inverse=True)
        key = byte_cls * (int(hop.max()) + 2) + (hop + 1)
        _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    transfer = np.zeros(first.size, dtype=np.float64)
    wire = np.zeros(first.size, dtype=np.float64)
    for c, j in enumerate(first.tolist()):
        if j >= 0:
            s, d, b = int(src[j]), int(dst[j]), int(sizes[j])
            transfer[c] = network.p2p_time(s, d, b)
            wire[c] = network.wire_time(s, d, b)
    return transfer[cls], wire[cls]


# ----------------------------------------------------------------- executor
class _VectorRun:
    """Precomputed schedule + mutable clock state for one eligible run.

    ``cur[r]`` is rank ``r``'s virtual clock; ``busy_up[r]`` /
    ``busy_dn[r]`` mirror the scalar scheduler's per-``(src, dst)``
    wire-busy map for the one up-tree edge ``(r, parent(r))`` and the one
    down-tree edge ``(parent(r), r)`` each non-root rank owns.
    """

    def __init__(
        self,
        cfg: Any,
        plan: Any,
        sched: Any,
        network: Any,
        comm: Any,
        load_done: list[float],
    ) -> None:
        self.cfg = cfg
        self.plan = plan
        self.network = network
        self.comm = comm
        self.load_done = load_done
        self.tracer = comm.tracer

        p = self.p = cfg.shape.ranks
        self.cur = np.zeros(p, dtype=np.float64)
        self.busy_up = np.zeros(p, dtype=np.float64)
        self.busy_dn = np.zeros(p, dtype=np.float64)

        self.levels = binomial_levels(p)
        # (transfer, wire) per level and payload size, shared by both
        # sweep directions: both models' costs are symmetric in (src, dst).
        # Each level's edges are classified once for both sizes.
        self.cost_sets: tuple[list, list] = ([], [])
        for _m, s, r in self.levels:
            hop = _hop_class(network, s, r)
            self.cost_sets[0].append(_edge_costs(network, s, r, hop, _SYNC_BYTES))
            self.cost_sets[1].append(_edge_costs(network, s, r, hop, _LOSS_BYTES))
        self.inj_sets = [
            network.injection_time(_SYNC_BYTES),
            network.injection_time(_LOSS_BYTES),
        ]

        self.phases: list[Callable[[float], tuple[float, Any]]] = []
        self.phase_labels: list[str] = []
        """One label per phase (the worker-side span label), parallel to
        :attr:`phases`; the executor logs ``(label, end, straggler)``
        per phase so the critical-path pass works at phase granularity
        without leaving the fast path."""
        self.phase_log: list[tuple[str, float, int]] = []
        self.n_barriers = 0
        self.n_loss = 0

        # one phase per schedule step; CnkNoise.perturb is the identity,
        # so every rank's charge is the step's nominal one
        self.phases.append(self._load_phase())
        work_secs = None
        for st in sched.steps:
            kind = st.kind
            if kind == "work":
                work_secs = st.secs
                self._add_compute_workers(work_secs, st.worker_label)
            elif kind == "master":
                self._add_compute_master(st.secs, st.master_label)
            elif kind == "loss":
                self._add_loss_reduce(st.master_label)
            else:  # bcast, reduce or grad: a modeled-collective barrier
                op = "bcast" if kind == "bcast" else "reduce"
                algo, cost = sched.bcast if kind == "bcast" else sched.reduce
                if kind == "grad":
                    # bucketed pipeline: each rank's exposed communication,
                    # priced once per unique gradient time and gathered back
                    uniq, inv = np.unique(work_secs, return_inverse=True)
                    algo = sched.grad_algo
                    cost = np.empty(p, dtype=np.float64)
                    cost[0] = st.secs
                    cost[1:] = np.array(
                        [sched.exposed(float(g)) for g in uniq], dtype=np.float64
                    )[inv]
                self._add_barrier(op, algo, cost, st.master_label, st.worker_label)

    # ---------------------------------------------------------- tree kernels
    def up_sweep(self, cost_idx: int) -> None:
        """Ascending-mask reduce sweep; each rank sends to its parent at
        the level of its lowest set bit, exactly the order
        ``_reduce_once`` executes."""
        cur, busy = self.cur, self.busy_up
        inj = self.inj_sets[cost_idx]
        for (_m, leaves, parents), (transfer, wire) in zip(
            self.levels, self.cost_sets[cost_idx]
        ):
            self._level(cur, busy, leaves, parents, leaves, transfer, wire, inj)

    def down_sweep(self, cost_idx: int) -> None:
        """Descending-mask bcast sweep: each parent sends to its children
        in descending-mask order, as ``_bcast_once`` does."""
        cur, busy = self.cur, self.busy_dn
        inj = self.inj_sets[cost_idx]
        for (_m, leaves, parents), (transfer, wire) in zip(
            reversed(self.levels), reversed(self.cost_sets[cost_idx])
        ):
            self._level(cur, busy, parents, leaves, leaves, transfer, wire, inj)

    @staticmethod
    def _level(
        cur: np.ndarray,
        busy: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        edge_key: np.ndarray,
        transfer: np.ndarray,
        wire: np.ndarray,
        inj: float,
    ) -> None:
        """One tree level, replicating the scalar send path float-for-float:
        ``_delivery_delay``'s wire-busy fold, arrival as
        ``t_send + max(delay, injection)``, sender charged the injection,
        receiver resumed at ``max(clock, arrival)``."""
        t_send = cur[senders]
        start = np.maximum(busy[edge_key], t_send)
        end_wire = start + wire
        busy[edge_key] = end_wire
        delay = np.maximum(t_send + transfer, end_wire) - t_send
        arrival = t_send + np.maximum(delay, inj)
        cur[senders] = t_send + inj
        cur[receivers] = np.maximum(cur[receivers], arrival)

    # --------------------------------------------------------- phase builders
    def _end(self) -> tuple[float, Any]:
        return float(self.cur.max()), None

    def _load_phase(self) -> Callable[[float], tuple[float, Any]]:
        cfg = self.cfg
        if cfg.load_data_mode == "parallel_io":
            io_secs = float(self.plan.shard_bytes.sum()) / cfg.io_aggregate_bandwidth
            lbl = label(COMPUTE, "load_data")
            self.phase_labels.append(lbl)

            def run_io(_now: float) -> tuple[float, Any]:
                cur = self.cur
                new = cur[1:] + io_secs
                d = new - cur[1:]
                cur[1:] = new
                if self.tracer is not None:
                    self.tracer.add_bulk(lbl, 1, d)
                self.load_done[0] = 0.0
                return self._end()

            return run_io

        lbl = label(P2P, "load_data")
        self.phase_labels.append(lbl)

        def run_master(_now: float) -> tuple[float, Any]:
            p = self.p
            network = self.network
            shard = self.plan.shard_bytes
            dst = np.arange(1, p, dtype=np.int64)
            src = np.zeros(p - 1, dtype=np.int64)
            uniq, inv = np.unique(shard, return_inverse=True)
            injs = np.array(
                [network.injection_time(int(b)) for b in uniq], dtype=np.float64
            )[inv]
            # the master's clock is the left fold of the injection times
            # (ctx.send yields each one); cumsum IS that left fold
            csum = np.cumsum(injs)
            t_send = np.concatenate(([0.0], csum[:-1]))
            hop = _hop_class(network, src, dst)
            transfer, wire = _edge_costs(network, src, dst, hop, shard)
            end_wire = t_send + wire  # first use of every (0, w) pair
            delay = np.maximum(t_send + transfer, end_wire) - t_send
            arrival = t_send + np.maximum(delay, injs)
            cur = self.cur
            cur[0] = csum[-1]
            cur[1:] = arrival
            # the load send seeds wire-busy on (0, w); only the root's
            # tree children (power-of-two w) ever reuse that edge
            pow2 = (dst & (dst - 1)) == 0
            self.busy_dn[dst[pow2]] = end_wire[pow2]
            if self.tracer is not None:
                self.tracer.add_bulk(lbl, 0, cur.copy())  # spans start at 0.0
            self.load_done[0] = float(cur[0])
            return self._end()

        return run_master

    def _add_barrier(
        self,
        op: str,
        algo: str,
        cost: float | np.ndarray,
        lbl_master: str,
        lbl_worker: str,
    ) -> None:
        """Modeled-collective phase: binomial sync/go stub sweeps plus the
        closed-form transfer charge — a scalar (same charge on every
        rank) or a per-rank vector (the overlap pipeline's exposed-comm
        charges, zero where a rank's compute hides everything — adding
        0.0 is exactly the scalar path's skipped charge)."""
        self.n_barriers += 1
        self.phase_labels.append(lbl_worker)
        if isinstance(cost, np.ndarray):
            addc = cost if cost.any() else None
        else:
            addc = float(cost) if cost > 0 else None

        def run(_now: float) -> tuple[float, Any]:
            cur = self.cur
            coll = self.comm.coll_stats
            t0 = cur.copy()
            self.up_sweep(0)
            if coll is not None:
                coll.on_bulk("reduce", "binomial", cur - t0)
                t1 = cur.copy()
            self.down_sweep(0)
            if coll is not None:
                coll.on_bulk("bcast", "binomial", cur - t1)
            if addc is not None:
                cur += addc
            d = cur - t0
            if self.tracer is not None:
                if lbl_master == lbl_worker:
                    self.tracer.add_bulk(lbl_master, 0, d)
                else:
                    self.tracer.add_bulk(lbl_master, 0, d[:1])
                    self.tracer.add_bulk(lbl_worker, 1, d[1:])
            if coll is not None:
                coll.on_bulk(op, algo, d)
            return self._end()

        self.phases.append(run)

    def _add_loss_reduce(self, lbl: str) -> None:
        self.n_loss += 1
        self.phase_labels.append(lbl)

        def run(_now: float) -> tuple[float, Any]:
            cur = self.cur
            t0 = cur.copy()
            self.up_sweep(1)
            d = cur - t0
            if self.tracer is not None:
                self.tracer.add_bulk(lbl, 0, d)
            coll = self.comm.coll_stats
            if coll is not None:
                coll.on_bulk("reduce", "binomial", d)
            return self._end()

        self.phases.append(run)

    def _add_compute_workers(self, secs: np.ndarray, lbl: str) -> None:
        self.phase_labels.append(lbl)

        def run(_now: float) -> tuple[float, Any]:
            cur = self.cur
            old = cur[1:].copy()
            cur[1:] += secs
            d = cur[1:] - old
            if self.tracer is not None:
                self.tracer.add_bulk(lbl, 1, d)
            return self._end()

        self.phases.append(run)

    def _add_compute_master(self, secs: float, lbl: str) -> None:
        self.phase_labels.append(lbl)

        def run(_now: float) -> tuple[float, Any]:
            cur = self.cur
            c0 = cur[0]
            new = c0 + secs
            cur[0] = new
            if self.tracer is not None:
                self.tracer.add_bulk(lbl, 0, np.array([new - c0]))
            return self._end()

        self.phases.append(run)

    # --------------------------------------------------------------- run/stats
    def execute(self) -> float:
        engine = self.comm.engine
        if self.tracer is not None:
            self.tracer.register_bulk(self.comm._rank_names)
        log = self.phase_log
        cur = self.cur

        def driver():
            for fn, lbl in zip(self.phases, self.phase_labels):
                yield VectorPhase(fn)
                # phase-granular dependency edge: when the phase ended and
                # which rank's clock set that end (the straggler) — the
                # aggregate critical path the obs layer walks instead of
                # per-rank spans (which the fast path never materialises)
                log.append((lbl, float(cur.max()), int(cur.argmax())))

        engine.process(driver(), name="vector")
        end = engine.run()
        self._final_stats()
        self.comm.set_rank_finish_times(cur)
        return float(end)

    def _final_stats(self) -> None:
        """Aggregate message accounting, exactly what the scalar path would
        have counted send by send."""
        p = self.p
        edges = p - 1
        msgs = edges * (2 * self.n_barriers + self.n_loss)
        nbytes = edges * (
            _SYNC_BYTES * 2 * self.n_barriers + _LOSS_BYTES * self.n_loss
        )
        loaded = self.cfg.load_data_mode == "master"
        if loaded:
            msgs += edges
            nbytes += int(self.plan.shard_bytes.sum())
        self.comm.bulk_account(msgs, nbytes)
        stats = self.comm.comm_stats
        if stats is None:
            return
        if loaded:
            stats.on_bulk(
                np.zeros(edges, dtype=np.int64),
                np.arange(1, p, dtype=np.int64),
                self.plan.shard_bytes,
                1,
            )
        for _m, leaves, parents in self.levels:
            stats.on_bulk(leaves, parents, _SYNC_BYTES, self.n_barriers)
            stats.on_bulk(parents, leaves, _SYNC_BYTES, self.n_barriers)
            if self.n_loss:
                stats.on_bulk(leaves, parents, _LOSS_BYTES, self.n_loss)


def run_vectorized(
    cfg: Any,
    plan: Any,
    sched: Any,
    network: Any,
    comm: Any,
    load_done: list[float],
) -> tuple[float, list[tuple[str, float, int]]]:
    """Execute one eligible SPMD run on the vector fast path, one phase
    per step of the trainer's schedule (``sched``, built by
    :func:`repro.dist.simulated._schedule`).

    Returns ``(virtual end time, phase log)`` where the end time equals
    ``Engine.finish_time`` and the phase log holds one
    ``(label, end, straggler_rank)`` entry per executed phase — the
    aggregate-level dependency chain the critical-path pass consumes.
    """
    run = _VectorRun(cfg, plan, sched, network, comm, load_done)
    return run.execute(), run.phase_log
