"""In-memory span recording around the program's public layer boundaries.

The traced run wraps public functions and methods of each layer with a
recorder: every call becomes a span carrying its name, start, end, the
span that was open on the same thread when it began (its parent), the
thread, and the repetition it belongs to.  Spans stay in memory; the
runner writes them out at exit.  Nothing under ``src/`` changes: the
wrappers are installed by assignment on the module or class that owns the
name and restored afterwards, so untraced repetitions run the original
code.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover (the union of the child intervals, so
children that overlap in time on different threads are not counted
twice).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["Span", "SpanRecorder", "WRAP_TARGETS", "descendants", "layer_totals", "self_times"]


@dataclass
class Span:
    """One recorded call at a layer boundary."""

    id: int
    parent: int | None
    rep: int
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        """Wall seconds between entry and exit."""
        return self.end - self.start


# (module path, attribute path, span name).  A function imported by name
# into another module is listed once per binding that the workloads call
# through; class attributes are patched once on the class.
WRAP_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.dist.simulated", "simulate_training", "dist.simulated"),
    ("repro.dist.simulated", "balanced_partition", "dist.partition"),
    ("repro.dist.partition", "balanced_partition", "dist.partition"),
    ("repro.vmpi.comm", "VComm.__init__", "vmpi.comm.init"),
    ("repro.dist.vectorized", "run_vectorized", "dist.vectorized"),
    ("repro.sim.engine", "Engine.run", "sim.engine"),
    ("repro.nn.network", "DNN.forward", "nn.forward"),
    ("repro.nn.network", "DNN.backprop", "nn.backprop"),
    ("repro.nn.network", "DNN.r_forward", "nn.r_forward"),
    ("repro.hf.optimizer", "HessianFreeOptimizer.run", "hf.optimizer"),
    ("repro.hf.optimizer", "cg_minimize", "hf.cg"),
    ("repro.dist.threaded", "train_threaded_hf", "dist.threaded"),
    ("repro.vmpi.inprocess", "ThreadRankComm.recv", "vmpi.inprocess.recv"),
    ("repro.serve.scenario", "simulate_serving", "serve.simulate"),
    ("repro.serve.scenario", "generate_arrivals", "serve.arrivals"),
    ("repro.serve.cost", "DecodeCostModel.batch_seconds", "serve.cost"),
)


class SpanRecorder:
    """Collects spans from wrapped calls on any thread.

    ``on_exit`` hooks, keyed by span name, run with the wrapped call's
    ``self`` (or first argument) just before the span closes — the runner
    uses one to reach the communicators a run creates (and attach its
    metrics registry to their engines) without touching the program's
    code.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rep = 0
        self.on_exit: dict[str, Callable[[Any], None]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[int, int | None, float]:
        """Start a span on the calling thread; returns its handle."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, name: str, handle: tuple[int, int | None, float]) -> None:
        """Finish the span ``handle`` opened."""
        end = time.perf_counter()
        sid, parent, start = handle
        self._stack().pop()
        span = Span(sid, parent, self.rep, name, start, end, threading.get_ident())
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around a block; yields the span's id."""
        handle = self.open(name)
        try:
            yield handle[0]
        finally:
            self.close(name, handle)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span recorded around every call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            handle = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                hook = recorder.on_exit.get(name)
                if hook is not None and args:
                    hook(args[0])
                recorder.close(name, handle)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Patch every :data:`WRAP_TARGETS` entry for the block."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for module_name, attr_path, span_name in WRAP_TARGETS:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = (
                    owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def rep_spans(self, rep: int) -> list[Span]:
        """Spans recorded during repetition ``rep``."""
        return [s for s in self.spans if s.rep == rep]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self seconds of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def descendants(spans: list[Span], root: int) -> list[Span]:
    """Spans below ``root`` in the parent tree (not ``root`` itself)."""
    kids: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    out: list[Span] = []
    todo = [root]
    while todo:
        for child in kids.get(todo.pop(), []):
            out.append(child)
            todo.append(child.id)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``busy_s``.

    ``busy_s`` sums the durations of the outermost spans of each name
    (a span nested inside another of the same name on the same call
    chain is already covered by its ancestor), so re-entrant calls are
    not double counted.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "self_s": 0.0, "busy_s": 0.0}
    )
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        anc = s.parent
        nested = False
        while anc is not None and anc in by_id:
            if by_id[anc].name == s.name:
                nested = True
                break
            anc = by_id[anc].parent
        if not nested:
            row["busy_s"] += s.duration
    return dict(out)

