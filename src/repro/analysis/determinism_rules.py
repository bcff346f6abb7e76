"""Determinism rules.

The paper's "no loss in accuracy" parity experiments require the
distributed run to be bit-identical to the serial reference; that breaks
the moment any component draws entropy outside the seeded
``util.rng.spawn`` tree or folds floats in a container-dependent order.
These rules skip files under a ``tests/`` directory — pytest modules
seed literal generators by design.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterable

from repro.analysis.astutil import (
    ModuleContext,
    dotted_name,
    is_ctx_comm_call,
    walk_excluding_nested_defs,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, RuleInfo, register

__all__ = [
    "DirectRngRule",
    "UnorderedReductionRule",
    "WallClockRule",
    "SpmdRankLoopRule",
]


def _in_tests_dir(path: str) -> bool:
    return "tests" in PurePath(path).parts


_RNG_MODULES = ("np.random", "numpy.random")


@register
class DirectRngRule(Rule):
    """DET001: RNG constructed outside the seeded ``util.rng`` tree.

    ``np.random.default_rng()``, legacy ``np.random.*`` draws, and the
    stdlib ``random`` module all create entropy streams that are not
    derived from the run seed — a distributed worker using one will not
    reproduce the serial reference.  Use ``repro.util.rng.spawn(seed,
    *stream_labels)`` (or ``make_rng`` for an explicit seed handoff).
    """

    info = RuleInfo(
        id="DET001",
        name="direct-rng",
        severity=Severity.WARNING,
        rationale="entropy outside util.rng.spawn breaks serial/distributed "
        "bitwise parity",
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not _in_tests_dir(ctx.path)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if any(
                name == mod or name.startswith(mod + ".")
                for mod in _RNG_MODULES
            ):
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"direct numpy RNG use ({name}); stream is not derived "
                    "from the run seed",
                    hint="use repro.util.rng.spawn(seed, *labels) instead",
                )
            elif name.startswith("random."):
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"stdlib random module use ({name}) is unseeded global "
                    "state",
                    hint="use repro.util.rng.spawn(seed, *labels) instead",
                )


def _is_unordered_expr(expr: ast.expr) -> bool:
    """Set displays/comprehensions and ``set(...)`` calls — containers
    whose iteration order is hash-dependent."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        fn = expr.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return True
        name = dotted_name(fn)
        if name is not None and name.endswith((".keys", ".values", ".items")):
            # dict views iterate in insertion order, which *differs per
            # rank* when entries arrive in message order — hazardous as
            # direct input to a float fold.
            return True
    return False


_FOLD_FUNCTIONS = frozenset({"sum", "fsum", "reduce"})


@register
class UnorderedReductionRule(Rule):
    """DET002: float reduction fed by an unordered container.

    ``sum`` over a set (or a per-rank-insertion-ordered dict view) folds
    floats in an order the program does not control; two ranks holding
    equal values can produce different rounded sums, and the divergence
    is silent until a parity check fails.  Sort the inputs (rank order)
    before folding.
    """

    info = RuleInfo(
        id="DET002",
        name="unordered-reduction",
        severity=Severity.WARNING,
        rationale="float folds over unordered containers are not "
        "reproducible across ranks",
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not _in_tests_dir(ctx.path)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            is_fold = (
                isinstance(fn, ast.Name) and fn.id in _FOLD_FUNCTIONS
            ) or (
                isinstance(fn, ast.Attribute) and fn.attr in _FOLD_FUNCTIONS
            )
            if not is_fold or not node.args:
                continue
            arg = node.args[0]
            source = arg
            if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                source = arg.generators[0].iter
            if _is_unordered_expr(source):
                yield self.finding(
                    ctx,
                    node.lineno,
                    "float fold over an unordered container; summation "
                    "order is not reproducible",
                    hint="fold over sorted(...) or an explicitly "
                    "rank-ordered sequence",
                )


_WALLCLOCK_DOTTED = frozenset(
    {
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today", "date.today",
    }
)

_WALLCLOCK_BARE = frozenset(
    {
        # `from time import perf_counter`-style imports; bare `time` is
        # too ambiguous to match (any callable could be named that)
        "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "time_ns",
    }
)

_DES_DIRS = frozenset({"sim", "vmpi"})
"""Package directories whose code runs *under* the discrete-event
engine; every module there lives on virtual time."""


@register
class WallClockRule(Rule):
    """DET003: wall-clock reads inside DES-driven code paths.

    The simulator's entire output is a function of virtual time
    (``ctx.now`` / the engine clock); a ``time.time()`` or
    ``perf_counter()`` read inside the DES core or inside a rank
    program leaks host wall-clock into results that must be
    machine-independent — two runs of the same seed stop agreeing the
    moment a timestamp lands in a payload or a span.  Harness-side
    benchmarking code (which *measures* the simulator from outside) is
    legal and out of scope.
    """

    info = RuleInfo(
        id="DET003",
        name="wall-clock-in-des",
        severity=Severity.WARNING,
        rationale="wall-clock reads inside DES-driven code make results "
        "host-dependent; only simulated time (ctx.now) is legal there",
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not _in_tests_dir(ctx.path)

    @staticmethod
    def _in_des_dir(path: str) -> bool:
        return bool(_DES_DIRS.intersection(PurePath(path).parts))

    @staticmethod
    def _rank_programs(ctx: ModuleContext) -> set[ast.AST]:
        """Generator functions that perform vmpi communication — the
        functions the DES engine drives on virtual time."""
        out: set[ast.AST] = set()
        for fn in ctx.generator_functions:
            for node in walk_excluding_nested_defs(fn):
                if isinstance(node, ast.Call) and is_ctx_comm_call(node):
                    out.add(fn)
                    break
        return out

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Flag wall-clock reads in DES packages or rank programs."""
        whole_module = self._in_des_dir(ctx.path)
        programs = None if whole_module else self._rank_programs(ctx)
        if not whole_module and not programs:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name not in _WALLCLOCK_DOTTED and name not in _WALLCLOCK_BARE:
                continue
            if not whole_module:
                fn = ctx.enclosing_function(node)
                covered = False
                while fn is not None:
                    if fn in programs:  # type: ignore[operator]
                        covered = True
                        break
                    fn = ctx.enclosing_function(fn)
                if not covered:
                    continue
            yield self.finding(
                ctx,
                node.lineno,
                f"wall-clock read ({name}) inside DES-driven code; only "
                "simulated time is legal here",
                hint="use ctx.now / the engine clock, or hoist the "
                "measurement into the harness",
            )


_SPMD_MARKER = "# repro: spmd-vectorized"
"""Marker comment declaring code SPMD-vectorizable: every rank executes
the same program there, so per-rank state must live in arrays and
per-rank work in array operations.  Inside a function (or directly above
its ``def``) the marker scopes to that function; at module level it
scopes to the whole file."""

_RANK_COUNT_NAMES = frozenset(
    {"ranks", "size", "nranks", "n_ranks", "num_ranks", "world_size"}
)
"""Trailing attribute/name segments that denote a rank count (for
``range(...)`` bounds) or a rank collection (for direct iteration)."""


@register
class SpmdRankLoopRule(Rule):
    """DET004: per-rank Python loop inside SPMD-vectorized code.

    The vector fast path exists because interpreting one Python step per
    rank is what caps the simulator at a few thousand ranks; a region
    marked ``# repro: spmd-vectorized`` promises that per-rank work is
    expressed as numpy operations over the rank axis (the marked code
    may still loop over tree *levels* or cost *classes* — those are
    O(log p) and O(classes), not O(p)).  A ``for r in range(engine.ranks)``
    reintroduces the O(p) interpreter cost the marker claims is absent.
    """

    info = RuleInfo(
        id="DET004",
        name="per-rank-loop-in-spmd",
        severity=Severity.WARNING,
        rationale="scalar per-rank loops inside SPMD-vectorized regions "
        "defeat the fast path's sub-O(p) event count",
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not _in_tests_dir(ctx.path) and _SPMD_MARKER in ctx.source

    @staticmethod
    def _per_rank_iter(it: ast.expr) -> str | None:
        """Display name when ``it`` iterates per rank, else None."""
        name = dotted_name(it)
        if name is not None and name.split(".")[-1] == "ranks":
            return name
        if isinstance(it, ast.Call):
            fn = it.func
            if isinstance(fn, ast.Name) and fn.id == "range":
                for arg in it.args:
                    n = dotted_name(arg)
                    if n is not None and n.split(".")[-1] in _RANK_COUNT_NAMES:
                        return f"range({n})"
        return None

    @staticmethod
    def _marked_regions(
        ctx: ModuleContext,
    ) -> tuple[bool, set[ast.AST]]:
        """Resolve markers: ``(module_wide, marked_functions)``.

        A marker line inside a function's span marks the innermost such
        function; a marker directly above a ``def`` (or its first
        decorator) marks that function; anywhere else it marks the whole
        module.
        """
        functions = [
            fn
            for fn in ast.walk(ctx.tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        module_wide = False
        marked: set[ast.AST] = set()
        for i, line in enumerate(ctx.source.splitlines()):
            if _SPMD_MARKER not in line:
                continue
            lineno = i + 1
            inner = None
            for fn in functions:
                end = getattr(fn, "end_lineno", fn.lineno)
                if fn.lineno <= lineno <= end:
                    if inner is None or fn.lineno > inner.lineno:
                        inner = fn
            if inner is None:
                for fn in functions:
                    start = min(
                        [d.lineno for d in fn.decorator_list] + [fn.lineno]
                    )
                    if start == lineno + 1:
                        inner = fn
                        break
            if inner is not None:
                marked.add(inner)
            else:
                module_wide = True
        return module_wide, marked

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Flag per-rank ``for`` loops inside marked regions."""
        module_wide, marked = self._marked_regions(ctx)
        roots: Iterable[ast.AST] = [ctx.tree] if module_wide else marked
        seen: set[ast.AST] = set()
        for root in roots:
            for node in ast.walk(root):
                if not isinstance(node, ast.For) or node in seen:
                    continue
                seen.add(node)
                name = self._per_rank_iter(node.iter)
                if name is None:
                    continue
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"per-rank Python loop (over {name}) inside "
                    "SPMD-vectorized code; the fast path requires array "
                    "ops over the rank axis",
                    hint="vectorize with numpy over the rank axis, or "
                    "drop the spmd-vectorized marker for this region",
                )
