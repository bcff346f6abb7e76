"""Repo-wide pytest configuration: lint gate ahead of the suite.

The static rank-program verifier (``repro lint``) is cheap (< 1 s over
the whole tree) and every rule it carries encodes a bug class that once
cost a debugging session — so the tier-1 flow runs it before any test.
A finding fails the session immediately rather than letting a green
suite mask, say, a nondeterministic collective schedule.

Set ``REPRO_SKIP_LINT=1`` to bypass (e.g. while iterating on code that
is mid-refactor and known-dirty), or ``REPRO_LINT_SELECT=DET001,VMPI002``
to run only specific rules (same syntax as ``repro lint --select``).

The gate carries the content-hash lint cache
(``.repro_lint_cache.json`` at the repo root): unchanged files replay
their cached verdicts, so back-to-back pytest runs only re-analyze
edited files.  The cache is keyed by a hash of the analyzer itself —
editing any rule invalidates it wholesale.  ``REPRO_LINT_NO_CACHE=1``
disables it.
"""

from __future__ import annotations

import os

import pytest

LINT_PATHS = ["src", "examples", "benchmarks", "perfbench"]
"""Mirrors the ``repro lint`` default path set."""


def lint_select_from_env() -> list[str] | None:
    """Rule ids from ``REPRO_LINT_SELECT`` (comma-separated), or None."""
    raw = os.environ.get("REPRO_LINT_SELECT", "")
    ids = [r.strip() for r in raw.split(",") if r.strip()]
    return ids or None


def pytest_sessionstart(session: pytest.Session) -> None:
    if os.environ.get("REPRO_SKIP_LINT") == "1":
        return
    root = session.config.rootpath
    paths = [str(root / p) for p in LINT_PATHS if (root / p).exists()]
    if not paths:
        return
    from repro.analysis import LintCache, lint_paths

    select = lint_select_from_env()
    cache = (
        None
        if os.environ.get("REPRO_LINT_NO_CACHE") == "1"
        else LintCache.default(root, select)
    )
    report = lint_paths(paths, rule_ids=select, cache=cache)
    if cache is not None:
        cache.save()
    if report.exit_code:
        print(report.render_text())
        pytest.exit(
            f"repro lint found {len(report.findings)} finding(s); "
            "fix them or rerun with REPRO_SKIP_LINT=1",
            returncode=1,
        )
