"""Smoke test of the benchmark at tiny size.

Run from the repository root::

    python3 perfbench/smoke.py

It checks, in about a minute, that

* every workload runs, untraced and traced, at the default seed and at a
  held-out one, and passes every output check;
* every metric named in ``BENCHMARK.json`` is emitted, with its unit,
  and ``BENCHMARK.json`` agrees with the catalogue in ``metrics.py``;
* a corrupted kept fingerprint makes the command fail;
* without the program's sources next to it, the command exits non-zero
  and prints no result;
* ``repro lint`` finds nothing in the benchmark's files.

Exit code 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from fingerprints import EXPECTED  # noqa: E402
from metrics import E2E, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HELD_OUT_SEED = 1234


def invoke(workload: str, seed: int, trace: int, fingerprints=None) -> tuple[int, dict | None, str]:
    """Run the benchmark in-process at tiny size; (exit code, result, stdout)."""
    buf = io.StringIO()
    argv = [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
        "--trace", str(trace), "--size", "tiny",
    ]
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, fingerprints=fingerprints)
    out = buf.getvalue()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return code, result, out


def check_benchmark_json(failures: list[str]) -> dict:
    """``BENCHMARK.json`` lists exactly the catalogue's metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in E2E
    ]
    want_layer = [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    if bench["end_to_end"] != want_e2e:
        failures.append("BENCHMARK.json end_to_end differs from metrics.E2E")
    if bench["per_layer"] != want_layer:
        failures.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return bench


def check_runs(bench: dict, failures: list[str]) -> None:
    """Every workload, both trace modes, default and held-out seed."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in bench[key]}
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                code, result, out = invoke(workload, seed, trace)
                tag = f"{workload} seed={seed} trace={trace}"
                if code != 0 or result is None or not result["correct"]:
                    failures.append(f"{tag}: exit {code}\n{out[-1500:]}")
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != names:
                    failures.append(f"{tag}: metrics {sorted(got)} != {sorted(names)}")
                print(f"ok  {tag}: {result['attempted']} repetitions")


def check_corrupted_fingerprints(failures: list[str]) -> None:
    """A kept fingerprint that no longer matches fails the command."""
    corruptions = {
        "sim_vector_262k": ("virtual_finish", lambda v: v + 1e-9),
        "sim_faults_1k": ("recoveries", lambda v: v + 1),
        "hf_real_math": ("heldout_trajectory", lambda v: [x * 1.001 for x in v]),
        "serve_2048": ("completed", lambda v: v - 1),
    }
    for workload, (key, corrupt) in corruptions.items():
        bad = copy.deepcopy(EXPECTED)
        bad["tiny"][workload][key] = corrupt(bad["tiny"][workload][key])
        code, result, _ = invoke(workload, DEFAULT_SEED, 0, fingerprints=bad)
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            failures.append(f"{workload}: corrupted {key} did not fail the run")
        else:
            print(f"ok  {workload}: corrupted {key} fails the run")


def check_without_sources(failures: list[str]) -> None:
    """Only ``BENCHMARK.json`` and the benchmark: non-zero, no result."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sim_faults_1k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok  without sources: exit {proc.returncode}, no result printed")


def check_lint(failures: list[str]) -> None:
    """``repro lint`` over the benchmark's files."""
    from repro.analysis import lint_paths

    report = lint_paths([str(HERE)])
    if report.exit_code:
        failures.append("repro lint:\n" + report.render_text())
    else:
        print("ok  repro lint: clean")


def main() -> int:
    """Run every smoke check; 0 if all pass."""
    failures: list[str] = []
    bench = check_benchmark_json(failures)
    check_runs(bench, failures)
    check_corrupted_fingerprints(failures)
    check_without_sources(failures)
    check_lint(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("smoke: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
